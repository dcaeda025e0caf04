#include "spice/matrix.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "trace/trace.hpp"

namespace sfc::spice {

namespace {

/// Pivot floor shared by the dense and sparse factorizations.
constexpr double kTinyPivot = 1e-300;
/// Markowitz candidates must reach this fraction of their column maximum.
constexpr double kPivotThreshold = 0.1;
/// A replayed pivot below this fraction of its column maximum re-chooses
/// the order. With 1e-3 the 8-32 cell MAC cycles re-order ~100 times per
/// benchmark pass, need 8-37 % more Newton iterations and some fail to
/// converge; with 1e-6 they never re-order.
constexpr double kReorderThreshold = 1e-6;

/// Shared real/complex LU factor-and-solve core: partial pivoting, in-place
/// factorization, forward elimination of b fused into the sweep, back
/// substitution.
template <typename T>
bool lu_core(DenseMatrixT<T>& a, std::vector<T>& b) {
  const std::size_t n = a.rows();
  assert(a.cols() == n);
  assert(b.size() == n);
  if (n == 0) return true;

  for (std::size_t k = 0; k < n; ++k) {
    // Pivot search in column k.
    std::size_t pivot_row = k;
    double pivot_mag = std::abs(a.at(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double mag = std::abs(a.at(r, k));
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = r;
      }
    }
    if (pivot_mag < kTinyPivot) return false;
    if (pivot_row != k) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(a.at(k, c), a.at(pivot_row, c));
      }
      std::swap(b[k], b[pivot_row]);
    }
    const T pivot = a.at(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const T factor = a.at(r, k) / pivot;
      if (factor == T{}) continue;
      a.at(r, k) = T{};
      for (std::size_t c = k + 1; c < n; ++c) {
        a.at(r, c) -= factor * a.at(k, c);
      }
      b[r] -= factor * b[k];
    }
  }

  // Back substitution.
  for (std::size_t ri = n; ri-- > 0;) {
    T sum = b[ri];
    for (std::size_t c = ri + 1; c < n; ++c) sum -= a.at(ri, c) * b[c];
    b[ri] = sum / a.at(ri, ri);
  }
  return true;
}

}  // namespace

bool lu_solve(DenseMatrix& a, std::vector<double>& b) { return lu_core(a, b); }

bool lu_solve(ComplexMatrix& a, std::vector<std::complex<double>>& b) {
  return lu_core(a, b);
}

DenseMatrix dense_from_compact(std::size_t n, const std::vector<int>& pattern,
                               const std::vector<double>& values) {
  assert(values.size() == pattern.size());
  DenseMatrix a(n, n);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    a.data()[pattern[i]] = values[i];
  }
  return a;
}

bool LuPlan::solve(const std::vector<double>& values,
                   const std::vector<int>& pattern, std::vector<double>& x) {
  const std::size_t n = x.size();
  assert(values.size() == pattern.size());
  if (!valid() || !factor(values)) {
    if (valid()) ++refreezes_;
    if (!choose_order(values, pattern, n) || !factor(values)) {
      reset();
      return false;
    }
  }

  // Forward substitution with unit-lower L, back substitution with U, in
  // step coordinates.
  const double* v = vals_.data();
  for (std::size_t k = 0; k < n; ++k) {
    y_[k] = x[static_cast<std::size_t>(row_of_[k])];
  }
  for (std::size_t k = 0; k < n; ++k) {
    const double yk = y_[k];
    if (yk == 0.0) continue;
    for (int p = start_[k] + 1; p < ustart_[k]; ++p) {
      y_[static_cast<std::size_t>(idx_[p])] -= v[p] * yk;
    }
  }
  for (std::size_t k = n; k-- > 0;) {
    double sum = y_[k];
    for (int p = ustart_[k]; p < start_[k + 1]; ++p) {
      sum -= v[p] * y_[static_cast<std::size_t>(idx_[p])];
    }
    y_[k] = sum / v[start_[k]];
  }
  for (std::size_t k = 0; k < n; ++k) {
    x[static_cast<std::size_t>(col_of_[k])] = y_[k];
  }
  return true;
}

bool LuPlan::factor(const std::vector<double>& values) {
  for (const int p : fill_) vals_[p] = 0.0;
  for (std::size_t i = 0; i < gather_.size(); ++i) vals_[gather_[i]] = values[i];

  double* v = vals_.data();
  const int* dst = op_dst_.data();
  for (std::size_t k = 0; k < n_; ++k) {
    const int l0 = start_[k] + 1;
    const int u0 = ustart_[k];
    const int u1 = start_[k + 1];
    const double pivot = v[start_[k]];
    double col_max = std::fabs(pivot);
    for (int p = l0; p < u0; ++p) col_max = std::max(col_max, std::fabs(v[p]));
    const double mag = std::fabs(pivot);
    // Negated so a NaN pivot also fails.
    if (!(mag >= kReorderThreshold * col_max && mag >= kTinyPivot)) {
      return false;
    }
    for (int p = l0; p < u0; ++p) {
      const double l = v[p] / pivot;
      v[p] = l;
      if (l == 0.0) {
        dst += u1 - u0;
        continue;
      }
      for (int q = u0; q < u1; ++q) v[*dst++] -= l * v[q];
    }
  }
  return true;
}

bool LuPlan::choose_order(const std::vector<double>& values,
                          const std::vector<int>& pattern, std::size_t n) {
  SFC_TRACE_COUNT("spice.lu.factorizations", 1);
  reset();
  row_of_.assign(n, 0);
  col_of_.assign(n, 0);

  // Markowitz elimination on a scratch copy. `slot` maps every flat index
  // to its entry in `w` (-1 = structurally zero); it tracks structure:
  // fill is recorded whenever it is possible, whatever its value, so the
  // compiled schedule holds for every matrix with this pattern.
  std::vector<int> slot(n * n, -1);
  {
    std::vector<double> w(values);
    for (std::size_t i = 0; i < pattern.size(); ++i) {
      slot[static_cast<std::size_t>(pattern[i])] = static_cast<int>(i);
    }
    std::vector<std::size_t> rows(n), cols(n);  // active rows / columns
    for (std::size_t i = 0; i < n; ++i) rows[i] = cols[i] = i;
    std::vector<std::size_t> row_count(n), col_count(n);
    std::vector<double> col_max(n);
    for (std::size_t k = 0; k < n; ++k) {
      std::fill(row_count.begin(), row_count.end(), 0);
      std::fill(col_count.begin(), col_count.end(), 0);
      std::fill(col_max.begin(), col_max.end(), 0.0);
      for (const std::size_t r : rows) {
        for (const std::size_t c : cols) {
          const int e = slot[r * n + c];
          if (e < 0) continue;
          ++row_count[r];
          ++col_count[c];
          col_max[c] = std::max(col_max[c], std::fabs(w[e]));
        }
      }
      // Lowest Markowitz cost; ties go to the entry largest relative to
      // its column, then to the first found.
      std::size_t best_r = 0, best_c = 0, best_ri = n, best_ci = n;
      std::size_t best_cost = 0;
      double best_ratio = 0.0;
      for (std::size_t ri = 0; ri < rows.size(); ++ri) {
        const std::size_t r = rows[ri];
        for (std::size_t ci = 0; ci < cols.size(); ++ci) {
          const std::size_t c = cols[ci];
          const int e = slot[r * n + c];
          if (e < 0) continue;
          const double mag = std::fabs(w[e]);
          if (!(mag >= kPivotThreshold * col_max[c] && mag >= kTinyPivot)) {
            continue;
          }
          const std::size_t cost = (row_count[r] - 1) * (col_count[c] - 1);
          const double ratio = mag / col_max[c];
          if (best_ri == n || cost < best_cost ||
              (cost == best_cost && ratio > best_ratio)) {
            best_r = r;
            best_c = c;
            best_ri = ri;
            best_ci = ci;
            best_cost = cost;
            best_ratio = ratio;
          }
        }
      }
      if (best_ri == n) return false;  // no usable pivot left: singular
      row_of_[k] = static_cast<int>(best_r);
      col_of_[k] = static_cast<int>(best_c);
      rows.erase(rows.begin() + static_cast<std::ptrdiff_t>(best_ri));
      cols.erase(cols.begin() + static_cast<std::ptrdiff_t>(best_ci));

      const int* prow = slot.data() + best_r * n;
      const double pivot = w[prow[best_c]];
      for (const std::size_t r : rows) {
        const int e_rc = slot[r * n + best_c];
        if (e_rc < 0) continue;
        const double f = w[e_rc] / pivot;
        for (const std::size_t c : cols) {
          if (prow[c] < 0) continue;
          int& e = slot[r * n + c];
          if (e < 0) {  // fill
            e = static_cast<int>(w.size());
            w.push_back(0.0);
          }
          w[e] -= f * w[prow[c]];
        }
      }
    }
  }

  // Compile: lay the factors out per step and resolve every multiply-add
  // target to its compact position.
  std::vector<int> pos(n * n, -1);
  start_.assign(n + 1, 0);
  ustart_.assign(n, 0);
  idx_.clear();
  const auto at = [n](int r, int c) {
    return static_cast<std::size_t>(r) * n + static_cast<std::size_t>(c);
  };
  for (std::size_t k = 0; k < n; ++k) {
    const int pr = row_of_[k];
    const int pc = col_of_[k];
    start_[k] = static_cast<int>(idx_.size());
    pos[at(pr, pc)] = start_[k];
    idx_.push_back(static_cast<int>(k));
    for (std::size_t i = k + 1; i < n; ++i) {
      if (slot[at(row_of_[i], pc)] < 0) continue;
      pos[at(row_of_[i], pc)] = static_cast<int>(idx_.size());
      idx_.push_back(static_cast<int>(i));
    }
    ustart_[k] = static_cast<int>(idx_.size());
    for (std::size_t j = k + 1; j < n; ++j) {
      if (slot[at(pr, col_of_[j])] < 0) continue;
      pos[at(pr, col_of_[j])] = static_cast<int>(idx_.size());
      idx_.push_back(static_cast<int>(j));
    }
  }
  start_[n] = static_cast<int>(idx_.size());

  gather_.clear();
  for (const int e : pattern) gather_.push_back(pos[static_cast<std::size_t>(e)]);
  std::vector<char> gathered(idx_.size(), 0);
  for (const int p : gather_) gathered[static_cast<std::size_t>(p)] = 1;
  fill_.clear();
  for (std::size_t p = 0; p < idx_.size(); ++p) {
    if (!gathered[p]) fill_.push_back(static_cast<int>(p));
  }
  op_dst_.clear();
  for (std::size_t k = 0; k < n; ++k) {
    for (int p = start_[k] + 1; p < ustart_[k]; ++p) {
      const int r = row_of_[static_cast<std::size_t>(idx_[p])];
      for (int q = ustart_[k]; q < start_[k + 1]; ++q) {
        const int c = col_of_[static_cast<std::size_t>(idx_[q])];
        assert(pos[at(r, c)] >= 0 && "symbolic fill missed an update");
        op_dst_.push_back(pos[at(r, c)]);
      }
    }
  }
  vals_.assign(idx_.size(), 0.0);
  y_.assign(n, 0.0);
  n_ = n;
  return true;
}

}  // namespace sfc::spice
