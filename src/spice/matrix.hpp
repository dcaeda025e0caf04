// Linear algebra for the MNA system. The Newton hot path solves with
// LuPlan, a static-pivot sparse LU in the SPICE3 / Sparse 1.3 style: a
// Markowitz pivot order chosen once under threshold partial pivoting, a
// compiled symbolic elimination (fill included) for that order, and one
// numeric refactorization per Newton iteration that reuses the pivots.
// CiM rows are stars of near-identical cells around a few shared rails,
// so a sparsity-driven order keeps fill linear in the row width where a
// magnitude-driven dense order makes it cubic. Dense LU with partial
// pivoting stays as the reference solver and for the complex AC system.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace sfc::spice {

/// Row-major dense matrix over double (real MNA system) or
/// std::complex<double> (AC small-signal system).
template <typename T>
class DenseMatrixT {
 public:
  using Scalar = T;

  DenseMatrixT() = default;
  DenseMatrixT(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, T{}) {}

  T& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  const T& at(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  void set_zero() { std::fill(data_.begin(), data_.end(), T{}); }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

using DenseMatrix = DenseMatrixT<double>;
using ComplexMatrix = DenseMatrixT<std::complex<double>>;

/// Solve A x = b in place (A and b are overwritten). Returns false when the
/// matrix is numerically singular (pivot below tiny threshold).
bool lu_solve(DenseMatrix& a, std::vector<double>& b);

/// Complex LU with partial pivoting; A and b are overwritten.
bool lu_solve(ComplexMatrix& a, std::vector<std::complex<double>>& b);

/// Dense n x n copy of a compact system: values[i] at the flat row-major
/// index pattern[i], zero elsewhere. The sparse-vs-dense oracles solve this
/// view with lu_solve.
DenseMatrix dense_from_compact(std::size_t n, const std::vector<int>& pattern,
                               const std::vector<double>& values);

/// Static-pivot sparse LU. The first solve() picks a pivot order by
/// Markowitz cost among entries at least 0.1 x their column maximum
/// (threshold partial pivoting), compiles the symbolic elimination for
/// that order — fill included — and every later solve() refactors with
/// those pivots. The order is re-chosen only when a replayed pivot falls
/// below 1e-6 x its column maximum (see refreeze_count()). Factors are
/// stored compactly at pattern-plus-fill positions and the input values
/// are never written. Results agree with lu_solve() to rounding, not
/// bitwise; a given sequence of inputs always produces the same bits.
class LuPlan {
 public:
  bool valid() const { return n_ > 0; }
  void reset() { n_ = 0; }

  /// Solve A x = b; `x` holds b on entry and the solution on return, and
  /// its size is the system size. A is given compactly: `pattern` lists
  /// the sorted flat row-major indices of every entry that can be nonzero
  /// and values[i] is the entry at pattern[i]; entries outside the pattern
  /// are zero. A plan serves one pattern: it is read only when an order
  /// is chosen. Returns false (plan invalidated) when A is numerically
  /// singular.
  bool solve(const std::vector<double>& values, const std::vector<int>& pattern,
             std::vector<double>& x);

  /// Multiply-adds of one numeric factorization under the current order
  /// (dense elimination does ~n^3/3).
  std::size_t compiled_ops() const { return op_dst_.size(); }

  /// Solves (since construction) that re-chose the order because a
  /// replayed pivot vanished relative to its column.
  std::size_t refreeze_count() const { return refreezes_; }

 private:
  /// Markowitz search plus symbolic elimination; false when singular.
  bool choose_order(const std::vector<double>& values,
                    const std::vector<int>& pattern, std::size_t n);
  /// Numeric refactorization under the compiled order; false when a pivot
  /// fails the replay threshold.
  bool factor(const std::vector<double>& values);

  std::size_t n_ = 0;
  std::size_t refreezes_ = 0;
  std::vector<int> row_of_;  ///< step k -> original row of its pivot
  std::vector<int> col_of_;  ///< step k -> original column of its pivot
  // Compact factors, one block per step k: the pivot at start_[k], the L
  // column below it up to ustart_[k], then the U row up to start_[k + 1].
  // idx_ holds each entry's step coordinate (row step for L, column step
  // for U).
  std::vector<int> start_;
  std::vector<int> ustart_;
  std::vector<int> idx_;
  std::vector<double> vals_;
  std::vector<int> gather_;  ///< position in vals_ of each pattern entry
  std::vector<int> fill_;    ///< positions of vals_ outside the pattern
  /// Target of every multiply-add, in elimination order (fill included).
  std::vector<int> op_dst_;
  std::vector<double> y_;  ///< permuted right-hand side scratch
};

}  // namespace sfc::spice
