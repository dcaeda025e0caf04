#include "nn/cim_engine.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <span>
#include <vector>

#include "exec/stream.hpp"
#include "trace/trace.hpp"

namespace sfc::nn {
namespace {

constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
constexpr std::uint64_t kHighBits = 0x8080808080808080ULL;
constexpr std::uint64_t kLowSeven = 0x7f7f7f7f7f7f7f7fULL;

/// SWAR per-byte popcount: returns a word whose every byte holds the
/// popcount (0..8) of the corresponding input byte.
std::uint64_t byte_popcounts(std::uint64_t x) {
  x = x - ((x >> 1) & 0x5555555555555555ULL);
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return x;
}

// Byte masks over a word of counts (every byte 0..15, so adding 0x7f
// never carries into the next byte): the high bit of byte b flags group b.

/// Flags the bytes that are nonzero.
std::uint64_t bytes_nonzero(std::uint64_t counts) {
  return (counts + kLowSeven) & kHighBits;
}

/// Flags the bytes equal to k (0..8).
std::uint64_t bytes_equal(std::uint64_t counts, int k) {
  return ~((counts ^ (kOnes * static_cast<std::uint64_t>(k))) + kLowSeven) &
         kHighBits;
}

/// Flags the bytes >= t (1..8).
std::uint64_t bytes_at_least(std::uint64_t counts, int t) {
  return (counts + kOnes * static_cast<std::uint64_t>(0x80 - t)) & kHighBits;
}

/// Number of flagged bytes in a mask.
std::int64_t flagged(std::uint64_t mask) {
  return static_cast<std::int64_t>(((mask >> 7) * kOnes) >> 56);
}

/// Cheap content fingerprint over <= 16 sampled elements; guards the
/// weight-plane cache against a row being rewritten in place (or the
/// allocator reusing an address for different weights).
std::uint64_t weight_fingerprint(std::span<const std::int8_t> w) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ w.size();
  const std::size_t stride = std::max<std::size_t>(1, w.size() / 16);
  for (std::size_t i = 0; i < w.size(); i += stride) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint8_t>(w[i])) +
         0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  if (!w.empty()) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint8_t>(w.back())) << 32;
  }
  return h;
}

}  // namespace

DecodeSampler::DecodeSampler(const sfc::cim::BehavioralArrayModel& model,
                             double temperature_c, bool with_noise) {
  assert(model.cells() + 1 == kLevels);
  for (int k = 0; k < kLevels; ++k) {
    const auto i = static_cast<std::size_t>(k);
    std::vector<double> p(kLevels, 0.0);
    if (with_noise) {
      p = model.decode_distribution(k, temperature_c);
    } else {
      p[static_cast<std::size_t>(model.mac(k, temperature_c, nullptr))] = 1.0;
    }
    double cumulative = 0.0;
    for (std::size_t j = 0; j < p.size(); ++j) {
      if (p[j] == 1.0) fixed_[i] = static_cast<int>(j);
      cumulative += p[j];
      cdf_[i][j] = cumulative;
    }
    cdf_[i][kLevels - 1] = 1.0;
    random_[i] = std::count(p.begin(), p.end(), 1.0) != 1 ||
                 std::count(p.begin(), p.end(), 0.0) != kLevels - 1;
    if (random_[i] || fixed_[i] != k) identity_ = false;
  }
}

CimDotEngine::CimDotEngine(const sfc::cim::BehavioralArrayModel& model,
                           Options opts)
    : opts_(opts),
      sampler_(model, opts.temperature_c, opts.with_variation_noise) {
  assert(model.cells() == 8 && "bit-serial mapping expects 8-cell rows");
  assert(opts.activation_bits >= 2 && opts.activation_bits <= 8);
  assert(opts.weight_bits >= 2 && opts.weight_bits <= 8);
  act_bits_ = opts.activation_bits;
  weight_mag_bits_ = opts.weight_bits - 1;
  // Fixed offsets d[k] and miss flags e[k] (0 for drawn counts) as step
  // functions of k: sum_g d[c_g] = d[0] * groups + sum_t (d[t] - d[t-1]) *
  // #{g : c_g >= t}.
  std::array<int, DecodeSampler::kLevels> d{}, e{};
  for (int k = 0; k < DecodeSampler::kLevels; ++k) {
    const auto i = static_cast<std::size_t>(k);
    if (sampler_.random(k)) {
      if (k > 0) random_counts_.push_back(k);
    } else {
      d[i] = sampler_.fixed(k) - k;
      e[i] = d[i] != 0;
    }
    if (k > 0 && (d[i] != d[i - 1] || e[i] != e[i - 1])) {
      steps_.push_back({k, d[i] - d[i - 1], e[i] - e[i - 1]});
    }
  }
  zero_misses_ = e[0];
}

void CimDotEngine::begin_layer(int /*layer_index*/) {
  // Weight plane cache entries stay valid as long as the network object
  // lives (keys are stable row pointers), so nothing to do per layer.
}

const CimDotEngine::WeightPlanes& CimDotEngine::planes_for(
    std::span<const std::int8_t> w) {
  const void* key = w.data();
  const std::uint64_t fp = weight_fingerprint(w);
  auto it = plane_cache_.find(key);
  if (it != plane_cache_.end() && it->second.length == w.size() &&
      it->second.fingerprint == fp) {
    return it->second;
  }
  WeightPlanes planes;
  planes.length = w.size();
  planes.fingerprint = fp;
  planes.words = (w.size() + 63) / 64;
  planes.pos.assign(
      static_cast<std::size_t>(weight_mag_bits_) * planes.words, 0);
  planes.neg.assign(
      static_cast<std::size_t>(weight_mag_bits_) * planes.words, 0);
  for (std::size_t e = 0; e < w.size(); ++e) {
    const int v = w[e];
    const unsigned mag = static_cast<unsigned>(v < 0 ? -v : v);
    auto* target = (v < 0 ? planes.neg.data() : planes.pos.data());
    (v < 0 ? planes.neg_nonzero : planes.pos_nonzero) |= mag;
    const std::size_t word = e >> 6;
    const std::uint64_t bit = 1ULL << (e & 63);
    for (int q = 0; q < weight_mag_bits_; ++q) {
      if ((mag >> q) & 1u) {
        target[static_cast<std::size_t>(q) * planes.words + word] |= bit;
      }
    }
  }
  const unsigned wmask = (1u << weight_mag_bits_) - 1u;
  planes.pos_nonzero &= wmask;
  planes.neg_nonzero &= wmask;
  // insert_or_assign (not emplace): the allocator can reuse an address for
  // a different weight row, which must overwrite the stale cache entry.
  return plane_cache_.insert_or_assign(key, std::move(planes)).first->second;
}

void CimDotEngine::pack_activations(std::span<const std::uint8_t> a) {
  const std::size_t words = (a.size() + 63) / 64;
  if (a_words_ != words) {
    a_planes_.assign(static_cast<std::size_t>(act_bits_) * words, 0);
    a_words_ = words;
  } else {
    std::fill(a_planes_.begin(), a_planes_.end(), 0);
  }
  unsigned seen = 0;
  for (std::size_t e = 0; e < a.size(); ++e) {
    const unsigned v = a[e];
    seen |= v;
    if (v == 0) continue;
    const std::size_t word = e >> 6;
    const std::uint64_t bit = 1ULL << (e & 63);
    for (int p = 0; p < act_bits_; ++p) {
      if ((v >> p) & 1u) {
        a_planes_[static_cast<std::size_t>(p) * words + word] |= bit;
      }
    }
  }
  a_nonzero_planes_ = seen & ((1u << act_bits_) - 1u);
}

std::int64_t CimDotEngine::exact_dot(std::span<const std::uint8_t> a,
                                     std::span<const std::int8_t> w) const {
  const int wmask = (1 << weight_mag_bits_) - 1;
  // One pass computes the plain dot and checks the operand ranges; a row
  // outside them (w = -128 at 8 bits, or operands wider than the word)
  // takes the masked loop below.
  std::int64_t acc = 0;
  unsigned seen = 0;
  int lo = 0, hi = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += static_cast<std::int64_t>(a[i]) * w[i];
    seen |= a[i];
    lo = std::min<int>(lo, w[i]);
    hi = std::max<int>(hi, w[i]);
  }
  if ((seen >> act_bits_) == 0 && lo >= -wmask && hi <= wmask) return acc;

  const unsigned amask = (1u << act_bits_) - 1u;
  acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const int v = w[i];
    const int mag = (v < 0 ? -v : v) & wmask;
    acc += static_cast<std::int64_t>(a[i] & amask) * (v < 0 ? -mag : mag);
  }
  return acc;
}

std::int64_t CimDotEngine::correction(const WeightPlanes& wp,
                                      std::size_t groups, sfc::util::Rng* rng,
                                      std::int64_t* errors) const {
  // A fixed count-0 offset adds d[0] * groups to every binary dot, which
  // cancels between the pos and neg planes; its misses are counted in
  // bulk. Count-0 groups are visited only when count 0 is drawn.
  const bool draw_zero = sampler_.random(0);
  const bool draw_any = draw_zero || !random_counts_.empty();
  const bool draw_nonzero = random_counts_.size() == DecodeSampler::kLevels - 1;
  const std::size_t words = wp.words;
  std::int64_t misses = static_cast<std::int64_t>(groups) * zero_misses_ * 2 *
                        act_bits_ * weight_mag_bits_;
  // An all-zero plane holds count-0 groups only; unless those are drawn
  // it adds nothing, so only nonzero planes are visited.
  const unsigned all = draw_zero ? ~0u : 0u;
  const unsigned a_visit = a_nonzero_planes_ | (all & ((1u << act_bits_) - 1u));
  const unsigned w_all = all & ((1u << weight_mag_bits_) - 1u);
  std::int64_t result = 0;
  for (int p = 0; p < act_bits_; ++p) {
    if (((a_visit >> p) & 1u) == 0) continue;
    const std::uint64_t* ap =
        a_planes_.data() + static_cast<std::size_t>(p) * words;
    for (int q = 0; q < weight_mag_bits_; ++q) {
      const std::size_t offset = static_cast<std::size_t>(q) * words;
      // Sum of sign * (decoded - true) over the real groups of the pos and
      // neg binary dots, less the cancelling d[0] * groups terms.
      std::int64_t delta = 0;
      for (const int sign : {1, -1}) {
        const unsigned w_visit =
            (sign > 0 ? wp.pos_nonzero : wp.neg_nonzero) | w_all;
        if (((w_visit >> q) & 1u) == 0) continue;
        const std::uint64_t* wq =
            (sign > 0 ? wp.pos.data() : wp.neg.data()) + offset;
        for (std::size_t i = 0; i < words; ++i) {
          const std::uint64_t counts = byte_popcounts(ap[i] & wq[i]);
          for (const Step& step : steps_) {
            const std::int64_t n = flagged(bytes_at_least(counts, step.count));
            delta += sign * n * step.delta;
            misses += n * step.misses;
          }
          if (!draw_any) continue;
          // One draw per group of a drawn count, in group order.
          std::uint64_t draw = 0;
          if (draw_nonzero) {
            draw = bytes_nonzero(counts);
          } else {
            for (const int k : random_counts_) draw |= bytes_equal(counts, k);
          }
          if (draw_zero) {
            // Padding bytes past the last real group read 0; skip them.
            const std::size_t real = std::min<std::size_t>(8, groups - 8 * i);
            draw |= bytes_equal(counts, 0) & (kHighBits >> (8 * (8 - real)));
          }
          for (; draw != 0; draw &= draw - 1) {
            const int k = static_cast<int>(
                (counts >> (std::countr_zero(draw) & ~7)) & 0xff);
            const int decoded = sampler_.sample(k, *rng);
            delta += sign * (decoded - k);
            misses += decoded != k;
          }
        }
      }
      result += delta * (std::int64_t{1} << (p + q));
    }
  }
  *errors += misses;
  return result;
}

std::int64_t CimDotEngine::row_ops_for(std::size_t len,
                                       std::size_t rows) const {
  return static_cast<std::int64_t>(rows) * act_bits_ * weight_mag_bits_ * 2 *
         static_cast<std::int64_t>((len + 7) / 8);
}

std::int64_t CimDotEngine::dot(std::span<const std::uint8_t> a,
                               std::span<const std::int8_t> w) {
  assert(a.size() == w.size());
  std::int64_t out = 0;
  dot_batch(a, w, a.size(), 1, &out);
  return out;
}

void CimDotEngine::dot_batch(std::span<const std::uint8_t> a,
                             std::span<const std::int8_t> weights,
                             std::size_t row_stride, std::size_t rows,
                             std::int64_t* out) {
  if (rows == 0) return;
  SFC_TRACE_COUNT("cim.dot.batches", 1);
  SFC_TRACE_COUNT("cim.dot.rows", rows);
  SFC_TRACE_COUNT("cim.dot.row_ops",
                  static_cast<std::uint64_t>(row_ops_for(a.size(), rows)));
  assert(weights.size() >= (rows - 1) * row_stride + a.size());
  const auto row = [&](std::size_t r) {
    return weights.subspan(r * row_stride, a.size());
  };
  // Noise streams are named by a monotonic row counter, never by thread:
  // batch row r draws from stream (noise_seed, base + r), so serial and
  // parallel evaluation produce bit-identical results.
  const std::uint64_t noise_base = next_noise_row_;
  next_noise_row_ += rows;
  row_ops_ += row_ops_for(a.size(), rows);
  // An inline loop when serial: parallel_for's per-task bookkeeping would
  // cost as much as an identity row.
  const auto for_rows = [&](auto&& fn) {
    if (opts_.exec.resolved_threads(rows) > 1) {
      sfc::exec::parallel_for(opts_.exec, rows, fn);
    } else {
      for (std::size_t r = 0; r < rows; ++r) fn(r);
    }
  };
  if (sampler_.identity()) {
    for_rows([&](std::size_t r) { out[r] = exact_dot(a, row(r)); });
    return;
  }

  pack_activations(a);
  // The plane cache is shared mutable state, so resolve every row's planes
  // serially up front; references into the unordered_map stay valid while
  // the row tasks only read them.
  row_planes_.resize(rows);
  for (std::size_t r = 0; r < rows; ++r) row_planes_[r] = &planes_for(row(r));
  row_errors_scratch_.assign(rows, 0);
  const std::size_t groups = (a.size() + 7) / 8;
  for_rows([&](std::size_t r) {
    sfc::util::Rng rng = sfc::exec::stream_rng(opts_.noise_seed, noise_base + r);
    out[r] = exact_dot(a, row(r)) +
             correction(*row_planes_[r], groups,
                        opts_.with_variation_noise ? &rng : nullptr,
                        &row_errors_scratch_[r]);
  });
  for (const std::int64_t e : row_errors_scratch_) row_errors_ += e;
}

}  // namespace sfc::nn
