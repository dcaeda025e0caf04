// Bit-serial CiM dot-product engine.
//
// Maps an 8-bit (activation) x 8-bit (weight) integer dot product onto the
// binary 8-cells-per-row MAC primitive the array provides, exactly the
// "8-bit wordlength" scheme of the 1FeFET-1R paper [17] that our design
// inherits:
//   * weights are split into positive / negative magnitudes (7 bits each),
//   * activations into 8 bit-planes,
//   * each (activation-plane, weight-plane) pair is a binary dot product,
//     evaluated 8 elements at a time by a CiM row; the digital MAC counts
//     are shift-added with weight 2^(p+q) and pos/neg sign.
//
// The row primitive itself is the calibrated BehavioralArrayModel, so
// temperature drift and (optional) process-variation noise corrupt the MAC
// counts exactly as the analog array would.
//
// Evaluation: when every count decodes exactly, the shift-add equals the
// integer dot of the masked operands, sum (a & amask) * sign(w) *
// (|w| & wmask) with amask = 2^act_bits - 1 and wmask = 2^(weight_bits-1)
// - 1, so a row is that one integer dot. Otherwise it is the integer dot
// plus a correction, sum over the 8-cell groups that can decode wrong of
// 2^(p+q) * sign * (decoded - true count), gathered from the bit-planes.
// A group's decoded count is a fixed LUT entry, or with noise one uniform
// draw against the count's decode distribution (DecodeSampler).
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>

#include "cim/behavioral.hpp"
#include "exec/parallel.hpp"
#include "nn/quantize.hpp"

namespace sfc::nn {

/// Decoded count of one 8-cell group given its true count k at a fixed
/// temperature. A count whose decode distribution is degenerate (all mass
/// on one level, exactly 1.0 in double) reads a fixed level; any other
/// count is sampled by inverse CDF: one uniform against the cumulative
/// BehavioralArrayModel::decode_distribution(k, T).
class DecodeSampler {
 public:
  static constexpr int kLevels = 9;  ///< counts 0..8 of an 8-cell row

  /// Without noise every count reads model.mac(k, T) (the decoded LUT);
  /// with noise the table is the model's Gaussian readout distribution.
  DecodeSampler(const sfc::cim::BehavioralArrayModel& model,
                double temperature_c, bool with_noise);

  /// True when count k needs a draw.
  bool random(int k) const { return random_[static_cast<std::size_t>(k)]; }
  /// Decoded level of a count that needs no draw.
  int fixed(int k) const { return fixed_[static_cast<std::size_t>(k)]; }
  /// Every count reads itself without a draw.
  bool identity() const { return identity_; }

  /// Decoded level of count k, drawing one uniform from `rng` when
  /// random(k).
  int sample(int k, sfc::util::Rng& rng) const {
    const auto i = static_cast<std::size_t>(k);
    if (!random_[i]) return fixed_[i];
    const double u = rng.uniform();
    const std::array<double, kLevels>& cdf = cdf_[i];
    if (u < cdf[i] && (k == 0 || u >= cdf[i - 1])) return k;
    int j = 0;
    while (u >= cdf[static_cast<std::size_t>(j)]) ++j;
    return j;
  }

 private:
  /// cdf_[k][j] = P(decoded <= j | k); the last entry is exactly 1.
  std::array<std::array<double, kLevels>, kLevels> cdf_{};
  std::array<bool, kLevels> random_{};
  std::array<int, kLevels> fixed_{};
  bool identity_ = true;
};

class CimDotEngine final : public DotEngine {
 public:
  struct Options {
    double temperature_c = 27.0;
    /// Decode every row MAC from the model's sigma_VT readout
    /// distribution (one uniform draw per 8-cell group that can read
    /// wrong) instead of the noise-free LUT.
    bool with_variation_noise = false;
    std::uint64_t noise_seed = 99;
    /// Wordlength (must match the QuantizeOptions the network was built
    /// with): unsigned activation bits and signed weight bits incl. sign.
    int activation_bits = 8;
    int weight_bits = 8;
    /// Fan-out of dot_batch row evaluation (default: serial). Noise draws
    /// come from counter-based per-row streams, so any thread count yields
    /// bit-identical results for the same call sequence.
    sfc::exec::ExecPolicy exec;
  };

  CimDotEngine(const sfc::cim::BehavioralArrayModel& model, Options opts);

  std::int64_t dot(std::span<const std::uint8_t> a,
                   std::span<const std::int8_t> w) override;
  void dot_batch(std::span<const std::uint8_t> a,
                 std::span<const std::int8_t> weights, std::size_t row_stride,
                 std::size_t rows, std::int64_t* out) override;
  void begin_layer(int layer_index) override;

  /// Number of 8-cell row operations issued so far (energy accounting).
  std::int64_t row_ops() const { return row_ops_; }
  /// Row ops where the decoded MAC differed from the true count.
  std::int64_t row_errors() const { return row_errors_; }

  double temperature_c() const { return opts_.temperature_c; }

 private:
  struct WeightPlanes {
    std::size_t length = 0;           ///< element count
    std::uint64_t fingerprint = 0;    ///< sampled content hash (staleness)
    std::size_t words = 0;            ///< packed 64-bit words per plane
    std::vector<std::uint64_t> pos;   ///< per magnitude bit x words
    std::vector<std::uint64_t> neg;
    unsigned pos_nonzero = 0;         ///< bit q: pos plane q has a 1
    unsigned neg_nonzero = 0;
  };

  const WeightPlanes& planes_for(std::span<const std::int8_t> w);
  void pack_activations(std::span<const std::uint8_t> a);
  /// The masked integer dot: the bit-serial result when every count
  /// decodes exactly.
  std::int64_t exact_dot(std::span<const std::uint8_t> a,
                         std::span<const std::int8_t> w) const;
  /// Decode correction of one row over its `groups` real 8-cell groups
  /// against the packed activations; mis-decoded groups are tallied into
  /// *errors. `rng` is the row's noise stream (null without noise). Const
  /// and reentrant so batched rows can run concurrently.
  std::int64_t correction(const WeightPlanes& wp, std::size_t groups,
                          sfc::util::Rng* rng, std::int64_t* errors) const;
  /// Row ops of `rows` dot products of length `len`.
  std::int64_t row_ops_for(std::size_t len, std::size_t rows) const;

  Options opts_;
  DecodeSampler sampler_;
  /// Where the fixed decode offset d[k] = fixed(k) - k (0 for drawn
  /// counts) or the miss flag [d[k] != 0] changes as k steps up to
  /// `count`; the correction counts the groups >= count per step.
  struct Step {
    int count;
    int delta;   ///< d[count] - d[count - 1]
    int misses;  ///< miss flag change at count
  };
  std::vector<Step> steps_;
  int zero_misses_ = 0;  ///< count 0 reads a fixed wrong level
  /// Nonzero counts drawn one group at a time.
  std::vector<int> random_counts_;
  /// Monotonic counter naming the noise stream of each dot-product row:
  /// row i of the engine's lifetime draws from stream (noise_seed, i),
  /// independent of which thread evaluates it.
  std::uint64_t next_noise_row_ = 0;
  std::int64_t row_ops_ = 0;
  std::int64_t row_errors_ = 0;

  int act_bits_ = 8;
  int weight_mag_bits_ = 7;

  /// Weight plane cache keyed by weight data pointer. Assumes weight
  /// storage is stable for the engine's lifetime (true for
  /// QuantizedNetwork, whose rows live in the QuantOp vectors).
  std::unordered_map<const void*, WeightPlanes> plane_cache_;
  /// Scratch activation planes.
  std::vector<std::uint64_t> a_planes_;
  std::size_t a_words_ = 0;
  unsigned a_nonzero_planes_ = 0;  ///< bit p: activation plane p has a 1
  /// dot_batch scratch of the correction path, one slot per row.
  std::vector<const WeightPlanes*> row_planes_;
  std::vector<std::int64_t> row_errors_scratch_;
};

}  // namespace sfc::nn
