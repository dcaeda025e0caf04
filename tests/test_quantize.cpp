// Quantization + CiM dot-engine tests: int8 inference must track float
// inference; the bit-serial CiM engine with an ideal (exactly decoding)
// array must equal the digital int8 reference bit-for-bit; temperature
// and noise must corrupt it in controlled ways. The engine's decomposition
// (integer dot + decode correction, table-sampled noise) is checked
// against a literal per-group bit-serial reference and against the
// model's Gaussian readout.
#include <gtest/gtest.h>

#include <cmath>

#include "cim/behavioral.hpp"
#include "exec/stream.hpp"
#include "nn/cim_engine.hpp"
#include "nn/trainer.hpp"
#include "nn/vgg.hpp"
#include "trace/trace.hpp"

namespace sfc::nn {
namespace {

using sfc::cim::ArrayConfig;
using sfc::cim::BehavioralArrayModel;

/// Reference bit-serial engine: the mapping spelled out per 8-cell group.
/// Activation bit-plane p (p < act_bits) meets weight magnitude plane q
/// (q < weight_bits - 1) of each sign; every real group's count is read
/// through `readout` and shift-added with weight +-2^(p+q).
struct ReferenceResult {
  std::int64_t value = 0;
  std::int64_t row_ops = 0;
  std::int64_t row_errors = 0;
};

template <typename Readout>
ReferenceResult reference_bit_serial(std::span<const std::uint8_t> a,
                                     std::span<const std::int8_t> w,
                                     int act_bits, int weight_bits,
                                     Readout&& readout) {
  ReferenceResult r;
  const std::size_t groups = (a.size() + 7) / 8;
  for (int p = 0; p < act_bits; ++p) {
    for (int q = 0; q < weight_bits - 1; ++q) {
      for (const int sign : {1, -1}) {
        for (std::size_t g = 0; g < groups; ++g) {
          int count = 0;
          for (std::size_t e = 8 * g; e < std::min(a.size(), 8 * g + 8); ++e) {
            const int v = w[e];
            const unsigned mag = static_cast<unsigned>(v < 0 ? -v : v);
            const bool w_bit = (v < 0 ? -1 : 1) == sign && v != 0 &&
                               ((mag >> q) & 1u) != 0;
            count += ((a[e] >> p) & 1u) != 0 && w_bit;
          }
          const int decoded = readout(count);
          r.value += sign * static_cast<std::int64_t>(decoded) * (1LL << (p + q));
          r.row_errors += decoded != count;
          ++r.row_ops;
        }
      }
    }
  }
  return r;
}

/// The reference with the model's noise-free decode LUT at T.
ReferenceResult reference_lut(const BehavioralArrayModel& model, double t,
                              std::span<const std::uint8_t> a,
                              std::span<const std::int8_t> w, int bits) {
  return reference_bit_serial(a, w, bits, bits, [&](int count) {
    return model.mac(count, t, nullptr);
  });
}

const BehavioralArrayModel& proposed_three_temps() {
  static const BehavioralArrayModel m = BehavioralArrayModel::calibrate(
      ArrayConfig::proposed_2t1fefet(), {0.0, 27.0, 85.0});
  return m;
}

const BehavioralArrayModel& baseline_three_temps() {
  static const BehavioralArrayModel m = BehavioralArrayModel::calibrate(
      ArrayConfig::baseline_1r_subthreshold(), {0.0, 27.0, 85.0});
  return m;
}

/// Proposed fabric with a sigma_VT Monte Carlo pass.
const BehavioralArrayModel& proposed_with_sigma() {
  static const BehavioralArrayModel m = [] {
    sfc::cim::MonteCarloConfig mc;
    mc.runs = 4;
    mc.sigma_vt_fefet = 0.054;
    return BehavioralArrayModel::calibrate(ArrayConfig::proposed_2t1fefet(),
                                           {0.0, 27.0, 85.0}, &mc);
  }();
  return m;
}

/// Synthetic 8-cell model: levels 0.0 .. 0.8 V at the 27 degC design
/// temperature, shifted up one level at 85 degC (count 8 falls back to
/// level 7), so at 85 degC every count - level 0 included - decodes wrong.
/// `sigma` is the readout spread of every level.
BehavioralArrayModel shifted_model(double sigma) {
  std::string text = "sfc-behavioral-v2\n8 27 2\n27 85\n";
  for (int k = 0; k <= 8; ++k) text += std::to_string(0.1 * k) + " ";
  for (int k = 0; k <= 8; ++k) text += std::to_string(0.1 * std::min(k + 1, 8 - (k == 8))) + " ";
  text += "\n";
  for (int k = 0; k <= 8; ++k) text += std::to_string(sigma) + " ";
  text += "\n";
  return BehavioralArrayModel::from_text(text);
}

/// Operands over the full storage range: activations up to 255 (bits at
/// and above a narrow engine's act_bits) and weights down to -128 (whose
/// magnitude bit 7 no plane holds).
void fill_full_range(sfc::util::Rng& rng, std::vector<std::uint8_t>& a,
                     std::vector<std::int8_t>& w) {
  for (auto& v : a) v = static_cast<std::uint8_t>(rng.uniform_index(256));
  for (auto& v : w) {
    v = static_cast<std::int8_t>(static_cast<int>(rng.uniform_index(256)) - 128);
  }
  a.front() = 255;
  w.back() = -128;
}

sfc::data::SynthCifarConfig tiny_data() {
  sfc::data::SynthCifarConfig cfg;
  cfg.train_per_class = 24;
  cfg.test_per_class = 6;
  cfg.noise_sigma = 0.06;
  return cfg;
}

struct TrainedFixture {
  sfc::data::Dataset train = sfc::data::make_synth_cifar_train(tiny_data());
  sfc::data::Dataset test = sfc::data::make_synth_cifar_test(tiny_data());
  Sequential net;
  QuantizedNetwork qnet;

  TrainedFixture() {
    sfc::util::Rng rng(21);
    net.add<Conv2d>(3, 6, 3, true, rng);
    net.add<Relu>();
    net.add<MaxPool2d>(2);
    net.add<Conv2d>(6, 10, 3, true, rng);
    net.add<Relu>();
    net.add<MaxPool2d>(2);
    net.add<MaxPool2d>(2);
    net.add<Flatten>();
    net.add<Dense>(160, 10, rng);
    TrainConfig cfg;
    cfg.epochs = 5;
    cfg.batch_size = 8;
    cfg.learning_rate = 0.05;
    Trainer trainer(net, cfg);
    trainer.fit(train);
    qnet = QuantizedNetwork::from_model(net, train, 16);
  }
};

TrainedFixture& fixture() {
  static TrainedFixture f;
  return f;
}

TEST(IdealDotEngine, ExactIntegerDot) {
  IdealDotEngine engine;
  const std::vector<std::uint8_t> a = {1, 2, 3, 255};
  const std::vector<std::int8_t> w = {1, -1, 2, -127};
  EXPECT_EQ(engine.dot(a, w), 1 - 2 + 6 - 255LL * 127);
}

TEST(Quantize, Int8TracksFloatAccuracy) {
  auto& f = fixture();
  const double float_acc = Trainer::evaluate(f.net, f.test);
  IdealDotEngine ideal;
  const double int8_acc = f.qnet.evaluate(f.test, ideal);
  EXPECT_GT(float_acc, 0.4);
  EXPECT_GT(int8_acc, float_acc - 0.15);  // small quantization drop
}

TEST(Quantize, MacCountMatchesArchitecture) {
  auto& f = fixture();
  // conv1: 32*32*6*3*9, conv2: 16*16*10*6*9, fc: 160*10.
  const std::int64_t expected =
      32LL * 32 * 6 * 3 * 9 + 16LL * 16 * 10 * 6 * 9 + 160LL * 10;
  EXPECT_EQ(f.qnet.macs_per_inference(), expected);
}

TEST(CimEngine, BitSerialEqualsIdealWithPerfectArray) {
  // With the proposed array at its design temperature every 8-cell count
  // decodes exactly, so the bit-serial path must match the integer dot
  // bit-for-bit - on full network inference, not just a toy vector.
  auto& f = fixture();
  static const sfc::cim::BehavioralArrayModel model =
      sfc::cim::BehavioralArrayModel::calibrate(
          sfc::cim::ArrayConfig::proposed_2t1fefet(), {0.0, 27.0, 85.0});
  CimDotEngine::Options opts;
  opts.temperature_c = 27.0;
  CimDotEngine cim(model, opts);
  IdealDotEngine ideal;
  for (int i = 0; i < 4; ++i) {
    const auto& img = f.test.images[static_cast<std::size_t>(i)];
    const Tensor a = f.qnet.forward(img, ideal);
    const Tensor b = f.qnet.forward(img, cim);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_FLOAT_EQ(a[k], b[k]) << "image " << i << " logit " << k;
    }
  }
  EXPECT_EQ(cim.row_errors(), 0);
  EXPECT_GT(cim.row_ops(), 0);
}

TEST(CimEngine, RawDotsMatchAcrossLengths) {
  static const sfc::cim::BehavioralArrayModel model =
      sfc::cim::BehavioralArrayModel::calibrate(
          sfc::cim::ArrayConfig::proposed_2t1fefet(), {27.0});
  CimDotEngine::Options opts;
  CimDotEngine cim(model, opts);
  IdealDotEngine ideal;
  sfc::util::Rng rng(31);
  for (const std::size_t len : {1u, 7u, 8u, 9u, 63u, 64u, 65u, 200u}) {
    std::vector<std::uint8_t> a(len);
    std::vector<std::int8_t> w(len);
    for (std::size_t i = 0; i < len; ++i) {
      a[i] = static_cast<std::uint8_t>(rng.uniform_index(256));
      w[i] = static_cast<std::int8_t>(
          static_cast<int>(rng.uniform_index(255)) - 127);
    }
    EXPECT_EQ(cim.dot(a, w), ideal.dot(a, w)) << "len=" << len;
  }
}

TEST(CimEngine, RowOpsAccounting) {
  static const sfc::cim::BehavioralArrayModel model =
      sfc::cim::BehavioralArrayModel::calibrate(
          sfc::cim::ArrayConfig::proposed_2t1fefet(), {27.0});
  CimDotEngine cim(model, {});
  const std::vector<std::uint8_t> a(16, 1);
  const std::vector<std::int8_t> w(16, 1);
  cim.dot(a, w);
  // 16 elements = 2 groups; 8 activation planes x 7 weight planes x
  // (pos+neg) = 112 plane passes x 2 groups.
  EXPECT_EQ(cim.row_ops(), 2LL * 2 * 8 * 7);
}

TEST(CimEngine, TracedForwardRecordsSpansPerLayerNotPerBatch) {
  // One image makes a dot_batch call per conv output pixel (over a
  // thousand here); a traced forward must record a span per layer plus a
  // constant, never one per call.
  auto& f = fixture();
  static const sfc::cim::BehavioralArrayModel model =
      sfc::cim::BehavioralArrayModel::calibrate(
          sfc::cim::ArrayConfig::proposed_2t1fefet(), {27.0});
  CimDotEngine cim(model, {});
  trace::Tracer& tracer = trace::Tracer::global();
  tracer.start();
  f.qnet.forward(f.test.images[0], cim);
  tracer.stop();
  const std::size_t layers = f.qnet.ops().size();
  EXPECT_LE(tracer.event_count(), layers + 2);
#if SFC_TRACE_ENABLED
  EXPECT_GE(tracer.event_count(), layers);
#endif
}

TEST(CimEngine, MiscountingArrayCorruptsDots) {
  // Build a deliberately broken model: thresholds shifted so counts
  // decode wrong at high temperature (use the subthreshold baseline).
  static const sfc::cim::BehavioralArrayModel baseline =
      sfc::cim::BehavioralArrayModel::calibrate(
          sfc::cim::ArrayConfig::baseline_1r_subthreshold(),
          {0.0, 27.0, 85.0});
  CimDotEngine::Options opts;
  opts.temperature_c = 85.0;
  CimDotEngine cim(baseline, opts);
  IdealDotEngine ideal;
  // Half-active groups: mid MAC counts are where the drifted baseline
  // levels cross the fixed ADC thresholds.
  std::vector<std::uint8_t> a(64);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = (i % 2) ? 255 : 0;
  std::vector<std::int8_t> w(64, 127);
  const auto got = cim.dot(a, w);
  const auto want = ideal.dot(a, w);
  EXPECT_NE(got, want);
  EXPECT_GT(cim.row_errors(), 0);
}

TEST(CimEngine, NoiseDrawsAreDeterministicPerSeed) {
  sfc::cim::MonteCarloConfig mc;
  mc.runs = 4;
  mc.sigma_vt_fefet = 0.054;
  static const sfc::cim::BehavioralArrayModel model =
      sfc::cim::BehavioralArrayModel::calibrate(
          sfc::cim::ArrayConfig::proposed_2t1fefet(), {27.0}, &mc);
  CimDotEngine::Options opts;
  opts.with_variation_noise = true;
  opts.noise_seed = 5;
  std::vector<std::uint8_t> a(64, 200);
  std::vector<std::int8_t> w(64, 100);
  CimDotEngine e1(model, opts), e2(model, opts);
  EXPECT_EQ(e1.dot(a, w), e2.dot(a, w));
}

/// The engine against the reference on one model, temperature and
/// wordlength, through dot() and dot_batch(): values and row errors must
/// match bitwise on every length.
void expect_matches_reference(const BehavioralArrayModel& model, double t,
                              int bits, std::uint64_t seed) {
  SCOPED_TRACE(testing::Message() << "T=" << t << " bits=" << bits);
  CimDotEngine::Options opts;
  opts.temperature_c = t;
  opts.activation_bits = bits;
  opts.weight_bits = bits;
  CimDotEngine single(model, opts), batched(model, opts);
  sfc::util::Rng rng(seed);
  for (const std::size_t len : {1u, 7u, 8u, 9u, 27u, 63u, 64u, 65u, 200u}) {
    constexpr std::size_t kRows = 3;
    std::vector<std::uint8_t> a(len);
    std::vector<std::int8_t> w(kRows * len);
    fill_full_range(rng, a, w);
    std::int64_t want_errors = 0;
    std::vector<std::int64_t> want(kRows);
    for (std::size_t r = 0; r < kRows; ++r) {
      const std::span<const std::int8_t> row(w.data() + r * len, len);
      const ReferenceResult ref = reference_lut(model, t, a, row, bits);
      want[r] = ref.value;
      want_errors += ref.row_errors;
      const std::int64_t errors0 = single.row_errors();
      EXPECT_EQ(single.dot(a, row), ref.value) << "len=" << len << " row=" << r;
      EXPECT_EQ(single.row_errors() - errors0, ref.row_errors)
          << "len=" << len << " row=" << r;
    }
    const std::int64_t errors0 = batched.row_errors();
    std::vector<std::int64_t> got(kRows);
    batched.dot_batch(a, w, len, kRows, got.data());
    EXPECT_EQ(got, want) << "len=" << len;
    EXPECT_EQ(batched.row_errors() - errors0, want_errors) << "len=" << len;
  }
}

TEST(CimEngine, MatchesBitSerialReferenceExactly) {
  // Proposed fabric (identity decode: the integer-dot path) and the
  // 1FeFET-1R baseline (mis-decoding counts: the correction path), 8-bit
  // and 4-bit words, operands outside the word's range included.
  for (const int bits : {8, 4}) {
    for (const double t : {0.0, 27.0, 85.0}) {
      expect_matches_reference(proposed_three_temps(), t, bits, 41);
    }
    for (const double t : {0.0, 85.0}) {
      expect_matches_reference(baseline_three_temps(), t, bits, 43);
    }
  }
  // The baseline at 85 degC must really mis-decode, or the correction
  // path went untested.
  CimDotEngine hot(baseline_three_temps(), {85.0});
  std::vector<std::uint8_t> a(64, 255);
  std::vector<std::int8_t> w(64, 127);
  for (std::size_t i = 0; i < a.size(); i += 2) a[i] = 0;
  hot.dot(a, w);
  EXPECT_GT(hot.row_errors(), 0);
}

TEST(CimEngine, DecodesOnlyRealGroups) {
  // Every count decodes wrong at 85 degC, level 0 included, so each real
  // group is one error; the padding past the last element is no group.
  const BehavioralArrayModel model = shifted_model(0.0);
  for (const int bits : {8, 4}) {
    CimDotEngine::Options opts;
    opts.temperature_c = 85.0;
    opts.activation_bits = bits;
    opts.weight_bits = bits;
    sfc::util::Rng rng(47);
    for (const std::size_t len : {27u, 65u}) {
      CimDotEngine engine(model, opts);
      std::vector<std::uint8_t> a(len);
      std::vector<std::int8_t> w(len);
      fill_full_range(rng, a, w);
      const ReferenceResult ref = reference_lut(model, 85.0, a, w, bits);
      EXPECT_EQ(engine.dot(a, w), ref.value) << "len=" << len;
      EXPECT_EQ(engine.row_errors(), engine.row_ops()) << "len=" << len;
      EXPECT_EQ(ref.row_errors, ref.row_ops) << "len=" << len;
      EXPECT_EQ(engine.row_ops(), ref.row_ops) << "len=" << len;
    }
  }
}

/// Upper 1e-4 quantile of chi-square with df = 1..8 degrees of freedom.
double chi_square_critical(int df) {
  static const double kCritical[] = {15.14, 18.42, 21.11, 23.51,
                                     25.74, 27.86, 29.88, 31.83};
  return kCritical[df - 1];
}

/// Two-sample chi-square of decoded-level histograms with equal totals.
void expect_same_histogram(const std::vector<long>& table,
                           const std::vector<long>& gaussian,
                           const std::string& what) {
  double chi2 = 0.0;
  int bins = 0;
  for (std::size_t j = 0; j < table.size(); ++j) {
    const double r = static_cast<double>(table[j]);
    const double g = static_cast<double>(gaussian[j]);
    if (r + g == 0.0) continue;
    chi2 += (r - g) * (r - g) / (r + g);
    ++bins;
  }
  if (bins <= 1) {
    EXPECT_EQ(table, gaussian) << what;
    return;
  }
  EXPECT_LT(chi2, chi_square_critical(bins - 1)) << what << " (" << bins << " bins)";
}

TEST(CimEngine, TableSamplerMatchesGaussianReadout) {
  // The decode table is drawn with one uniform per group; the oracle is
  // the Gaussian readout BehavioralArrayModel::mac(k, T, rng).
  constexpr long kDraws = 1000000;
  const BehavioralArrayModel& model = proposed_with_sigma();
  for (const double t : {0.0, 27.0, 85.0}) {
    const DecodeSampler sampler(model, t, /*with_noise=*/true);
    sfc::util::Rng table_rng(1000 + static_cast<int>(t));
    sfc::util::Rng gauss_rng(2000 + static_cast<int>(t));
    for (int k = 0; k <= 8; ++k) {
      std::vector<long> table(9, 0), gaussian(9, 0);
      for (long i = 0; i < kDraws; ++i) {
        ++table[static_cast<std::size_t>(sampler.sample(k, table_rng))];
        ++gaussian[static_cast<std::size_t>(model.mac(k, t, &gauss_rng))];
      }
      expect_same_histogram(table, gaussian,
                            "T=" + std::to_string(t) + " k=" + std::to_string(k));
    }
    // Count 0 sits ~40 sigma below the first threshold: it needs no draw.
    EXPECT_FALSE(sampler.random(0)) << "T=" << t;
    EXPECT_EQ(sampler.fixed(0), 0) << "T=" << t;
  }
  // Without noise the sampler is the decode LUT and draws nothing.
  const DecodeSampler lut(baseline_three_temps(), 85.0, /*with_noise=*/false);
  for (int k = 0; k <= 8; ++k) {
    EXPECT_FALSE(lut.random(k));
    EXPECT_EQ(lut.fixed(k), baseline_three_temps().mac(k, 85.0, nullptr));
  }
}

/// Expected mis-decodes (mean, variance) of `trials[k]` groups per count.
std::pair<double, double> expected_misses(const BehavioralArrayModel& model,
                                          double t,
                                          const std::vector<double>& trials) {
  double mean = 0.0, var = 0.0;
  for (int k = 0; k <= 8; ++k) {
    const double p_miss =
        1.0 - model.decode_distribution(k, t)[static_cast<std::size_t>(k)];
    mean += trials[static_cast<std::size_t>(k)] * p_miss;
    var += trials[static_cast<std::size_t>(k)] * p_miss * (1.0 - p_miss);
  }
  return {mean, var};
}

TEST(CimEngine, NoisyMisDecodesMatchTheDistribution) {
  // Rows with a known true-count histogram: with a = 255 and w = 127 all
  // 8 x 7 positive plane pairs see it, the negative ones see count 0.
  constexpr int kGroups = 64;
  constexpr int kDots = 200;
  constexpr double kPairs = 8 * 7;
  std::vector<std::uint8_t> a(kGroups * 8, 0);
  const std::vector<std::int8_t> w(kGroups * 8, 127);
  std::vector<double> trials(9, 0.0);
  for (int g = 0; g < kGroups; ++g) {
    const int k = g % 9;
    trials[static_cast<std::size_t>(k)] += kDots * kPairs;
    for (int e = 0; e < k; ++e) a[static_cast<std::size_t>(8 * g + e)] = 255;
  }
  trials[0] += kDots * kPairs * kGroups;
  for (const double t : {0.0, 27.0, 85.0}) {
    CimDotEngine::Options o;
    o.temperature_c = t;
    o.with_variation_noise = true;
    o.noise_seed = 13;
    CimDotEngine engine(proposed_with_sigma(), o);
    for (int i = 0; i < kDots; ++i) engine.dot(a, w);
    const auto [mean, var] = expected_misses(proposed_with_sigma(), t, trials);
    EXPECT_GT(mean, 100.0) << "T=" << t;
    EXPECT_NEAR(static_cast<double>(engine.row_errors()), mean, 5.0 * std::sqrt(var))
        << "T=" << t;
  }
}

TEST(CimEngine, NoisyCountZeroIsDrawnOnRealGroupsOnly) {
  // A spread of half the level spacing makes count 0 decode at random, so
  // every real group - never the padding - takes a draw. All-zero
  // operands put every group at count 0.
  const BehavioralArrayModel model = shifted_model(0.05);
  for (const std::size_t len : {27u, 200u}) {
    CimDotEngine::Options o;
    o.temperature_c = 27.0;
    o.with_variation_noise = true;
    o.noise_seed = 17;
    CimDotEngine engine(model, o);
    constexpr int kDots = 100;
    const std::vector<std::uint8_t> a(len, 0);
    const std::vector<std::int8_t> w(len, 0);
    for (int i = 0; i < kDots; ++i) engine.dot(a, w);
    std::vector<double> trials(9, 0.0);
    trials[0] = static_cast<double>(engine.row_ops());
    const auto [mean, var] = expected_misses(model, 27.0, trials);
    EXPECT_GT(mean, 100.0) << "len=" << len;
    EXPECT_NEAR(static_cast<double>(engine.row_errors()), mean, 5.0 * std::sqrt(var))
        << "len=" << len;
  }
}

TEST(CimEngine, NoisyDotMatchesGaussianReferenceOnAverage) {
  // Same rows through the engine and through the reference with the
  // Gaussian readout: the mean decoded values agree within 5 standard
  // errors (row-level check of the whole correction path with draws).
  const BehavioralArrayModel model = shifted_model(0.05);
  CimDotEngine::Options o;
  o.temperature_c = 27.0;
  o.with_variation_noise = true;
  o.noise_seed = 19;
  CimDotEngine engine(model, o);
  sfc::util::Rng data_rng(53), gauss_rng(59);
  std::vector<std::uint8_t> a(27);
  std::vector<std::int8_t> w(27);
  fill_full_range(data_rng, a, w);
  constexpr int kDots = 4000;
  double sum_engine = 0.0, sum_ref = 0.0, sq_ref = 0.0;
  for (int i = 0; i < kDots; ++i) {
    sum_engine += static_cast<double>(engine.dot(a, w));
    const double v = static_cast<double>(
        reference_bit_serial(a, w, 8, 8, [&](int count) {
          return model.mac(count, 27.0, &gauss_rng);
        }).value);
    sum_ref += v;
    sq_ref += v * v;
  }
  const double mean_ref = sum_ref / kDots;
  const double sd = std::sqrt(sq_ref / kDots - mean_ref * mean_ref);
  EXPECT_GT(sd, 0.0);
  EXPECT_NEAR(sum_engine / kDots, mean_ref, 5.0 * std::sqrt(2.0) * sd / std::sqrt(kDots));
}

}  // namespace
}  // namespace sfc::nn
