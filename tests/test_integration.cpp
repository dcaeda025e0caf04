// Cross-module integration tests: the paper's headline claims, end to
// end - circuit-level calibration, array separability feeding the
// behavioural model, and CNN inference through the CiM fabric across
// temperature.
#include <vector>

#include <gtest/gtest.h>

#include "cim/energy.hpp"
#include "cim/mac.hpp"
#include "cim/metrics.hpp"
#include "nn/cim_engine.hpp"
#include "nn/trainer.hpp"
#include "nn/vgg.hpp"

namespace {

using namespace sfc;

// Max normalized fluctuation (reference 27 degC) of the converged cell
// currents: i_drain for the 1FeFET-1R current-mode read (Fig. 3), the C0
// average charging current for the 2T-1FeFET cell (Fig. 7).
double fluctuation_1r(const cim::ArrayConfig& cfg,
                      const std::vector<double>& temps_c) {
  std::vector<double> temps, currents;
  for (const auto& r : cim::cell_current_response(cfg, temps_c, 1, 1)) {
    if (!r.converged) continue;
    temps.push_back(r.temperature_c);
    currents.push_back(r.i_drain);
  }
  return cim::max_normalized_fluctuation(temps, currents, 27.0);
}

double fluctuation_2t(const cim::ArrayConfig& cfg,
                      const std::vector<double>& temps_c) {
  std::vector<double> temps, currents;
  for (const auto& r : cim::cell_temperature_response(cfg, temps_c, 1, 1)) {
    if (!r.converged) continue;
    temps.push_back(r.temperature_c);
    currents.push_back(r.i_avg);
  }
  return cim::max_normalized_fluctuation(temps, currents, 27.0);
}

double nmr_min(const cim::ArrayConfig& cfg,
               const std::vector<double>& temps_c) {
  return cim::summarize_nmr(cim::mac_level_sweep(cfg, temps_c).levels)
      .nmr_min;
}

TEST(Integration, PaperHeadlineClaimsHold) {
  // Coarse grid keeps this test fast; the benches use the full grid.
  const std::vector<double> temps = {0.0, 27.0, 85.0};
  const std::vector<double> warm = {27.0, 85.0};
  const cim::ArrayConfig sat = cim::ArrayConfig::baseline_1r_saturation();
  const cim::ArrayConfig sub = cim::ArrayConfig::baseline_1r_subthreshold();
  const cim::ArrayConfig prop = cim::ArrayConfig::proposed_2t1fefet();

  // Sec. III-A: subthreshold operation is much more temperature-sensitive
  // than saturation operation for the baseline cell.
  const double fluct_sub = fluctuation_1r(sub, temps);
  EXPECT_GT(fluct_sub, fluctuation_1r(sat, temps));
  // Sec. IV-A: the proposed cell beats the subthreshold baseline.
  EXPECT_LT(fluctuation_2t(prop, temps), fluct_sub);
  // Fig. 8(a) vs Fig. 4: proposed array separable, baseline overlaps.
  const double nmr_prop = nmr_min(prop, temps);
  EXPECT_GT(nmr_prop, 0.0);
  EXPECT_LT(nmr_min(sub, temps), 0.0);
  // Fig. 8(b): ultra-low energy (single-digit fJ/op at most).
  const cim::EnergySummary energy = cim::measure_energy(prop, 27.0);
  EXPECT_GT(energy.mean_energy_per_op, 0.0);
  EXPECT_LT(energy.mean_energy_per_op, 10e-15);
  EXPECT_GT(energy.tops_per_watt, 100.0);
  // >= 20C the margin improves (paper: NMR 0.22 -> 2.3).
  EXPECT_GT(nmr_min(prop, warm), nmr_prop);
}

TEST(Integration, CnnAccuracyStableOnProposedFabric) {
  // Train a small CNN on SynthCIFAR, quantize, then run every MAC through
  // the calibrated proposed array at several temperatures: accuracy must
  // not degrade. The subthreshold baseline fabric must lose accuracy at
  // temperature extremes.
  data::SynthCifarConfig dcfg;
  dcfg.train_per_class = 24;
  dcfg.test_per_class = 6;
  dcfg.noise_sigma = 0.06;
  const auto train = data::make_synth_cifar_train(dcfg);
  const auto test = data::make_synth_cifar_test(dcfg);

  util::Rng rng(41);
  nn::Sequential net;
  net.add<nn::Conv2d>(3, 6, 3, true, rng);
  net.add<nn::Relu>();
  net.add<nn::MaxPool2d>(2);
  net.add<nn::Conv2d>(6, 10, 3, true, rng);
  net.add<nn::Relu>();
  net.add<nn::MaxPool2d>(2);
  net.add<nn::MaxPool2d>(2);
  net.add<nn::Flatten>();
  net.add<nn::Dense>(160, 10, rng);
  nn::TrainConfig tcfg;
  tcfg.epochs = 5;
  tcfg.batch_size = 8;
  tcfg.learning_rate = 0.05;
  nn::Trainer trainer(net, tcfg);
  trainer.fit(train);

  const nn::QuantizedNetwork qnet =
      nn::QuantizedNetwork::from_model(net, train, 16);
  nn::IdealDotEngine ideal;
  const double acc_ideal = qnet.evaluate(test, ideal);
  ASSERT_GT(acc_ideal, 0.4);

  const cim::BehavioralArrayModel proposed =
      cim::BehavioralArrayModel::calibrate(
          cim::ArrayConfig::proposed_2t1fefet(), {0.0, 27.0, 85.0});
  for (double t : {0.0, 27.0, 85.0}) {
    nn::CimDotEngine::Options opts;
    opts.temperature_c = t;
    nn::CimDotEngine engine(proposed, opts);
    const double acc = qnet.evaluate(test, engine);
    EXPECT_NEAR(acc, acc_ideal, 0.03) << "proposed fabric at T=" << t;
  }

  const cim::BehavioralArrayModel baseline =
      cim::BehavioralArrayModel::calibrate(
          cim::ArrayConfig::baseline_1r_subthreshold(), {0.0, 27.0, 85.0});
  // At the temperature extremes the baseline's levels cross the fixed ADC
  // thresholds: a large fraction of row operations misdecode. (End-to-end
  // accuracy degrades less than the raw error rate suggests because the
  // positive- and negative-weight rows misdecode with correlated bias and
  // partially cancel - see EXPERIMENTS.md.)
  nn::CimDotEngine::Options hot;
  hot.temperature_c = 85.0;
  nn::CimDotEngine engine(baseline, hot);
  qnet.evaluate(test, engine, /*max_images=*/4);
  ASSERT_GT(engine.row_ops(), 0);
  const double error_rate =
      static_cast<double>(engine.row_errors()) /
      static_cast<double>(engine.row_ops());
  EXPECT_GT(error_rate, 0.01);

  // The proposed fabric performs the identical workload with zero
  // misdecoded rows at the same temperature.
  nn::CimDotEngine proposed_engine(proposed, hot);
  qnet.evaluate(test, proposed_engine, /*max_images=*/4);
  EXPECT_EQ(proposed_engine.row_errors(), 0);
}

}  // namespace
