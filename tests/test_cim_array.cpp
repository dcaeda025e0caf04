// Array-level tests: MAC correctness (Eq. 1 behaviour), level monotonicity
// and separability across temperature (Figs. 4 and 8), energy accounting,
// pattern invariance, and write-path programming.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "cim/energy.hpp"
#include "cim/mac.hpp"

namespace sfc::cim {
namespace {

const std::vector<double> kTemps = {0.0, 27.0, 85.0};

TEST(CiMRow, MacLevelsMonotoneAtRoomTemperature) {
  CiMRow row(ArrayConfig::proposed_2t1fefet());
  row.set_stored(std::vector<int>(8, 1));
  double prev = -1.0;
  for (int k = 0; k <= 8; ++k) {
    std::vector<int> inputs(8, 0);
    for (int i = 0; i < k; ++i) inputs[static_cast<std::size_t>(i)] = 1;
    const MacResult r = row.evaluate(inputs, 27.0);
    ASSERT_TRUE(r.converged);
    EXPECT_GT(r.v_acc, prev) << "k=" << k;
    prev = r.v_acc;
  }
}

TEST(CiMRow, MacDependsOnCountNotPattern) {
  // Any pattern with the same number of active (1,1) pairs must give
  // nearly the same output.
  CiMRow row(ArrayConfig::proposed_2t1fefet());
  row.set_stored(std::vector<int>(8, 1));
  const std::vector<std::vector<int>> patterns = {
      {1, 1, 1, 0, 0, 0, 0, 0},
      {0, 0, 0, 0, 0, 1, 1, 1},
      {1, 0, 1, 0, 1, 0, 0, 0},
  };
  std::vector<double> outs;
  for (const auto& p : patterns) {
    const MacResult r = row.evaluate(p, 27.0);
    ASSERT_TRUE(r.converged);
    outs.push_back(r.v_acc);
  }
  for (double v : outs) {
    EXPECT_NEAR(v, outs[0], 1e-4);
  }
}

TEST(CiMRow, StoredZeroAndInputZeroEquivalent) {
  CiMRow row(ArrayConfig::proposed_2t1fefet());
  // 3 active by input gating.
  row.set_stored(std::vector<int>(8, 1));
  const MacResult by_input =
      row.evaluate({1, 1, 1, 0, 0, 0, 0, 0}, 27.0);
  // 3 active by storage gating.
  row.set_stored({1, 1, 1, 0, 0, 0, 0, 0});
  const MacResult by_weight = row.evaluate(std::vector<int>(8, 1), 27.0);
  EXPECT_NEAR(by_input.v_acc, by_weight.v_acc,
              0.15 * std::fabs(by_input.v_acc));
}

TEST(CiMRow, ChargeShareFollowsEq1Scaling) {
  // V_acc = C0 / (n*C0 + Cacc) * sum(V_Oi): compare the measured ratio
  // V_acc / sum(V_Oi) to the capacitor-ratio prediction.
  const ArrayConfig cfg = ArrayConfig::proposed_2t1fefet();
  CiMRow row(cfg);
  row.set_stored(std::vector<int>(8, 1));
  const MacResult r = row.evaluate(std::vector<int>(8, 1), 27.0);
  ASSERT_TRUE(r.converged);
  double v_sum = 0.0;
  for (double v : r.v_cell) v_sum += v;
  const double predicted =
      cfg.cell2t.c0 / (8.0 * cfg.cell2t.c0 + cfg.sense.c_acc);
  EXPECT_NEAR(r.v_acc / v_sum, predicted, predicted * 0.1);
}

TEST(CiMRow, ProposedArraySeparableOverTemperature) {
  // Fig. 8(a): no overlapping MAC levels from 0 to 85 degC.
  const LevelSweepResult sweep =
      mac_level_sweep(ArrayConfig::proposed_2t1fefet(), kTemps);
  ASSERT_TRUE(sweep.all_converged);
  const NmrSummary nmr = summarize_nmr(sweep.levels);
  EXPECT_TRUE(nmr.separable);
  EXPECT_GT(nmr.nmr_min, 0.1);
}

TEST(CiMRow, BaselineArrayOverlapsOverTemperature) {
  // Fig. 4: the subthreshold 1FeFET-1R array has overlapping outputs.
  const LevelSweepResult sweep =
      mac_level_sweep(ArrayConfig::baseline_1r_subthreshold(), kTemps);
  const NmrSummary nmr = summarize_nmr(sweep.levels);
  EXPECT_FALSE(nmr.separable);
  EXPECT_LT(nmr.nmr_min, 0.0);
}

TEST(CiMRow, WarmRangeNmrImproves) {
  // Paper: NMR_min rises from 0.22 (0-85C) to 2.3 (20-85C).
  const ArrayConfig cfg = ArrayConfig::proposed_2t1fefet();
  const NmrSummary all =
      summarize_nmr(mac_level_sweep(cfg, {0.0, 27.0, 85.0}).levels);
  const NmrSummary warm =
      summarize_nmr(mac_level_sweep(cfg, {20.0, 27.0, 85.0}).levels);
  EXPECT_GT(warm.nmr_min, all.nmr_min);
}

TEST(CiMRow, EnergyScalesWithMacValue) {
  // Fig. 8(b): more active cells -> more charge moved -> more energy.
  const EnergySummary e = measure_energy(ArrayConfig::proposed_2t1fefet(),
                                         27.0);
  ASSERT_EQ(e.energy_per_op_by_mac.size(), 9u);
  EXPECT_GT(e.energy_per_op_by_mac[8], e.energy_per_op_by_mac[1]);
  EXPECT_GT(e.mean_energy_per_op, 0.0);
  // Ultra-low power: well below 10 fJ/op, TOPS/W in the 100s+.
  EXPECT_LT(e.mean_energy_per_op, 10e-15);
  EXPECT_GT(e.tops_per_watt, 100.0);
}

TEST(CiMRow, EnergyBreakdownSumsToTotal) {
  CiMRow row(ArrayConfig::proposed_2t1fefet());
  row.set_stored(std::vector<int>(8, 1));
  MacResult r = row.evaluate(std::vector<int>(8, 1), 27.0,
                             /*keep_waveforms=*/true);
  ASSERT_TRUE(r.converged);
  const EnergyBreakdown b = energy_breakdown(r);
  EXPECT_NEAR(b.total_joules, r.energy_joules,
              std::fabs(r.energy_joules) * 1e-9);
  EXPECT_FALSE(b.per_source.empty());
  EXPECT_GT(b.tops_per_watt, 0.0);
}

TEST(CiMRow, LteSteppingMatchesOnePicosecondSteps) {
  // LTE-controlled MAC cycles against the same cycles with every step
  // capped at 1 ps: v_acc within 3.2e-5 V (the largest deviation fixed
  // 20 ps steps showed over these points), E/op within 1 %, and at most
  // 750 Newton iterations per cycle.
  const ArrayConfig cfg = ArrayConfig::proposed_2t1fefet();
  ArrayConfig fine_cfg = cfg;
  fine_cfg.timing.dt = 1e-12;
  CiMRow row(cfg);
  CiMRow fine(fine_cfg);
  row.set_stored(std::vector<int>(8, 1));
  fine.set_stored(std::vector<int>(8, 1));
  for (const double temperature : kTemps) {
    for (const int mac : {0, 4, 8}) {
      std::vector<int> inputs(8, 0);
      for (int i = 0; i < mac; ++i) inputs[static_cast<std::size_t>(i)] = 1;
      const MacResult r = row.evaluate(inputs, temperature);
      const MacResult ref = fine.evaluate(inputs, temperature);
      ASSERT_TRUE(r.converged && ref.converged);
      SCOPED_TRACE("MAC " + std::to_string(mac) + " at " +
                   std::to_string(temperature) + " degC");
      EXPECT_NEAR(r.v_acc, ref.v_acc, 3.2e-5);
      EXPECT_NEAR(r.energy_per_op(), ref.energy_per_op(),
                  0.01 * ref.energy_per_op());
      EXPECT_LE(r.newton_iterations, 750);
    }
  }
}

TEST(CiMRow, CellOutputsComeFromTheAcceptedStepAtSettle) {
  // Every cycle steps onto t_settle, MAC 0 (no WL pulse corner there)
  // included, and a cycle that keeps no waveforms reads the same bits.
  const ArrayConfig cfg = ArrayConfig::proposed_2t1fefet();
  CiMRow row(cfg);
  row.set_stored(std::vector<int>(8, 1));
  row.evaluate(std::vector<int>(8, 1), 27.0);  // warm the solver workspace
  for (const std::vector<int>& inputs :
       {std::vector<int>(8, 0), std::vector<int>{1, 0, 1, 1, 0, 0, 1, 0}}) {
    const MacResult lean = row.evaluate(inputs, 27.0);
    const MacResult kept = row.evaluate(inputs, 27.0, /*keep_waveforms=*/true);
    ASSERT_TRUE(lean.converged && kept.converged);
    const std::vector<double>& times = kept.waveforms.time();
    EXPECT_NE(std::find(times.begin(), times.end(), cfg.timing.t_settle),
              times.end());
    EXPECT_EQ(lean.v_cell, kept.v_cell);
    EXPECT_EQ(lean.v_acc, kept.v_acc);
    EXPECT_EQ(lean.waveforms.num_samples(), 0u);
  }
}

TEST(CiMRow, ProgramPathMatchesDirectSet) {
  // Writing through the +-4V pulse protocol must land in the same state as
  // set_stored.
  const ArrayConfig cfg = ArrayConfig::proposed_2t1fefet();
  CiMRow programmed(cfg);
  programmed.program({1, 0, 1, 0, 1, 0, 1, 0});
  CiMRow forced(cfg);
  forced.set_stored({1, 0, 1, 0, 1, 0, 1, 0});
  EXPECT_EQ(programmed.stored(), forced.stored());

  const std::vector<int> inputs(8, 1);
  const MacResult rp = programmed.evaluate(inputs, 27.0);
  const MacResult rf = forced.evaluate(inputs, 27.0);
  EXPECT_NEAR(rp.v_acc, rf.v_acc, 0.02 * std::fabs(rf.v_acc) + 1e-4);
}

TEST(CiMRow, RepeatedEvaluationIsStable) {
  // Back-to-back MAC cycles must give identical results (caps reset by the
  // precharge ICs, FeFET state untouched by reads).
  CiMRow row(ArrayConfig::proposed_2t1fefet());
  row.set_stored(std::vector<int>(8, 1));
  const std::vector<int> inputs = {1, 0, 1, 1, 0, 0, 1, 0};
  const MacResult r1 = row.evaluate(inputs, 27.0);
  const MacResult r2 = row.evaluate(inputs, 27.0);
  EXPECT_DOUBLE_EQ(r1.v_acc, r2.v_acc);
}

TEST(CiMRow, FourCellRowAlsoSeparable) {
  ArrayConfig cfg = ArrayConfig::proposed_2t1fefet();
  cfg.cells_per_row = 4;
  const LevelSweepResult sweep = mac_level_sweep(cfg, kTemps);
  ASSERT_TRUE(sweep.all_converged);
  EXPECT_TRUE(summarize_nmr(sweep.levels).separable);
}

TEST(CiMRow, LatencyMatchesPaper) {
  const ArrayConfig cfg = ArrayConfig::proposed_2t1fefet();
  EXPECT_NEAR(cfg.timing.t_total(), 6.9e-9, 1e-12);
  // ops per MAC: 8 multiplications + 1 accumulation.
  CiMRow row(cfg);
  row.set_stored(std::vector<int>(8, 1));
  EXPECT_EQ(row.evaluate(std::vector<int>(8, 1), 27.0).ops, 9);
}

}  // namespace
}  // namespace sfc::cim
