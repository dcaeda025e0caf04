// montecarlo_fig9: the paper's Fig. 9 through cim::run_montecarlo — 100
// runs at sigma_VT = 54 mV and 27 degC, MAC 0..8 on an 8-cell proposed
// row, fanned out over 2 threads. The run's seed is the Monte Carlo seed;
// every pass repeats the same Monte Carlo.
#include <algorithm>
#include <cmath>
#include <string>
#include <thread>

#include "cim/array.hpp"
#include "cim/montecarlo.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kRuns = 100;
constexpr double kSigmaVt = 0.054;
constexpr double kTemperatureC = 27.0;

/// Nominal MAC levels 0..n from a fresh row: the reference the Monte Carlo
/// result's own nominal levels must reproduce.
std::vector<double> reference_levels(const sfc::cim::ArrayConfig& cfg,
                                     Report& report) {
  const int n = cfg.cells_per_row;
  sfc::cim::CiMRow row(cfg);
  row.set_stored(std::vector<int>(static_cast<std::size_t>(n), 1));
  std::vector<double> levels;
  for (int k = 0; k <= n; ++k) {
    std::vector<int> inputs(static_cast<std::size_t>(n), 0);
    std::fill(inputs.begin(), inputs.begin() + k, 1);
    const sfc::cim::MacResult r = row.evaluate(inputs, kTemperatureC);
    report.op(r.converged, "reference level did not converge");
    levels.push_back(r.v_acc);
  }
  return levels;
}

}  // namespace

void run_montecarlo_fig9(Report& report, SpanLog& spans) {
  const RunOptions& opts = report.options();
  const sfc::cim::ArrayConfig cfg = sfc::cim::ArrayConfig::proposed_2t1fefet();

  std::vector<double> setup_s;
  std::vector<double> levels;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    auto scope = spans.scope("mc.setup");
    const auto t0 = Clock::now();
    levels = reference_levels(cfg, report);
    setup_s.push_back(ms_since(t0) / 1000.0);
  }
  const double spacing = (levels.back() - levels.front()) / (levels.size() - 1);

  sfc::cim::MonteCarloConfig mc;
  mc.runs = kRuns;
  mc.sigma_vt_fefet = kSigmaVt;
  mc.temperature_c = kTemperatureC;
  mc.seed = opts.seed;
  const int hw = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  mc.exec.threads = std::min(2, hw);

  const auto counters_before = CounterSnapshot::take();
  CounterSnapshot counters_after_pass0;
  std::vector<double> untraced_ms, traced_ms;
  std::vector<sfc::exec::JobReport> traced_jobs;
  long pass0_iterations = 0;
  PassLoop loop(opts, spans, 3);
  while (loop.next()) {
    sfc::cim::MonteCarloResult r;
    {
      auto scope = spans.scope("cim.run_montecarlo");
      const auto t0 = Clock::now();
      r = sfc::cim::run_montecarlo(cfg, mc);
      (loop.traced() ? traced_ms : untraced_ms).push_back(ms_since(t0));
    }
    if (loop.index() == 0) {
      pass0_iterations = r.total_newton_iterations;
      counters_after_pass0 = CounterSnapshot::take();
    }
    if (loop.traced()) traced_jobs.push_back(r.job);

    bool ok = r.all_converged && r.job.failed == 0;
    std::string why = "a Monte Carlo run did not converge";
    if (ok && !(r.max_error_percent > 5.0 && r.max_error_percent < 50.0)) {
      ok = false;
      why = "max error " + std::to_string(r.max_error_percent) +
            " % outside Fig. 9's 5-50 % window";
    }
    if (ok && r.nominal_levels.size() != levels.size()) {
      ok = false;
      why = "wrong number of nominal levels";
    }
    for (std::size_t k = 0; ok && k < levels.size(); ++k) {
      if (std::abs(r.nominal_levels[k] - levels[k]) > 0.01 * spacing) {
        ok = false;
        why = "nominal level " + std::to_string(k) + " differs from a fresh row";
      }
    }
    if (ok && r.total_newton_iterations != pass0_iterations) {
      ok = false;
      why = "same seed, different Newton iteration count";
    }
    report.op(ok, why);
  }

  report.note("mc_wall_s: " +
              describe(untraced_ms.empty() ? traced_ms : untraced_ms, "ms") +
              ", " + std::to_string(kRuns) + " runs on " +
              std::to_string(mc.exec.threads) + " threads");
  report.note("deterministic: newton_iterations per Monte Carlo " +
              std::to_string(pass0_iterations));
  report.metric("op_ms", median(untraced_ms.empty() ? traced_ms : untraced_ms));
  report.metric("setup_s", median(setup_s));
  report.metric("peak_rss_mb", peak_rss_mb());
  if (!opts.trace) return;

  report.metric("trace.overhead_pct",
                overhead_pct(median(traced_ms), median(untraced_ms)));
  std::vector<double> task_ms, task_max, utilisation, us_per_iter;
  for (const sfc::exec::JobReport& job : traced_jobs) {
    task_ms.insert(task_ms.end(), job.task_ms.begin(), job.task_ms.end());
    task_max.push_back(job.task_ms_max());
    utilisation.push_back(job.task_ms_total() / (job.wall_ms * job.threads_used));
    us_per_iter.push_back(1000.0 * job.task_ms_total() / pass0_iterations);
  }
  report.metric("cim.mc.task_ms.p50", median(task_ms));
  report.metric("cim.mc.task_ms.max", median(task_max));
  report.metric("exec.pool_utilisation", median(utilisation));
  report.metric("cim.mc.us_per_newton_iter", median(us_per_iter));
  report.metric("cim.mc.newton_iters", static_cast<double>(pass0_iterations));

  // Nominal levels plus every run simulate one cycle per MAC value.
  const double cycles = static_cast<double>((kRuns + 1) * levels.size());
  report_solver_counters(report, counters_before, counters_after_pass0, cycles);
}

}  // namespace perfbench
