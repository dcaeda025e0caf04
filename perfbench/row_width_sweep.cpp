// row_width_sweep: single-threaded MAC cycles (cim::CiMRow::evaluate) on
// proposed 2T-1FeFET rows of 8, 16 and 32 cells. Each width runs a
// fixed, seeded set of blocks; a block re-programs the row's weights with
// CiMRow::program (the +-4 V pulse protocol) and then runs a few cycles at
// one temperature with seeded inputs whose MAC counts spread over the
// stored ones. Traced runs add a DC operating-point probe up to 64 cells.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "catalogue.hpp"
#include "cim/array.hpp"
#include "spice/engine.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Cycle {
  std::vector<int> inputs;
  int mac = 0;  ///< cells with stored 1 and input 1
};

struct Block {
  std::vector<int> weights;
  double temperature_c = 27.0;
  std::vector<Cycle> cycles;
};

struct WidthPlan {
  int cells = 0;
  std::vector<double> temps_c;
  int blocks_per_temp = 1;
  int cycles_per_block = 3;
};

// Four blocks per temperature average over weight patterns. The plan
// leaves out the points where the current solver's transient fails to converge
// for some seeded patterns (step halving gives up after seconds): 32 cells
// at 0 degC (about 4 in 1100 patterns) and 64 cells at 0 and 27 degC.
// 64-cell rows run only the DC probe of traced runs. See README.md.
const std::vector<WidthPlan> kPlans = {
    {8, {0.0, 27.0, 85.0}, 4, 3},
    {16, {0.0, 27.0, 85.0}, 4, 2},
    {32, {27.0, 85.0}, 4, 2},
};

std::vector<Block> make_blocks(const WidthPlan& plan, InputRng& rng) {
  const int n = plan.cells;
  const int ones = (3 * n + 3) / 4;
  std::vector<Block> blocks;
  for (int b = 0; b < plan.blocks_per_temp; ++b) {
    for (double t : plan.temps_c) {
      Block block;
      block.temperature_c = t;
      block.weights.assign(static_cast<std::size_t>(n), 0);
      const std::vector<int> order = rng.pick(n, n);
      for (int i = 0; i < ones; ++i) {
        block.weights[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] = 1;
      }
      const std::vector<int> stored_one(order.begin(), order.begin() + ones);
      const std::vector<int> stored_zero(order.begin() + ones, order.end());
      for (int c = 0; c < plan.cycles_per_block; ++c) {
        // MAC counts spread evenly over 0..ones, offset per block so each
        // temperature sees several counts; extra '1' inputs on stored-0
        // cells exercise the off-cell leakage path.
        const double offset = (b + 0.5) / plan.blocks_per_temp;
        const int k = static_cast<int>(std::lround(
            (c + offset) * ones / static_cast<double>(plan.cycles_per_block)));
        Cycle cycle;
        cycle.mac = k;
        cycle.inputs.assign(static_cast<std::size_t>(n), 0);
        for (int i : rng.pick(ones, k)) {
          cycle.inputs[static_cast<std::size_t>(stored_one[static_cast<std::size_t>(i)])] = 1;
        }
        const int zeros = n - ones;
        const int extra = static_cast<int>(rng.below(static_cast<std::uint64_t>(zeros) + 1));
        for (int i : rng.pick(zeros, extra)) {
          cycle.inputs[static_cast<std::size_t>(stored_zero[static_cast<std::size_t>(i)])] = 1;
        }
        block.cycles.push_back(std::move(cycle));
      }
      blocks.push_back(std::move(block));
    }
  }
  return blocks;
}

struct Width {
  int cells = 0;
  std::unique_ptr<sfc::cim::CiMRow> row;
  std::vector<Block> blocks;
  int cycles = 0;
  int cycle_span = 0;
  int program_span = 0;
  /// Reference line v = a + b * mac per temperature, fitted on pass 0.
  std::map<double, std::pair<double, double>> lines;
  /// Cycle times of untraced and traced passes, pass after pass.
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  long pass0_newton_iterations = 0;
};

std::unique_ptr<sfc::cim::CiMRow> make_row(int cells) {
  sfc::cim::ArrayConfig cfg = sfc::cim::ArrayConfig::proposed_2t1fefet();
  cfg.cells_per_row = cells;
  return std::make_unique<sfc::cim::CiMRow>(cfg);
}

/// Least-squares line through (mac, v_acc) points of one temperature.
std::pair<double, double> fit_line(const std::vector<std::pair<int, double>>& pts) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (const auto& [k, v] : pts) {
    sx += k;
    sy += v;
    sxx += static_cast<double>(k) * k;
    sxy += k * v;
  }
  const double m = static_cast<double>(pts.size());
  const double b = (m * sxy - sx * sy) / (m * sxx - sx * sx);
  return {(sy - b * sx) / m, b};
}

// Workspace diagnostics that a solver rewrite may remove: read them only
// when the members still exist, otherwise report the metric as absent.
template <typename EngineT>
std::optional<double> mna_size(const EngineT& engine) {
  if constexpr (requires { engine.workspace().size; }) {
    return static_cast<double>(engine.workspace().size);
  } else {
    return std::nullopt;
  }
}

template <typename EngineT>
std::optional<double> lu_ops(const EngineT& engine) {
  if constexpr (requires { engine.workspace().plan.compiled_ops(); }) {
    return static_cast<double>(engine.workspace().plan.compiled_ops());
  } else {
    return std::nullopt;
  }
}

int nonlinear_devices(sfc::cim::CiMRow& row) {
  int count = 0;
  for (const auto& device : row.circuit().devices()) {
    if (!device->is_linear()) ++count;
  }
  return count;
}

/// Time of a width's cycle set: each cycle's median over passes, summed
/// and divided by the set's size (`times` holds whole passes in order).
double set_time_ms(const std::vector<double>& times, int cycles) {
  const std::size_t passes = times.size() / static_cast<std::size_t>(cycles);
  double sum = 0.0;
  for (std::size_t c = 0; c < static_cast<std::size_t>(cycles); ++c) {
    std::vector<double> samples;
    for (std::size_t p = 0; p < passes; ++p) samples.push_back(times[p * cycles + c]);
    sum += median(samples);
  }
  return sum / cycles;
}

std::string fmt(const char* format, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, format, a, b, c);
  return buf;
}

}  // namespace

void run_row_width_sweep(Report& report, SpanLog& spans) {
  const RunOptions& opts = report.options();

  // --- set-up: rows, seeded blocks, one warm-up cycle per width ----------
  std::vector<Width> widths;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    auto scope = spans.scope("row.setup");
    const auto t0 = Clock::now();
    InputRng rng(derive_seed(opts.seed, 1));
    widths.clear();
    for (const WidthPlan& plan : kPlans) {
      Width w;
      w.cells = plan.cells;
      w.row = make_row(plan.cells);
      w.blocks = make_blocks(plan, rng);
      for (const Block& b : w.blocks) w.cycles += static_cast<int>(b.cycles.size());
      const std::string suffix = ".c" + std::to_string(plan.cells);
      w.cycle_span = spans.id("cim.mac_cycle" + suffix);
      w.program_span = spans.id("cim.program" + suffix);
      // First cycle compiles the row's solver workspace (lazy set-up).
      w.row->program(w.blocks.front().weights);
      const sfc::cim::MacResult warm =
          w.row->evaluate(w.blocks.front().cycles.front().inputs, 27.0);
      report.op(warm.converged, "warm-up cycle did not converge, " +
                                    std::to_string(plan.cells) + " cells");
      widths.push_back(std::move(w));
    }
    setup_s.push_back(ms_since(t0) / 1000.0);
  }

  // --- timed passes ------------------------------------------------------
  const auto counters_before = CounterSnapshot::take();
  CounterSnapshot counters_after_pass0;
  PassLoop loop(opts, spans, 3);
  while (loop.next()) {
    auto pass_scope = spans.scope("row.pass");
    for (Width& w : widths) {
      std::map<double, std::vector<std::pair<int, double>>> points;
      for (const Block& block : w.blocks) {
        {
          auto s = spans.scope(w.program_span);
          w.row->program(block.weights);
        }
        for (const Cycle& cycle : block.cycles) {
          sfc::cim::MacResult r;
          {
            auto s = spans.scope(w.cycle_span);
            const auto t0 = Clock::now();
            r = w.row->evaluate(cycle.inputs, block.temperature_c);
            (loop.traced() ? w.traced_ms : w.untraced_ms).push_back(ms_since(t0));
          }
          if (loop.index() == 0) w.pass0_newton_iterations += r.newton_iterations;
          report.op(r.converged, fmt("%g-cell cycle at %g degC did not converge",
                                     w.cells, block.temperature_c));
          if (!r.converged) continue;
          if (loop.index() == 0) {
            points[block.temperature_c].push_back({cycle.mac, r.v_acc});
          } else {
            // Later passes must land on the levels fitted in pass 0.
            const auto [a, b] = w.lines.at(block.temperature_c);
            report.op(std::abs(r.v_acc - (a + b * cycle.mac)) < 0.5 * b,
                      fmt("%g-cell v_acc off its MAC level at %g degC", w.cells,
                          block.temperature_c));
          }
        }
      }
      if (loop.index() == 0) {
        // Fit the per-temperature level line and check every pass-0 cycle
        // against it: physical window, then nearest-level decoding.
        for (const auto& [t, pts] : points) {
          const auto [a, b] = fit_line(pts);
          w.lines[t] = {a, b};
          const double full_scale = b * w.cells;
          report.op(full_scale > 0.05 && full_scale < 0.3 && std::abs(a) < 0.02,
                    fmt("%g-cell levels outside the physical window at %g degC",
                        w.cells, t));
          for (const auto& [k, v] : pts) {
            report.op(std::abs(v - (a + b * k)) < 0.5 * b,
                      fmt("%g-cell v_acc nearer another MAC level at %g degC",
                          w.cells, t));
          }
        }
      }
    }
    if (loop.index() == 0) counters_after_pass0 = CounterSnapshot::take();
  }

  // --- end-to-end metrics (untraced passes) ------------------------------
  std::vector<double> untraced_set_ms, traced_set_ms;
  std::string deterministic = "deterministic: newton_iterations first pass";
  for (const Width& w : widths) {
    const std::vector<double>& times = w.untraced_ms.empty() ? w.traced_ms : w.untraced_ms;
    untraced_set_ms.push_back(set_time_ms(times, w.cycles));
    if (!w.traced_ms.empty()) traced_set_ms.push_back(set_time_ms(w.traced_ms, w.cycles));
    report.note("mac_cycle_ms.c" + std::to_string(w.cells) + ": " +
                std::to_string(untraced_set_ms.back()) + " ms, mean over " +
                std::to_string(w.cycles) + " cycles of the median over " +
                std::to_string(times.size() / w.cycles) + " passes; all cycles " +
                describe(times, "ms"));
    deterministic += " c" + std::to_string(w.cells) + "=" +
                     std::to_string(w.pass0_newton_iterations);
  }
  report.note(deterministic);
  report.metric("op_ms", geometric_mean(untraced_set_ms));
  report.metric("setup_s", median(setup_s));
  report.metric("peak_rss_mb", peak_rss_mb());
  if (!opts.trace) return;

  // --- per-layer metrics (traced) ----------------------------------------
  report.metric("trace.overhead_pct", overhead_pct(geometric_mean(traced_set_ms),
                                                   geometric_mean(untraced_set_ms)));
  int total_cycles = 0;
  for (Width& w : widths) {
    const std::string s = ".c" + std::to_string(w.cells);
    total_cycles += w.cycles;
    const double cycle_ms = set_time_ms(spans.durations_ms("cim.mac_cycle" + s), w.cycles);
    const double iters = static_cast<double>(w.pass0_newton_iterations) / w.cycles;
    report.metric("cim.mac_cycle_ms" + s, cycle_ms);
    report.metric("spice.newton_iters_per_cycle" + s, iters);
    report.metric("spice.us_per_newton_iter" + s, 1000.0 * cycle_ms / iters);
    report.metric("devices.evals_per_cycle_computed" + s,
                  iters * nonlinear_devices(*w.row));
  }
  // DC operating point of a fresh row circuit (all weights '1') on its own
  // engine: the first solve compiles the workspace, the timed ones reuse it.
  for (int cells : kDcWidths) {
    const std::string s = ".c" + std::to_string(cells);
    const auto row = make_row(cells);
    row->program(std::vector<int>(static_cast<std::size_t>(cells), 1));
    sfc::spice::Engine engine(row->circuit(), 27.0);
    for (int i = 0; i < 6; ++i) {
      auto scope = spans.scope(i == 0 ? "spice.dc_op_cold" + s : "spice.dc_op" + s);
      report.op(engine.dc_operating_point().converged,
                "DC operating point did not converge, " + s);
    }
    report.metric("spice.dc_op_ms" + s, median(spans.durations_ms("spice.dc_op" + s)));
    report.metric_or_absent("spice.mna_size" + s, mna_size(engine));
    report.metric_or_absent("spice.lu_ops" + s, lu_ops(engine));
  }
  report_solver_counters(report, counters_before, counters_after_pass0,
                         total_cycles);
}

}  // namespace perfbench
