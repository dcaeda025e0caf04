// Micro-benchmarks (google-benchmark) for the simulation substrate: LU
// kernel, Newton DC solves, transient steps, full MAC cycles, and the
// behavioural-model fast path. These are engineering benchmarks for the
// reproduction itself, not paper artifacts.
//
// Pass --threads N (N > 0) to additionally run the Monte Carlo fan-out
// serially and with N threads, verify the outputs are bit-identical, and
// report the speedup.
//
// Pass --smoke to instead run the tracked solver benchmark suite: a fixed
// set of kernels, each timed over several samples on a warm object after a
// warm-up, with the whole sequence replayed on a fresh object and checked
// to reproduce bitwise.
// --json PATH (implies --smoke) writes the results as JSON; the bench-smoke
// CMake target and ctest label run `--smoke --json BENCH_solver.json`.
// Timing never fails the run — only a convergence failure or a replay that
// does not repeat the timed bits does.
//
// A malformed --threads operand, an argument google-benchmark does not
// know, or any argument besides the smoke/observability flags in smoke
// mode exits 2 before anything is simulated.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cim/array.hpp"
#include "cim/behavioral.hpp"
#include "cim/montecarlo.hpp"
#include "devices/mosfet.hpp"
#include "nn/cim_engine.hpp"
#include "spice/engine.hpp"
#include "spice/primitives.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "verify/json.hpp"

using namespace sfc;

static void BM_LuSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  spice::DenseMatrix a(n, n);
  std::vector<double> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = rng.uniform(-1, 1);
    for (std::size_t j = 0; j < n; ++j) a.at(i, j) = rng.uniform(-1, 1);
    a.at(i, i) += 4.0;
  }
  for (auto _ : state) {
    spice::DenseMatrix acopy = a;
    std::vector<double> x = b;
    benchmark::DoNotOptimize(spice::lu_solve(acopy, x));
  }
}
BENCHMARK(BM_LuSolve)->Arg(16)->Arg(48)->Arg(96);

static void BM_DcOperatingPoint_Inverter(benchmark::State& state) {
  spice::Circuit ckt;
  const auto vdd = ckt.node("vdd");
  const auto g = ckt.node("g");
  const auto out = ckt.node("out");
  ckt.add<spice::VSource>("VDD", vdd, spice::kGround, 1.2);
  ckt.add<spice::VSource>("VG", g, spice::kGround, 0.6);
  ckt.add<spice::Resistor>("RD", vdd, out, 1e5);
  ckt.add<devices::Mosfet>("M1", out, g, spice::kGround,
                           devices::MosfetParams::finfet14_nmos(8.0));
  spice::Engine engine(ckt, 27.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.dc_operating_point());
  }
}
BENCHMARK(BM_DcOperatingPoint_Inverter);

static void BM_TransientRc(benchmark::State& state) {
  for (auto _ : state) {
    spice::Circuit ckt;
    const auto in = ckt.node("in");
    const auto out = ckt.node("out");
    ckt.add<spice::VSource>("V1", in, spice::kGround, 1.0);
    ckt.add<spice::Resistor>("R1", in, out, 1e3);
    ckt.add<spice::Capacitor>("C1", out, spice::kGround, 1e-9, 0.0);
    spice::Engine engine(ckt, 27.0);
    spice::TransientOptions opts;
    opts.dt = 1e-8;
    benchmark::DoNotOptimize(engine.transient(1e-6, opts));
  }
}
BENCHMARK(BM_TransientRc);

static void BM_MacCycle_2T1FeFet(benchmark::State& state) {
  cim::CiMRow row(cim::ArrayConfig::proposed_2t1fefet());
  row.set_stored(std::vector<int>(8, 1));
  const std::vector<int> inputs = {1, 0, 1, 1, 0, 1, 0, 1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(row.evaluate(inputs, 27.0));
  }
}
BENCHMARK(BM_MacCycle_2T1FeFet)->Unit(benchmark::kMillisecond);

static void BM_MacCycle_1FeFet1R(benchmark::State& state) {
  cim::CiMRow row(cim::ArrayConfig::baseline_1r_subthreshold());
  row.set_stored(std::vector<int>(8, 1));
  const std::vector<int> inputs = {1, 0, 1, 1, 0, 1, 0, 1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(row.evaluate(inputs, 27.0));
  }
}
BENCHMARK(BM_MacCycle_1FeFet1R)->Unit(benchmark::kMillisecond);

static void BM_BehavioralDot(benchmark::State& state) {
  static const cim::BehavioralArrayModel model =
      cim::BehavioralArrayModel::calibrate(cim::ArrayConfig::proposed_2t1fefet(),
                                           {0.0, 27.0, 85.0});
  nn::CimDotEngine engine(model, {});
  util::Rng rng(3);
  const auto len = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> a(len);
  std::vector<std::int8_t> w(len);
  for (std::size_t i = 0; i < len; ++i) {
    a[i] = static_cast<std::uint8_t>(rng.uniform_index(256));
    w[i] = static_cast<std::int8_t>(static_cast<int>(rng.uniform_index(255)) - 127);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.dot(a, w));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
}
BENCHMARK(BM_BehavioralDot)->Arg(144)->Arg(1024);

static void BM_MosfetEval(benchmark::State& state) {
  const auto p = devices::MosfetParams::finfet14_nmos(8.0);
  double vg = 0.3;
  for (auto _ : state) {
    vg = vg > 1.0 ? 0.3 : vg + 1e-9;
    benchmark::DoNotOptimize(devices::evaluate_mosfet(p, vg, 1.0, 0.1, 27.0));
  }
}
BENCHMARK(BM_MosfetEval);

// ---------------------------------------------------------------------------
// --smoke: tracked solver benchmark suite (see DESIGN.md "Solver hot path").
// ---------------------------------------------------------------------------
namespace smoke {

#ifndef SFC_BUILD_TYPE
#define SFC_BUILD_TYPE "unknown"
#endif

using Clock = std::chrono::steady_clock;

double elapsed_ms(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(p * (static_cast<double>(v.size()) - 1.0) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

struct KernelResult {
  const char* name = "";
  const char* detail = "";
  int samples = 0;
  std::vector<double> times_ms;  ///< one entry per timed sample
  long newton_iterations = 0;    ///< iterations in one sample's work unit
  bool repeatable = true;        ///< the fresh replay matched every result
  bool converged = true;
  // Solver-counter deltas over the whole kernel (warm-up included), read
  // from the trace registry; identically zero in SFC_TRACE=OFF builds.
  std::uint64_t step_rejections = 0;
  std::uint64_t lu_factorizations = 0;
  std::uint64_t gmin_steps = 0;

  double median_ms() const { return percentile(times_ms, 0.5); }
  double p90_ms() const { return percentile(times_ms, 0.9); }
  /// Newton solves per wall second at the median sample.
  double solves_per_sec() const {
    const double ms = median_ms();
    return ms > 0.0 ? static_cast<double>(newton_iterations) * 1e3 / ms : 0.0;
  }
};

bool same_mac(const cim::MacResult& a, const cim::MacResult& b) {
  return a.converged == b.converged && a.v_acc == b.v_acc &&
         a.v_cell == b.v_cell && a.energy_joules == b.energy_joules;
}

/// Run one warm-up call of `run` and `samples` timed calls on one object
/// from `make` (warm: plan compiled, pivot order chosen), then replay the
/// same sequence untimed on a second fresh object. The solver promises the
/// same bits for the same sequence of solves on fresh objects, so every
/// replayed result must equal its timed counterpart bitwise.
/// `run(obj, iters, ms)` returns one result and reports its Newton
/// iterations and the wall time of its solver work; `same` compares two
/// results bitwise and `converged` reports whether one converged.
template <typename Make, typename Run, typename Same, typename Converged>
KernelResult time_kernel(const char* name, const char* detail, int samples,
                         Make make, Run run, Same same, Converged converged) {
  KernelResult kr;
  kr.name = name;
  kr.detail = detail;
  kr.samples = samples;
  long iters = 0;
  double ms = 0.0;
  auto timed = make();
  std::vector<decltype(run(*timed, iters, ms))> results;
  results.push_back(run(*timed, iters, ms));  // warm-up
  for (int s = 0; s < samples; ++s) {
    results.push_back(run(*timed, iters, ms));
    kr.times_ms.push_back(ms);
    kr.newton_iterations = iters;
  }
  auto fresh = make();
  for (const auto& result : results) {
    kr.converged &= converged(result);
    kr.repeatable &= same(run(*fresh, iters, ms), result);
  }
  return kr;
}

/// DC operating point of a one-cell 2T-1FeFET circuit (Fig. 7 cell),
/// 50 solves per sample.
KernelResult kernel_op_point(int samples) {
  cim::ArrayConfig cfg = cim::ArrayConfig::proposed_2t1fefet();
  cfg.cells_per_row = 1;
  struct Cell {
    cim::CiMRow row;
    spice::Engine engine;
    explicit Cell(const cim::ArrayConfig& c)
        : row(c), engine(row.circuit(), 27.0) {}
  };
  constexpr int kSolves = 50;
  return time_kernel(
      "op_point_fig7_cell",
      "DC operating point, 1-cell 2T-1FeFET circuit, 50 solves", samples,
      [&] {
        auto cell = std::make_unique<Cell>(cfg);
        cell->row.set_stored({1});
        return cell;
      },
      [&](Cell& cell, long& iters, double& ms) {
        spice::DcResult out;
        iters = 0;
        const auto t0 = Clock::now();
        for (int i = 0; i < kSolves; ++i) {
          out = cell.engine.dc_operating_point(cfg.newton);
          iters += out.iterations;
        }
        ms = elapsed_ms(t0);
        return out;
      },
      [](const spice::DcResult& a, const spice::DcResult& b) {
        return a.x == b.x;
      },
      [](const spice::DcResult& r) { return r.converged; });
}

/// The headline kernel: one full MAC-cycle transient of the Fig. 8
/// 8-cell 2T-1FeFET array per sample.
KernelResult kernel_transient_fig8(int samples) {
  const cim::ArrayConfig cfg = cim::ArrayConfig::proposed_2t1fefet();
  const std::vector<int> stored = {1, 0, 1, 1, 0, 1, 0, 1};
  const std::vector<int> inputs = {1, 1, 0, 1, 0, 1, 1, 0};
  return time_kernel(
      "transient_fig8_array",
      "MAC-cycle transient, 8-cell 2T-1FeFET array (Fig. 8)", samples,
      [&] {
        auto row = std::make_unique<cim::CiMRow>(cfg);
        row->set_stored(stored);
        return row;
      },
      [&](cim::CiMRow& row, long& iters, double& ms) {
        const auto t0 = Clock::now();
        cim::MacResult r = row.evaluate(inputs, 27.0);
        ms = elapsed_ms(t0);
        iters = r.newton_iterations;
        return r;
      },
      same_mac, [](const cim::MacResult& r) { return r.converged; });
}

/// MAC cycles across the paper's temperature range (0/27/85 degC) per
/// sample on one row — exercises plan reuse across temperatures.
KernelResult kernel_temperature_sweep(int samples) {
  const cim::ArrayConfig cfg = cim::ArrayConfig::proposed_2t1fefet();
  const std::vector<int> stored = {1, 1, 0, 1, 0, 0, 1, 1};
  const std::vector<int> inputs = {0, 1, 1, 1, 0, 1, 0, 1};
  return time_kernel(
      "temperature_sweep_fig8", "MAC cycles at 0/27/85 degC, 8-cell array",
      samples,
      [&] {
        auto row = std::make_unique<cim::CiMRow>(cfg);
        row->set_stored(stored);
        return row;
      },
      [&](cim::CiMRow& row, long& iters, double& ms) {
        std::vector<cim::MacResult> out;
        iters = 0;
        const auto t0 = Clock::now();
        for (const double t : {0.0, 27.0, 85.0}) {
          out.push_back(row.evaluate(inputs, t));
          iters += out.back().newton_iterations;
        }
        ms = elapsed_ms(t0);
        return out;
      },
      [](const std::vector<cim::MacResult>& a,
         const std::vector<cim::MacResult>& b) {
        return std::equal(a.begin(), a.end(), b.begin(), b.end(), same_mac);
      },
      [](const std::vector<cim::MacResult>& r) {
        return std::all_of(r.begin(), r.end(),
                           [](const cim::MacResult& m) { return m.converged; });
      });
}

/// Reduced Fig. 9 Monte Carlo fan-out (6 runs x 3 MAC values, serial).
KernelResult kernel_montecarlo(int samples) {
  cim::MonteCarloConfig mc;
  mc.runs = 6;
  mc.sigma_vt_fefet = 0.054;
  mc.mac_values = {0, 4, 8};
  mc.exec = exec::ExecPolicy::serial();
  const cim::ArrayConfig cfg = cim::ArrayConfig::proposed_2t1fefet();
  return time_kernel(
      "montecarlo_fig9_reduced", "Monte Carlo, 6 runs x 3 MAC values, serial",
      samples, [] { return std::make_unique<int>(0); },
      [&](int&, long& iters, double& ms) {
        const auto t0 = Clock::now();
        cim::MonteCarloResult r = cim::run_montecarlo(cfg, mc);
        ms = elapsed_ms(t0);
        iters = r.total_newton_iterations;
        return r;
      },
      [](const cim::MonteCarloResult& a, const cim::MonteCarloResult& b) {
        return std::equal(a.samples.begin(), a.samples.end(),
                          b.samples.begin(), b.samples.end(),
                          [](const cim::MonteCarloSample& x,
                             const cim::MonteCarloSample& y) {
                            return x.run == y.run && x.mac == y.mac &&
                                   x.v_acc == y.v_acc;
                          });
      },
      [](const cim::MonteCarloResult& r) { return r.all_converged; });
}

/// Round to a fixed decimal precision so re-runs differ only where the
/// measurement genuinely moved (and by a diff-friendly amount).
double rounded(double v, double decade) { return std::round(v * decade) / decade; }

void write_json(const char* path, const std::vector<KernelResult>& kernels) {
  using verify::Json;
  // Canonical, schema-stable layout: sorted keys (Json objects are
  // std::map) and fixed precision; validated by `verify_runner check-bench`.
  Json root = Json::object();
  root.set("schema_version", Json(4.0));
  root.set("benchmark", Json(std::string("solver_hotpath_smoke")));
  root.set("build_type", Json(std::string(SFC_BUILD_TYPE)));
  root.set("headline_kernel", Json(std::string("transient_fig8_array")));
  root.set("sfc_trace_enabled", Json(static_cast<bool>(SFC_TRACE_ENABLED)));
  root.set("threads", Json(1.0));
  Json arr = Json::array();
  for (const KernelResult& k : kernels) {
    Json kj = Json::object();
    kj.set("name", Json(std::string(k.name)));
    kj.set("detail", Json(std::string(k.detail)));
    kj.set("samples", Json(static_cast<double>(k.samples)));
    kj.set("hot_ms", Json(rounded(k.median_ms(), 1e4)));
    kj.set("hot_p90_ms", Json(rounded(k.p90_ms(), 1e4)));
    kj.set("newton_iterations", Json(static_cast<double>(k.newton_iterations)));
    kj.set("step_rejections", Json(static_cast<double>(k.step_rejections)));
    kj.set("lu_factorizations",
           Json(static_cast<double>(k.lu_factorizations)));
    kj.set("gmin_steps", Json(static_cast<double>(k.gmin_steps)));
    kj.set("solves_per_sec", Json(rounded(k.solves_per_sec(), 1e1)));
    kj.set("repeatable", Json(k.repeatable));
    kj.set("converged", Json(k.converged));
    arr.as_array().push_back(std::move(kj));
  }
  root.set("kernels", std::move(arr));
  try {
    verify::write_json_file(path, root);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench-smoke: %s\n", e.what());
    return;
  }
  std::printf("bench-smoke: wrote %s\n", path);
}

/// Runs the suite; returns the process exit code (0 = all kernels
/// converged and every fresh replay repeated the timed bits).
int run(const std::string& json_path) {
  std::printf("== Solver hot-path smoke benchmark (build: %s) ==\n\n",
              SFC_BUILD_TYPE);
  // Each kernel runs under a TestProbe so BENCH_solver.json can report the
  // solver-counter deltas (iterations already come from DcResult/MacResult).
  const auto probed = [](KernelResult (*kernel)(int), int samples) {
    trace::TestProbe probe;
    KernelResult kr = kernel(samples);
    kr.step_rejections = probe.counter_delta("spice.tran.steps_rejected");
    kr.lu_factorizations = probe.counter_delta("spice.lu.factorizations");
    kr.gmin_steps = probe.counter_delta("spice.newton.gmin_steps");
    return kr;
  };
  std::vector<KernelResult> kernels;
  kernels.push_back(probed(kernel_op_point, 5));
  kernels.push_back(probed(kernel_transient_fig8, 9));
  kernels.push_back(probed(kernel_temperature_sweep, 5));
  kernels.push_back(probed(kernel_montecarlo, 3));

  bool ok = true;
  std::printf("%-26s %12s %12s %6s %6s\n", "kernel", "median[ms]", "p90[ms]",
              "repeat", "conv");
  for (const KernelResult& k : kernels) {
    ok &= k.repeatable && k.converged;
    std::printf("%-26s %12.3f %12.3f %6s %6s\n", k.name, k.median_ms(),
                k.p90_ms(), k.repeatable ? "yes" : "NO",
                k.converged ? "yes" : "NO");
  }
  std::printf(
      "\nTiming never fails this run; only a fresh replay that does not\n"
      "repeat the timed bits, or a convergence failure, does.\n");
  if (!json_path.empty()) write_json(json_path.c_str(), kernels);
  return ok ? 0 : 1;
}

}  // namespace smoke

namespace {

/// Remove `--threads N` / `--threads=N` from argv (google-benchmark rejects
/// flags it does not know). Returns the requested count (0 if absent), or
/// nullopt when the operand is missing or malformed.
std::optional<int> strip_threads_flag(int* argc, char** argv) {
  int threads = 0;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" || arg.rfind("--threads=", 0) == 0) {
      std::optional<int> parsed;
      if (arg != "--threads") {
        parsed = exec::parse_thread_count(arg.substr(10));
      } else if (i + 1 < *argc) {
        parsed = exec::parse_thread_count(argv[++i]);
      }
      if (!parsed) return std::nullopt;
      threads = *parsed;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return threads;
}

/// Remove `--smoke` and `--json PATH` / `--json=PATH` from argv. Returns
/// true when smoke mode was requested (--json implies it).
bool strip_smoke_flags(int* argc, char** argv, std::string* json_path) {
  bool smoke = false;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--json" && i + 1 < *argc) {
      *json_path = argv[++i];
      smoke = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      *json_path = arg.substr(7);
      smoke = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return smoke;
}

/// Remove `--trace PATH` / `--metrics PATH` (and the `=` forms) from argv.
/// Works in both benchmark and smoke mode: --trace enables the span tracer
/// for the whole run and writes Chrome trace JSON at exit; --metrics writes
/// the registry snapshot at exit.
void strip_observability_flags(int* argc, char** argv, std::string* trace_path,
                               std::string* metrics_path) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace" && i + 1 < *argc) {
      *trace_path = argv[++i];
    } else if (arg.rfind("--trace=", 0) == 0) {
      *trace_path = arg.substr(8);
    } else if (arg == "--metrics" && i + 1 < *argc) {
      *metrics_path = argv[++i];
    } else if (arg.rfind("--metrics=", 0) == 0) {
      *metrics_path = arg.substr(10);
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
}

/// Flush the requested observability outputs; returns false on I/O error.
bool write_observability(const std::string& trace_path,
                         const std::string& metrics_path) {
  bool ok = true;
  if (!trace_path.empty()) {
    trace::Tracer::global().stop();
    try {
      trace::Tracer::global().write_chrome(trace_path);
      std::printf("trace: wrote %s\n", trace_path.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "trace: %s\n", e.what());
      ok = false;
    }
  }
  if (!metrics_path.empty()) {
    try {
      trace::write_metrics_file(metrics_path);
      std::printf("metrics: wrote %s\n", metrics_path.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "metrics: %s\n", e.what());
      ok = false;
    }
  }
  return ok;
}

void report_montecarlo_speedup(int threads) {
  cim::MonteCarloConfig mc;
  mc.runs = 24;
  mc.sigma_vt_fefet = 0.054;
  mc.mac_values = {0, 2, 4, 6, 8};
  const cim::ArrayConfig cfg = cim::ArrayConfig::proposed_2t1fefet();

  mc.exec = exec::ExecPolicy::serial();
  const cim::MonteCarloResult serial = cim::run_montecarlo(cfg, mc);
  mc.exec.threads = threads;
  const cim::MonteCarloResult parallel = cim::run_montecarlo(cfg, mc);

  bool identical = serial.samples.size() == parallel.samples.size();
  for (std::size_t i = 0; identical && i < serial.samples.size(); ++i) {
    identical = serial.samples[i].run == parallel.samples[i].run &&
                serial.samples[i].mac == parallel.samples[i].mac &&
                serial.samples[i].v_acc == parallel.samples[i].v_acc;
  }
  std::printf(
      "== Monte Carlo fan-out: %d runs x %zu MAC values ==\n"
      "  serial (1 thread):      %8.1f ms\n"
      "  parallel (%d threads):  %8.1f ms  (used %d)\n"
      "  speedup:                %8.2fx\n"
      "  bit-identical samples:  %s\n\n",
      mc.runs, mc.mac_values.size(), serial.job.wall_ms, threads,
      parallel.job.wall_ms, parallel.job.threads_used,
      serial.job.wall_ms / std::max(parallel.job.wall_ms, 1e-9),
      identical ? "yes" : "NO");
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path, metrics_path;
  strip_observability_flags(&argc, argv, &trace_path, &metrics_path);
  if (!trace_path.empty()) trace::Tracer::global().start();
  std::string json_path;
  if (strip_smoke_flags(&argc, argv, &json_path)) {
    if (argc > 1) {
      std::fprintf(stderr, "%s: unknown argument '%s' in smoke mode\n",
                   argv[0], argv[1]);
      return 2;
    }
    const int rc = smoke::run(json_path);
    return write_observability(trace_path, metrics_path) ? rc : 1;
  }
  const std::optional<int> threads = strip_threads_flag(&argc, argv);
  if (!threads) {
    std::fprintf(stderr, "%s: --threads takes a non-negative integer\n",
                 argv[0]);
    return 2;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 2;
  if (*threads > 0) report_montecarlo_speedup(*threads);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return write_observability(trace_path, metrics_path) ? 0 : 1;
}
