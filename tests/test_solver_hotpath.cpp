// Solver hot-path validation. The static-pivot sparse LU must agree with
// dense partial pivoting within the sparse-vs-dense oracle tolerance,
// re-choose its pivot order when a replayed pivot vanishes, and keep fill
// linear in the row width; Newton results must repeat bitwise run to run
// and at any thread count; and the steady-state Newton loop must not touch
// the heap. Trace-counter (TestProbe) assertions cross-check the engine's
// self-reported iteration totals against the instrumentation; they compile
// out with SFC_TRACE=OFF.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "cim/array.hpp"
#include "spice/engine.hpp"
#include "spice/matrix.hpp"
#include "spice/netlist.hpp"
#include "spice/primitives.hpp"
#include "spice/sweep.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

// ---------------------------------------------------------------------
// Global allocation counter. Only the delta between snapshots matters;
// gtest and the fixtures allocate freely outside the counted regions.
// ---------------------------------------------------------------------
namespace {
std::atomic<long> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sfc::spice {
namespace {

// Bitwise equality — distinguishes +0.0 from -0.0 and never tolerates
// rounding drift. NaN == NaN under memcmp, unlike operator==.
bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_vectors_bitwise_equal(const std::vector<double>& a,
                                  const std::vector<double>& b,
                                  const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(bits_equal(a[i], b[i]))
        << what << "[" << i << "]: " << a[i] << " vs " << b[i];
  }
}

void expect_transients_bitwise_equal(const TransientResult& a,
                                     const TransientResult& b) {
  ASSERT_EQ(a.converged, b.converged);
  ASSERT_EQ(a.num_samples(), b.num_samples());
  expect_vectors_bitwise_equal(a.time(), b.time(), "time");
  ASSERT_EQ(a.signal_names(), b.signal_names());
  for (const auto& name : a.signal_names()) {
    expect_vectors_bitwise_equal(a.waveform(name), b.waveform(name),
                                 "waveform " + name);
  }
  for (const auto& [source, energy] : a.source_energy) {
    const auto it = b.source_energy.find(source);
    ASSERT_NE(it, b.source_energy.end()) << source;
    EXPECT_TRUE(bits_equal(energy, it->second)) << "energy " << source;
  }
}

// ---------------------------------------------------------------------
// Fig. 7 cell: DC operating point, repeated on a fresh engine.
// ---------------------------------------------------------------------

TEST(SolverHotPath, Fig7CellDcBitIdentical) {
  cim::ArrayConfig cfg = cim::ArrayConfig::proposed_2t1fefet();
  cfg.cells_per_row = 1;
  cim::CiMRow row(cfg);
  row.set_stored({1});

  Engine ref_engine(row.circuit(), 27.0);
#if SFC_TRACE_ENABLED
  sfc::trace::TestProbe probe;
#endif
  const DcResult ref = ref_engine.dc_operating_point();
  ASSERT_TRUE(ref.converged);
#if SFC_TRACE_ENABLED
  // The instrumentation and the engine's self-report must agree.
  EXPECT_EQ(probe.counter_delta("spice.dc.solves"), 1u);
  EXPECT_EQ(probe.counter_delta("spice.newton.iterations"),
            static_cast<std::uint64_t>(ref.iterations));
  EXPECT_GT(probe.counter_delta("spice.stampplan.compiles"), 0u);
  EXPECT_EQ(probe.counter_delta("spice.lu.factorizations"), 1u);
#endif

  Engine engine(row.circuit(), 27.0);
  const DcResult again = engine.dc_operating_point();
  ASSERT_TRUE(again.converged);
  EXPECT_EQ(again.iterations, ref.iterations);
  EXPECT_TRUE(bits_equal(again.gmin_used, ref.gmin_used));
  expect_vectors_bitwise_equal(again.x, ref.x, "x");
}

// ---------------------------------------------------------------------
// Fig. 8 row: one full 8-cell MAC transient, run twice on fresh rows.
// This is the benchmark workload, so the repeat validates the
// determinism BENCH_solver.json's `repeatable` flag reports.
// ---------------------------------------------------------------------

TEST(SolverHotPath, Fig8RowTransientBitIdentical) {
  const cim::ArrayConfig cfg = cim::ArrayConfig::proposed_2t1fefet();
  const std::vector<int> stored = {1, 0, 1, 1, 0, 1, 0, 1};
  const std::vector<int> inputs = {1, 1, 0, 1, 0, 1, 1, 0};

  cim::CiMRow ref_row(cfg);
  ref_row.set_stored(stored);
#if SFC_TRACE_ENABLED
  sfc::trace::TestProbe probe;
#endif
  const cim::MacResult ref =
      ref_row.evaluate(inputs, 27.0, /*keep_waveforms=*/true);
  ASSERT_TRUE(ref.converged);
#if SFC_TRACE_ENABLED
  // Every Newton iteration the MAC transient reports must have passed
  // through the instrumented wrapper — exact, not approximate.
  EXPECT_EQ(probe.counter_delta("spice.newton.iterations"),
            static_cast<std::uint64_t>(ref.newton_iterations));
  // Exactly one histogram record per accepted step, by construction.
  EXPECT_EQ(probe.histogram_delta("spice.tran.newton_iterations_per_step"),
            probe.counter_delta("spice.tran.steps_accepted"));
  EXPECT_GT(probe.counter_delta("spice.tran.steps_accepted"), 0u);
  // No step on this workload fights Newton past the 16-iteration band.
  EXPECT_EQ(probe.histogram_delta_above(
                "spice.tran.newton_iterations_per_step", 16.0),
            0u);
#endif

  cim::CiMRow row(cfg);
  row.set_stored(stored);
  const cim::MacResult again =
      row.evaluate(inputs, 27.0, /*keep_waveforms=*/true);
  ASSERT_TRUE(again.converged);
  EXPECT_TRUE(bits_equal(again.v_acc, ref.v_acc));
  EXPECT_TRUE(bits_equal(again.energy_joules, ref.energy_joules));
  EXPECT_EQ(again.newton_iterations, ref.newton_iterations);
  expect_vectors_bitwise_equal(again.v_cell, ref.v_cell, "v_cell");
  expect_transients_bitwise_equal(again.waveforms, ref.waveforms);
}

// ---------------------------------------------------------------------
// Netlist-parsed deck: mixed linear/nonlinear cards through the parser.
// ---------------------------------------------------------------------

TEST(SolverHotPath, NetlistDeckTransientBitIdentical) {
  const std::string deck = R"(
* mixed-card deck: MOSFET inverter driving an RC + diode clamp
.model mynmos nmos vth0=0.45 n=1.3
VDD vdd 0 1.2
VIN in 0 PULSE(0 1.2 1n 0.1n 0.1n 3n 10n)
RD vdd out 10k
M1 out in 0 mynmos w=100n l=20n
RL out mid 2k
C1 mid 0 0.5p ic=0
D1 mid 0 is=1e-15
.tran 0.05n 6n
)";

  auto run = [&deck]() {
    Circuit ckt;
    const NetlistDeck d = parse_netlist(deck, ckt);
    Engine engine(ckt, 27.0);
    TransientOptions opts;
    opts.dt = d.tran.at(0).dt;
    return engine.transient(d.tran.at(0).t_stop, opts);
  };

  const TransientResult ref = run();
  ASSERT_TRUE(ref.converged);
  const TransientResult again = run();
  expect_transients_bitwise_equal(again, ref);
  EXPECT_EQ(again.total_newton_iterations, ref.total_newton_iterations);
}

// ---------------------------------------------------------------------
// Thread-count independence: a temperature sweep must be bit-identical
// across ExecPolicy thread counts and from one run to the next.
// ---------------------------------------------------------------------

TEST(SolverHotPath, TemperatureSweepBitIdenticalAt1And8Threads) {
  cim::ArrayConfig cfg = cim::ArrayConfig::proposed_2t1fefet();
  cfg.cells_per_row = 2;
  cim::CiMRow row(cfg);
  row.set_stored({1, 1});

  SweepSpec spec;
  spec.values = linspace_count(-25.0, 100.0, 6);  // temperature sweep

  auto run = [&](int threads) {
    sfc::exec::ExecPolicy exec;
    exec.threads = threads;
    return run_sweep(row.circuit(), spec, exec);
  };

#if SFC_TRACE_ENABLED
  sfc::trace::TestProbe ref_probe;
#endif
  const auto ref = run(1);
  ASSERT_EQ(ref.size(), spec.values.size());
  for (const auto& p : ref) ASSERT_TRUE(p.op.converged);
#if SFC_TRACE_ENABLED
  const std::uint64_t ref_iterations =
      ref_probe.counter_delta("spice.newton.iterations");
  EXPECT_EQ(ref_probe.counter_delta("spice.sweep.points"),
            spec.values.size());
  EXPECT_EQ(ref_probe.counter_delta("exec.jobs"), 1u);
  EXPECT_EQ(ref_probe.counter_delta("exec.tasks.converged"),
            spec.values.size());
#endif

  for (const int threads : {8, 1}) {
#if SFC_TRACE_ENABLED
    sfc::trace::TestProbe case_probe;
#endif
    const auto pts = run(threads);
    ASSERT_EQ(pts.size(), ref.size());
#if SFC_TRACE_ENABLED
    // Bit-identical solves imply identical iteration counts.
    EXPECT_EQ(case_probe.counter_delta("spice.newton.iterations"),
              ref_iterations)
        << "threads=" << threads;
#endif
    for (std::size_t i = 0; i < pts.size(); ++i) {
      expect_vectors_bitwise_equal(
          pts[i].op.x, ref[i].op.x,
          "sweep point " + std::to_string(i) + " (threads=" +
              std::to_string(threads) + ")");
    }
  }
}

// ---------------------------------------------------------------------
// Slot assembly: the compact values the engine stamps through its tapes
// equal a dense reference stamping (assemble_dense) bit for bit, in DC
// and in transient, and a device that changes its stamp sequence within
// one analysis mode makes the solve throw instead of mis-assembling.
// ---------------------------------------------------------------------

/// Run single-iteration Newton solves from `x` and, after each, compare
/// the workspace's system with a dense reference assembly at the iterate
/// the solve stamped at.
void expect_slots_match_dense(Engine& engine, const Circuit& circuit,
                              const SimContext& ctx, std::vector<double> x,
                              const std::string& what) {
  NewtonOptions one_iteration;
  one_iteration.max_iterations = 1;
  for (int it = 0; it < 4; ++it) {
    const std::vector<double> stamped_at = x;
    int iterations = 0;
    engine.newton_solve(ctx, x, one_iteration, &iterations);
    ASSERT_EQ(iterations, 1) << what;
    const SolverWorkspace& ws = engine.workspace(ctx.mode);
    DenseMatrix a;
    std::vector<double> b;
    assemble_dense(circuit, ctx, stamped_at, a, b);
    const DenseMatrix compact =
        dense_from_compact(ws.size, ws.pattern, ws.values);
    ASSERT_EQ(compact.rows(), a.rows()) << what;
    for (std::size_t i = 0; i < a.rows() * a.cols(); ++i) {
      ASSERT_TRUE(bits_equal(compact.data()[i], a.data()[i]))
          << what << " iteration " << it << " entry " << i << ": "
          << compact.data()[i] << " vs " << a.data()[i];
    }
    expect_vectors_bitwise_equal(ws.b, b, what + " rhs");
  }
}

TEST(SolverHotPath, CompactValuesEqualDenseReferenceBitwise) {
  const cim::ArrayConfig cfg = cim::ArrayConfig::proposed_2t1fefet();
  cim::CiMRow row(cfg);
  row.set_stored({1, 0, 1, 1, 0, 1, 0, 1});
  // evaluate() drives the row's WL/EN waveforms for the transient below.
  ASSERT_TRUE(row.evaluate({1, 1, 0, 1, 0, 1, 1, 0}, 27.0).converged);
  Circuit& circuit = row.circuit();
  Engine engine(circuit, 27.0);

  SimContext dc;
  dc.mode = AnalysisMode::kDcOperatingPoint;
  dc.temperature_c = 27.0;
  dc.gmin = cfg.newton.gmin_final;
  dc.num_nodes = circuit.num_nodes();
  expect_slots_match_dense(engine, circuit, dc,
                           std::vector<double>(circuit.system_size(), 0.0),
                           "DC");

  // Halfway through the MAC cycle: capacitor history and source values
  // are those of a live transient step.
  TransientOptions opts;
  opts.dt = cfg.timing.dt;
  opts.newton = cfg.newton;
  opts.record_waveforms = false;
  const double t_mid = 0.5 * cfg.timing.t_total();
  const TransientResult tran = engine.transient(t_mid, opts);
  ASSERT_TRUE(tran.converged);
  std::vector<double> x;
  for (const std::string& name : tran.signal_names()) {
    x.push_back(tran.waveform(name).back());
  }
  SimContext step;
  step.mode = AnalysisMode::kTransient;
  step.method = IntegrationMethod::kTrapezoidal;
  step.temperature_c = 27.0;
  step.gmin = cfg.newton.gmin_final;
  step.num_nodes = circuit.num_nodes();
  step.dt = cfg.timing.dt;
  step.time = t_mid + step.dt;
  expect_slots_match_dense(engine, circuit, step, x, "transient");
}

/// Nonlinear element whose stamp sequence changes after its first stamp:
/// a conductance between `a` and `b` that later stamps only its (a, a)
/// entry (`shrink`), or the reverse.
class ShiftingStampDevice : public Device {
 public:
  ShiftingStampDevice(NodeId a, NodeId b, bool shrink)
      : Device("X1"), a_(a), b_(b), shrink_(shrink) {}
  std::unique_ptr<Device> clone() const override {
    return std::make_unique<ShiftingStampDevice>(*this);
  }
  void stamp(const SimContext& /*ctx*/, Stamper& s) override {
    const bool full = (stamps_++ == 0) == shrink_;
    s.conductance(a_, full ? b_ : kGround, 1e-3 + 1e-6 * s.v(a_));
  }
  std::vector<NodeId> terminals() const override { return {a_, b_}; }

 private:
  NodeId a_, b_;
  bool shrink_;
  int stamps_ = 0;
};

TEST(SolverHotPath, ChangedStampSequenceThrows) {
  for (const bool shrink : {true, false}) {
    Circuit ckt;
    const auto in = ckt.node("in");
    const auto a = ckt.node("a");
    ckt.add<VSource>("V1", in, kGround, 1.0);
    ckt.add<Resistor>("R1", in, a, 1000.0);
    // Added last, so its calls end the nonlinear tape: the mismatch is a
    // count, which every build type reports the same way.
    ckt.add<ShiftingStampDevice>(a, in, shrink);
    Engine engine(ckt, 27.0);
    EXPECT_THROW(engine.dc_operating_point(), std::logic_error)
        << (shrink ? "fewer" : "more") << " matrix writes than recorded";
  }
}

// ---------------------------------------------------------------------
// LuPlan: sparse solves vs dense partial pivoting, static pivots under
// replay, re-ordering on a vanishing pivot, singularity, and fill.
// ---------------------------------------------------------------------

// The sparse_vs_dense oracle tolerance: |sparse - dense| <= abs + rel *
// |sparse| per component.
constexpr double kTolAbs = 1e-9;
constexpr double kTolRel = 1e-6;

DenseMatrix matrix_from(const std::vector<std::vector<double>>& rows) {
  DenseMatrix m(rows.size(), rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < rows.size(); ++c) m.at(r, c) = rows[r][c];
  }
  return m;
}

std::vector<int> pattern_of(const DenseMatrix& m) {
  std::vector<int> pattern;
  for (std::size_t i = 0; i < m.rows() * m.cols(); ++i) {
    if (m.data()[i] != 0.0) pattern.push_back(static_cast<int>(i));
  }
  return pattern;
}

/// Compact values of `m` at `pattern`, the form LuPlan::solve takes.
std::vector<double> values_of(const DenseMatrix& m,
                              const std::vector<int>& pattern) {
  std::vector<double> values;
  for (const int e : pattern) values.push_back(m.data()[e]);
  return values;
}

/// Sparse-solve (a, b) with `plan` and hold the result to a dense solve.
void expect_plan_matches_dense(LuPlan& plan, const DenseMatrix& a,
                               const std::vector<int>& pattern,
                               const std::vector<double>& b,
                               const std::string& what) {
  std::vector<double> x = b;
  ASSERT_TRUE(plan.solve(values_of(a, pattern), pattern, x)) << what;
  DenseMatrix dense = a;
  std::vector<double> x_dense = b;
  ASSERT_TRUE(lu_solve(dense, x_dense)) << what;
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], x_dense[i], kTolAbs + kTolRel * std::fabs(x[i]))
        << what << " component " << i;
  }
}

/// Random MNA-like system: a connected resistor network whose conductances
/// span decades, gmin to ground, grounded voltage sources (aux rows with a
/// zero diagonal) and transconductances (asymmetric entries).
DenseMatrix random_mna(util::Rng& rng, std::size_t nodes, std::size_t sources) {
  const std::size_t n = nodes + sources;
  DenseMatrix a(n, n);
  const auto conductance = [&](std::size_t i, std::size_t j, double g) {
    a.at(i, i) += g;
    a.at(j, j) += g;
    a.at(i, j) -= g;
    a.at(j, i) -= g;
  };
  const auto decades = [&](double lo, double hi) {
    return std::pow(10.0, rng.uniform(lo, hi));
  };
  for (std::size_t i = 1; i < nodes; ++i) {
    conductance(i, rng.uniform_index(i), decades(-6.0, -3.0));
  }
  for (std::size_t e = 0; e < nodes / 2; ++e) {
    const std::size_t i = rng.uniform_index(nodes);
    const std::size_t j = rng.uniform_index(nodes);
    if (i != j) conductance(i, j, decades(-6.0, -3.0));
  }
  for (std::size_t i = 0; i < nodes; ++i) a.at(i, i) += 1e-12;
  for (std::size_t e = 0; e < nodes / 4; ++e) {
    const std::size_t out = rng.uniform_index(nodes);
    const std::size_t ctrl = rng.uniform_index(nodes);
    a.at(out, ctrl) += decades(-8.0, -6.0);
  }
  for (std::size_t s = 0; s < sources; ++s) {
    const std::size_t node = s * nodes / sources;  // distinct nodes
    a.at(node, nodes + s) += 1.0;
    a.at(nodes + s, node) += 1.0;
  }
  return a;
}

TEST(LuPlan, RandomMnaSystemsMatchDense) {
  util::Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t nodes = 4 + rng.uniform_index(60);
    const std::size_t sources = 1 + rng.uniform_index(4);
    const DenseMatrix a = random_mna(rng, nodes, sources);
    const std::vector<int> pattern = pattern_of(a);
    std::vector<double> b(a.rows());
    for (std::size_t i = 0; i < b.size(); ++i) {
      b[i] = i < nodes ? rng.uniform(-1e-6, 1e-6) : rng.uniform(0.0, 1.2);
    }
    LuPlan plan;
    expect_plan_matches_dense(plan, a, pattern, b,
                              "trial " + std::to_string(trial));
    ASSERT_TRUE(plan.valid());

    // Newton-style replay: same pattern, values scaled per entry within a
    // decade, solved with the plan's static pivots.
    DenseMatrix replay = a;
    for (const int e : pattern) replay.data()[e] *= rng.uniform(0.5, 2.0);
    expect_plan_matches_dense(plan, replay, pattern, b,
                              "replay " + std::to_string(trial));
  }
}

TEST(LuPlan, ArgmaxChangeKeepsOrder) {
  const std::vector<std::vector<double>> base = {
      {4.0, 1.0},
      {1.0, 4.0},
  };
  const DenseMatrix a0 = matrix_from(base);
  const std::vector<int> pattern = pattern_of(a0);
  LuPlan plan;
  expect_plan_matches_dense(plan, a0, pattern, {1.0, 1.0}, "base");

  // Row 1 now dominates column 0, but the replayed pivot is still far
  // above 1e-6 x its column: static pivoting keeps the order.
  const DenseMatrix a1 = matrix_from({{0.5, 1.0}, {3.0, 4.0}});
  expect_plan_matches_dense(plan, a1, pattern, {1.0, -2.0}, "moved argmax");
  EXPECT_EQ(plan.refreeze_count(), 0u);
}

TEST(LuPlanFallback, DegradedPivotTriggersRefreeze) {
  const std::vector<std::vector<double>> base = {
      {4.0, 1.0},
      {1.0, 4.0},
  };
  const DenseMatrix a0 = matrix_from(base);
  const std::vector<int> pattern = pattern_of(a0);
  LuPlan plan;
  expect_plan_matches_dense(plan, a0, pattern, {1.0, 1.0}, "base");
  EXPECT_EQ(plan.refreeze_count(), 0u);

  // The replayed pivot collapses below 1e-6 x its column maximum: the
  // plan must re-choose the order and still agree with dense LU.
  const DenseMatrix a1 = matrix_from({{1e-8, 1.0}, {1.0, 4.0}});
  expect_plan_matches_dense(plan, a1, pattern, {1.0, 1.0}, "vanished pivot");
  EXPECT_EQ(plan.refreeze_count(), 1u);

  // The new order also serves the original matrix without re-ordering.
  expect_plan_matches_dense(plan, a0, pattern, {1.0, 1.0}, "base again");
  EXPECT_EQ(plan.refreeze_count(), 1u);
}

TEST(LuPlanFallback, SingularUpdateInvalidatesPlan) {
  const DenseMatrix a0 = matrix_from({{2.0, 1.0}, {1.0, 2.0}});
  const std::vector<int> pattern = pattern_of(a0);
  LuPlan plan;
  expect_plan_matches_dense(plan, a0, pattern, {1.0, 1.0}, "base");

  // Rank-1 update: both rows proportional. Dense LU fails, and so must
  // the sparse solve — invalidating the plan instead of dividing by a
  // vanishing pivot.
  DenseMatrix singular = matrix_from({{2.0, 1.0}, {4.0, 2.0}});
  std::vector<double> x = {1.0, 1.0};
  EXPECT_FALSE(plan.solve(values_of(singular, pattern), pattern, x));
  EXPECT_FALSE(plan.valid());
  std::vector<double> x_dense = {1.0, 1.0};
  EXPECT_FALSE(lu_solve(singular, x_dense));
}

// Fill stays linear in the row width. A magnitude-driven dense pivot order
// makes it cubic: 382x more multiply-adds at 64 cells than at 8.
TEST(LuPlan, FillGrowsLinearlyWithRowWidth) {
  const auto dc_ops = [](int cells) {
    cim::ArrayConfig cfg = cim::ArrayConfig::proposed_2t1fefet();
    cfg.cells_per_row = cells;
    cim::CiMRow row(cfg);
    row.set_stored(std::vector<int>(static_cast<std::size_t>(cells), 1));
    Engine engine(row.circuit(), 27.0);
    EXPECT_TRUE(engine.dc_operating_point(cfg.newton).converged) << cells;
    return engine.workspace().plan.compiled_ops();
  };
  const std::size_t ops8 = dc_ops(8);
  const std::size_t ops64 = dc_ops(64);
  EXPECT_GT(ops8, 0u);
  EXPECT_LE(ops64, 10 * ops8) << "8 cells: " << ops8 << ", 64 cells: " << ops64;
}

// ---------------------------------------------------------------------
// Engine-level re-ordering: a switch whose stamped conductance collapses
// over ~13 decades between Newton iterates makes a replayed pivot vanish;
// the solve must re-choose its order and converge, not fail or drift.
// ---------------------------------------------------------------------

TEST(SolverHotPath, SwitchTransitionSurvivesPivotFallback) {
  // The first iterate (all nodes at 0 V) sees the switch on, so the order
  // pivots on node p's 10 S diagonal rather than on the floating source's
  // unit entry in that column. Once ctrl settles at -1 V the switch is
  // off and that diagonal falls to ~1e-12 S.
  VSwitch::Params params;
  params.r_on = 0.1;
  params.r_off = 1e12;
  params.v_threshold = -0.5;
  params.v_width = 0.01;
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto p = ckt.node("p");
  const auto q = ckt.node("q");
  const auto ctrl = ckt.node("ctrl");
  ckt.add<VSource>("V1", in, kGround, 1.0);
  ckt.add<VSource>("VC", ctrl, kGround, -1.0);
  ckt.add<VSwitch>("S1", in, p, ctrl, params);
  ckt.add<VSource>("VF", p, q, 0.2);
  ckt.add<Resistor>("RL", q, kGround, 1000.0);

  Engine engine(ckt, 27.0);
  const DcResult op = engine.dc_operating_point();
  ASSERT_TRUE(op.converged);
  const SolverWorkspace& ws = engine.workspace();
  EXPECT_EQ(ws.plan.refreeze_count(), 1u);
  DenseMatrix a = dense_from_compact(ws.size, ws.pattern, ws.values);
  std::vector<double> x_dense = ws.b;
  ASSERT_TRUE(lu_solve(a, x_dense));
  for (std::size_t i = 0; i < x_dense.size(); ++i) {
    EXPECT_NEAR(ws.x_new[i], x_dense[i],
                kTolAbs + kTolRel * std::fabs(ws.x_new[i]));
  }
}

// ---------------------------------------------------------------------
// Steady state allocates nothing: once the workspace is warm, a full
// newton_solve() — restamp, sparse refactorization, update — must not
// touch the heap.
// ---------------------------------------------------------------------

TEST(SolverHotPath, SteadyStateNewtonSolveDoesNotAllocate) {
  cim::ArrayConfig cfg = cim::ArrayConfig::proposed_2t1fefet();
  cfg.cells_per_row = 4;
  cim::CiMRow row(cfg);
  row.set_stored({1, 0, 1, 1});

  row.circuit().finalize();  // aux variables counted before system_size()
  Engine engine(row.circuit(), 27.0);
  SimContext ctx;
  ctx.mode = AnalysisMode::kDcOperatingPoint;
  ctx.temperature_c = 27.0;
  ctx.gmin = NewtonOptions{}.gmin_final;
  ctx.num_nodes = row.circuit().num_nodes();

  const NewtonOptions options;
  std::vector<double> x(row.circuit().system_size(), 0.0);
  int iterations = 0;
  // Warm-up: sizes the workspace, records the pattern, chooses pivots.
  ASSERT_TRUE(engine.newton_solve(ctx, x, options, &iterations));
  ASSERT_TRUE(engine.workspace().plan.valid());
  EXPECT_GT(engine.workspace().plan.compiled_ops(), 0u);
  // Second warm-up runs the steady-state (static-pivot) branch once so
  // its trace counters do their one-time registration outside the
  // counted region — first execution of a SFC_TRACE_COUNT site
  // allocates the registry entry, every later hit is a relaxed add.
  ASSERT_TRUE(engine.newton_solve(ctx, x, options, &iterations));

  // Steady state: resolving from the converged point re-runs the full
  // iterate-restamp-solve loop (Newton needs >= 2 iterations to declare
  // convergence) without a single allocation. The probe (constructed
  // outside the counted region) proves the trace counters stay live on
  // this path — instrumentation must be allocation-free too.
#if SFC_TRACE_ENABLED
  sfc::trace::TestProbe probe;
#endif
  const long before = g_alloc_count.load();
  const bool ok = engine.newton_solve(ctx, x, options, &iterations);
  const long after = g_alloc_count.load();
  ASSERT_TRUE(ok);
  EXPECT_GE(iterations, 1);
  EXPECT_EQ(after - before, 0) << "newton_solve allocated on the steady-"
                                  "state path";
#if SFC_TRACE_ENABLED
  EXPECT_EQ(probe.counter_delta("spice.newton.solves"), 1u);
  EXPECT_EQ(probe.counter_delta("spice.newton.iterations"),
            static_cast<std::uint64_t>(iterations));
#endif
}

}  // namespace
}  // namespace sfc::spice
