// Simulation engine: Newton-Raphson DC operating point (with damping and
// gmin stepping) and LTE-controlled, breakpoint-aware transient analysis
// with charge-consistent source energy accounting. This is the stand-in
// for the commercial simulator the paper used (Cadence Spectre); see
// DESIGN.md for the substitution rationale.
#pragma once

#include <vector>

#include "spice/circuit.hpp"
#include "spice/results.hpp"

namespace sfc::spice {

struct NewtonOptions {
  int max_iterations = 200;
  /// Absolute voltage tolerance [V].
  double vtol = 1e-9;
  /// Relative tolerance on solution components.
  double reltol = 1e-6;
  /// Per-iteration clamp on any voltage update [V] (damping for
  /// exponential devices).
  double max_update_voltage = 0.3;
  /// gmin used on every node when the plain solve succeeds.
  double gmin_final = 1e-12;
  /// Starting gmin for the stepping fallback.
  double gmin_start = 1e-3;
  /// gmin reduction factor per stepping stage.
  double gmin_step_factor = 10.0;
};

/// Reusable per-Engine solver buffers. The Newton matrix is held compactly,
/// one value per structural nonzero: values[i] is the entry at the flat
/// row-major index pattern[i]. The first solve of a workspace records
/// every add_matrix call the devices make and resolves each one to its
/// slot, once, in two tapes (linear and nonlinear devices), plus the gmin
/// diagonal; later solves stamp straight into the slots. Memory is
/// O(nnz + stamp calls). Sized lazily on first use and invalidated when
/// the system size, analysis mode, or circuit plan version changes. After
/// a solve, (values, b) hold the last assembled Newton system and x_new
/// its solution.
struct SolverWorkspace {
  std::vector<double> values;       ///< working matrix (the LU never writes it)
  std::vector<double> values_base;  ///< linear stamps + gmin baseline
  std::vector<double> b;            ///< working RHS
  std::vector<double> b_base;       ///< linear-stamp RHS baseline
  std::vector<double> x_new;        ///< solve target / Newton update
  /// Structural nonzeros: sorted flat row-major indices (empty until the
  /// first solve records them).
  std::vector<int> pattern;
  std::vector<int> linear_tape;     ///< slot of each linear-device call
  std::vector<int> nonlinear_tape;  ///< slot of each nonlinear-device call
  std::vector<int> gmin_slots;      ///< slot of each node's diagonal
  LuPlan plan;
  std::size_t size = 0;
  AnalysisMode mode = AnalysisMode::kDcOperatingPoint;
  std::uint64_t plan_version = 0;
};

/// Reference assembly of the whole Newton system at `x` into a dense n x n
/// matrix `a` (zeroed here) and `b`: the engine's order (linear devices,
/// gmin, nonlinear devices) through the Stamper write path with slot =
/// flat row-major index, so every entry is summed exactly as in the
/// engine's compact values. The circuit must be finalized.
void assemble_dense(const Circuit& circuit, const SimContext& ctx,
                    const std::vector<double>& x, DenseMatrix& a,
                    std::vector<double>& b);

/// Transient step control. Every step is sized by its local truncation
/// error (LTE) on the capacitor voltages: the trapezoidal rule's
/// h^3/12 * v^(3), or Backward Euler's h^2/2 * v'', estimated from divided
/// differences of the accepted solutions since the last waveform
/// breakpoint. A step whose error exceeds kLteAbstol + kLteTimetol *
/// |dv/dt| on any capacitor is retried shorter; otherwise the next step
/// grows, up to `dt`. Each breakpoint restarts the history with two
/// Backward Euler steps; the first is checked against a half step from
/// the same point (one extra Newton solve).
struct TransientOptions {
  /// Largest time step [s]. Steps also land exactly on breakpoints,
  /// sample times and t_stop.
  double dt = 1e-11;
  IntegrationMethod method = IntegrationMethod::kTrapezoidal;
  NewtonOptions newton;
  /// Maximum number of step halvings on Newton failure before giving up.
  int max_step_retries = 12;
  /// Record every accepted step (disable for energy-only runs to save
  /// memory; the final state is always recorded).
  bool record_waveforms = true;
  /// Times inside (0, t_stop) the run steps onto exactly and always
  /// records, without restarting the integration history there.
  std::vector<double> sample_times;
};

/// LTE tolerance per capacitor voltage: kLteAbstol [V] plus the change a
/// time shift of kLteTimetol [s] makes, kLteTimetol * |dv/dt|. The second
/// term loosens fast edges, whose errors are timing errors that the next
/// RC time constant damps, and keeps slow charging, whose errors keep one
/// sign and add up, at kLteAbstol.
inline constexpr double kLteAbstol = 2e-6;
inline constexpr double kLteTimetol = 1e-13;

class Engine {
 public:
  /// The engine mutates device state during transient runs; the circuit
  /// must outlive the engine.
  Engine(Circuit& circuit, double temperature_c);

  double temperature_c() const { return temperature_c_; }
  void set_temperature_c(double t) { temperature_c_ = t; }

  /// DC operating point at the engine temperature. Sources are evaluated
  /// at t = 0. `warm_start` (optional) seeds Newton with a previous
  /// solution — the continuation trick used by DC sweeps.
  DcResult dc_operating_point(const NewtonOptions& options = {},
                              const std::vector<double>* warm_start = nullptr);

  /// Transient from t = 0 to t_stop, starting from the DC operating point
  /// (sources at t = 0), with LTE step control (TransientOptions). Each
  /// source's energy is v * dq per step, with dq from the step's own
  /// formula: h * i_{n+1} for Backward Euler, h * (i_n + i_{n+1}) / 2 at
  /// the mean voltage for the trapezoidal rule. It therefore equals the
  /// charge the integrator moved, times the voltage it moved it at, with
  /// no error of its own from the step size.
  TransientResult transient(double t_stop, const TransientOptions& options);

  /// AC small-signal sweep: solve the DC operating point, then
  /// (G + jwC) x = b at every frequency. Excite exactly one source via
  /// VSource::set_ac_magnitude before calling.
  AcResult ac(const std::vector<double>& frequencies_hz,
              const NewtonOptions& options = {});

  /// One Newton solve of the system at the given context. `x` is the
  /// initial guess on entry and the solution on success. Public so tests
  /// and benchmarks can exercise the hot path directly; most callers want
  /// dc_operating_point()/transient().
  bool newton_solve(const SimContext& ctx, std::vector<double>& x,
                    const NewtonOptions& options, int* iterations_out);

  /// Solver workspace for the given analysis mode: the last Newton system
  /// and its solution, for plan inspection in tests and the sparse-vs-
  /// dense oracles. One workspace per mode so the DC phase of every
  /// transient doesn't wipe the transient plan.
  const SolverWorkspace& workspace(
      AnalysisMode mode = AnalysisMode::kDcOperatingPoint) const {
    return workspaces_[static_cast<int>(mode)];
  }

 private:
  /// Damped Newton update x += clamp(x_new - x); returns true when the
  /// step is within tolerances.
  bool apply_update(std::vector<double>& x, const std::vector<double>& x_new,
                    const NewtonOptions& options) const;

  /// (Re)size the mode's workspace buffers and drop stale pattern/plan
  /// state.
  SolverWorkspace& prepare_workspace(const SimContext& ctx);

  std::vector<std::string> signal_names() const;
  std::vector<double> breakpoints(double t_stop) const;

  Circuit& circuit_;
  double temperature_c_;
  /// Indexed by AnalysisMode (DC and transient stamp patterns differ).
  SolverWorkspace workspaces_[2];
};

/// Logarithmic frequency grid for AC sweeps: f_start..f_stop inclusive.
std::vector<double> log_frequency_grid(double f_start, double f_stop,
                                       int points_per_decade);

}  // namespace sfc::spice
