#include "spice/engine.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>

#include "trace/trace.hpp"

namespace sfc::spice {

Engine::Engine(Circuit& circuit, double temperature_c)
    : circuit_(circuit), temperature_c_(temperature_c) {
  circuit_.finalize();
}

bool Engine::apply_update(std::vector<double>& x,
                          const std::vector<double>& x_new,
                          const NewtonOptions& options) const {
  // Damped update: clamp each voltage component's change. Aux variables
  // (branch currents) are left unclamped, as their scale is unknown.
  const std::size_t size = x.size();
  double max_delta_v = 0.0;
  bool aux_converged = true;
  for (std::size_t i = 0; i < size; ++i) {
    double delta = x_new[i] - x[i];
    if (i < circuit_.num_nodes()) {
      const double limit = options.max_update_voltage;
      if (delta > limit) delta = limit;
      if (delta < -limit) delta = -limit;
      max_delta_v = std::max(max_delta_v, std::fabs(delta));
      x[i] += delta;
    } else {
      const double tol =
          options.reltol * std::max(std::fabs(x[i]), std::fabs(x_new[i])) +
          1e-15;
      if (std::fabs(delta) > tol) aux_converged = false;
      x[i] = x_new[i];
    }
  }
  return max_delta_v < options.vtol && aux_converged;
}

SolverWorkspace& Engine::prepare_workspace(const SimContext& ctx) {
  SolverWorkspace& ws = workspaces_[static_cast<int>(ctx.mode)];
  const std::size_t size = circuit_.system_size();
  if (ws.size == size && ws.mode == ctx.mode &&
      ws.plan_version == circuit_.plan_version()) {
    SFC_TRACE_COUNT("spice.stampplan.cache_hits", 1);
    return ws;
  }
  SFC_TRACE_COUNT("spice.stampplan.compiles", 1);
  ws.b.assign(size, 0.0);
  ws.b_base.assign(size, 0.0);
  ws.x_new.assign(size, 0.0);
  ws.pattern.clear();
  ws.plan.reset();
  ws.size = size;
  ws.mode = ctx.mode;
  ws.plan_version = circuit_.plan_version();
  return ws;
}

namespace {

/// Keys of the add_matrix calls `devices` make when stamped at `x`, in
/// call order. The recorder writes only `b`.
std::vector<int> record_keys(const std::vector<Device*>& devices,
                             const SimContext& ctx,
                             const std::vector<double>& x,
                             std::vector<double>& b, std::size_t num_nodes,
                             bool linear) {
  std::vector<int> keys;
  Stamper recorder(keys, b, x, num_nodes);
#ifndef NDEBUG
  recorder.forbid_iterate_reads(linear);
#else
  (void)linear;
#endif
  for (Device* dev : devices) dev->stamp(ctx, recorder);
  return keys;
}

/// Turn a recorded key sequence into a tape: replace each key by its slot
/// in the sorted pattern.
void keys_to_slots(const std::vector<int>& pattern, std::vector<int>& keys) {
  for (int& key : keys) {
    const auto it = std::lower_bound(pattern.begin(), pattern.end(), key);
    assert(it != pattern.end() && *it == key);
    key = static_cast<int>(it - pattern.begin());
  }
}

/// Record pass of a fresh workspace: stamp every device in record mode at
/// `x`, build the pattern and resolve the tapes and gmin slots.
void record_stamp_plan(const Circuit& circuit, const SimContext& ctx,
                       const std::vector<double>& x, SolverWorkspace& ws) {
  const std::size_t num_nodes = circuit.num_nodes();
  // ws.b is scratch here: every iteration overwrites it.
  ws.linear_tape = record_keys(circuit.linear_devices(), ctx, x, ws.b,
                               num_nodes, /*linear=*/true);
  ws.nonlinear_tape = record_keys(circuit.nonlinear_devices(), ctx, x, ws.b,
                                  num_nodes, /*linear=*/false);
  ws.gmin_slots.resize(num_nodes);
  for (std::size_t n = 0; n < num_nodes; ++n) {
    ws.gmin_slots[n] = static_cast<int>(n * ws.size + n);
  }
  std::vector<int>* const tapes[] = {&ws.linear_tape, &ws.nonlinear_tape,
                                     &ws.gmin_slots};
  ws.pattern.clear();
  for (const std::vector<int>* keys : tapes) {
    ws.pattern.insert(ws.pattern.end(), keys->begin(), keys->end());
  }
  std::sort(ws.pattern.begin(), ws.pattern.end());
  ws.pattern.erase(std::unique(ws.pattern.begin(), ws.pattern.end()),
                   ws.pattern.end());
  for (std::vector<int>* keys : tapes) keys_to_slots(ws.pattern, *keys);
  ws.values.assign(ws.pattern.size(), 0.0);
  ws.values_base.assign(ws.pattern.size(), 0.0);
}

}  // namespace

bool Engine::newton_solve(const SimContext& ctx, std::vector<double>& x,
                          const NewtonOptions& options, int* iterations_out) {
  circuit_.finalize();
  SolverWorkspace& ws = prepare_workspace(ctx);
  const std::size_t num_nodes = circuit_.num_nodes();
  if (ws.pattern.empty()) record_stamp_plan(circuit_, ctx, x, ws);

  // Baseline: linear stamps + gmin, valid for the whole solve. Linear
  // devices may not read the Newton iterate (Device::is_linear contract),
  // so it is legal to build this before x has converged.
  std::fill(ws.values_base.begin(), ws.values_base.end(), 0.0);
  std::fill(ws.b_base.begin(), ws.b_base.end(), 0.0);
  {
    Stamper stamper(ws.values_base.data(), ws.linear_tape, ws.pattern.data(),
                    ws.b_base, x, num_nodes);
#ifndef NDEBUG
    stamper.forbid_iterate_reads(true);
#endif
    for (Device* dev : circuit_.linear_devices()) {
      dev->stamp(ctx, stamper);
    }
    stamper.finish();
  }
  // gmin from every node to ground keeps the matrix nonsingular when
  // subthreshold devices are effectively off.
  for (const int slot : ws.gmin_slots) ws.values_base[slot] += ctx.gmin;

  // Each iteration restores the baseline and restamps only the nonlinear
  // devices.
  const std::size_t refreezes_before = ws.plan.refreeze_count();
  int iters = 0;
  bool ok = false;
  while (iters < options.max_iterations) {
    std::copy(ws.values_base.begin(), ws.values_base.end(), ws.values.begin());
    std::copy(ws.b_base.begin(), ws.b_base.end(), ws.b.begin());
    {
      Stamper stamper(ws.values.data(), ws.nonlinear_tape, ws.pattern.data(),
                      ws.b, x, num_nodes);
      for (Device* dev : circuit_.nonlinear_devices()) {
        dev->stamp(ctx, stamper);
      }
      stamper.finish();
    }
    std::copy(ws.b.begin(), ws.b.end(), ws.x_new.begin());
    ++iters;
    if (!ws.plan.solve(ws.values, ws.pattern, ws.x_new)) break;
    if (apply_update(x, ws.x_new, options) && iters > 1) {
      ok = true;
      break;
    }
  }
  if (iterations_out) *iterations_out = iters;
  // Counted on every solve, re-order or not, so the counter is always
  // registered and the metrics key set does not depend on the data.
  SFC_TRACE_COUNT("spice.lu.refreezes",
                  ws.plan.refreeze_count() - refreezes_before);
  SFC_TRACE_COUNT("spice.newton.solves", 1);
  SFC_TRACE_COUNT("spice.newton.iterations", iters);
  if (!ok) SFC_TRACE_COUNT("spice.newton.failures", 1);
  return ok;
}

void assemble_dense(const Circuit& circuit, const SimContext& ctx,
                    const std::vector<double>& x, DenseMatrix& a,
                    std::vector<double>& b) {
  const std::size_t size = circuit.system_size();
  const std::size_t num_nodes = circuit.num_nodes();
  a = DenseMatrix(size, size);
  b.assign(size, 0.0);
  // Each pass's recorded keys are its tape: slot = flat index into `a`.
  const std::vector<int> linear_keys = record_keys(
      circuit.linear_devices(), ctx, x, b, num_nodes, /*linear=*/true);
  const std::vector<int> nonlinear_keys = record_keys(
      circuit.nonlinear_devices(), ctx, x, b, num_nodes, /*linear=*/false);
  b.assign(size, 0.0);
  Stamper linear(a.data(), linear_keys, nullptr, b, x, num_nodes);
  for (Device* dev : circuit.linear_devices()) dev->stamp(ctx, linear);
  linear.finish();
  for (std::size_t n = 0; n < num_nodes; ++n) a.at(n, n) += ctx.gmin;
  Stamper nonlinear(a.data(), nonlinear_keys, nullptr, b, x, num_nodes);
  for (Device* dev : circuit.nonlinear_devices()) dev->stamp(ctx, nonlinear);
  nonlinear.finish();
}

DcResult Engine::dc_operating_point(const NewtonOptions& options,
                                    const std::vector<double>* warm_start) {
  SFC_TRACE_SPAN("spice.dc_operating_point");
  SFC_TRACE_COUNT("spice.dc.solves", 1);
  circuit_.finalize();
  DcResult result;
  SimContext ctx;
  ctx.mode = AnalysisMode::kDcOperatingPoint;
  ctx.temperature_c = temperature_c_;
  ctx.time = 0.0;
  ctx.dt = 0.0;
  ctx.num_nodes = circuit_.num_nodes();

  std::vector<double> x =
      (warm_start && warm_start->size() == circuit_.system_size())
          ? *warm_start
          : std::vector<double>(circuit_.system_size(), 0.0);

  // Plain attempt at final gmin, then gmin stepping from a large leak.
  ctx.gmin = options.gmin_final;
  int iters = 0;
  bool ok = newton_solve(ctx, x, options, &iters);
  result.iterations += iters;

  if (!ok) {
    SFC_TRACE_COUNT("spice.dc.gmin_fallbacks", 1);
    x.assign(circuit_.system_size(), 0.0);
    double gmin = options.gmin_start;
    ok = true;
    while (gmin >= options.gmin_final * 0.999) {
      SFC_TRACE_COUNT("spice.newton.gmin_steps", 1);
      ctx.gmin = gmin;
      int step_iters = 0;
      if (!newton_solve(ctx, x, options, &step_iters)) {
        ok = false;
        result.iterations += step_iters;
        break;
      }
      result.iterations += step_iters;
      if (gmin == options.gmin_final) break;
      gmin = std::max(gmin / options.gmin_step_factor, options.gmin_final);
    }
  }

  result.converged = ok;
  result.gmin_used = ctx.gmin;
  result.x = x;
  for (std::size_t n = 0; n < circuit_.num_nodes(); ++n) {
    result.voltages[circuit_.node_name(static_cast<NodeId>(n))] = x[n];
  }
  for (const auto& dev : circuit_.devices()) {
    if (dev->num_aux() == 1) {
      result.currents["I(" + dev->name() + ")"] =
          x[circuit_.num_nodes() + static_cast<std::size_t>(dev->aux_base())];
    }
  }
  return result;
}

std::vector<std::string> Engine::signal_names() const {
  std::vector<std::string> names;
  names.reserve(circuit_.system_size());
  for (std::size_t n = 0; n < circuit_.num_nodes(); ++n) {
    names.push_back(circuit_.node_name(static_cast<NodeId>(n)));
  }
  for (const auto& dev : circuit_.devices()) {
    for (int k = 0; k < dev->num_aux(); ++k) {
      if (dev->num_aux() == 1) {
        names.push_back("I(" + dev->name() + ")");
      } else {
        names.push_back("I(" + dev->name() + "." + std::to_string(k) + ")");
      }
    }
  }
  return names;
}

std::vector<double> Engine::breakpoints(double t_stop) const {
  std::vector<double> points;
  for (const auto& dev : circuit_.devices()) {
    dev->collect_breakpoints(t_stop, points);
  }
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end(),
                           [](double a, double b) {
                             return std::fabs(a - b) < 1e-18;
                           }),
               points.end());
  // Keep only breakpoints strictly inside (0, t_stop).
  std::vector<double> inside;
  for (double p : points) {
    if (p > 1e-18 && p < t_stop - 1e-18) inside.push_back(p);
  }
  return inside;
}

AcResult Engine::ac(const std::vector<double>& frequencies_hz,
                    const NewtonOptions& options) {
  SFC_TRACE_SPAN("spice.ac");
  circuit_.finalize();
  AcResult result;
  result.op = dc_operating_point(options);
  if (!result.op.converged) return result;

  SimContext ctx;
  ctx.mode = AnalysisMode::kDcOperatingPoint;  // linearization context
  ctx.temperature_c = temperature_c_;
  ctx.num_nodes = circuit_.num_nodes();

  const std::size_t size = circuit_.system_size();
  ComplexMatrix a(size, size);
  std::vector<std::complex<double>> b(size);
  result.set_signal_names(signal_names());

  for (double f : frequencies_hz) {
    const double omega = 2.0 * M_PI * f;
    a.set_zero();
    std::fill(b.begin(), b.end(), std::complex<double>{0.0, 0.0});
    AcStamper stamper(a, b, result.op.x, circuit_.num_nodes(), omega);
    for (const auto& dev : circuit_.devices()) {
      dev->stamp_ac(ctx, stamper);
    }
    for (std::size_t n = 0; n < circuit_.num_nodes(); ++n) {
      a.at(n, n) += options.gmin_final;
    }
    std::vector<std::complex<double>> x = b;
    if (!lu_solve(a, x)) {
      result.converged = false;
      return result;
    }
    result.append_point(f, x);
  }
  result.converged = true;
  return result;
}

/// Logarithmic frequency grid helper for AC sweeps.
std::vector<double> log_frequency_grid(double f_start, double f_stop,
                                       int points_per_decade) {
  std::vector<double> freqs;
  const double decades = std::log10(f_stop / f_start);
  const int total =
      std::max(2, static_cast<int>(decades * points_per_decade) + 1);
  for (int i = 0; i < total; ++i) {
    freqs.push_back(f_start *
                    std::pow(10.0, decades * i / (total - 1)));
  }
  return freqs;
}

namespace {

/// Accepted solutions of the current smooth stretch of a transient (since
/// the last breakpoint), oldest first; only the three newest are kept.
class StepHistory {
 public:
  void restart(double t, const std::vector<double>& x) {
    count_ = 0;
    push(t, x);
  }
  void push(double t, const std::vector<double>& x) {
    if (count_ == kDepth) {
      std::rotate(t_.begin(), t_.begin() + 1, t_.end());
      std::rotate(x_.begin(), x_.begin() + 1, x_.end());
      --count_;
    }
    t_[count_] = t;
    x_[count_] = x;
    ++count_;
  }
  std::size_t size() const { return count_; }
  double t(std::size_t i) const { return t_[i]; }
  const std::vector<double>& x(std::size_t i) const { return x_[i]; }
  double newest_t() const { return t_[count_ - 1]; }
  const std::vector<double>& newest() const { return x_[count_ - 1]; }

 private:
  static constexpr std::size_t kDepth = 3;
  std::array<double, kDepth> t_{};
  std::array<std::vector<double>, kDepth> x_;
  std::size_t count_ = 0;
};

/// Voltage across a pair of terminals in solution `x`.
double state_voltage(const std::vector<double>& x, const ChargeTerminals& c) {
  const double va =
      c.first == kGround ? 0.0 : x[static_cast<std::size_t>(c.first)];
  const double vb =
      c.second == kGround ? 0.0 : x[static_cast<std::size_t>(c.second)];
  return va - vb;
}

/// Largest ratio, over the capacitor voltages, of a candidate step's
/// estimated LTE to its tolerance abstol + timetol * |dv/dt|. A step of
/// `order` p estimates the error from the (p+1)-th divided difference D
/// over the newest p+1 history points and the candidate: h^2 * D for
/// Backward Euler (h^2/2 * v'') and h^3/2 * D for the trapezoidal rule
/// (h^3/12 * v^(3)). With `x_half` (Backward Euler from the only history
/// point) it is v_h - 2 v_{h/2} + v_0 instead.
double lte_ratio(const StepHistory& hist, double t_new,
                 const std::vector<double>& x_new,
                 const std::vector<double>* x_half, int order,
                 const std::vector<ChargeTerminals>& states) {
  const std::size_t m = static_cast<std::size_t>(order) + 1;  // DD order
  const std::size_t first = x_half ? 0 : hist.size() - m;
  double times[4];
  for (std::size_t j = 0; j < m && !x_half; ++j) times[j] = hist.t(first + j);
  times[m] = t_new;
  const double h = t_new - hist.newest_t();
  const double scale = order == 1 ? h * h : 0.5 * h * h * h;
  double worst = 0.0;
  for (const ChargeTerminals& c : states) {
    const double v_new = state_voltage(x_new, c);
    const double v_last = state_voltage(hist.newest(), c);
    double err;
    if (x_half) {
      err = v_new - 2.0 * state_voltage(*x_half, c) + v_last;
    } else {
      double dd[4];
      for (std::size_t j = 0; j < m; ++j) {
        dd[j] = state_voltage(hist.x(first + j), c);
      }
      dd[m] = v_new;
      for (std::size_t level = 1; level <= m; ++level) {
        for (std::size_t j = m; j >= level; --j) {
          dd[j] = (dd[j] - dd[j - 1]) / (times[j] - times[j - level]);
        }
      }
      err = scale * dd[m];
    }
    const double tol = kLteAbstol + kLteTimetol * std::fabs(v_new - v_last) / h;
    worst = std::max(worst, std::fabs(err) / tol);
  }
  return worst;
}

/// Step-size factor for an error ratio `r` of a method of the given order:
/// 0.9 r^(-1/(order+1)), within [1/10, 2].
double step_factor(double r, int order) {
  if (r <= 0.0) return 2.0;
  return std::clamp(0.9 * std::pow(r, -1.0 / (order + 1)), 0.1, 2.0);
}

}  // namespace

TransientResult Engine::transient(double t_stop,
                                  const TransientOptions& options) {
  SFC_TRACE_SPAN("spice.transient");
  circuit_.finalize();
  TransientResult result;

  // Initial condition: DC operating point with sources at t = 0.
  DcResult dc = dc_operating_point(options.newton);
  result.total_newton_iterations += dc.iterations;
  if (!dc.converged) {
    result.converged = false;
    return result;
  }
  std::vector<double> x = dc.x;

  SimContext ctx;
  ctx.mode = AnalysisMode::kTransient;
  ctx.method = options.method;
  ctx.temperature_c = temperature_c_;
  ctx.gmin = options.newton.gmin_final;
  ctx.time = 0.0;
  ctx.dt = 0.0;
  ctx.num_nodes = circuit_.num_nodes();
  const auto& devices = circuit_.devices();
  std::vector<ChargeTerminals> states;
  for (const auto& dev : devices) {
    if (const auto c = dev->charge_terminals()) states.push_back(*c);
  }

  for (const auto& dev : devices) dev->start_transient(ctx, x);

  result.set_signal_names(signal_names());
  if (options.record_waveforms) result.append_sample(0.0, x);

  const std::vector<double> bps = breakpoints(t_stop);
  std::size_t next_bp = 0;
  SFC_TRACE_COUNT("spice.tran.breakpoints", bps.size());
  std::vector<double> samples;
  for (double s : options.sample_times) {
    if (s > 1e-18 && s < t_stop - 1e-18) samples.push_back(s);
  }
  std::sort(samples.begin(), samples.end());
  std::size_t next_sample = 0;

  // Source energy: v * dq per step, with dq from the step's own formula.
  std::vector<SourceOutput> drive(devices.size());
  for (std::size_t di = 0; di < devices.size(); ++di) {
    drive[di] = devices[di]->source_output(ctx, x);
  }
  std::vector<double> energy(devices.size(), 0.0);

  // First step after a breakpoint: a tenth of the last step or of the gap
  // to the next breakpoint, and at most the first step the previous
  // breakpoint accepted (a run's edges are alike).
  double h_first = options.dt;
  auto first_step = [&](double t_from, double h_before) {
    const double next = next_bp < bps.size() ? bps[next_bp] : t_stop;
    return std::min({options.dt, h_first,
                     0.1 * std::min(h_before, next - t_from)});
  };
  // Below this step the LTE check no longer rejects.
  const double h_min = 1e-6 * options.dt;

  // The run opens with one Backward Euler step of h_min: it moves the
  // nodes from the DC solution onto the capacitors' initial conditions, a
  // jump no step size resolves, and step control starts from there.
  StepHistory hist;
  hist.restart(0.0, x);
  double t = 0.0;
  double h = h_min;
  bool settle = true;
  std::vector<double> x_try;
  std::vector<double> x_half;
  while (t < t_stop - 1e-18) {
    // The next instant the run must land on exactly. A sample time within
    // 1e-18 s of a breakpoint stands in for it, so samples land on the
    // times asked for.
    double stop = t_stop;
    if (next_bp < bps.size()) stop = std::min(stop, bps[next_bp]);
    if (next_sample < samples.size() &&
        samples[next_sample] < stop + 1e-18) {
      stop = samples[next_sample];
    }

    // Backward Euler for the two steps after a breakpoint, the first one
    // checked against a half step from the same point.
    const bool from_breakpoint = hist.size() == 1 && !settle;
    ctx.method = hist.size() < 3 ? IntegrationMethod::kBackwardEuler
                                 : options.method;
    const int order = ctx.method == IntegrationMethod::kTrapezoidal ? 2 : 1;
    int newton_retries = 0;
    double step = 0.0;
    double ratio = 0.0;
    for (;;) {
      // Land on `stop`, splitting the way there rather than leaving a
      // sliver.
      const double remaining = stop - t;
      step = h >= remaining ? remaining : std::min(h, 0.5 * remaining);
      ctx.time = step == remaining ? stop : t + step;
      ctx.dt = step;
      x_try = x;
      int iters = 0;
      bool ok = newton_solve(ctx, x_try, options.newton, &iters);
      result.total_newton_iterations += iters;
      if (ok && from_breakpoint) {
        SimContext half = ctx;
        half.time = t + 0.5 * step;
        half.dt = 0.5 * step;
        x_half = x;
        int half_iters = 0;
        ok = newton_solve(half, x_half, options.newton, &half_iters);
        result.total_newton_iterations += half_iters;
      }
      if (!ok) {
        SFC_TRACE_COUNT("spice.tran.steps_rejected", 1);
        if (++newton_retries > options.max_step_retries) {
          result.converged = false;
          return result;
        }
        h = 0.5 * step;
        continue;
      }
      if (!settle) {
        ratio = lte_ratio(hist, ctx.time, x_try,
                          from_breakpoint ? &x_half : nullptr, order, states);
        if (ratio > 1.0 && step > h_min) {
          SFC_TRACE_COUNT("spice.tran.steps_rejected", 1);
          h = std::max(h_min, step * step_factor(ratio, order));
          continue;
        }
      }
      SFC_TRACE_HIST("spice.tran.newton_iterations_per_step", iters);
      break;
    }
    SFC_TRACE_COUNT("spice.tran.steps_accepted", 1);
    if (from_breakpoint) h_first = step;

    x.swap(x_try);
    for (const auto& dev : devices) dev->accept_step(ctx, x);
    for (std::size_t di = 0; di < devices.size(); ++di) {
      const SourceOutput now = devices[di]->source_output(ctx, x);
      const SourceOutput& before = drive[di];
      energy[di] += ctx.method == IntegrationMethod::kTrapezoidal
                        ? 0.25 * (before.volts + now.volts) *
                              (before.amps + now.amps) * step
                        : now.volts * now.amps * step;
      drive[di] = now;
    }

    // A step cut short to land on `stop` leaves the wanted size alone.
    const double grown = std::min(options.dt, step * step_factor(ratio, order));
    h = step < h ? std::max(h, grown) : grown;
    t = ctx.time;
    if (options.record_waveforms) result.append_sample(t, x);
    if (next_sample < samples.size() &&
        std::fabs(t - samples[next_sample]) < 1e-18) {
      ++next_sample;
      if (!options.record_waveforms) result.append_sample(t, x);
    }
    const bool at_breakpoint =
        next_bp < bps.size() && std::fabs(t - bps[next_bp]) < 1e-18;
    if (at_breakpoint) ++next_bp;
    if (settle || at_breakpoint) {
      hist.restart(t, x);
      h = first_step(t, settle ? options.dt : h);
      settle = false;
    } else {
      hist.push(t, x);
    }
  }

  for (std::size_t di = 0; di < devices.size(); ++di) {
    if (energy[di] != 0.0) {
      result.source_energy[devices[di]->name()] = energy[di];
    }
  }
  if (!options.record_waveforms) result.append_sample(t, x);
  result.converged = true;
  return result;
}

}  // namespace sfc::spice
