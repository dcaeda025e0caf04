#include "verify/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "cim/array.hpp"
#include "cim/behavioral.hpp"
#include "cim/montecarlo.hpp"
#include "spice/engine.hpp"
#include "verify/json.hpp"

namespace sfc::verify {

std::string OracleReport::summary() const {
  std::ostringstream ss;
  ss << name << ": " << (match ? "MATCH" : "DIVERGED") << " ("
     << points_compared << " points";
  if (!match) ss << ", " << divergences << " diverging";
  ss << ")\n  A: " << arm_a << "\n  B: " << arm_b;
  if (first) {
    ss << "\n  first divergence: " << first->quantity << "[" << first->index
       << "]";
    if (!first->label.empty()) ss << " at " << first->label;
    ss << ": A=" << Json::format_number(first->a)
       << " B=" << Json::format_number(first->b);
  }
  for (const auto& n : notes) ss << "\n  note: " << n;
  return ss.str();
}

void OracleReport::diff_series(
    const std::string& quantity, const std::vector<double>& a,
    const std::vector<double>& b, double tol_abs, double tol_rel,
    const std::function<std::string(std::size_t)>& label_of) {
  if (a.size() != b.size()) {
    structural_failure(quantity + ": series length mismatch (" +
                       std::to_string(a.size()) + " vs " +
                       std::to_string(b.size()) + ")");
    return;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    ++points_compared;
    const double allowed = tol_abs + tol_rel * std::fabs(a[i]);
    const bool ok = std::isfinite(a[i]) && std::isfinite(b[i]) &&
                    std::fabs(a[i] - b[i]) <= allowed;
    if (ok) continue;
    ++divergences;
    match = false;
    if (!first) {
      first = Divergence{quantity, i, label_of ? label_of(i) : "", a[i], b[i]};
    }
  }
}

void OracleReport::diff_value(const std::string& quantity, double a, double b,
                              double tol_abs, double tol_rel,
                              const std::string& label) {
  diff_series(quantity, {a}, {b}, tol_abs, tol_rel,
              label.empty()
                  ? std::function<std::string(std::size_t)>()
                  : [&label](std::size_t) { return label; });
}

void OracleReport::structural_failure(std::string note) {
  match = false;
  notes.push_back(std::move(note));
}

// ---------------------------------------------------------------------------
// Sparse LU vs dense LU
// ---------------------------------------------------------------------------
namespace {

/// Per-component agreement demanded of the sparse solution against a dense
/// partial-pivot solve of the same system: |sparse - dense| <= abs + rel *
/// |sparse|.
constexpr double kSparseDenseAbs = 1e-9;
constexpr double kSparseDenseRel = 1e-6;
/// Bound on the sparse solution's residual ||A x - b||_inf, relative to
/// ||b||_inf.
constexpr double kResidualRel = 1e-12;

std::string temp_label(double t) { return "T" + Json::format_number(t); }

/// Solve the final Newton system left in `ws` with dense lu_solve and hold
/// the engine's sparse solution (ws.x_new) to the tolerances above.
void check_final_system(OracleReport& rep,
                        const sfc::spice::SolverWorkspace& ws,
                        const std::string& label) {
  const sfc::spice::DenseMatrix system =
      sfc::spice::dense_from_compact(ws.size, ws.pattern, ws.values);
  sfc::spice::DenseMatrix a = system;
  std::vector<double> dense = ws.b;
  if (!sfc::spice::lu_solve(a, dense)) {
    rep.structural_failure(label + ": dense LU found the system singular");
    return;
  }
  rep.diff_series("x_" + label, ws.x_new, dense, kSparseDenseAbs,
                  kSparseDenseRel);
  double residual = 0.0, b_norm = 0.0;
  for (std::size_t r = 0; r < ws.size; ++r) {
    double ax = 0.0;
    for (std::size_t c = 0; c < ws.size; ++c) ax += system.at(r, c) * ws.x_new[c];
    residual = std::max(residual, std::fabs(ax - ws.b[r]));
    b_norm = std::max(b_norm, std::fabs(ws.b[r]));
  }
  rep.diff_value("residual_" + label, residual, 0.0, kResidualRel * b_norm);
}

/// Re-stamp every device at the converged DC point into a dense matrix
/// (spice::assemble_dense) and solve densely: a true fixed point
/// reproduces op.x.
void check_dc_fixed_point(OracleReport& rep, sfc::spice::Circuit& circuit,
                          const sfc::spice::DcResult& op,
                          double temperature_c) {
  sfc::spice::SimContext ctx;
  ctx.mode = sfc::spice::AnalysisMode::kDcOperatingPoint;
  ctx.temperature_c = temperature_c;
  ctx.gmin = op.gmin_used;
  ctx.num_nodes = circuit.num_nodes();
  sfc::spice::DenseMatrix a;
  std::vector<double> x;
  sfc::spice::assemble_dense(circuit, ctx, op.x, a, x);
  const std::string label = temp_label(temperature_c);
  if (!sfc::spice::lu_solve(a, x)) {
    rep.structural_failure(label + ": re-stamped system is singular");
    return;
  }
  rep.diff_series("fixed_point_" + label, op.x, x, kSparseDenseAbs,
                  kSparseDenseRel);
}

}  // namespace

OracleReport oracle_sparse_vs_dense_dc() {
  OracleReport rep;
  rep.name = "sparse_vs_dense_dc";
  rep.arm_a = "sparse LU solution of the final Newton system, 4-cell row DC";
  rep.arm_b = "dense lu_solve of that system, and of a re-stamp at the "
              "converged point";
  sfc::cim::ArrayConfig cfg = sfc::cim::ArrayConfig::proposed_2t1fefet();
  cfg.cells_per_row = 4;
  sfc::cim::CiMRow row(cfg);
  row.set_stored({1, 0, 1, 1});
  sfc::spice::Engine engine(row.circuit(), 27.0);
  for (double t : {0.0, 27.0, 85.0}) {
    engine.set_temperature_c(t);
    const auto op = engine.dc_operating_point(cfg.newton);
    if (!op.converged) {
      rep.structural_failure("DC solve failed to converge at T=" +
                             Json::format_number(t));
      continue;
    }
    check_final_system(rep, engine.workspace(), temp_label(t));
    check_dc_fixed_point(rep, row.circuit(), op, t);
  }
  return rep;
}

OracleReport oracle_sparse_vs_dense_transient() {
  OracleReport rep;
  rep.name = "sparse_vs_dense_transient";
  rep.arm_a = "sparse LU solution of the final Newton system at 8 instants "
              "of the Fig. 8 MAC cycle";
  rep.arm_b = "dense lu_solve of the same systems";
  const sfc::cim::ArrayConfig cfg = sfc::cim::ArrayConfig::proposed_2t1fefet();
  sfc::cim::CiMRow row(cfg);
  row.set_stored({1, 0, 1, 1, 0, 1, 0, 1});
  // evaluate() drives the row's WL/EN waveforms; the truncated transients
  // below replay that cycle up to each instant.
  if (!row.evaluate({1, 1, 0, 1, 0, 1, 1, 0}, 27.0).converged) {
    rep.structural_failure("MAC transient failed to converge");
    return rep;
  }
  sfc::spice::Engine engine(row.circuit(), 27.0);
  sfc::spice::TransientOptions opts;
  opts.dt = cfg.timing.dt;
  opts.newton = cfg.newton;
  opts.record_waveforms = false;
  constexpr int kInstants = 8;
  for (int i = 1; i <= kInstants; ++i) {
    const double t_stop = cfg.timing.t_total() * i / kInstants;
    const std::string label = "t" + Json::format_number(t_stop);
    if (!engine.transient(t_stop, opts).converged) {
      rep.structural_failure(label + ": transient failed to converge");
      continue;
    }
    check_final_system(
        rep, engine.workspace(sfc::spice::AnalysisMode::kTransient), label);
  }
  return rep;
}

// ---------------------------------------------------------------------------
// SPICE row vs behavioural model
// ---------------------------------------------------------------------------
OracleReport oracle_spice_vs_behavioral() {
  OracleReport rep;
  rep.name = "spice_vs_behavioral";
  rep.arm_a = "transient CiMRow simulation (SPICE level)";
  rep.arm_b = "calibrated BehavioralArrayModel lookup";
  const sfc::cim::ArrayConfig cfg = sfc::cim::ArrayConfig::proposed_2t1fefet();
  const std::vector<double> grid = {0.0, 27.0, 85.0};
  const auto model = sfc::cim::BehavioralArrayModel::calibrate(cfg, grid);

  sfc::cim::CiMRow row(cfg);
  const int n = row.cells();
  row.set_stored(std::vector<int>(static_cast<std::size_t>(n), 1));
  const auto eval_mac = [&](int k, double t) {
    std::vector<int> inputs(static_cast<std::size_t>(n), 0);
    for (int i = 0; i < k; ++i) inputs[static_cast<std::size_t>(i)] = 1;
    return row.evaluate(inputs, t);
  };

  // At calibration grid temperatures the lookup must reproduce the
  // simulation it was built from exactly. That needs the same code path and
  // circuit and also the same sequence of evaluations on a fresh row: the
  // sparse LU's pivot order, and so the last bits, depend on a row's solve
  // history. This loop and `calibrate` both visit (temperature, MAC) in
  // the same order starting from a fresh row; keep them in step.
  for (double t : grid) {
    std::vector<double> spice_v, model_v;
    for (int k = 0; k <= n; ++k) {
      const auto r = eval_mac(k, t);
      if (!r.converged) {
        rep.structural_failure("row transient failed to converge");
        return rep;
      }
      spice_v.push_back(r.v_acc);
      model_v.push_back(model.v_acc(k, t));
    }
    rep.diff_series(
        "v_acc_T" + Json::format_number(t), spice_v, model_v, 0.0, 0.0,
        [](std::size_t i) { return "mac" + std::to_string(i); });
  }

  // Between grid points the model interpolates; hold it to a modelling
  // tolerance (a few mV) rather than bit-exactness.
  {
    const double t_mid = 55.0;
    std::vector<double> spice_v, model_v;
    for (int k = 0; k <= n; ++k) {
      const auto r = eval_mac(k, t_mid);
      if (!r.converged) {
        rep.structural_failure("row transient failed to converge");
        return rep;
      }
      spice_v.push_back(r.v_acc);
      model_v.push_back(model.v_acc(k, t_mid));
    }
    rep.diff_series(
        "v_acc_T55_interpolated", spice_v, model_v, 5e-3, 0.0,
        [](std::size_t i) { return "mac" + std::to_string(i); });
  }
  return rep;
}

// ---------------------------------------------------------------------------
// Serial vs parallel Monte Carlo
// ---------------------------------------------------------------------------
OracleReport oracle_serial_vs_parallel_montecarlo(int threads) {
  OracleReport rep;
  rep.name = "serial_vs_parallel_montecarlo";
  rep.arm_a = "run_montecarlo, 1 thread";
  rep.arm_b = "run_montecarlo, " + std::to_string(threads) + " threads";
  sfc::cim::MonteCarloConfig mc;
  mc.runs = 6;
  mc.sigma_vt_fefet = 0.054;
  mc.mac_values = {0, 4, 8};
  const sfc::cim::ArrayConfig cfg = sfc::cim::ArrayConfig::proposed_2t1fefet();

  mc.exec = sfc::exec::ExecPolicy::serial();
  const auto a = sfc::cim::run_montecarlo(cfg, mc);
  mc.exec.threads = threads;
  const auto b = sfc::cim::run_montecarlo(cfg, mc);

  if (a.samples.size() != b.samples.size()) {
    rep.structural_failure("sample count mismatch");
    return rep;
  }
  std::vector<double> va, vb;
  std::vector<std::string> labels;
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    if (a.samples[i].run != b.samples[i].run ||
        a.samples[i].mac != b.samples[i].mac) {
      rep.structural_failure("sample ordering mismatch at index " +
                             std::to_string(i));
      return rep;
    }
    va.push_back(a.samples[i].v_acc);
    vb.push_back(b.samples[i].v_acc);
    labels.push_back("run" + std::to_string(a.samples[i].run) + "_mac" +
                     std::to_string(a.samples[i].mac));
  }
  rep.diff_series("sample.v_acc", va, vb, 0.0, 0.0,
                  [&labels](std::size_t i) { return labels[i]; });
  rep.diff_series("nominal_levels", a.nominal_levels, b.nominal_levels);
  rep.diff_value("max_error_percent", a.max_error_percent,
                 b.max_error_percent);
  return rep;
}

const std::vector<OracleCase>& oracle_cases() {
  static const std::vector<OracleCase> cases = {
      {"sparse_vs_dense_dc", [] { return oracle_sparse_vs_dense_dc(); }},
      {"sparse_vs_dense_transient",
       [] { return oracle_sparse_vs_dense_transient(); }},
      {"spice_vs_behavioral", [] { return oracle_spice_vs_behavioral(); }},
      {"serial_vs_parallel_montecarlo",
       [] { return oracle_serial_vs_parallel_montecarlo(); }},
  };
  return cases;
}

}  // namespace sfc::verify
