#include "catalogue.hpp"

namespace perfbench {

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> list = {
      {"row_width_sweep",
       "MAC cycles on 8-32 cell rows at 0-85 degC with re-programming: "
       "solver-bound, LU fill grows with width, Newton work with temperature"},
      {"montecarlo_fig9",
       "Fig. 9 Monte Carlo, 100 runs at sigma_VT 54 mV on 2 threads: fresh "
       "row replicas, plan compiles and pool scheduling"},
      {"vgg_cim_inference",
       "quantised VGG images through ideal, CiM 0/27/85 degC, 1R baseline "
       "and sigma-noise engines: the bit-serial dot engine, no solver"},
  };
  return list;
}

namespace {

std::vector<MetricSpec> build_catalogue() {
  std::vector<MetricSpec> c;
  auto add = [&c](std::string name, std::string unit, std::string better,
                  std::string where, bool end_to_end, std::string meaning) {
    c.push_back({std::move(name), std::move(unit), std::move(better),
                 std::move(where), end_to_end, std::move(meaning)});
  };
  const std::string row = "row_width_sweep";
  const std::string mc = "montecarlo_fig9";
  const std::string vgg = "vgg_cim_inference";

  // End-to-end, untraced: reported by every workload.
  add("op_ms", "ms", "lower", "all", true,
      "row_width_sweep: geometric mean over widths of the mean MAC-cycle "
      "time; montecarlo_fig9: wall time of one 100-run Monte Carlo; "
      "vgg_cim_inference: geometric mean over engines of the image time "
      "(each a median over repetitions)");
  add("setup_s", "s", "lower", "all", true,
      "median of the workload's set-ups in one run");
  add("peak_rss_mb", "MB", "lower", "all", true,
      "peak resident set size of the benchmark process");

  // Per-layer, traced.
  for (int n : kRowWidths) {
    const std::string s = ".c" + std::to_string(n);
    add("cim.mac_cycle_ms" + s, "ms", "lower", row, false,
        "CiMRow::evaluate, mean over the width's cycle set");
    add("spice.newton_iters_per_cycle" + s, "count", "lower", row, false,
        "MacResult::newton_iterations per cycle (first pass)");
    add("spice.us_per_newton_iter" + s, "us", "lower", row, false,
        "cycle time per Newton iteration (assembly + LU + device eval)");
    add("devices.evals_per_cycle_computed" + s, "count", "lower", row, false,
        "computed: Newton iterations x nonlinear devices in the row");
  }
  for (int n : kDcWidths) {
    const std::string s = ".c" + std::to_string(n);
    add("spice.dc_op_ms" + s, "ms", "lower", row, false,
        "Engine::dc_operating_point on a fresh row circuit, warm workspace");
    add("spice.mna_size" + s, "count", "lower", row, false,
        "MNA system size from Engine::workspace()");
    add("spice.lu_ops" + s, "count", "lower", row, false,
        "compiled LU multiply-adds per factorisation from Engine::workspace()");
  }
  const std::string row_mc = row + "," + mc;
  add("spice.tran_steps_per_cycle", "count", "lower", row_mc, false,
      "spice.tran.steps_accepted per MAC cycle");
  add("spice.tran_rejects_per_cycle", "count", "lower", row_mc, false,
      "spice.tran.steps_rejected per MAC cycle");
  for (const char* counter : {"spice.lu.factorizations", "spice.lu.refreezes",
                              "spice.stampplan.compiles"}) {
    add(std::string(counter) + ".delta", "count", "lower", row_mc, false,
        "registry counter delta over one pass (row_width_sweep) or one "
        "Monte Carlo (montecarlo_fig9)");
  }
  add("cim.mc.task_ms.p50", "ms", "lower", mc, false,
      "median Monte Carlo run (JobReport task)");
  add("cim.mc.task_ms.max", "ms", "lower", mc, false,
      "longest Monte Carlo run: the critical path");
  add("exec.pool_utilisation", "ratio", "higher", mc, false,
      "task_ms_total / (wall_ms x threads_used)");
  add("cim.mc.us_per_newton_iter", "us", "lower", mc, false,
      "summed task time per Newton iteration");
  add("cim.mc.newton_iters", "count", "lower", mc, false,
      "MonteCarloResult::total_newton_iterations");

  add("data.synth_ms", "ms", "lower", vgg, false, "SynthCIFAR generation");
  add("nn.train_ms", "ms", "lower", vgg, false, "short seeded training run");
  add("nn.quantize_ms", "ms", "lower", vgg, false,
      "QuantizedNetwork::from_model");
  add("cim.calibrate_ms.nominal", "ms", "lower", vgg, false,
      "BehavioralArrayModel::calibrate, proposed fabric");
  add("cim.calibrate_ms.variation", "ms", "lower", vgg, false,
      "BehavioralArrayModel::calibrate with the sigma_VT pass");
  add("cim.calibrate_ms.baseline", "ms", "lower", vgg, false,
      "BehavioralArrayModel::calibrate, 1FeFET-1R baseline");
  for (const std::string& e : kEngines) {
    add("nn.image_ms." + e, "ms", "lower", vgg, false,
        "QuantizedNetwork::forward, one image");
    add("nn.forward_self_ms." + e, "ms", "lower", vgg, false,
        "image time minus dot time: im2col, requantise, pool");
    for (int layer : kVggDotLayers) {
      add("nn.layer" + std::to_string(layer) + ".dot_ms." + e, "ms", "lower",
          vgg, false, "dot/dot_batch time in this layer, per image");
    }
  }
  add("cim.row_ops_per_image", "count", "lower", vgg, false,
      "8-cell row MACs per image");
  for (const std::string& e : kCimEngines) {
    add("cim.ns_per_row_op." + e, "ns", "lower", vgg, false,
        "dot time per row MAC");
    add("cim.row_error_rate." + e, "ratio", "lower", vgg, false,
        "row MACs decoded to the wrong count / row MACs");
  }
  add("trace.overhead_pct", "%", "lower", "all", false,
      "traced minus untraced op_ms, interleaved in the traced run");
  return c;
}

}  // namespace

const std::vector<MetricSpec>& catalogue() {
  static const std::vector<MetricSpec> list = build_catalogue();
  return list;
}

const MetricSpec* find_metric(const std::string& name) {
  for (const MetricSpec& spec : catalogue()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

bool applies_to(const MetricSpec& spec, const std::string& workload) {
  if (spec.workloads == "all") return true;
  const std::string list = "," + spec.workloads + ",";
  return list.find("," + workload + ",") != std::string::npos;
}

}  // namespace perfbench
