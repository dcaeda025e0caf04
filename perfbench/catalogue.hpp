// Every metric the benchmark reports, with its unit, direction and the
// workloads it applies to. BENCHMARK.json at the repository root lists the
// same names; `perfbench --list-metrics` prints this table.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  std::string why;
};

struct MetricSpec {
  std::string name;
  std::string unit;
  std::string better;     ///< "lower" or "higher"
  std::string workloads;  ///< comma-separated workload names, or "all"
  bool end_to_end = false;
  std::string meaning;
};

/// Row widths of the row_width_sweep workload's MAC cycles, and of its DC
/// operating-point probe (traced runs), which also reaches 64 cells.
inline const std::vector<int> kRowWidths = {8, 16, 32};
inline const std::vector<int> kDcWidths = {8, 16, 32, 64};

/// Inference engines of the vgg_cim_inference workload, and the subset
/// that runs on a calibrated CiM fabric.
inline const std::vector<std::string> kEngines = {"ideal", "cim",
                                                  "baseline_85c", "cim_noise"};
inline const std::vector<std::string> kCimEngines = {"cim", "baseline_85c",
                                                     "cim_noise"};

/// QuantizedNetwork op indices (begin_layer indices) that compute dot
/// products in the benchmark's VGG: 7 conv layers and 3 dense layers.
inline const std::vector<int> kVggDotLayers = {0, 1, 3, 4, 6, 7, 8, 11, 12, 13};

const std::vector<WorkloadSpec>& workloads();
const std::vector<MetricSpec>& catalogue();
const MetricSpec* find_metric(const std::string& name);
bool applies_to(const MetricSpec& spec, const std::string& workload);

}  // namespace perfbench
