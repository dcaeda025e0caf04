// Benchmark binary of the subthreshold-FeFET CiM reproduction.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --list-metrics
//
// The last stdout line is the result JSON ({"correct", "attempted",
// "failed", "metrics"}); lines before it start with "#". Untraced runs
// report the end-to-end metrics, traced runs the per-layer metrics.
#include <charconv>
#include <cstdio>
#include <exception>
#include <string>
#include <string_view>

#include "catalogue.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace {

using perfbench::RunOptions;

struct UsageError {
  std::string message;
};

constexpr const char* kUsage =
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
    "       perfbench --list-metrics\n";

std::uint64_t parse_uint(std::string_view flag, std::string_view text,
                         std::uint64_t max) {
  std::uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (text.empty() || ec != std::errc() || end != text.data() + text.size() ||
      value > max) {
    throw UsageError{std::string(flag) + ": expected a whole number up to " +
                     std::to_string(max) + ", got '" + std::string(text) + "'"};
  }
  return value;
}

void list_metrics() {
  for (const auto& w : perfbench::workloads()) {
    std::printf("workload %s: %s\n", w.name.c_str(), w.why.c_str());
  }
  for (const auto& m : perfbench::catalogue()) {
    std::printf("%-12s %-44s %-6s %-7s %s: %s\n",
                m.end_to_end ? "end_to_end" : "per_layer", m.name.c_str(),
                m.unit.c_str(), m.better.c_str(), m.workloads.c_str(),
                m.meaning.c_str());
  }
}

/// Strict parse: every flag exactly once, no unknown flags or values.
/// Returns false for --list-metrics.
bool parse(int argc, char** argv, RunOptions& opts) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--list-metrics" && argc == 2) return false;
    std::string_view value;
    const auto eq = arg.find('=');
    if (eq != std::string_view::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      throw UsageError{"missing value for " + std::string(arg)};
    }
    auto once = [&](bool& seen) {
      if (seen) throw UsageError{"repeated flag " + std::string(arg)};
      seen = true;
    };
    if (arg == "--workload") {
      once(have_workload);
      opts.workload = value;
      bool known = false;
      for (const auto& w : perfbench::workloads()) known |= w.name == value;
      if (!known) throw UsageError{"unknown workload '" + opts.workload + "'"};
    } else if (arg == "--seed") {
      once(have_seed);
      opts.seed = parse_uint(arg, value, UINT64_MAX);
    } else if (arg == "--seconds") {
      once(have_seconds);
      opts.seconds = static_cast<int>(parse_uint(arg, value, 3600));
      if (opts.seconds < 1) throw UsageError{"--seconds must be at least 1"};
    } else if (arg == "--trace") {
      once(have_trace);
      opts.trace = parse_uint(arg, value, 1) == 1;
    } else {
      throw UsageError{"unknown flag " + std::string(arg)};
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    throw UsageError{"--workload, --seed, --seconds and --trace are required"};
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opts;
  try {
    if (!parse(argc, argv, opts)) {
      list_metrics();
      return 0;
    }
  } catch (const UsageError& e) {
    std::fprintf(stderr, "perfbench: %s\n%s", e.message.c_str(), kUsage);
    return 2;
  }
  try {
    perfbench::Report report(opts);
    perfbench::SpanLog spans(opts.trace);
    if (opts.workload == "row_width_sweep") {
      perfbench::run_row_width_sweep(report, spans);
    } else if (opts.workload == "montecarlo_fig9") {
      perfbench::run_montecarlo_fig9(report, spans);
    } else {
      perfbench::run_vgg_cim_inference(report, spans);
    }
    return report.finish();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
