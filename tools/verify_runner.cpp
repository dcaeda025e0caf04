// Command-line front end of the verification subsystem (src/verify).
//
//   verify_runner golden [--dir DIR] [--case NAME] [--regen]
//       Recompute the canonical paper experiments and compare them to the
//       stored goldens (or rewrite the goldens with --regen).
//   verify_runner oracle [--case NAME]
//       Run the differential-oracle pairs and print structured diffs.
//   verify_runner fuzz [--count N] [--seed S] [--dump DIR]
//       Run the property-based netlist fuzz campaign; failing cases are
//       shrunk and dumped as .cir reproducers. N (>= 1) and S are whole
//       decimal tokens (exec::parse_uint); anything else exits 2.
//   verify_runner check-bench PATH [--keys GOLDEN]
//       Validate a bench/perf_simulator --json output file against the
//       expected schema (used by scripts/check.sh). With --keys, the
//       per-kernel key set must exactly match the golden list.
//   verify_runner check-metrics PATH [--golden GOLDEN]
//       Validate a --metrics snapshot (trace registry dump): schema, and —
//       with --golden — that the non-timing counter/histogram key sets
//       exactly match the golden (metric-name stability gate).
//   verify_runner check-sarif PATH [--keys GOLDEN]
//       Validate an sfc_lint --sarif log: SARIF 2.1.0 shape, unique rule
//       ids, legal result levels. With --keys, the object key sets and
//       the rule-id list must exactly match the golden (CI contract for
//       SARIF consumers).
//
// Every subcommand also accepts --trace OUT.json / --metrics OUT.json:
// span-trace the run itself (Chrome trace format) and dump the metrics
// registry at exit — the observability hooks of src/trace.
//
// Exit status 0 = everything passed, 1 = a verification failure,
// 2 = usage / IO error.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <limits>
#include <string>
#include <vector>

#include "exec/parallel.hpp"
#include "trace/trace.hpp"
#include "verify/fuzz.hpp"
#include "verify/golden.hpp"
#include "verify/json.hpp"
#include "verify/oracle.hpp"

namespace {

using sfc::verify::Json;

int usage() {
  std::fprintf(stderr,
               "usage: verify_runner golden [--dir DIR] [--case NAME] [--regen]\n"
               "       verify_runner oracle [--case NAME]\n"
               "       verify_runner fuzz [--count N] [--seed S] [--dump DIR]\n"
               "       verify_runner check-bench PATH [--keys GOLDEN]\n"
               "       verify_runner check-metrics PATH [--golden GOLDEN]\n"
               "       verify_runner check-sarif PATH [--keys GOLDEN]\n"
               "(any subcommand: --trace OUT.json --metrics OUT.json)\n");
  return 2;
}

/// Consume "--flag VALUE" from argv; returns nullptr when absent.
const char* flag_value(std::vector<const char*>& args, const char* flag) {
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (std::strcmp(args[i], flag) == 0) {
      const char* v = args[i + 1];
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
      return v;
    }
  }
  return nullptr;
}

bool flag_present(std::vector<const char*>& args, const char* flag) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (std::strcmp(args[i], flag) == 0) {
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i));
      return true;
    }
  }
  return false;
}

int cmd_golden(std::vector<const char*> args) {
  const char* dir_flag = flag_value(args, "--dir");
  const char* case_flag = flag_value(args, "--case");
  const bool regen = flag_present(args, "--regen");
  if (!args.empty()) return usage();
  const std::string dir =
      dir_flag ? std::string(dir_flag) : sfc::verify::default_golden_dir();

  bool all_pass = true;
  int ran = 0;
  for (const auto& c : sfc::verify::golden_cases()) {
    if (case_flag && c.name != case_flag) continue;
    ++ran;
    if (regen) {
      const std::string path = dir + "/" + c.file();
      sfc::verify::save_golden(path, c.build());
      std::printf("regenerated %s\n", path.c_str());
      continue;
    }
    const sfc::verify::GoldenCompare cmp = sfc::verify::run_golden_case(c, dir);
    std::printf("%s: %s\n", c.name.c_str(), cmp.summary().c_str());
    all_pass = all_pass && cmp.pass;
  }
  if (ran == 0) {
    std::fprintf(stderr, "no golden case named '%s'\n", case_flag);
    return 2;
  }
  return all_pass ? 0 : 1;
}

int cmd_oracle(std::vector<const char*> args) {
  const char* case_flag = flag_value(args, "--case");
  if (!args.empty()) return usage();
  bool all_match = true;
  int ran = 0;
  for (const auto& c : sfc::verify::oracle_cases()) {
    if (case_flag && c.name != case_flag) continue;
    ++ran;
    const sfc::verify::OracleReport rep = c.run();
    std::printf("%s\n", rep.summary().c_str());
    all_match = all_match && rep.match;
  }
  if (ran == 0) {
    std::fprintf(stderr, "no oracle case named '%s'\n", case_flag);
    return 2;
  }
  return all_match ? 0 : 1;
}

int cmd_fuzz(std::vector<const char*> args) {
  sfc::verify::FuzzOptions opt;
  if (const char* v = flag_value(args, "--count")) {
    const auto count = sfc::exec::parse_uint(v);
    if (!count || *count > static_cast<std::uint64_t>(
                               std::numeric_limits<int>::max())) {
      return usage();
    }
    opt.count = static_cast<int>(*count);
  }
  if (const char* v = flag_value(args, "--seed")) {
    const auto seed = sfc::exec::parse_uint(v);
    if (!seed) return usage();
    opt.seed = *seed;
  }
  if (const char* v = flag_value(args, "--dump")) opt.dump_dir = v;
  if (!args.empty() || opt.count <= 0) return usage();
  const sfc::verify::FuzzReport rep = sfc::verify::run_fuzz(opt);
  std::printf("%s\n", rep.summary().c_str());
  return rep.pass() ? 0 : 1;
}

/// Schema contract for bench/perf_simulator --json (BENCH_solver.json).
int cmd_check_bench(std::vector<const char*> args) {
  const char* keys_flag = flag_value(args, "--keys");
  if (args.size() != 1) return usage();
  Json j;
  try {
    j = sfc::verify::read_json_file(args[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "check-bench: %s\n", e.what());
    return 2;
  }
  std::vector<std::string> golden_keys;
  if (keys_flag) {
    try {
      const Json g = sfc::verify::read_json_file(keys_flag);
      for (const Json& k : g.get("kernel_keys").as_array()) {
        golden_keys.push_back(k.as_string());
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "check-bench: %s: %s\n", keys_flag, e.what());
      return 2;
    }
  }
  std::vector<std::string> problems;
  const auto require = [&](bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  };
  try {
    require(j.is_object(), "root must be an object");
    if (j.is_object()) {
      require(j.has("schema_version") && j.get("schema_version").is_number(),
              "missing numeric 'schema_version'");
      require(j.has("build_type") && j.get("build_type").is_string(),
              "missing string 'build_type'");
      require(j.has("threads") && j.get("threads").is_number(),
              "missing numeric 'threads'");
      require(j.has("kernels") && j.get("kernels").is_array(),
              "missing array 'kernels'");
    }
    if (j.is_object() && j.has("kernels") && j.get("kernels").is_array()) {
      const auto& kernels = j.get("kernels").as_array();
      require(!kernels.empty(), "'kernels' must be non-empty");
      for (const Json& k : kernels) {
        if (!k.is_object()) {
          problems.push_back("kernel entry must be an object");
          continue;
        }
        for (const char* key : {"name", "detail"}) {
          require(k.has(key) && k.get(key).is_string(),
                  std::string("kernel missing string '") + key + "'");
        }
        for (const char* key :
             {"samples", "hot_ms", "solves_per_sec"}) {
          require(k.has(key) && k.get(key).is_number(),
                  std::string("kernel missing numeric '") + key + "'");
        }
        // Solver counters (schema_version >= 3): present and non-negative.
        for (const char* key : {"newton_iterations", "step_rejections",
                                "lu_factorizations", "gmin_steps"}) {
          const bool present = k.has(key) && k.get(key).is_number();
          require(present, std::string("kernel missing numeric '") + key + "'");
          if (present) {
            require(k.get(key).as_number() >= 0.0,
                    std::string("kernel counter '") + key +
                        "' must be non-negative");
          }
        }
        for (const char* key : {"repeatable", "converged"}) {
          require(k.has(key) && k.get(key).is_bool(),
                  std::string("kernel missing bool '") + key + "'");
        }
        if (!golden_keys.empty() && k.is_object()) {
          std::vector<std::string> have;
          for (const auto& [key, value] : k.as_object()) have.push_back(key);
          if (have != golden_keys) {
            std::string msg = "kernel key set differs from golden:";
            for (const auto& key : have) msg += " " + key;
            problems.push_back(msg);
          }
        }
      }
    }
  } catch (const std::exception& e) {
    problems.push_back(e.what());
  }
  if (!problems.empty()) {
    for (const auto& p : problems) {
      std::fprintf(stderr, "check-bench: %s: %s\n", args[0], p.c_str());
    }
    return 1;
  }
  std::printf("check-bench: %s: schema OK\n", args[0]);
  return 0;
}

/// Deterministic counter/histogram names of a metrics snapshot, sorted
/// (Json objects are std::map). Timing (`*_us` / `*_ms`) and thread-pool
/// scheduling metrics vary run to run and are excluded from the stability
/// contract.
std::vector<std::string> metric_names(const Json& snapshot,
                                      const char* section) {
  std::vector<std::string> names;
  if (snapshot.has(section) && snapshot.get(section).is_object()) {
    for (const auto& [name, value] : snapshot.get(section).as_object()) {
      if (sfc::trace::is_deterministic_metric(name)) names.push_back(name);
    }
  }
  return names;
}

/// Schema + key-set stability contract for --metrics snapshots.
int cmd_check_metrics(std::vector<const char*> args) {
  const char* golden_flag = flag_value(args, "--golden");
  if (args.size() != 1) return usage();
  Json j;
  try {
    j = sfc::verify::read_json_file(args[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "check-metrics: %s\n", e.what());
    return 2;
  }
  std::vector<std::string> problems;
  if (!j.is_object() || !j.has("schema_version") ||
      !j.get("schema_version").is_number()) {
    problems.push_back("root must be an object with numeric 'schema_version'");
  }
  if (j.is_object() && j.has("counters") && j.get("counters").is_object()) {
    for (const auto& [name, value] : j.get("counters").as_object()) {
      if (!value.is_number() || value.as_number() < 0.0) {
        problems.push_back("counter '" + name + "' must be non-negative");
      }
    }
  } else {
    problems.push_back("missing object 'counters'");
  }
  if (golden_flag && problems.empty()) {
    try {
      const Json g = sfc::verify::read_json_file(golden_flag);
      for (const char* section : {"counters", "histograms"}) {
        const auto have = metric_names(j, section);
        const auto want = g.strings_at(section);
        if (have != want) {
          std::string msg = std::string(section) + " key set drifted; have:";
          for (const auto& n : have) msg += " " + n;
          problems.push_back(msg);
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "check-metrics: %s: %s\n", golden_flag, e.what());
      return 2;
    }
  }
  if (!problems.empty()) {
    for (const auto& p : problems) {
      std::fprintf(stderr, "check-metrics: %s: %s\n", args[0], p.c_str());
    }
    return 1;
  }
  std::printf("check-metrics: %s: %s\n", args[0],
              golden_flag ? "schema and key set OK" : "schema OK");
  return 0;
}

/// Schema + key-set contract for sfc_lint --sarif logs (SARIF 2.1.0
/// subset). Structure checks always run; --keys additionally pins the
/// exact object key sets and the rule-id list so downstream SARIF
/// consumers (CI upload, IDE ingestion) see a stable contract.
int cmd_check_sarif(std::vector<const char*> args) {
  const char* keys_flag = flag_value(args, "--keys");
  if (args.size() != 1) return usage();
  Json j;
  try {
    j = sfc::verify::read_json_file(args[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "check-sarif: %s\n", e.what());
    return 2;
  }
  Json golden;
  if (keys_flag) {
    try {
      golden = sfc::verify::read_json_file(keys_flag);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "check-sarif: %s: %s\n", keys_flag, e.what());
      return 2;
    }
  }
  std::vector<std::string> problems;
  const auto require = [&](bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
    return ok;
  };
  // Json objects are sorted maps, so key lists compare deterministically.
  const auto keys_of = [](const Json& o) {
    std::vector<std::string> keys;
    for (const auto& [key, value] : o.as_object()) keys.push_back(key);
    return keys;
  };
  const auto check_keys = [&](const Json& o, const char* section) {
    if (!keys_flag) return;
    const auto have = keys_of(o);
    const auto want = golden.strings_at(section);
    if (have != want) {
      std::string msg = std::string(section) + " drifted from golden; have:";
      for (const auto& k : have) msg += " " + k;
      problems.push_back(msg);
    }
  };
  try {
    if (require(j.is_object(), "root must be an object")) {
      require(j.has("version") && j.get("version").is_string() &&
                  j.get("version").as_string() == "2.1.0",
              "'version' must be the string \"2.1.0\"");
      require(j.has("$schema") && j.get("$schema").is_string(),
              "missing string '$schema'");
      check_keys(j, "root_keys");
    }
    if (require(j.is_object() && j.has("runs") && j.get("runs").is_array() &&
                    j.get("runs").as_array().size() == 1,
                "'runs' must be an array with exactly one run")) {
      const Json& run = j.get("runs").as_array()[0];
      require(run.is_object(), "run must be an object");
      check_keys(run, "run_keys");
      const bool has_driver = run.is_object() && run.has("tool") &&
                              run.get("tool").is_object() &&
                              run.get("tool").has("driver") &&
                              run.get("tool").get("driver").is_object();
      require(has_driver, "run must carry tool.driver");
      std::vector<std::string> rule_ids;
      if (has_driver) {
        const Json& driver = run.get("tool").get("driver");
        require(driver.has("name") && driver.get("name").is_string() &&
                    driver.get("name").as_string() == "sfc_lint",
                "driver name must be 'sfc_lint'");
        require(driver.has("version") && driver.get("version").is_string(),
                "driver missing string 'version'");
        check_keys(driver, "driver_keys");
        if (require(driver.has("rules") && driver.get("rules").is_array() &&
                        !driver.get("rules").as_array().empty(),
                    "driver must carry a non-empty 'rules' array")) {
          for (const Json& rule : driver.get("rules").as_array()) {
            if (!rule.is_object() || !rule.has("id") ||
                !rule.get("id").is_string()) {
              problems.push_back("rule entry must be an object with id");
              continue;
            }
            const std::string id = rule.get("id").as_string();
            if (std::find(rule_ids.begin(), rule_ids.end(), id) !=
                rule_ids.end()) {
              problems.push_back("duplicate rule id '" + id + "'");
            }
            rule_ids.push_back(id);
            require(rule.has("shortDescription") &&
                        rule.get("shortDescription").is_object() &&
                        rule.get("shortDescription").has("text"),
                    "rule '" + id + "' missing shortDescription.text");
            check_keys(rule, "rule_keys");
          }
          if (keys_flag && rule_ids != golden.strings_at("rule_ids")) {
            std::string msg = "rule id list drifted from golden; have:";
            for (const auto& id : rule_ids) msg += " " + id;
            problems.push_back(msg);
          }
        }
      }
      if (require(run.is_object() && run.has("results") &&
                      run.get("results").is_array(),
                  "run must carry a 'results' array")) {
        const auto allowed =
            keys_flag ? golden.strings_at("result_keys_allowed")
                      : std::vector<std::string>{};
        for (const Json& res : run.get("results").as_array()) {
          if (!require(res.is_object(), "result must be an object")) continue;
          require(res.has("ruleId") && res.get("ruleId").is_string() &&
                      (rule_ids.empty() ||
                       std::find(rule_ids.begin(), rule_ids.end(),
                                 res.get("ruleId").as_string()) !=
                           rule_ids.end()),
                  "result ruleId must name a declared rule");
          const bool level_ok =
              res.has("level") && res.get("level").is_string() &&
              (res.get("level").as_string() == "note" ||
               res.get("level").as_string() == "warning" ||
               res.get("level").as_string() == "error");
          require(level_ok, "result level must be note|warning|error");
          require(res.has("message") && res.get("message").is_object() &&
                      res.get("message").has("text"),
                  "result missing message.text");
          if (keys_flag) {
            for (const auto& key : keys_of(res)) {
              require(std::find(allowed.begin(), allowed.end(), key) !=
                          allowed.end(),
                      "result key '" + key + "' not in golden allow-list");
            }
          }
        }
      }
    }
  } catch (const std::exception& e) {
    problems.push_back(e.what());
  }
  if (!problems.empty()) {
    for (const auto& p : problems) {
      std::fprintf(stderr, "check-sarif: %s: %s\n", args[0], p.c_str());
    }
    return 1;
  }
  std::printf("check-sarif: %s: %s\n", args[0],
              keys_flag ? "SARIF shape and key sets OK" : "SARIF shape OK");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::vector<const char*> args(argv + 2, argv + argc);
  const char* trace_flag = flag_value(args, "--trace");
  const char* metrics_flag = flag_value(args, "--metrics");
  if (trace_flag) sfc::trace::Tracer::global().start();
  int rc = 2;
  try {
    if (cmd == "golden") {
      rc = cmd_golden(std::move(args));
    } else if (cmd == "oracle") {
      rc = cmd_oracle(std::move(args));
    } else if (cmd == "fuzz") {
      rc = cmd_fuzz(std::move(args));
    } else if (cmd == "check-bench") {
      rc = cmd_check_bench(std::move(args));
    } else if (cmd == "check-metrics") {
      rc = cmd_check_metrics(std::move(args));
    } else if (cmd == "check-sarif") {
      rc = cmd_check_sarif(std::move(args));
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "verify_runner %s: %s\n", cmd.c_str(), e.what());
    return 2;
  }
  try {
    if (trace_flag) {
      sfc::trace::Tracer::global().stop();
      sfc::trace::Tracer::global().write_chrome(trace_flag);
    }
    if (metrics_flag) sfc::trace::write_metrics_file(metrics_flag);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "verify_runner: observability output: %s\n", e.what());
    return 2;
  }
  return rc;
}
