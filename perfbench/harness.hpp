// Shared pieces of the benchmark binary: command-line options, seeded
// input generation, timing statistics, benchmark-side spans, reads of the
// program's trace-registry counters and the result report.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}
inline double ms_since(Clock::time_point t0) {
  return ms_between(t0, Clock::now());
}

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupRepetitions = 3;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
};

/// Seeded input generator (splitmix64). Kept apart from the program's own
/// RNGs so the generated inputs stay fixed when the program changes.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// `count` distinct indices drawn from [0, n), in random order.
  std::vector<int> pick(int n, int count);

 private:
  std::uint64_t state_;
};

/// Mix a seed with a stream index (independent derived seeds).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index);

double median(std::vector<double> values);
/// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> values, double p);
double geometric_mean(const std::vector<double>& values);

/// Timing summary in the form the reports use: the median, the sample
/// count and the highest of p90/p95/p99 that has at least ten samples
/// beyond it (none when there are fewer than 20 samples).
std::string describe(const std::vector<double>& samples, const char* unit);

/// Benchmark-side spans around calls into the program's layers. Each span
/// keeps its name, parent, start and end in memory; nothing is recorded
/// when the log is disabled. Self time = duration minus child spans.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), recording_(enabled) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  class Scope {
   public:
    Scope(SpanLog* log, int index) : log_(log), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    SpanLog* log_;
    int index_;
  };

  bool enabled() const { return enabled_; }
  /// Traced runs alternate traced and untraced passes; spans are kept
  /// only while recording is on (and never when the log is disabled).
  void set_recording(bool on) { recording_ = enabled_ && on; }
  bool recording() const { return recording_; }

  /// Stable id of a span name, for call sites that open many spans.
  int id(const std::string& name);
  Scope scope(int name_id);
  Scope scope(const std::string& name) { return scope(id(name)); }

  /// Durations of every closed span with this name [ms].
  std::vector<double> durations_ms(const std::string& name) const;
  /// Summed duration and summed self time per span name [ms].
  std::map<std::string, double> total_ms() const;
  std::map<std::string, double> self_ms() const;

 private:
  struct Span {
    int name = 0;
    int parent = -1;
    Clock::time_point start;
    Clock::time_point end;
  };
  bool enabled_;
  bool recording_;
  std::vector<std::string> names_;
  std::map<std::string, int> ids_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// The timed loop of a workload: passes repeat until the run's --seconds
/// have elapsed, with at least `min_passes`; a pass is not started when
/// the previous one suggests it would overrun by more than half. In traced
/// runs even passes record spans and odd passes do not, so one run gives
/// both the per-layer numbers and the tracing overhead.
class PassLoop {
 public:
  PassLoop(const RunOptions& options, SpanLog& spans, int min_passes);
  /// Begin the next pass; false (and recording back on) when time is up.
  bool next();
  int index() const { return index_; }
  bool traced() const { return spans_.enabled() && index_ % 2 == 0; }

 private:
  double seconds_;
  SpanLog& spans_;
  int min_passes_;
  int index_ = -1;
  Clock::time_point start_ = Clock::now();
  Clock::time_point pass_start_ = start_;
  double last_pass_ms_ = 0.0;
};

/// 100 x (traced / untraced - 1): the cost of the benchmark's tracing.
inline double overhead_pct(double traced, double untraced) {
  return 100.0 * (traced / untraced - 1.0);
}

/// Snapshot of the program's trace-registry counters. delta() is nullopt,
/// never 0, for a counter the program no longer has.
class CounterSnapshot {
 public:
  static CounterSnapshot take();
  std::optional<double> delta(const CounterSnapshot& before,
                              const std::string& name) const;

 private:
  std::map<std::string, std::uint64_t> values_;
};

/// Peak resident set size of this process [MB].
double peak_rss_mb();

/// Collects ops, output checks and metrics; prints the result line.
class Report {
 public:
  explicit Report(const RunOptions& options) : options_(options) {}

  const RunOptions& options() const { return options_; }

  /// One operation or output check: counts as attempted, and as failed
  /// (printing `failure` to stderr) when !ok.
  void op(bool ok, const std::string& failure = {});

  void metric(const std::string& name, double value);
  /// Set a metric from an optional read; nullopt marks it absent (its
  /// source is gone from the program) instead of reporting 0.
  void metric_or_absent(const std::string& name, std::optional<double> v);

  /// Human-readable line on stdout ("# ..."), never the last line.
  void note(const std::string& text) const;

  /// Print the result JSON line; returns the process exit code.
  int finish();

 private:
  RunOptions options_;
  long attempted_ = 0;
  long failed_ = 0;
  int failures_printed_ = 0;
  std::map<std::string, double> metrics_;
  std::vector<std::string> absent_;
};

/// Solver counters of one pass over `cycles` MAC cycles: transient steps
/// and rejections per cycle, LU factorisations, refreezes and stamp-plan
/// compiles as deltas.
void report_solver_counters(Report& report, const CounterSnapshot& before,
                            const CounterSnapshot& after, double cycles);

}  // namespace perfbench
