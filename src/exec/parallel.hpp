// Unified fan-out API: ExecPolicy (how many threads, what chunking),
// parallel_for / parallel_map over an index range, and JobReport (per-task
// wall time + convergence counts).
//
// Determinism contract
// --------------------
// Tasks receive only their index. As long as a task's result is a pure
// function of that index (all randomness routed through
// exec::stream_seed(seed, index), all outputs written to the task's own
// slot), a job is bit-identical at any thread count — threads only decide
// wall-clock time, never results. Every sfc user of this API (Monte
// Carlo, sweeps, batched NN rows) is structured that way.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <optional>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "exec/thread_pool.hpp"
#include "trace/trace.hpp"

namespace sfc::exec {

/// How a fan-out executes. The default is serial, so callers opt in to
/// parallelism explicitly and single-threaded behaviour stays the
/// reference.
struct ExecPolicy {
  /// Worker threads: 1 = run inline on the caller (serial), 0 = one per
  /// hardware thread, n > 1 = exactly n workers.
  int threads = 1;
  /// Indices dispensed to a worker per grab; 0 = automatic (targets ~4
  /// chunks per worker to amortize the atomic fetch without starving the
  /// tail).
  int chunk = 0;

  static ExecPolicy serial() { return {}; }

  /// Threads a job over `n` tasks will actually use.
  int resolved_threads(std::size_t n) const;
  /// Chunk size a job over `n` tasks with `threads_used` workers uses.
  std::size_t resolved_chunk(std::size_t n, int threads_used) const;
};

/// Parse an integer command-line operand: one whole-token non-negative
/// decimal integer. Anything else ("", "abc", "-1", "-0", "+2", "4x",
/// " 4", or a value that overflows uint64) is nullopt. Every integer flag
/// and positional argument of the benches, tools and examples uses it.
std::optional<std::uint64_t> parse_uint(std::string_view text);

/// Parse a `--threads` operand: parse_uint() within int range (0 = one
/// worker per hardware thread).
std::optional<int> parse_thread_count(std::string_view text);

/// What a fan-out did: wall time of the whole job, wall time of every
/// task, and how many tasks reported success ("converged") vs failure.
struct JobReport {
  int threads_used = 1;
  std::size_t tasks = 0;
  double wall_ms = 0.0;          ///< whole-job wall-clock time
  std::vector<double> task_ms;   ///< per-task wall time, indexed by task
  std::size_t converged = 0;     ///< tasks that completed / returned true
  std::size_t failed = 0;        ///< tasks that returned false

  /// Sum of per-task times — the serial-equivalent work.
  double task_ms_total() const;
  /// Longest single task — the critical path of one chunk.
  double task_ms_max() const;
  /// task_ms_total / wall_ms: effective parallelism actually achieved.
  double speedup() const;
};

namespace detail {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace detail

/// Run fn(i) for every i in [0, n) under `policy` and report timings.
///
/// `fn` may return void (completion counts as converged) or bool (true is
/// tallied as converged, false as failed — e.g. a Newton solve outcome).
/// Indices are dispensed in chunks from a shared atomic counter; workers
/// never learn their thread id. The first exception thrown by any task
/// aborts the dispensing and is rethrown on the caller after all workers
/// drain.
template <typename Fn>
JobReport parallel_for(const ExecPolicy& policy, std::size_t n, Fn&& fn) {
  SFC_TRACE_SPAN("exec.parallel_for");
  JobReport report;
  report.tasks = n;
  report.threads_used = policy.resolved_threads(n);
  if (n == 0) return report;
  report.task_ms.assign(n, 0.0);

  const std::size_t chunk = policy.resolved_chunk(n, report.threads_used);
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> converged{0};
  std::atomic<std::size_t> failed{0};
  std::atomic<bool> aborted{false};
  std::mutex error_mutex;
  std::exception_ptr error;

  auto drain = [&]() {
    while (!aborted.load(std::memory_order_relaxed)) {
      const std::size_t base =
          next.fetch_add(chunk, std::memory_order_relaxed);
      if (base >= n) return;
      const std::size_t end = base + chunk < n ? base + chunk : n;
      for (std::size_t i = base; i < end; ++i) {
        const auto t0 = detail::Clock::now();
        try {
          if constexpr (std::is_convertible_v<
                            std::invoke_result_t<Fn&, std::size_t>, bool>) {
            if (fn(i)) {
              converged.fetch_add(1, std::memory_order_relaxed);
            } else {
              failed.fetch_add(1, std::memory_order_relaxed);
            }
          } else {
            fn(i);
            converged.fetch_add(1, std::memory_order_relaxed);
          }
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!error) error = std::current_exception();
          aborted.store(true, std::memory_order_relaxed);
          return;
        }
        report.task_ms[i] = detail::ms_since(t0);
      }
    }
  };

  const auto job_t0 = detail::Clock::now();
  if (report.threads_used <= 1) {
    drain();
  } else {
    ThreadPool pool(report.threads_used);
    for (int w = 0; w < report.threads_used; ++w) pool.submit(drain);
    pool.shutdown();  // drains the queue, joins the workers
  }
  report.wall_ms = detail::ms_since(job_t0);
  report.converged = converged.load();
  report.failed = failed.load();
  SFC_TRACE_COUNT("exec.jobs", 1);
  SFC_TRACE_COUNT("exec.tasks.converged", report.converged);
  SFC_TRACE_COUNT("exec.tasks.failed", report.failed);
  if (error) std::rethrow_exception(error);
  return report;
}

/// parallel_for that collects fn(i) into a vector (slot i belongs to task
/// i, so the output order is the index order regardless of scheduling).
/// The result type must be default-constructible.
template <typename Fn>
auto parallel_map(const ExecPolicy& policy, std::size_t n, Fn&& fn,
                  JobReport* report_out = nullptr)
    -> std::vector<std::decay_t<std::invoke_result_t<Fn&, std::size_t>>> {
  using T = std::decay_t<std::invoke_result_t<Fn&, std::size_t>>;
  std::vector<T> results(n);
  JobReport report =
      parallel_for(policy, n, [&](std::size_t i) { results[i] = fn(i); });
  if (report_out) *report_out = std::move(report);
  return results;
}

}  // namespace sfc::exec
