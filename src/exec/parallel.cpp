#include "exec/parallel.hpp"

#include <algorithm>
#include <charconv>
#include <limits>

namespace sfc::exec {

int ExecPolicy::resolved_threads(std::size_t n) const {
  int t = threads == 0 ? ThreadPool::hardware_threads() : threads;
  t = std::max(1, t);
  if (n > 0) {
    t = static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(t), n));
  }
  return t;
}

std::size_t ExecPolicy::resolved_chunk(std::size_t n, int threads_used) const {
  if (chunk > 0) return static_cast<std::size_t>(chunk);
  const std::size_t workers = static_cast<std::size_t>(std::max(1, threads_used));
  return std::max<std::size_t>(1, n / (workers * 4));
}

std::optional<std::uint64_t> parse_uint(std::string_view text) {
  if (text.starts_with('-')) return std::nullopt;  // also "-0"
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

std::optional<int> parse_thread_count(std::string_view text) {
  const std::optional<std::uint64_t> value = parse_uint(text);
  if (!value || *value > static_cast<std::uint64_t>(
                              std::numeric_limits<int>::max())) {
    return std::nullopt;
  }
  return static_cast<int>(*value);
}

double JobReport::task_ms_total() const {
  double total = 0.0;
  for (double t : task_ms) total += t;
  return total;
}

double JobReport::task_ms_max() const {
  double worst = 0.0;
  for (double t : task_ms) worst = std::max(worst, t);
  return worst;
}

double JobReport::speedup() const {
  return wall_ms > 0.0 ? task_ms_total() / wall_ms : 1.0;
}

}  // namespace sfc::exec
