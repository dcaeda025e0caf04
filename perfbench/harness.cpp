#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "catalogue.hpp"
#include "trace/registry.hpp"

namespace perfbench {

std::uint64_t InputRng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<int> InputRng::pick(int n, int count) {
  std::vector<int> all(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) all[static_cast<std::size_t>(i)] = i;
  for (int i = 0; i < count; ++i) {
    const auto j = static_cast<std::size_t>(i) +
                   below(static_cast<std::uint64_t>(n - i));
    std::swap(all[static_cast<std::size_t>(i)], all[j]);
  }
  all.resize(static_cast<std::size_t>(count));
  return all;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  InputRng rng(seed ^ (index * 0xd1b54a32d192ed03ULL));
  return rng.next();
}

double median(std::vector<double> values) { return percentile(values, 50.0); }

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double geometric_mean(const std::vector<double>& values) {
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

std::string describe(const std::vector<double>& samples, const char* unit) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "median %.6g %s (n=%zu", median(samples),
                unit, samples.size());
  std::string out = buf;
  for (double p : {99.0, 95.0, 90.0}) {
    if (static_cast<double>(samples.size()) * (1.0 - p / 100.0) >= 10.0) {
      std::snprintf(buf, sizeof buf, ", p%.0f %.6g %s", p,
                    percentile(samples, p), unit);
      out += buf;
      break;
    }
  }
  return out + ")";
}

// --- spans -----------------------------------------------------------------

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  log_->spans_[static_cast<std::size_t>(index_)].end = Clock::now();
  log_->open_.pop_back();
}

SpanLog::Scope SpanLog::scope(int name_id) {
  if (!recording_) return Scope(nullptr, -1);
  Span span;
  span.name = name_id;
  span.parent = open_.empty() ? -1 : open_.back();
  const int index = static_cast<int>(spans_.size());
  open_.push_back(index);
  span.start = Clock::now();
  spans_.push_back(span);
  return Scope(this, index);
}

int SpanLog::id(const std::string& name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const int id = static_cast<int>(names_.size());
  names_.push_back(name);
  ids_.emplace(name, id);
  return id;
}

std::vector<double> SpanLog::durations_ms(const std::string& name) const {
  std::vector<double> out;
  const auto it = ids_.find(name);
  if (it == ids_.end()) return out;
  for (const Span& s : spans_) {
    if (s.name == it->second) out.push_back(ms_between(s.start, s.end));
  }
  return out;
}

std::map<std::string, double> SpanLog::total_ms() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    out[names_[static_cast<std::size_t>(s.name)]] += ms_between(s.start, s.end);
  }
  return out;
}

std::map<std::string, double> SpanLog::self_ms() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = ms_between(spans_[i].start, spans_[i].end);
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= ms_between(s.start, s.end);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[names_[static_cast<std::size_t>(spans_[i].name)]] += self[i];
  }
  return out;
}

// --- timed loop ------------------------------------------------------------

PassLoop::PassLoop(const RunOptions& options, SpanLog& spans, int min_passes)
    : seconds_(options.seconds), spans_(spans), min_passes_(min_passes) {}

bool PassLoop::next() {
  const auto now = Clock::now();
  if (index_ >= 0) last_pass_ms_ = ms_between(pass_start_, now);
  const double elapsed_ms = ms_between(start_, now);
  const bool more = index_ + 1 < min_passes_ ||
                    elapsed_ms + 0.5 * last_pass_ms_ < 1000.0 * seconds_;
  if (!more) {
    spans_.set_recording(true);
    return false;
  }
  ++index_;
  pass_start_ = now;
  spans_.set_recording(traced());
  return true;
}

// --- counters --------------------------------------------------------------

CounterSnapshot CounterSnapshot::take() {
  CounterSnapshot snap;
  snap.values_ = sfc::trace::Registry::global().counter_values();
  return snap;
}

std::optional<double> CounterSnapshot::delta(const CounterSnapshot& before,
                                             const std::string& name) const {
  // Counter names the program sources still contain (generated at
  // configure time, see CMakeLists.txt).
  static const std::vector<std::string> known = {
#include "known_counters.inc"
  };
  const auto now = values_.find(name);
  if (now == values_.end()) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      return std::nullopt;
    }
    return 0.0;
  }
  const auto then = before.values_.find(name);
  const std::uint64_t base = then == before.values_.end() ? 0 : then->second;
  return static_cast<double>(now->second - base);
}

void report_solver_counters(Report& report, const CounterSnapshot& before,
                            const CounterSnapshot& after, double cycles) {
  const auto per_cycle = [&](const char* counter) -> std::optional<double> {
    const auto d = after.delta(before, counter);
    if (!d) return std::nullopt;
    return *d / cycles;
  };
  report.metric_or_absent("spice.tran_steps_per_cycle",
                          per_cycle("spice.tran.steps_accepted"));
  report.metric_or_absent("spice.tran_rejects_per_cycle",
                          per_cycle("spice.tran.steps_rejected"));
  for (const char* counter : {"spice.lu.factorizations", "spice.lu.refreezes",
                              "spice.stampplan.compiles"}) {
    report.metric_or_absent(std::string(counter) + ".delta",
                            after.delta(before, counter));
  }
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss keeps the high-water mark of the
  // process image before exec (here the Python launcher).
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  double kib = -1.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  if (kib < 0.0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return kib / 1024.0;
}

// --- report ----------------------------------------------------------------

void Report::op(bool ok, const std::string& failure) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_printed_ < 20) {
    ++failures_printed_;
    std::fprintf(stderr, "perfbench: check failed: %s\n", failure.c_str());
  }
}

void Report::metric(const std::string& name, double value) {
  metrics_[name] = value;
}

void Report::metric_or_absent(const std::string& name,
                              std::optional<double> v) {
  if (v) {
    metric(name, *v);
  } else {
    absent_.push_back(name);
  }
}

void Report::note(const std::string& text) const {
  std::printf("# %s\n", text.c_str());
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    throw std::runtime_error("perfbench: non-finite metric value");
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int Report::finish() {
  // The result carries exactly the catalogue's metrics for this mode: the
  // workload's own must all be measured (or reported absent), the other
  // workloads' per-layer metrics read 0 because this run never touches
  // their layers.
  std::string body;
  for (const MetricSpec& spec : catalogue()) {
    if (spec.end_to_end == options_.trace) continue;
    double value = 0.0;
    const auto it = metrics_.find(spec.name);
    if (it != metrics_.end()) {
      value = it->second;
    } else if (std::find(absent_.begin(), absent_.end(), spec.name) !=
               absent_.end()) {
      note("absent: " + spec.name + " (no longer provided by the program)");
      continue;
    } else if (applies_to(spec, options_.workload)) {
      std::fprintf(stderr, "perfbench: internal error: %s not measured\n",
                   spec.name.c_str());
      return 3;
    }
    if (!body.empty()) body += ", ";
    body += "\"" + spec.name + "\": {\"value\": " + json_number(value) +
            ", \"unit\": \"" + spec.unit + "\"}";
  }
  for (const auto& [name, value] : metrics_) {
    if (find_metric(name) == nullptr) {
      std::fprintf(stderr, "perfbench: internal error: %s not catalogued\n",
                   name.c_str());
      return 3;
    }
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
      "\"metrics\": {%s}}\n",
      failed_ == 0 ? "true" : "false", attempted_, failed_, body.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench
