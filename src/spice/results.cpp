#include "spice/results.hpp"

#include <algorithm>
#include <cassert>

#include "util/interp.hpp"

namespace sfc::spice {

double DcResult::voltage(const std::string& node) const {
  if (node == "0" || node == "gnd") return 0.0;
  auto it = voltages.find(node);
  if (it == voltages.end()) {
    throw std::out_of_range("DcResult: unknown node '" + node + "'");
  }
  return it->second;
}

double DcResult::current(const std::string& device) const {
  auto it = currents.find("I(" + device + ")");
  if (it == currents.end()) {
    throw std::out_of_range("DcResult: no branch current for '" + device +
                            "'");
  }
  return it->second;
}

void AcResult::set_signal_names(std::vector<std::string> names) {
  names_ = std::move(names);
  name_index_.clear();
  for (std::size_t i = 0; i < names_.size(); ++i) name_index_[names_[i]] = i;
  data_.assign(names_.size(), {});
}

void AcResult::append_point(double freq_hz,
                            const std::vector<std::complex<double>>& x) {
  assert(x.size() == names_.size());
  freqs_.push_back(freq_hz);
  for (std::size_t i = 0; i < x.size(); ++i) data_[i].push_back(x[i]);
}

std::size_t AcResult::index_of(const std::string& signal) const {
  auto it = name_index_.find(signal);
  if (it == name_index_.end()) {
    throw std::out_of_range("AcResult: unknown signal '" + signal + "'");
  }
  return it->second;
}

std::complex<double> AcResult::value(const std::string& signal,
                                     std::size_t idx) const {
  return data_[index_of(signal)].at(idx);
}

double AcResult::magnitude(const std::string& signal, std::size_t idx) const {
  return std::abs(value(signal, idx));
}

double AcResult::magnitude_db(const std::string& signal,
                              std::size_t idx) const {
  const double mag = magnitude(signal, idx);
  if (mag <= 0.0) return -400.0;
  return 20.0 * std::log10(mag);
}

double AcResult::phase_deg(const std::string& signal, std::size_t idx) const {
  return std::arg(value(signal, idx)) * 180.0 / M_PI;
}

void TransientResult::set_signal_names(std::vector<std::string> names) {
  names_ = std::move(names);
  name_index_.clear();
  for (std::size_t i = 0; i < names_.size(); ++i) name_index_[names_[i]] = i;
  data_.assign(names_.size(), {});
}

void TransientResult::append_sample(double t, const std::vector<double>& values) {
  assert(values.size() == names_.size());
  time_.push_back(t);
  for (std::size_t i = 0; i < values.size(); ++i) data_[i].push_back(values[i]);
}

std::size_t TransientResult::index_of(const std::string& signal) const {
  auto it = name_index_.find(signal);
  if (it == name_index_.end()) {
    throw std::out_of_range("TransientResult: unknown signal '" + signal +
                            "'");
  }
  return it->second;
}

bool TransientResult::has_signal(const std::string& signal) const {
  return name_index_.count(signal) > 0;
}

std::vector<double> TransientResult::waveform(const std::string& signal) const {
  return data_[index_of(signal)];
}

double TransientResult::value(const std::string& signal,
                              std::size_t index) const {
  return data_[index_of(signal)].at(index);
}

double TransientResult::final_value(const std::string& signal) const {
  const auto& wave = data_[index_of(signal)];
  if (wave.empty()) throw std::out_of_range("TransientResult: empty record");
  return wave.back();
}

double TransientResult::at(const std::string& signal, double t) const {
  const auto& wave = data_[index_of(signal)];
  if (wave.empty()) throw std::out_of_range("TransientResult: empty record");
  if (t <= time_.front()) return wave.front();
  if (t >= time_.back()) return wave.back();
  const auto it = std::upper_bound(time_.begin(), time_.end(), t);
  const auto hi = static_cast<std::size_t>(it - time_.begin());
  const std::size_t lo = hi - 1;
  return util::lerp(t, time_[lo], wave[lo], time_[hi], wave[hi]);
}

double TransientResult::total_source_energy() const {
  double sum = 0.0;
  for (const auto& [name, e] : source_energy) sum += e;
  return sum;
}

}  // namespace sfc::spice
