#include "cim/behavioral.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/interp.hpp"
#include "util/stats.hpp"

namespace sfc::cim {

BehavioralArrayModel BehavioralArrayModel::calibrate(
    const ArrayConfig& cfg, const std::vector<double>& temps_c,
    const MonteCarloConfig* variation) {
  assert(!temps_c.empty());
  BehavioralArrayModel m;
  m.cells_ = cfg.cells_per_row;
  m.temps_c_ = temps_c;
  // The paper's sensing references are designed at room temperature.
  m.design_temp_c_ = 27.0;

  const int n = cfg.cells_per_row;
  CiMRow row(cfg);
  row.set_stored(std::vector<int>(static_cast<std::size_t>(n), 1));
  m.v_.assign(temps_c.size() * static_cast<std::size_t>(n + 1), 0.0);

  // verify::spice_vs_behavioral replays this (temperature, MAC) order on a
  // fresh row and expects the same bits; keep the two loops in step.
  for (std::size_t ti = 0; ti < temps_c.size(); ++ti) {
    for (int k = 0; k <= n; ++k) {
      std::vector<int> inputs(static_cast<std::size_t>(n), 1);
      for (int i = k; i < n; ++i) inputs[static_cast<std::size_t>(i)] = 0;
      MacResult r = row.evaluate(inputs, temps_c[ti]);
      if (!r.converged) {
        throw std::runtime_error(
            "BehavioralArrayModel: row failed to converge during "
            "calibration");
      }
      m.v_[ti * static_cast<std::size_t>(n + 1) + static_cast<std::size_t>(k)] =
          r.v_acc;
    }
  }

  m.sigma_.assign(static_cast<std::size_t>(n + 1), 0.0);
  if (variation != nullptr) {
    MonteCarloConfig mc = *variation;
    mc.temperature_c = m.design_temp_c_;
    const MonteCarloResult mcr = run_montecarlo(cfg, mc);
    // Per-MAC standard deviation of the raw output voltage.
    for (int k = 0; k <= n; ++k) {
      std::vector<double> vals;
      for (const auto& s : mcr.samples) {
        if (s.mac == k) vals.push_back(s.v_acc);
      }
      if (!vals.empty()) {
        m.sigma_[static_cast<std::size_t>(k)] = util::stddev(vals);
      }
    }
  }

  m.build_thresholds();
  return m;
}

void BehavioralArrayModel::build_thresholds() {
  thresholds_.clear();
  // Level means at the design temperature.
  std::vector<double> design_levels(static_cast<std::size_t>(cells_) + 1);
  for (int k = 0; k <= cells_; ++k) {
    design_levels[static_cast<std::size_t>(k)] = v_acc(k, design_temp_c_);
  }
  for (int k = 0; k < cells_; ++k) {
    thresholds_.push_back(0.5 * (design_levels[static_cast<std::size_t>(k)] +
                                 design_levels[static_cast<std::size_t>(k) + 1]));
  }
}

double BehavioralArrayModel::v_acc(int mac, double temperature_c) const {
  assert(mac >= 0 && mac <= cells_);
  assert(!temps_c_.empty());
  const auto stride = static_cast<std::size_t>(cells_ + 1);
  auto at = [&](std::size_t ti) {
    return v_[ti * stride + static_cast<std::size_t>(mac)];
  };
  if (temperature_c <= temps_c_.front()) return at(0);
  if (temperature_c >= temps_c_.back()) return at(temps_c_.size() - 1);
  for (std::size_t ti = 1; ti < temps_c_.size(); ++ti) {
    if (temperature_c <= temps_c_[ti]) {
      return util::lerp(temperature_c, temps_c_[ti - 1], at(ti - 1),
                        temps_c_[ti], at(ti));
    }
  }
  return at(temps_c_.size() - 1);
}

double BehavioralArrayModel::sigma(int mac) const {
  if (sigma_.empty()) return 0.0;
  assert(mac >= 0 && mac <= cells_);
  return sigma_[static_cast<std::size_t>(mac)];
}

int BehavioralArrayModel::decode(double v) const {
  int level = 0;
  for (double th : thresholds_) {
    if (v > th) ++level;
  }
  return level;
}

std::vector<double> BehavioralArrayModel::decode_distribution(
    int true_count, double temperature_c) const {
  const double mu = v_acc(true_count, temperature_c);
  const double s = sigma(true_count);
  std::vector<double> p(static_cast<std::size_t>(cells_) + 1, 0.0);
  if (s <= 0.0) {
    p[static_cast<std::size_t>(decode(mu))] = 1.0;
    return p;
  }
  // decode(v) counts the thresholds below v, so it reads j exactly when
  // v lies in (th[j-1], th[j]] of the sorted thresholds.
  std::vector<double> th = thresholds_;
  std::sort(th.begin(), th.end());
  const double inf = std::numeric_limits<double>::infinity();
  const double scale = 1.0 / (s * std::sqrt(2.0));
  const auto below = [&](double t) { return 0.5 * std::erfc((mu - t) * scale); };
  const auto above = [&](double t) { return 0.5 * std::erfc((t - mu) * scale); };
  for (std::size_t j = 0; j < p.size(); ++j) {
    const double lo = j > 0 ? th[j - 1] : -inf;
    const double hi = j < th.size() ? th[j] : inf;
    // Difference the upper tail above the mean, the lower tail below it,
    // so a far tail is not lost to cancellation against 1.
    const double mass = lo >= mu ? above(lo) - above(hi) : below(hi) - below(lo);
    p[j] = std::max(0.0, mass);
  }
  return p;
}

int BehavioralArrayModel::mac(int true_count, double temperature_c,
                              util::Rng* noise_rng) const {
  double v = v_acc(true_count, temperature_c);
  if (noise_rng != nullptr) {
    v += noise_rng->normal(0.0, sigma(true_count));
  }
  return decode(v);
}

int BehavioralArrayModel::decode_tracking(double v,
                                          double temperature_c) const {
  int level = 0;
  for (int k = 0; k < cells_; ++k) {
    const double threshold =
        0.5 * (v_acc(k, temperature_c) + v_acc(k + 1, temperature_c));
    if (v > threshold) ++level;
  }
  return level;
}

int BehavioralArrayModel::mac_tracking(int true_count, double temperature_c,
                                       util::Rng* noise_rng) const {
  double v = v_acc(true_count, temperature_c);
  if (noise_rng != nullptr) {
    v += noise_rng->normal(0.0, sigma(true_count));
  }
  return decode_tracking(v, temperature_c);
}

std::string BehavioralArrayModel::to_text() const {
  std::ostringstream out;
  out.precision(12);
  out << "sfc-behavioral-v1\n";
  out << cells_ << ' ' << design_temp_c_ << ' ' << temps_c_.size() << '\n';
  for (double t : temps_c_) out << t << ' ';
  out << '\n';
  for (double v : v_) out << v << ' ';
  out << '\n';
  for (double s : sigma_) out << s << ' ';
  out << '\n';
  return out.str();
}

BehavioralArrayModel BehavioralArrayModel::from_text(const std::string& text) {
  std::istringstream in(text);
  std::string magic;
  in >> magic;
  if (magic != "sfc-behavioral-v1") {
    throw std::runtime_error("BehavioralArrayModel: bad header");
  }
  BehavioralArrayModel m;
  std::size_t num_temps = 0;
  in >> m.cells_ >> m.design_temp_c_ >> num_temps;
  if (!in || m.cells_ < 1 || num_temps < 1) {
    throw std::runtime_error("BehavioralArrayModel: bad dimensions");
  }
  m.temps_c_.resize(num_temps);
  for (auto& t : m.temps_c_) in >> t;
  m.v_.resize(num_temps * static_cast<std::size_t>(m.cells_ + 1));
  for (auto& v : m.v_) in >> v;
  m.sigma_.resize(static_cast<std::size_t>(m.cells_ + 1));
  for (auto& s : m.sigma_) in >> s;
  if (!in) throw std::runtime_error("BehavioralArrayModel: truncated data");
  m.build_thresholds();
  return m;
}

void BehavioralArrayModel::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << to_text();
}

BehavioralArrayModel BehavioralArrayModel::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return from_text(buf.str());
}

BehavioralArrayModel BehavioralArrayModel::calibrate_cached(
    const ArrayConfig& cfg, const std::vector<double>& temps_c,
    const std::string& cache_path, const MonteCarloConfig* variation) {
  {
    std::ifstream probe(cache_path);
    if (probe) {
      try {
        return load(cache_path);
      } catch (const std::exception&) {
        // fall through to recalibration on a corrupt cache
      }
    }
  }
  BehavioralArrayModel m = calibrate(cfg, temps_c, variation);
  try {
    m.save(cache_path);
  } catch (const std::exception&) {
    // Caching is best effort; calibration result is still valid.
  }
  return m;
}

}  // namespace sfc::cim
