// Calibrated behavioural array model.
//
// Full transient simulation of every MAC in a CNN is infeasible (a single
// VGG inference performs ~10^8 row operations), so - like the paper, which
// feeds Spectre-characterized cell behaviour into network-level Monte
// Carlo - we characterize the row once with the circuit simulator and then
// replay it from a lookup table:
//   v(mac, T): mean output voltage, bilinear in T,
//   sigma(mac): process-variation spread (optional, from Monte Carlo),
//   decode(): ADC with thresholds frozen at the design temperature, so
//   temperature drift shows up as real misclassified MAC counts.
#pragma once

#include <string>
#include <vector>

#include "cim/array.hpp"
#include "cim/montecarlo.hpp"
#include "util/rng.hpp"

namespace sfc::cim {

class BehavioralArrayModel {
 public:
  BehavioralArrayModel() = default;

  /// Characterize a row: simulate every MAC value at every temperature in
  /// `temps_c` (and optionally a Monte Carlo pass for sigma).
  static BehavioralArrayModel calibrate(const ArrayConfig& cfg,
                                        const std::vector<double>& temps_c,
                                        const MonteCarloConfig* variation =
                                            nullptr);

  int cells() const { return cells_; }

  /// Mean output voltage for a MAC value at temperature T (interpolated).
  double v_acc(int mac, double temperature_c) const;

  /// Process-variation sigma for a MAC value [V] (0 if not calibrated).
  double sigma(int mac) const;

  /// Simulate one analog MAC readout: mean + optional Gaussian noise,
  /// decoded by the fixed ADC thresholds. Returns the *digital* MAC the
  /// sensing circuit reports.
  int mac(int true_count, double temperature_c,
          util::Rng* noise_rng = nullptr) const;

  /// ADC decode of a raw voltage (nearest design-temperature level).
  int decode(double v) const;

  /// Distribution of mac(true_count, T, rng): entry j is P(decode = j), the
  /// mass of N(v_acc(true_count, T), sigma(true_count)) between the sorted
  /// thresholds around level j (Phi-differences, each taken on the side of
  /// the mean where it is accurate). Degenerate at decode(v_acc) when
  /// sigma(true_count) is 0. Size cells() + 1.
  std::vector<double> decode_distribution(int true_count,
                                          double temperature_c) const;

  /// Extension (not in the paper): decode with *temperature-tracking*
  /// references - thresholds recomputed from the calibrated levels at the
  /// actual operating temperature, as a temperature-compensated sensing
  /// periphery would provide. Quantifies how much of the baseline
  /// design's failure a smarter ADC could recover.
  int decode_tracking(double v, double temperature_c) const;

  /// mac() with tracking references.
  int mac_tracking(int true_count, double temperature_c,
                   util::Rng* noise_rng = nullptr) const;

  /// Decision thresholds (midpoints of design-temperature levels).
  const std::vector<double>& thresholds() const { return thresholds_; }

  /// Serialization so benches can cache the (expensive) calibration.
  std::string to_text() const;
  static BehavioralArrayModel from_text(const std::string& text);
  void save(const std::string& path) const;
  static BehavioralArrayModel load(const std::string& path);

  /// Calibrate, or load from `cache_path` when present (saves the result).
  static BehavioralArrayModel calibrate_cached(
      const ArrayConfig& cfg, const std::vector<double>& temps_c,
      const std::string& cache_path, const MonteCarloConfig* variation =
                                         nullptr);

  double design_temperature_c() const { return design_temp_c_; }

 private:
  void build_thresholds();

  int cells_ = 0;
  double design_temp_c_ = 27.0;
  std::vector<double> temps_c_;
  /// v_[t * (cells_+1) + mac]
  std::vector<double> v_;
  std::vector<double> sigma_;
  std::vector<double> thresholds_;
};

}  // namespace sfc::cim
