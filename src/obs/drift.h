// Online drift detection over windowed telemetry series.
//
// The Page–Hinkley test consumes one scalar per window (the window mean of
// a WindowedSeries) and reports whether that value constitutes a change
// relative to the series' own history: a two-sided PH test with tolerance
// `delta` and threshold `lambda` over the running mean, the standard
// concept-drift test for accuracy-over-time curves (the adaptive-attacker
// and attacker-proxy signals).
//
// The detector is deterministic, allocation-free, and warms up for
// `warmup` updates before arming (the warmup values only build the
// baseline). It carries no latching: update() reports per value, and
// obs::slo's evaluate_drift() latches the *first* firing per series into
// one AlertRecord.
#pragma once

#include <cstddef>
#include <string>

#include "obs/metrics.h"

namespace reshape::obs {

struct DriftParams {
  std::size_t warmup = 3;  // baseline-building updates before arming

  double ph_delta = 2.0;    // tolerated drift per update
  double ph_lambda = 25.0;  // decision threshold on the PH statistic
};

/// update() returns true when the value just consumed crosses lambda.
class PageHinkleyDetector {
 public:
  explicit PageHinkleyDetector(const DriftParams& params);
  bool update(double value);
  [[nodiscard]] double statistic() const;
  [[nodiscard]] double threshold() const { return lambda_; }

 private:
  double delta_;
  double lambda_;
  std::size_t warmup_;
  std::size_t seen_ = 0;
  double sum_ = 0.0;      // running sum of values (for the running mean)
  double m_inc_ = 0.0;    // PH sum for increases
  double m_inc_min_ = 0.0;
  double m_dec_ = 0.0;    // PH sum for decreases
  double m_dec_max_ = 0.0;
};

/// A declarative drift rule: run a Page–Hinkley detector over the window
/// means of every series named `series` whose labels contain `labels`
/// (empty matches all). Evaluated by obs::slo's evaluate_drift().
struct DriftRule {
  std::string name;   // alert identity, e.g. "adaptive-accuracy-drift"
  std::string series; // windowed series name to watch
  LabelSet labels;    // subset filter over the series' labels
  DriftParams params{};
};

}  // namespace reshape::obs
