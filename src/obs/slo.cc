#include "obs/slo.h"

#include <sstream>

#include "util/json.h"

namespace reshape::obs {
namespace {

// Both rule kinds watch every series of their name whose labels contain
// the rule's.
template <typename Rule>
bool watches(const Rule& rule, const SeriesWindows& series) {
  return series.name == rule.series && series.labels.contains(rule.labels);
}

AlertRecord window_alert(const std::string& rule, std::string kind,
                         std::string detail, const SeriesWindows& series,
                         std::int64_t window_us, std::int64_t window,
                         double threshold, double observed) {
  return AlertRecord{rule, std::move(kind), std::move(detail), series.name,
                     series.labels, window, window * window_us,
                     (window + 1) * window_us, threshold, observed};
}

}  // namespace

std::string alerts_to_json(std::span<const AlertRecord> alerts) {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < alerts.size(); ++i) {
    if (i > 0) {
      out << ",";
    }
    const AlertRecord& a = alerts[i];
    out << "{\"rule\":\"" << util::json_escape(a.rule) << "\",\"kind\":\""
        << util::json_escape(a.kind) << "\",\"detail\":\""
        << util::json_escape(a.detail) << "\",\"series\":\""
        << util::json_escape(a.series)
        << "\",\"labels\":" << a.labels.to_json() << ",\"window\":" << a.window
        << ",\"window_start_us\":" << a.window_start_us
        << ",\"window_end_us\":" << a.window_end_us
        << ",\"threshold\":" << util::json_number(a.threshold)
        << ",\"observed\":" << util::json_number(a.observed) << "}";
  }
  out << "]";
  return out.str();
}

std::vector<AlertRecord> evaluate_slo(std::span<const SloRule> rules,
                                      const WindowedSnapshot& snapshot) {
  std::vector<AlertRecord> alerts;
  for (const SloRule& rule : rules) {
    const bool above = rule.comparison == SloComparison::kAbove;
    const std::string detail =
        (above ? "mean>" : "mean<") + util::json_number(rule.threshold);
    for (const SeriesWindows& series : snapshot.series) {
      if (!watches(rule, series)) {
        continue;
      }
      for (const WindowPoint& point : series.points) {
        if (point.value.count < rule.min_count) {
          continue;
        }
        const double observed = point.value.mean();
        if (above ? observed > rule.threshold : observed < rule.threshold) {
          alerts.push_back(window_alert(rule.name, "slo", detail, series,
                                        snapshot.window_us, point.window,
                                        rule.threshold, observed));
        }
      }
    }
  }
  return alerts;
}

std::vector<AlertRecord> evaluate_drift(std::span<const DriftRule> rules,
                                        const WindowedSnapshot& snapshot) {
  std::vector<AlertRecord> alerts;
  for (const DriftRule& rule : rules) {
    for (const SeriesWindows& series : snapshot.series) {
      if (!watches(rule, series)) {
        continue;
      }
      PageHinkleyDetector detector{rule.params};
      for (const WindowPoint& point : series.points) {
        if (detector.update(point.value.mean())) {
          alerts.push_back(window_alert(
              rule.name, "drift", "page-hinkley", series, snapshot.window_us,
              point.window, detector.threshold(), detector.statistic()));
          break;  // latch: one alert per (rule, series), the first crossing
        }
      }
    }
  }
  return alerts;
}

}  // namespace reshape::obs
