#include "obs/windowed.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "attack/adaptive/adaptive_attacker.h"
#include "obs/sorted_series.h"
#include "traffic/trace.h"
#include "util/json.h"

namespace reshape::obs {
namespace {

// Floor division so pre-origin timestamps (never produced by the sim, but
// cheap to get right) still bucket into half-open windows.
std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  const std::int64_t q = a / b;
  return (a % b != 0 && (a < 0) != (b < 0)) ? q - 1 : q;
}

void append_points_json(std::ostringstream& out,
                        const std::vector<WindowPoint>& points) {
  out << "[";
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (i > 0) {
      out << ",";
    }
    const WindowPoint& p = points[i];
    out << "{\"window\":" << p.window << ",\"count\":" << p.value.count
        << ",\"sum\":" << util::json_number(p.value.sum)
        << ",\"min\":" << util::json_number(p.value.min)
        << ",\"max\":" << util::json_number(p.value.max) << "}";
  }
  out << "]";
}

// Window-index-wise fold of one series' points: accumulators of equal
// window indices merge, disjoint windows interleave.
void fold_windows(SeriesWindows& s, const SeriesWindows& o) {
  detail::merge_sorted(s.points, o.points,
                       [](const WindowPoint& p) { return p.window; },
                       [](WindowPoint& p, const WindowPoint& q) {
                         p.value.merge(q.value);
                       });
}

}  // namespace

WindowedSeries::WindowedSeries(util::Duration window) : window_{window} {
  if (window_.count_us() <= 0) {
    throw std::invalid_argument("WindowedSeries: window must be positive");
  }
}

std::int64_t WindowedSeries::window_index(util::TimePoint at) const {
  return floor_div(at.count_us(), window_.count_us());
}

void WindowedSeries::observe(util::TimePoint at, double v) {
  WindowAccumulator one;
  one.observe(v);
  fold(window_index(at), one);
}

void WindowedSeries::fold(std::int64_t index, const WindowAccumulator& acc) {
  if (acc.count == 0) {
    return;
  }
  if (!points_.empty() && points_.back().window == index) {
    points_.back().value.merge(acc);
    return;
  }
  if (points_.empty() || points_.back().window < index) {
    points_.push_back(WindowPoint{index, acc});
    return;
  }
  const auto it = std::lower_bound(
      points_.begin(), points_.end(), index,
      [](const WindowPoint& p, std::int64_t w) { return p.window < w; });
  if (it != points_.end() && it->window == index) {
    it->value.merge(acc);
    return;
  }
  points_.insert(it, WindowPoint{index, acc});
}

void WindowedSnapshot::merge(const WindowedSnapshot& other) {
  if (other.series.empty()) {
    return;
  }
  if (series.empty()) {
    *this = other;
    return;
  }
  if (window_us != other.window_us) {
    throw std::invalid_argument(
        "WindowedSnapshot::merge: mismatched window lengths");
  }
  detail::merge_sorted(series, other.series,
                       detail::series_key<SeriesWindows>, fold_windows);
}

const SeriesWindows* WindowedSnapshot::find(std::string_view name,
                                            const LabelSet& labels) const {
  return detail::find_series(series, name, labels);
}

std::string WindowedSnapshot::to_json() const {
  std::ostringstream out;
  out << "{\"window_us\":" << window_us << ",\"series\":[";
  for (std::size_t i = 0; i < series.size(); ++i) {
    if (i > 0) {
      out << ",";
    }
    const SeriesWindows& s = series[i];
    out << "{\"name\":\"" << util::json_escape(s.name)
        << "\",\"labels\":" << s.labels.to_json() << ",\"points\":";
    append_points_json(out, s.points);
    out << "}";
  }
  out << "]}";
  return out.str();
}

WindowedRegistry::WindowedRegistry(util::Duration window) : window_{window} {
  if (window_.count_us() <= 0) {
    throw std::invalid_argument("WindowedRegistry: window must be positive");
  }
}

WindowedSeries& WindowedRegistry::series(std::string_view name,
                                         const LabelSet& labels) {
  const std::lock_guard<std::mutex> lock{mutex_};
  auto [it, inserted] = series_.try_emplace(
      std::make_pair(std::string{name}, labels), window_);
  return it->second;
}

std::size_t WindowedRegistry::series_count() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return series_.size();
}

WindowedSnapshot WindowedRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  WindowedSnapshot out;
  out.window_us = window_.count_us();
  out.series.reserve(series_.size());
  for (const auto& [key, s] : series_) {
    out.series.push_back(SeriesWindows{key.first, key.second, s.points()});
  }
  return out;
}

void publish_windowed(WindowedRegistry& registry,
                      const attack::adaptive::EpochScore& score,
                      const LabelSet& labels) {
  registry.series("adaptive_windows", labels)
      .observe(score.start, static_cast<double>(score.windows));
  if (score.windows == 0) {
    return;  // nothing was scored; an accuracy of 0 would be a lie
  }
  registry.series("adaptive_accuracy_percent", labels)
      .observe(score.start, score.accuracy_percent());
  if (score.static_confusion.total() > 0) {
    registry.series("adaptive_static_accuracy_percent", labels)
        .observe(score.start, score.static_accuracy_percent());
  }
}

void publish_windowed(WindowedRegistry& registry, const traffic::Trace& trace,
                      std::string_view series_name, const LabelSet& labels) {
  publish_windowed(registry.series(series_name, labels), trace);
}

void publish_windowed(WindowedSeries& series, const traffic::Trace& trace) {
  // Traces are time-sorted, so accumulate each window's run in a tight
  // loop over the raw columns and fold once per window — this sits on
  // the campaign hot path (one call per session), where a per-packet
  // observe() call is measurable at 10k-station scale.
  const std::span<const std::int64_t> times = trace.times_us();
  const std::span<const std::uint32_t> sizes = trace.sizes_bytes();
  const std::int64_t w = series.window().count_us();
  std::size_t i = 0;
  while (i < times.size()) {
    const std::int64_t index = floor_div(times[i], w);
    const std::int64_t end_us = (index + 1) * w;
    // Integer reduction of the window's run: identical to per-value
    // double observes (byte sums sit far below 2^53, where double
    // addition of integers is exact), at a fraction of the cost.
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint32_t lo = std::numeric_limits<std::uint32_t>::max();
    std::uint32_t hi = 0;
    while (i < times.size() && times[i] < end_us) {
      const std::uint32_t s = sizes[i];
      sum += s;
      lo = std::min(lo, s);
      hi = std::max(hi, s);
      ++count;
      ++i;
    }
    series.fold(index,
                WindowAccumulator{count, static_cast<double>(sum),
                                  static_cast<double>(lo),
                                  static_cast<double>(hi)});
  }
}

}  // namespace reshape::obs
