#include "obs/metrics.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "obs/sorted_series.h"
#include "util/json.h"

namespace reshape::obs {
namespace {

void sort_labels(std::vector<std::pair<std::string, std::string>>& entries) {
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
}

// The canonical per-series merge rule (see MetricsSnapshot::merge).
void fold_series(SeriesSnapshot& s, const SeriesSnapshot& o) {
  if (s.kind != o.kind) {
    throw std::invalid_argument("MetricsSnapshot::merge: series '" + s.name +
                                "' has mismatched kinds");
  }
  switch (s.kind) {
    case MetricKind::kCounter:
      s.counter += o.counter;
      break;
    case MetricKind::kGauge:
      s.gauge = std::max(s.gauge, o.gauge);
      break;
    case MetricKind::kHistogram:
      s.histogram.merge(o.histogram);
      break;
  }
}

}  // namespace

LabelSet::LabelSet(
    std::initializer_list<std::pair<std::string, std::string>> kvs) {
  for (const auto& kv : kvs) {
    set(kv.first, kv.second);
  }
}

LabelSet& LabelSet::set(std::string key, std::string value) {
  for (auto& entry : entries_) {
    if (entry.first == key) {
      entry.second = std::move(value);
      return *this;
    }
  }
  entries_.emplace_back(std::move(key), std::move(value));
  sort_labels(entries_);
  return *this;
}

std::string LabelSet::to_string() const {
  std::string out;
  for (const auto& [key, value] : entries_) {
    if (!out.empty()) {
      out += ',';
    }
    out += key;
    out += '=';
    out += value;
  }
  return out;
}

std::string LabelSet::to_json() const {
  std::string out = "{";
  for (const auto& [key, value] : entries_) {
    if (out.size() > 1) {
      out += ',';
    }
    out += '"';
    out += util::json_escape(key);
    out += "\":\"";
    out += util::json_escape(value);
    out += '"';
  }
  out += '}';
  return out;
}

bool LabelSet::contains(const LabelSet& subset) const {
  // Both sides are sorted by key; a linear scan suffices.
  auto here = entries_.begin();
  for (const auto& want : subset.entries_) {
    while (here != entries_.end() && here->first < want.first) {
      ++here;
    }
    if (here == entries_.end() || *here != want) {
      return false;
    }
  }
  return true;
}

std::string_view metric_kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

void HistogramData::observe(double v) {
  const auto it =
      std::lower_bound(upper_bounds.begin(), upper_bounds.end(), v);
  const auto bucket =
      static_cast<std::size_t>(it - upper_bounds.begin());
  counts[bucket] += 1;
  count += 1;
  sum += v;
  min = std::min(min, v);
  max = std::max(max, v);
}

void HistogramData::merge(const HistogramData& other) {
  if (upper_bounds != other.upper_bounds) {
    throw std::invalid_argument(
        "HistogramData::merge: mismatched bucket bounds");
  }
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] += other.counts[i];
  }
  count += other.count;
  sum += other.sum;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
}

double HistogramData::mean() const {
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

Histogram::Histogram(std::vector<double> upper_bounds) {
  if (upper_bounds.empty()) {
    throw std::invalid_argument("Histogram: upper_bounds must be non-empty");
  }
  if (!std::is_sorted(upper_bounds.begin(), upper_bounds.end()) ||
      std::adjacent_find(upper_bounds.begin(), upper_bounds.end()) !=
          upper_bounds.end()) {
    throw std::invalid_argument(
        "Histogram: upper_bounds must be strictly ascending");
  }
  data_.upper_bounds = std::move(upper_bounds);
  data_.counts.assign(data_.upper_bounds.size() + 1, 0);
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  detail::merge_sorted(series, other.series,
                       detail::series_key<SeriesSnapshot>, fold_series);
}

const SeriesSnapshot* MetricsSnapshot::find(std::string_view name,
                                            const LabelSet& labels) const {
  return detail::find_series(series, name, labels);
}

double MetricsSnapshot::value(std::string_view name,
                              const LabelSet& labels) const {
  const SeriesSnapshot* s = find(name, labels);
  if (s == nullptr) {
    throw std::out_of_range("MetricsSnapshot::value: no series '" +
                            std::string(name) + "{" + labels.to_string() +
                            "}'");
  }
  switch (s->kind) {
    case MetricKind::kCounter:
      return static_cast<double>(s->counter);
    case MetricKind::kGauge:
      return s->gauge;
    case MetricKind::kHistogram:
      throw std::out_of_range("MetricsSnapshot::value: series '" +
                              std::string(name) +
                              "' is a histogram; read find()->histogram");
  }
  return 0.0;
}

std::string MetricsSnapshot::to_json() const {
  using util::json_escape;
  using util::json_number;
  std::ostringstream out;
  out << "[";
  bool first = true;
  for (const auto& s : series) {
    if (!first) {
      out << ",";
    }
    first = false;
    out << "{\"name\":\"" << json_escape(s.name)
        << "\",\"labels\":" << s.labels.to_json() << ",\"kind\":\""
        << metric_kind_name(s.kind) << "\",";
    switch (s.kind) {
      case MetricKind::kCounter:
        out << "\"value\":" << s.counter;
        break;
      case MetricKind::kGauge:
        out << "\"value\":" << json_number(s.gauge);
        break;
      case MetricKind::kHistogram: {
        const HistogramData& h = s.histogram;
        out << "\"count\":" << h.count << ",\"sum\":" << json_number(h.sum);
        if (h.count > 0) {
          out << ",\"min\":" << json_number(h.min)
              << ",\"max\":" << json_number(h.max);
        }
        out << ",\"bounds\":[";
        for (std::size_t b = 0; b < h.upper_bounds.size(); ++b) {
          if (b > 0) {
            out << ",";
          }
          out << json_number(h.upper_bounds[b]);
        }
        out << "],\"buckets\":[";
        for (std::size_t b = 0; b < h.counts.size(); ++b) {
          if (b > 0) {
            out << ",";
          }
          out << h.counts[b];
        }
        out << "]";
        break;
      }
    }
    out << "}";
  }
  out << "]";
  return out.str();
}

Counter& MetricsRegistry::counter(std::string_view name, LabelSet labels) {
  return series_of(name, std::move(labels), MetricKind::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, LabelSet labels) {
  return series_of(name, std::move(labels), MetricKind::kGauge).gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> upper_bounds,
                                      LabelSet labels) {
  Series& series = series_of(name, std::move(labels), MetricKind::kHistogram);
  if (series.histogram == nullptr) {
    series.histogram = std::make_unique<Histogram>(std::move(upper_bounds));
  } else if (series.histogram->data().upper_bounds != upper_bounds) {
    throw std::invalid_argument("MetricsRegistry: histogram '" +
                                std::string(name) +
                                "' re-registered with different bounds");
  }
  return *series.histogram;
}

std::size_t MetricsRegistry::series_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return series_.size();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  snap.series.reserve(series_.size());
  for (const auto& [key, series] : series_) {  // std::map: sorted by key
    SeriesSnapshot s;
    s.name = key.first;
    s.labels = key.second;
    s.kind = series.kind;
    switch (series.kind) {
      case MetricKind::kCounter:
        s.counter = series.counter.value();
        break;
      case MetricKind::kGauge:
        s.gauge = series.gauge.value();
        break;
      case MetricKind::kHistogram:
        s.histogram = series.histogram->data();
        break;
    }
    snap.series.push_back(std::move(s));
  }
  return snap;
}

void MetricsRegistry::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  series_.clear();
}

MetricsRegistry::Series& MetricsRegistry::series_of(std::string_view name,
                                                    LabelSet labels,
                                                    MetricKind kind) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = series_.try_emplace(
      Key{std::string(name), std::move(labels)});
  if (inserted) {
    it->second.kind = kind;
  } else if (it->second.kind != kind) {
    throw std::invalid_argument(
        "MetricsRegistry: series '" + std::string(name) +
        "' re-registered as a different kind");
  }
  return it->second;
}

std::vector<double> latency_us_buckets() {
  return {1.0,     2.0,     5.0,      10.0,     20.0,     50.0,
          100.0,   200.0,   500.0,    1000.0,   2000.0,   5000.0,
          10000.0, 20000.0, 50000.0,  100000.0, 200000.0, 500000.0,
          1000000.0};
}

}  // namespace reshape::obs
