// The unified metrics registry: named counters, gauges, and fixed-bucket
// histograms with labeled series.
//
// Every layer of the stack used to hoard its own ad-hoc structs
// (core::online::StreamingStats, sim::channel::ChannelStats,
// attack::adaptive::EpochScore) with no common export path and no way to
// aggregate across campaign shards except bespoke merge() methods. The
// registry is the common substrate those structs now publish into (see
// obs/stat_views.h): a flat, deterministic map of
//
//     (metric name, label set) -> counter | gauge | histogram
//
// with exactly one merge rule — counters and histogram buckets sum,
// gauges take the max — so sharded campaign workers each fill a private
// registry and the engine folds the per-cell snapshots together in cell
// order, bit-identically for any thread count.
//
// Naming scheme (see README "Observability"): `<subsystem>_<thing>_<unit>`
// with counters suffixed `_total` and maxima suffixed `_max`, e.g.
// `streaming_queueing_delay_us_total`, `channel_frames_sent_total`.
// Labels carry the identity axes: defense, scenario, cell/shard, station,
// side, candidate, epoch.
//
// Threading: series *creation* is mutex-guarded, so concurrent lookups are
// safe; mutation through a returned handle is deliberately plain (not
// atomic) — the intended pattern is one registry per worker (or per
// single-threaded simulation), aggregated via snapshot()/merge(). That is
// what keeps the hot path lock-cheap: after the first lookup, an increment
// is a single unguarded add.
//
// Determinism contract: the registry is observation-only. Nothing in this
// header consumes randomness or feeds back into simulation state, and
// snapshot() orders series by (name, labels) — equal observations always
// serialize to equal strings.
#pragma once

#include <compare>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace reshape::obs {

/// A sorted set of key=value labels identifying one series of a metric.
/// Keys are unique; set() replaces. Kept sorted so equal label sets
/// compare equal and snapshots order deterministically.
class LabelSet {
 public:
  LabelSet() = default;
  LabelSet(std::initializer_list<std::pair<std::string, std::string>> kvs);

  /// Inserts or replaces one label; returns *this for chaining.
  LabelSet& set(std::string key, std::string value);

  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
  entries() const {
    return entries_;
  }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// "k1=v1,k2=v2" — the human-readable form.
  [[nodiscard]] std::string to_string() const;

  /// {"k1":"v1","k2":"v2"} — the form every JSON export writes.
  [[nodiscard]] std::string to_json() const;

  /// True when every label of `subset` appears here with the same value —
  /// the matching rule for drift/SLO rules (an empty subset matches any
  /// label set).
  [[nodiscard]] bool contains(const LabelSet& subset) const;

  auto operator<=>(const LabelSet&) const = default;

 private:
  std::vector<std::pair<std::string, std::string>> entries_;  // sorted by key
};

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

[[nodiscard]] std::string_view metric_kind_name(MetricKind kind);

/// A monotonically increasing count. Single-writer; see the header note.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// A point-in-time level. Merge semantics across shards: maximum — the
/// registry's gauges hold high-water marks (max queue depth, max delay);
/// anything mean-like belongs in a counter pair or a histogram.
class Gauge {
 public:
  void set(double v) { value_ = v; }

  /// Raises the gauge to `v` when higher (high-water-mark update).
  void max_of(double v) {
    if (v > value_) {
      value_ = v;
    }
  }

  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram data: `upper_bounds` are the ascending inclusive
/// upper edges; one implicit overflow bucket catches everything above the
/// last bound (counts.size() == upper_bounds.size() + 1).
struct HistogramData {
  std::vector<double> upper_bounds;
  std::vector<std::uint64_t> counts;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void observe(double v);

  /// Bucket-wise sum; requires identical bounds (checked).
  void merge(const HistogramData& other);

  /// Mean of observed values; 0 when empty.
  [[nodiscard]] double mean() const;
};

/// Histogram handle returned by the registry.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v) { data_.observe(v); }
  [[nodiscard]] const HistogramData& data() const { return data_; }

 private:
  HistogramData data_;
};

/// One series, frozen: what snapshot() emits and merge() folds.
struct SeriesSnapshot {
  std::string name;
  LabelSet labels;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t counter = 0;   // kCounter
  double gauge = 0.0;          // kGauge
  HistogramData histogram;     // kHistogram
};

/// A deterministic, mergeable view of a whole registry. Series are sorted
/// by (name, labels); equal observations serialize to equal strings.
struct MetricsSnapshot {
  std::vector<SeriesSnapshot> series;

  /// THE canonical aggregation rule, shared by every stats struct that
  /// publishes here: counters and histogram buckets sum, gauges take the
  /// max. Merging a series absent on one side keeps the present one.
  /// Commutative and associative, so shard-merge order cannot matter.
  void merge(const MetricsSnapshot& other);

  /// The series of (name, labels), or nullptr when absent.
  [[nodiscard]] const SeriesSnapshot* find(std::string_view name,
                                           const LabelSet& labels = {}) const;

  /// Counter or gauge value as a double; throws std::out_of_range when
  /// the series is absent or a histogram.
  [[nodiscard]] double value(std::string_view name,
                             const LabelSet& labels = {}) const;

  [[nodiscard]] bool empty() const { return series.empty(); }

  /// Stable JSON export (fixed key order, util::json_number formatting).
  [[nodiscard]] std::string to_json() const;
};

/// The registry. Handles returned by counter()/gauge()/histogram() stay
/// valid for the registry's lifetime (node-stable storage).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates the series. A name/label pair is one kind forever;
  /// re-registering as a different kind throws std::invalid_argument.
  [[nodiscard]] Counter& counter(std::string_view name, LabelSet labels = {});
  [[nodiscard]] Gauge& gauge(std::string_view name, LabelSet labels = {});

  /// `upper_bounds` must be non-empty and strictly ascending; bounds of an
  /// existing series must match exactly.
  [[nodiscard]] Histogram& histogram(std::string_view name,
                                     std::vector<double> upper_bounds,
                                     LabelSet labels = {});

  [[nodiscard]] std::size_t series_count() const;

  /// Freezes every series, sorted by (name, labels).
  [[nodiscard]] MetricsSnapshot snapshot() const;

  void clear();

 private:
  struct Series {
    MetricKind kind = MetricKind::kCounter;
    Counter counter;
    Gauge gauge;
    std::unique_ptr<Histogram> histogram;
  };
  using Key = std::pair<std::string, LabelSet>;

  [[nodiscard]] Series& series_of(std::string_view name, LabelSet labels,
                                  MetricKind kind);

  mutable std::mutex mutex_;  // guards the map; handle mutation is plain
  std::map<Key, Series> series_;
};

/// Default microsecond-latency bucket edges (1us .. ~1s, roughly
/// logarithmic) — shared by every latency histogram so merged snapshots
/// never hit a bounds mismatch.
[[nodiscard]] std::vector<double> latency_us_buckets();

}  // namespace reshape::obs
