// Sim-time-windowed telemetry series: the time-resolved counterpart of
// MetricsRegistry's end-state snapshots.
//
// A WindowedSeries buckets observations into fixed-length windows keyed
// off *simulation* timestamps (packet arrival instants, adaptive-attacker
// epoch starts) — never wall clock — so the series is a pure function of
// the simulated world and merges deterministically across campaign
// shards. Window k covers the half-open interval [k*W, (k+1)*W): an event
// exactly on a boundary belongs to the window it opens. Windows with no
// observations are simply absent (sparse storage), which keeps 10k-station
// cells cheap when most stations are idle most of the time.
//
// Per window the series keeps a {count, sum, min, max} accumulator. That
// is the whole merge rule: counts and sums add, min/max fold — a
// commutative, associative reduction, so per-cell WindowedSnapshots folded
// in cell order are byte-identical for any worker-thread count, exactly
// like MetricsSnapshot:
//
//   observe(a); observe(b)  ==  snapshot(r1).merge(snapshot(r2))
//                               with a in r1 and b in r2
//
// (tests/windowed_test.cc asserts this). Determinism contract: like the
// registry, windowed collection is observation-only — it never consumes
// randomness or perturbs simulation state, so reports are untouched
// whether collection is on or off.
//
// obs::drift detectors and obs::slo rules consume the WindowedSnapshot;
// see those headers for the alerting half.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/time.h"

namespace reshape::traffic {
class Trace;
}
namespace reshape::attack::adaptive {
struct EpochScore;
}

namespace reshape::obs {

/// Per-window reduction state. Merge = count/sum add, min/max fold.
struct WindowAccumulator {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void observe(double v) {
    ++count;
    sum += v;
    if (v < min) {
      min = v;
    }
    if (v > max) {
      max = v;
    }
  }

  void merge(const WindowAccumulator& other) {
    count += other.count;
    sum += other.sum;
    if (other.min < min) {
      min = other.min;
    }
    if (other.max > max) {
      max = other.max;
    }
  }

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// One window of one series: the window index plus its accumulator.
struct WindowPoint {
  std::int64_t window = 0;  // floor(at_us / window_us)
  WindowAccumulator value;
};

/// One labeled series of windowed observations. Sparse and sorted by
/// window index; observing at non-decreasing timestamps (the common case —
/// traces and epochs are time-ordered) is an O(1) append, out-of-order
/// observations fall back to a binary search.
class WindowedSeries {
 public:
  explicit WindowedSeries(util::Duration window);

  /// Folds `v` into the window containing `at` (half-open [kW, (k+1)W)):
  /// fold() of a one-value accumulator.
  void observe(util::TimePoint at, double v);

  /// Folds a pre-reduced accumulator into window `index` — the bulk path
  /// for publishers that batch a sorted run of observations per window
  /// (equivalent to observing each value individually, by the
  /// accumulator's commutative merge rule).
  void fold(std::int64_t index, const WindowAccumulator& acc);

  [[nodiscard]] util::Duration window() const { return window_; }
  [[nodiscard]] const std::vector<WindowPoint>& points() const {
    return points_;
  }

  /// The window index containing `at` under this series' window length.
  [[nodiscard]] std::int64_t window_index(util::TimePoint at) const;

 private:
  util::Duration window_;
  std::vector<WindowPoint> points_;  // sorted by window index
};

/// Snapshot of one labeled series, detached from the registry.
struct SeriesWindows {
  std::string name;
  LabelSet labels;
  std::vector<WindowPoint> points;  // ascending window index
};

/// A deterministic snapshot of every windowed series, sorted by
/// (name, labels). merge() is the canonical cross-shard fold.
struct WindowedSnapshot {
  std::int64_t window_us = 0;  // window length; 0 = empty snapshot
  std::vector<SeriesWindows> series;

  [[nodiscard]] bool empty() const { return series.empty(); }

  /// Folds `other` in: matching (name, labels) series merge window-wise
  /// (accumulators of equal window indices fold, disjoint windows
  /// interleave), unmatched series copy over. Both snapshots must share
  /// the window length (an empty side adopts the other's). Commutative
  /// and associative, like MetricsSnapshot::merge.
  void merge(const WindowedSnapshot& other);

  /// First series with this name whose labels match exactly; nullptr if
  /// absent.
  [[nodiscard]] const SeriesWindows* find(std::string_view name,
                                          const LabelSet& labels = {}) const;

  /// {"window_us":N,"series":[{"name":...,"labels":{...},"points":
  /// [{"window":k,"count":c,"sum":s,"min":m,"max":M},...]},...]} —
  /// stable: equal observations serialize to equal strings.
  [[nodiscard]] std::string to_json() const;
};

/// Owner of windowed series, one per (name, labels). Series creation is
/// mutex-guarded and handles are stable; mutation through a handle is
/// single-writer plain, matching MetricsRegistry's threading model (one
/// registry per worker, folded via snapshot()/merge()).
class WindowedRegistry {
 public:
  explicit WindowedRegistry(util::Duration window);

  /// The series for (name, labels), created on first use.
  WindowedSeries& series(std::string_view name, const LabelSet& labels = {});

  [[nodiscard]] util::Duration window() const { return window_; }
  [[nodiscard]] std::size_t series_count() const;

  [[nodiscard]] WindowedSnapshot snapshot() const;

 private:
  mutable std::mutex mutex_;
  util::Duration window_;
  std::map<std::pair<std::string, LabelSet>, WindowedSeries> series_;
};

/// Publishes one adaptive epoch into windowed series at the epoch's sim-time
/// start: adaptive_accuracy_percent / adaptive_static_accuracy_percent
/// (scored epochs only; the static series only when a frozen baseline was
/// tracked) and adaptive_windows. With the registry window set to the
/// attacker cadence, windows align 1:1 with epochs — the drift detectors'
/// native input.
void publish_windowed(WindowedRegistry& registry,
                      const attack::adaptive::EpochScore& score,
                      const LabelSet& labels = {});

/// Publishes one trace's offered load as a windowed series: one
/// observation per packet at its timestamp, value = size in bytes (so
/// count = packets/window, sum = bytes/window).
void publish_windowed(WindowedRegistry& registry, const traffic::Trace& trace,
                      std::string_view series_name, const LabelSet& labels);

/// Same reduction, folded straight into an existing series — for callers
/// that cache or share the reduced points instead of going through a
/// registry lookup.
void publish_windowed(WindowedSeries& series, const traffic::Trace& trace);

}  // namespace reshape::obs
