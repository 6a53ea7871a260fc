#include "runtime/wire.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <concepts>
#include <functional>
#include <ranges>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>

namespace reshape::runtime::wire {

namespace {

using util::ByteError;
using util::ByteReader;
using util::ByteWriter;

// ------------------------------------------------------------ field lists
//
// The one place each struct's wire order is written: `fields` ties its
// members in that order, and put/get below walk the tie in both
// directions.

template <typename T, typename U>
concept Is = std::same_as<std::remove_const_t<T>, U>;

template <typename T>
constexpr bool kIsRange = false;
template <typename Cell>
constexpr bool kIsRange<RangeOutcome<Cell>> = true;

auto fields(Is<obs::TelemetryConfig> auto& v) {
  return std::tie(v.metrics, v.tracing, v.profiling, v.windowed, v.privacy,
                  v.privacy_pairs, v.window);
}
auto fields(Is<WorkOrder> auto& v) {
  return std::tie(v.job, v.begin, v.end, v.threads, v.telemetry);
}
auto fields(Is<obs::HistogramData> auto& v) {
  return std::tie(v.upper_bounds, v.counts, v.count, v.sum, v.min, v.max);
}
auto fields(Is<obs::SeriesSnapshot> auto& v) {
  return std::tie(v.name, v.labels, v.kind, v.counter, v.gauge, v.histogram);
}
auto fields(Is<obs::MetricsSnapshot> auto& v) { return std::tie(v.series); }
auto fields(Is<obs::WindowAccumulator> auto& v) {
  return std::tie(v.count, v.sum, v.min, v.max);
}
auto fields(Is<obs::WindowPoint> auto& v) {
  return std::tie(v.window, v.value);
}
auto fields(Is<obs::SeriesWindows> auto& v) {
  return std::tie(v.name, v.labels, v.points);
}
auto fields(Is<obs::WindowedSnapshot> auto& v) {
  return std::tie(v.window_us, v.series);
}
auto fields(Is<eval::DefenseEvaluation> auto& v) {
  return std::tie(v.defense_name, v.classifier_name, v.confusion, v.accuracy,
                  v.false_positive, v.overhead, v.mean_accuracy,
                  v.mean_false_positive, v.mean_overhead);
}
auto fields(Is<core::online::StreamingStats> auto& v) {
  return std::tie(v.packets, v.original_bytes, v.added_bytes,
                  v.deadline_misses, v.total_queueing_delay,
                  v.max_queueing_delay, v.airtime_busy, v.max_queue_depth);
}
auto fields(Is<attack::adaptive::EpochScore> auto& v) {
  return std::tie(v.epoch, v.start, v.end, v.windows, v.confusion,
                  v.static_confusion, v.labels_correct, v.labels_assigned,
                  v.training_rows, v.refitted);
}
auto fields(Is<CellResult> auto& v) {
  return std::tie(v.defense_index, v.scenario_index, v.shard,
                  v.session_count, v.evaluation);
}
auto fields(Is<AdaptiveCellResult> auto& v) {
  return std::tie(v.defense_index, v.scenario_index, v.shard,
                  v.session_count, v.flow_count, v.epochs);
}
auto fields(Is<core::tuning::CandidateShardOutcome> auto& v) {
  return std::tie(v.sessions, v.flows, v.epochs, v.streaming,
                  v.access_delay_us, v.frames_dropped);
}
template <typename T>
  requires kIsRange<std::remove_const_t<T>>
auto fields(T& v) {
  return std::tie(v.begin, v.end, v.cells, v.metrics, v.windows);
}

// ------------------------------------------------------ hand-written codecs
//
// Types whose decode must validate, or can only build through an API.

void put(ByteWriter& w, const obs::LabelSet& v) {
  w.u64(v.entries().size());
  for (const auto& [key, value] : v.entries()) {
    w.str(key);
    w.str(value);
  }
}

void get(ByteReader& r, obs::LabelSet& v) {
  const std::size_t n = r.length();
  v = obs::LabelSet{};
  for (std::size_t i = 0; i < n; ++i) {
    std::string key = r.str();
    v.set(std::move(key), r.str());
  }
}

void put(ByteWriter& w, const ml::ConfusionMatrix& v) {
  w.u32(static_cast<std::uint32_t>(v.num_classes()));
  for (int t = 0; t < v.num_classes(); ++t) {
    for (int p = 0; p < v.num_classes(); ++p) {
      w.u64(v.count(t, p));
    }
  }
}

void get(ByteReader& r, ml::ConfusionMatrix& v) {
  // Every engine's fold merges confusions into kAppCount-class
  // aggregates; no other shape could merge.
  constexpr std::size_t kApps = traffic::kAppCount;
  if (r.u32() != kApps) {
    throw ByteError{"wire: confusion matrix is not one class per app"};
  }
  std::array<std::uint64_t, kApps * kApps> cells{};
  for (std::uint64_t& cell : cells) {
    cell = r.u64();
  }
  v = ml::ConfusionMatrix::from_cells(static_cast<int>(kApps), cells);
}

void put(ByteWriter& w, obs::MetricKind v) {
  w.u8(static_cast<std::uint8_t>(v));
}

void get(ByteReader& r, obs::MetricKind& v) {
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(obs::MetricKind::kHistogram)) {
    throw ByteError{"wire: unknown metric kind"};
  }
  v = static_cast<obs::MetricKind>(kind);
}

// ------------------------------------------------------------ fold checks
//
// What the coordinator's merges assume of a decoded snapshot, checked
// right after the fields are read.

/// Throws `what` unless `key` strictly ascends along `items` (a NaN key
/// never does).
template <typename Items, typename Key>
void require_ascending(const Items& items, const Key& key, const char* what) {
  const auto out_of_order = [&key](const auto& a, const auto& b) {
    return !(std::invoke(key, a) < std::invoke(key, b));
  };
  if (std::ranges::adjacent_find(items, out_of_order) != items.end()) {
    throw ByteError{what};
  }
}

constexpr auto kSeriesKey = [](const auto& s) {
  return std::tie(s.name, s.labels);
};

void check(const obs::SeriesSnapshot& v) {
  if (v.kind != obs::MetricKind::kHistogram) {
    return;
  }
  const std::vector<double>& bounds = v.histogram.upper_bounds;
  require_ascending(bounds, std::identity{},
                    "wire: histogram bounds not strictly ascending");
  if (v.histogram.counts.size() != bounds.size() + 1) {
    throw ByteError{"wire: histogram needs one count per bucket plus overflow"};
  }
}

void check(const obs::MetricsSnapshot& v) {
  require_ascending(v.series, kSeriesKey, "wire: series not strictly sorted");
}
void check(const obs::WindowedSnapshot& v) {
  require_ascending(v.series, kSeriesKey, "wire: series not strictly sorted");
}
void check(const obs::SeriesWindows& v) {
  require_ascending(v.points, &obs::WindowPoint::window,
                    "wire: window points not strictly ascending");
}

// The tuner's fold merges each cell's delays linearly and reads
// nearest-rank percentiles off the pool: a sample out of order, negative
// or not finite would move p50/p90/p99 without a word.
void check(const core::tuning::CandidateShardOutcome& v) {
  const std::vector<double>& delays = v.access_delay_us;
  const auto valid = [](double d) { return std::isfinite(d) && d >= 0.0; };
  if (!std::ranges::all_of(delays, valid) || !std::ranges::is_sorted(delays)) {
    throw ByteError{
        "wire: access delays not finite, non-negative and non-descending"};
  }
}

// ---------------------------------------------------------- generic codec

// Strings are tested before the two range branches: vectors (growable,
// count-prefixed) and std::arrays (fixed size, bare).
template <typename T>
concept Growable = requires(T& v) { v.emplace_back(); };

template <typename T>
void put(ByteWriter& w, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    w.u8(v ? 1 : 0);
  } else if constexpr (std::is_integral_v<T>) {
    w.u64(static_cast<std::uint64_t>(v));
  } else if constexpr (std::is_same_v<T, double>) {
    w.f64(v);
  } else if constexpr (requires { v.count_us(); }) {  // Duration, TimePoint
    w.i64(v.count_us());
  } else if constexpr (std::is_same_v<T, std::string>) {
    w.str(v);
  } else if constexpr (std::ranges::range<T>) {
    if constexpr (Growable<T>) {
      w.u64(v.size());
    }
    for (const auto& element : v) {
      put(w, element);
    }
  } else {
    std::apply([&w](const auto&... field) { (put(w, field), ...); },
               fields(v));
  }
}

template <typename T>
void get(ByteReader& r, T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    v = r.u8() != 0;
  } else if constexpr (std::is_integral_v<T>) {
    v = static_cast<T>(r.u64());
  } else if constexpr (std::is_same_v<T, double>) {
    v = r.f64();
  } else if constexpr (std::is_same_v<T, util::Duration>) {
    v = util::Duration::microseconds(r.i64());
  } else if constexpr (std::is_same_v<T, util::TimePoint>) {
    v = util::TimePoint::from_microseconds(r.i64());
  } else if constexpr (std::is_same_v<T, std::string>) {
    v = r.str();
  } else if constexpr (Growable<T>) {
    // Grown as elements actually decode: a forged count cannot reserve
    // its claim up front.
    const std::size_t n = r.length();
    v.clear();
    for (std::size_t i = 0; i < n; ++i) {
      get(r, v.emplace_back());
    }
  } else if constexpr (std::ranges::range<T>) {
    for (auto& element : v) {
      get(r, element);
    }
  } else {
    std::apply([&r](auto&... field) { (get(r, field), ...); }, fields(v));
    if constexpr (requires { check(v); }) {
      check(v);
    }
  }
}

}  // namespace

template <typename T>
std::vector<std::uint8_t> encode(const T& value) {
  ByteWriter w;
  put(w, value);
  return w.take();
}

template <typename T>
T decode(std::span<const std::uint8_t> bytes) {
  ByteReader r{bytes};
  T value{};
  get(r, value);
  r.require_exhausted();
  return value;
}

using Bytes = std::vector<std::uint8_t>;
using Input = std::span<const std::uint8_t>;

template Bytes encode(const WorkOrder&);
template Bytes encode(const CampaignRangeOutcome&);
template Bytes encode(const AdaptiveRangeOutcome&);
template Bytes encode(const core::tuning::TuningRangeOutcome&);
template Bytes encode(const obs::LabelSet&);
template Bytes encode(const obs::MetricsSnapshot&);
template Bytes encode(const obs::WindowedSnapshot&);
template Bytes encode(const attack::adaptive::EpochScore&);

template WorkOrder decode(Input);
template CampaignRangeOutcome decode(Input);
template AdaptiveRangeOutcome decode(Input);
template core::tuning::TuningRangeOutcome decode(Input);
template obs::LabelSet decode(Input);
template obs::MetricsSnapshot decode(Input);
template obs::WindowedSnapshot decode(Input);
template attack::adaptive::EpochScore decode(Input);

std::vector<std::uint8_t> encode_frame(FrameType type,
                                       std::span<const std::uint8_t> payload) {
  ByteWriter w;
  w.u32(kMagic);
  w.u16(kVersion);
  w.u16(static_cast<std::uint16_t>(type));
  w.u64(payload.size());
  w.bytes(payload);
  return w.take();
}

FrameHeader decode_frame_header(std::span<const std::uint8_t> header) {
  ByteReader r{header};  // throws on a header shorter than 16 bytes
  if (r.u32() != kMagic) {
    throw ByteError{"wire: bad magic (not a shard-server stream)"};
  }
  const std::uint16_t version = r.u16();
  if (version != kVersion) {
    throw ByteError{"wire: version mismatch (got " + std::to_string(version) +
                    ", want " + std::to_string(kVersion) + ")"};
  }
  FrameHeader out;
  out.type = static_cast<FrameType>(r.u16());
  if (out.type != FrameType::kWorkOrder && out.type != FrameType::kRange &&
      out.type != FrameType::kShutdown && out.type != FrameType::kError) {
    throw ByteError{"wire: unknown frame type " +
                    std::to_string(static_cast<unsigned>(out.type))};
  }
  out.length = r.u64();
  return out;
}

}  // namespace reshape::runtime::wire
