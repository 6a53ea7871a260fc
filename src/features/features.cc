#include "features/features.h"

#include <array>
#include <cmath>

#include "util/check.h"

namespace reshape::features {

std::array<double, DirectionFeatures::kCount> DirectionFeatures::to_array()
    const {
  return {packet_count, size_max, size_min, size_mean,
          size_std,     iat_mean, iat_std};
}

std::vector<double> WindowFeatures::to_vector() const {
  std::vector<double> out;
  out.reserve(kCount);
  for (const double v : downlink.to_array()) {
    out.push_back(v);
  }
  for (const double v : uplink.to_array()) {
    out.push_back(v);
  }
  return out;
}

const std::vector<std::string>& WindowFeatures::names() {
  static const std::vector<std::string> kNames = {
      "down.count",    "down.size_max", "down.size_min", "down.size_mean",
      "down.size_std", "down.iat_mean", "down.iat_std",  "up.count",
      "up.size_max",   "up.size_min",   "up.size_mean",  "up.size_std",
      "up.iat_mean",   "up.iat_std",
  };
  return kNames;
}

void IncrementalWindowExtractor::DirectionAccumulator::clear() {
  sizes = util::RunningStats{};
  gaps = util::RunningStats{};
  has_previous = false;
}

void IncrementalWindowExtractor::DirectionAccumulator::add(
    std::int64_t t_us, std::uint32_t size_bytes) {
  sizes.add(static_cast<double>(size_bytes));
  if (has_previous) {
    const util::Duration gap = util::Duration::microseconds(t_us - previous_us);
    if (gap <= kIdleGapFilter) {
      gaps.add(gap.to_seconds());
    }
  }
  previous_us = t_us;
  has_previous = true;
}

void IncrementalWindowExtractor::DirectionAccumulator::add_span(
    std::span<const std::int64_t> times_us,
    std::span<const std::uint32_t> sizes_bytes,
    std::span<const mac::Direction> directions, mac::Direction dir) {
  // Gather the direction's sizes (and qualifying gaps) into fixed batches
  // and flush each through RunningStats::add_span. Sizes and gaps are
  // independent accumulators, so interleaving the two flush streams
  // cannot change either one's add order — the only thing bit-exactness
  // depends on.
  constexpr std::size_t kBatch = 64;
  std::array<double, kBatch> size_batch;
  std::array<double, kBatch> gap_batch;
  std::size_t n_sizes = 0;
  std::size_t n_gaps = 0;
  for (std::size_t i = 0; i < times_us.size(); ++i) {
    if (directions[i] != dir) {
      continue;
    }
    size_batch[n_sizes++] = static_cast<double>(sizes_bytes[i]);
    if (has_previous) {
      const util::Duration gap =
          util::Duration::microseconds(times_us[i] - previous_us);
      if (gap <= kIdleGapFilter) {
        gap_batch[n_gaps++] = gap.to_seconds();
      }
    }
    previous_us = times_us[i];
    has_previous = true;
    if (n_sizes == kBatch) {
      sizes.add_span({size_batch.data(), n_sizes});
      n_sizes = 0;
    }
    if (n_gaps == kBatch) {
      gaps.add_span({gap_batch.data(), n_gaps});
      n_gaps = 0;
    }
  }
  sizes.add_span({size_batch.data(), n_sizes});
  gaps.add_span({gap_batch.data(), n_gaps});
}

DirectionFeatures IncrementalWindowExtractor::DirectionAccumulator::features()
    const {
  DirectionFeatures f;
  f.packet_count = static_cast<double>(sizes.count());
  if (!sizes.empty()) {
    f.size_max = sizes.max();
    f.size_min = sizes.min();
    f.size_mean = sizes.mean();
    f.size_std = sizes.stddev();
  }
  if (!gaps.empty()) {
    f.iat_mean = gaps.mean();
    f.iat_std = gaps.stddev();
  }
  return f;
}

IncrementalWindowExtractor::IncrementalWindowExtractor(util::Duration w,
                                                       std::size_t min_packets)
    : window_us_{w.count_us()}, min_packets_{min_packets} {
  util::require(window_us_ > 0,
                "IncrementalWindowExtractor: window must be positive");
}

std::optional<WindowFeatures> IncrementalWindowExtractor::emit() {
  const std::size_t packets = down_.sizes.count() + up_.sizes.count();
  std::optional<WindowFeatures> out;
  if (packets >= min_packets_ && packets > 0) {
    WindowFeatures f;
    f.downlink = down_.features();
    f.uplink = up_.features();
    out = f;
  }
  down_.clear();
  up_.clear();
  return out;
}

std::optional<WindowFeatures> IncrementalWindowExtractor::push(
    util::TimePoint time, std::uint32_t size_bytes, mac::Direction direction) {
  const std::int64_t t_us = time.count_us();
  std::optional<WindowFeatures> completed;
  if (!anchored_) {
    anchored_ = true;
    start_us_ = t_us;
    window_index_ = 0;
  } else {
    const std::int64_t k = (t_us - start_us_) / window_us_;
    if (k != window_index_) {
      completed = emit();
      window_index_ = k;
    }
  }
  (direction == mac::Direction::kDownlink ? down_ : up_).add(t_us, size_bytes);
  return completed;
}

std::optional<WindowFeatures> IncrementalWindowExtractor::finish() {
  if (!anchored_) {
    return std::nullopt;
  }
  std::optional<WindowFeatures> out = emit();
  anchored_ = false;
  return out;
}

void IncrementalWindowExtractor::reset() {
  anchored_ = false;
  down_.clear();
  up_.clear();
}

std::optional<WindowFeatures> extract_window(traffic::TraceView window) {
  if (window.empty()) {
    return std::nullopt;
  }
  // One batched pass per direction over the columns, in record order —
  // add_span preserves the exact util::RunningStats add sequence of a
  // per-record AoS scan.
  const auto times = window.times_us();
  const auto sizes = window.sizes_bytes();
  const auto dirs = window.directions();
  WindowFeatures out;
  for (const mac::Direction dir :
       {mac::Direction::kDownlink, mac::Direction::kUplink}) {
    IncrementalWindowExtractor::DirectionAccumulator acc;
    acc.add_span(times, sizes, dirs, dir);
    (dir == mac::Direction::kDownlink ? out.downlink : out.uplink) =
        acc.features();
  }
  return out;
}

std::vector<WindowFeatures> extract_all_windows(traffic::TraceView records,
                                                util::Duration w,
                                                std::size_t min_packets) {
  std::vector<WindowFeatures> out;
  extract_all_windows_into(out, records, w, min_packets);
  return out;
}

std::vector<WindowFeatures> extract_all_windows(const traffic::Trace& trace,
                                                util::Duration w,
                                                std::size_t min_packets) {
  return extract_all_windows(trace.view(), w, min_packets);
}

void extract_all_windows_into(std::vector<WindowFeatures>& out,
                              traffic::TraceView records, util::Duration w,
                              std::size_t min_packets) {
  util::require(w > util::Duration{},
                "extract_all_windows: window must be positive");
  out.clear();
  if (records.empty()) {
    return;
  }
  const auto times = records.times_us();
  const std::int64_t window_us = w.count_us();
  const std::int64_t start_us = times.front();
  // Window by window: one division places the window's first record, a
  // compare-only scan finds where the window ends, and extract_window
  // sweeps the slice — the same windows, emission rule and add order as
  // pushing every record through IncrementalWindowExtractor.
  for (std::size_t begin = 0; begin < times.size();) {
    const std::int64_t end_us =
        start_us + ((times[begin] - start_us) / window_us + 1) * window_us;
    std::size_t end = begin + 1;
    while (end < times.size() && times[end] < end_us) {
      ++end;
    }
    if (end - begin >= min_packets) {
      out.push_back(*extract_window(records.subview(begin, end - begin)));
    }
    begin = end;
  }
}

std::optional<WindowFeatures> extract_whole(const traffic::Trace& trace) {
  return extract_window(trace.records());
}

namespace {

DirectionFeatures log_compress_direction(const DirectionFeatures& f) {
  DirectionFeatures out = f;
  out.packet_count = std::log2(1.0 + f.packet_count);
  // 1 ms floor keeps zero-iat (absent or single-packet) windows finite
  // and well below every real interarrival value.
  out.iat_mean = std::log10(f.iat_mean + 1e-3);
  out.iat_std = std::log10(f.iat_std + 1e-3);
  return out;
}

}  // namespace

WindowFeatures log_compress(const WindowFeatures& features) {
  WindowFeatures out;
  out.downlink = log_compress_direction(features.downlink);
  out.uplink = log_compress_direction(features.uplink);
  return out;
}

std::vector<double> project(const WindowFeatures& features, FeatureSet set) {
  const std::vector<double> all = features.to_vector();
  switch (set) {
    case FeatureSet::kAll:
      return all;
    case FeatureSet::kTimingOnly:
      // count + iat_mean + iat_std per direction.
      return {all[0], all[5], all[6], all[7], all[12], all[13]};
    case FeatureSet::kSizeOnly:
      return {all[1], all[2], all[3], all[4], all[8], all[9], all[10], all[11]};
  }
  util::internal_check(false, "project: invalid FeatureSet");
  return {};
}

std::size_t feature_count(FeatureSet set) {
  switch (set) {
    case FeatureSet::kAll:
      return WindowFeatures::kCount;
    case FeatureSet::kTimingOnly:
      return 6;
    case FeatureSet::kSizeOnly:
      return 8;
  }
  util::internal_check(false, "feature_count: invalid FeatureSet");
  return 0;
}

}  // namespace reshape::features
