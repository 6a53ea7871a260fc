#include "runtime/wire.h"

#include <bit>
#include <utility>

namespace reshape::runtime::wire {

namespace {

void append_le(std::vector<std::uint8_t>& out, std::uint64_t v,
               std::size_t bytes) {
  for (std::size_t i = 0; i < bytes; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

}  // namespace

void WireWriter::u16(std::uint16_t v) { append_le(buffer_, v, 2); }
void WireWriter::u32(std::uint32_t v) { append_le(buffer_, v, 4); }
void WireWriter::u64(std::uint64_t v) { append_le(buffer_, v, 8); }
void WireWriter::i64(std::int64_t v) {
  append_le(buffer_, static_cast<std::uint64_t>(v), 8);
}
void WireWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void WireWriter::str(std::string_view v) {
  u64(v.size());
  buffer_.insert(buffer_.end(), v.begin(), v.end());
}

std::uint8_t WireReader::u8() {
  if (remaining() < 1) {
    throw WireError{"wire: truncated input"};
  }
  return bytes_[offset_++];
}

std::uint16_t WireReader::u16() {
  if (remaining() < 2) {
    throw WireError{"wire: truncated input"};
  }
  std::uint16_t v = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    v = static_cast<std::uint16_t>(
        v | static_cast<std::uint16_t>(bytes_[offset_ + i]) << (8 * i));
  }
  offset_ += 2;
  return v;
}

std::uint32_t WireReader::u32() {
  if (remaining() < 4) {
    throw WireError{"wire: truncated input"};
  }
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(bytes_[offset_ + i]) << (8 * i);
  }
  offset_ += 4;
  return v;
}

std::uint64_t WireReader::u64() {
  if (remaining() < 8) {
    throw WireError{"wire: truncated input"};
  }
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(bytes_[offset_ + i]) << (8 * i);
  }
  offset_ += 8;
  return v;
}

std::int64_t WireReader::i64() { return static_cast<std::int64_t>(u64()); }

double WireReader::f64() { return std::bit_cast<double>(u64()); }

std::size_t WireReader::length() {
  const std::uint64_t n = u64();
  if (n > remaining()) {
    throw WireError{"wire: impossible element count"};
  }
  return static_cast<std::size_t>(n);
}

std::string WireReader::str() {
  const std::size_t n = length();
  std::string out(reinterpret_cast<const char*>(bytes_.data() + offset_), n);
  offset_ += n;
  return out;
}

void WireReader::require_exhausted() const {
  if (remaining() != 0) {
    throw WireError{"wire: trailing bytes after payload"};
  }
}

std::vector<std::uint8_t> encode_frame(FrameType type,
                                       std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderSize + payload.size());
  append_le(out, kMagic, 4);
  append_le(out, kVersion, 2);
  append_le(out, static_cast<std::uint16_t>(type), 2);
  append_le(out, payload.size(), 8);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

FrameHeader decode_frame_header(std::span<const std::uint8_t> header) {
  if (header.size() < kFrameHeaderSize) {
    throw WireError{"wire: truncated frame header"};
  }
  WireReader r{header.first(kFrameHeaderSize)};
  if (r.u32() != kMagic) {
    throw WireError{"wire: bad magic (not a shard-server stream)"};
  }
  const std::uint16_t version = r.u16();
  if (version != kVersion) {
    throw WireError{"wire: version mismatch (got " + std::to_string(version) +
                    ", want " + std::to_string(kVersion) + ")"};
  }
  FrameHeader out;
  out.type = static_cast<FrameType>(r.u16());
  if (out.type != FrameType::kWorkOrder && out.type != FrameType::kRange &&
      out.type != FrameType::kShutdown && out.type != FrameType::kError) {
    throw WireError{"wire: unknown frame type " +
                    std::to_string(static_cast<unsigned>(out.type))};
  }
  out.length = r.u64();
  return out;
}

void encode(WireWriter& w, const obs::TelemetryConfig& v) {
  w.u8(v.metrics ? 1 : 0);
  w.u8(v.tracing ? 1 : 0);
  w.u8(v.profiling ? 1 : 0);
  w.u8(v.windowed ? 1 : 0);
  w.u8(v.privacy ? 1 : 0);
  w.u8(v.privacy_pairs ? 1 : 0);
  w.i64(v.window.count_us());
}

obs::TelemetryConfig decode_telemetry_config(WireReader& r) {
  obs::TelemetryConfig v;
  v.metrics = r.u8() != 0;
  v.tracing = r.u8() != 0;
  v.profiling = r.u8() != 0;
  v.windowed = r.u8() != 0;
  v.privacy = r.u8() != 0;
  v.privacy_pairs = r.u8() != 0;
  v.window = util::Duration::microseconds(r.i64());
  return v;
}

void encode(WireWriter& w, const obs::LabelSet& v) {
  w.u64(v.entries().size());
  for (const auto& [key, value] : v.entries()) {
    w.str(key);
    w.str(value);
  }
}

obs::LabelSet decode_label_set(WireReader& r) {
  const std::size_t n = r.length();
  obs::LabelSet v;
  for (std::size_t i = 0; i < n; ++i) {
    std::string key = r.str();
    v.set(std::move(key), r.str());
  }
  return v;
}

void encode(WireWriter& w, const ml::ConfusionMatrix& v) {
  w.u32(static_cast<std::uint32_t>(v.num_classes()));
  for (int t = 0; t < v.num_classes(); ++t) {
    for (int p = 0; p < v.num_classes(); ++p) {
      w.u64(v.count(t, p));
    }
  }
}

ml::ConfusionMatrix decode_confusion(WireReader& r) {
  const std::uint32_t classes = r.u32();
  // 8 bytes per cell: bound the quadratic resize by the bytes present.
  if (classes == 0 ||
      static_cast<std::uint64_t>(classes) * classes * 8 > r.remaining()) {
    throw WireError{"wire: impossible confusion-matrix shape"};
  }
  std::vector<std::uint64_t> cells(static_cast<std::size_t>(classes) *
                                   classes);
  for (std::uint64_t& cell : cells) {
    cell = r.u64();
  }
  return ml::ConfusionMatrix::from_cells(static_cast<int>(classes), cells);
}

namespace {

void encode_evaluation(WireWriter& w, const eval::DefenseEvaluation& v) {
  w.str(v.defense_name);
  w.str(v.classifier_name);
  encode(w, v.confusion);
  for (std::size_t i = 0; i < traffic::kAppCount; ++i) {
    w.f64(v.accuracy[i]);
  }
  for (std::size_t i = 0; i < traffic::kAppCount; ++i) {
    w.f64(v.false_positive[i]);
  }
  for (std::size_t i = 0; i < traffic::kAppCount; ++i) {
    w.f64(v.overhead[i]);
  }
  w.f64(v.mean_accuracy);
  w.f64(v.mean_false_positive);
  w.f64(v.mean_overhead);
}

eval::DefenseEvaluation decode_evaluation(WireReader& r) {
  eval::DefenseEvaluation v;
  v.defense_name = r.str();
  v.classifier_name = r.str();
  v.confusion = decode_confusion(r);
  for (std::size_t i = 0; i < traffic::kAppCount; ++i) {
    v.accuracy[i] = r.f64();
  }
  for (std::size_t i = 0; i < traffic::kAppCount; ++i) {
    v.false_positive[i] = r.f64();
  }
  for (std::size_t i = 0; i < traffic::kAppCount; ++i) {
    v.overhead[i] = r.f64();
  }
  v.mean_accuracy = r.f64();
  v.mean_false_positive = r.f64();
  v.mean_overhead = r.f64();
  return v;
}

void encode_histogram(WireWriter& w, const obs::HistogramData& v) {
  w.u64(v.upper_bounds.size());
  for (const double b : v.upper_bounds) {
    w.f64(b);
  }
  w.u64(v.counts.size());
  for (const std::uint64_t c : v.counts) {
    w.u64(c);
  }
  w.u64(v.count);
  w.f64(v.sum);
  w.f64(v.min);
  w.f64(v.max);
}

obs::HistogramData decode_histogram(WireReader& r) {
  obs::HistogramData v;
  v.upper_bounds.resize(r.length());
  for (double& b : v.upper_bounds) {
    b = r.f64();
  }
  v.counts.resize(r.length());
  for (std::uint64_t& c : v.counts) {
    c = r.u64();
  }
  v.count = r.u64();
  v.sum = r.f64();
  v.min = r.f64();
  v.max = r.f64();
  return v;
}

void encode_streaming(WireWriter& w, const core::online::StreamingStats& v) {
  w.u64(v.packets);
  w.u64(v.original_bytes);
  w.u64(v.added_bytes);
  w.u64(v.deadline_misses);
  w.i64(v.total_queueing_delay.count_us());
  w.i64(v.max_queueing_delay.count_us());
  w.i64(v.airtime_busy.count_us());
  w.u64(v.max_queue_depth);
}

core::online::StreamingStats decode_streaming(WireReader& r) {
  core::online::StreamingStats v;
  v.packets = r.u64();
  v.original_bytes = r.u64();
  v.added_bytes = r.u64();
  v.deadline_misses = r.u64();
  v.total_queueing_delay = util::Duration::microseconds(r.i64());
  v.max_queueing_delay = util::Duration::microseconds(r.i64());
  v.airtime_busy = util::Duration::microseconds(r.i64());
  v.max_queue_depth = static_cast<std::size_t>(r.u64());
  return v;
}

}  // namespace

void encode(WireWriter& w, const obs::MetricsSnapshot& v) {
  w.u64(v.series.size());
  for (const obs::SeriesSnapshot& s : v.series) {
    w.str(s.name);
    encode(w, s.labels);
    w.u8(static_cast<std::uint8_t>(s.kind));
    w.u64(s.counter);
    w.f64(s.gauge);
    encode_histogram(w, s.histogram);
  }
}

obs::MetricsSnapshot decode_metrics_snapshot(WireReader& r) {
  obs::MetricsSnapshot v;
  const std::size_t n = r.length();
  v.series.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    obs::SeriesSnapshot s;
    s.name = r.str();
    s.labels = decode_label_set(r);
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(obs::MetricKind::kHistogram)) {
      throw WireError{"wire: unknown metric kind"};
    }
    s.kind = static_cast<obs::MetricKind>(kind);
    s.counter = r.u64();
    s.gauge = r.f64();
    s.histogram = decode_histogram(r);
    v.series.push_back(std::move(s));
  }
  return v;
}

void encode(WireWriter& w, const obs::WindowedSnapshot& v) {
  w.i64(v.window_us);
  w.u64(v.series.size());
  for (const obs::SeriesWindows& s : v.series) {
    w.str(s.name);
    encode(w, s.labels);
    w.u64(s.points.size());
    for (const obs::WindowPoint& p : s.points) {
      w.i64(p.window);
      w.u64(p.value.count);
      w.f64(p.value.sum);
      w.f64(p.value.min);
      w.f64(p.value.max);
    }
  }
}

obs::WindowedSnapshot decode_windowed_snapshot(WireReader& r) {
  obs::WindowedSnapshot v;
  v.window_us = r.i64();
  const std::size_t n = r.length();
  v.series.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    obs::SeriesWindows s;
    s.name = r.str();
    s.labels = decode_label_set(r);
    s.points.resize(r.length());
    for (obs::WindowPoint& p : s.points) {
      p.window = r.i64();
      p.value.count = r.u64();
      p.value.sum = r.f64();
      p.value.min = r.f64();
      p.value.max = r.f64();
    }
    v.series.push_back(std::move(s));
  }
  return v;
}

void encode(WireWriter& w, const attack::adaptive::EpochScore& v) {
  w.u64(v.epoch);
  w.i64(v.start.count_us());
  w.i64(v.end.count_us());
  w.u64(v.windows);
  encode(w, v.confusion);
  encode(w, v.static_confusion);
  w.u64(v.labels_correct);
  w.u64(v.labels_assigned);
  w.u64(v.training_rows);
  w.u8(v.refitted ? 1 : 0);
}

attack::adaptive::EpochScore decode_epoch_score(WireReader& r) {
  attack::adaptive::EpochScore v;
  v.epoch = static_cast<std::size_t>(r.u64());
  v.start = util::TimePoint::from_microseconds(r.i64());
  v.end = util::TimePoint::from_microseconds(r.i64());
  v.windows = static_cast<std::size_t>(r.u64());
  v.confusion = decode_confusion(r);
  v.static_confusion = decode_confusion(r);
  v.labels_correct = static_cast<std::size_t>(r.u64());
  v.labels_assigned = static_cast<std::size_t>(r.u64());
  v.training_rows = static_cast<std::size_t>(r.u64());
  v.refitted = r.u8() != 0;
  return v;
}

std::vector<std::uint8_t> encode_work_order(const WorkOrder& o) {
  WireWriter w;
  w.str(o.job);
  w.u64(o.begin);
  w.u64(o.end);
  w.u64(o.threads);
  encode(w, o.telemetry);
  return w.take();
}

WorkOrder decode_work_order(std::span<const std::uint8_t> b) {
  WireReader r{b};
  WorkOrder o;
  o.job = r.str();
  o.begin = r.u64();
  o.end = r.u64();
  o.threads = r.u64();
  o.telemetry = decode_telemetry_config(r);
  r.require_exhausted();
  return o;
}

void encode(WireWriter& w, const CellResult& v) {
  w.u64(v.defense_index);
  w.u64(v.scenario_index);
  w.u64(v.shard);
  w.u64(v.session_count);
  encode_evaluation(w, v.evaluation);
}

void decode(WireReader& r, CellResult& v) {
  v.defense_index = static_cast<std::size_t>(r.u64());
  v.scenario_index = static_cast<std::size_t>(r.u64());
  v.shard = static_cast<std::size_t>(r.u64());
  v.session_count = static_cast<std::size_t>(r.u64());
  v.evaluation = decode_evaluation(r);
}

void encode(WireWriter& w, const AdaptiveCellResult& v) {
  w.u64(v.defense_index);
  w.u64(v.scenario_index);
  w.u64(v.shard);
  w.u64(v.session_count);
  w.u64(v.flow_count);
  w.u64(v.epochs.size());
  for (const attack::adaptive::EpochScore& epoch : v.epochs) {
    encode(w, epoch);
  }
}

void decode(WireReader& r, AdaptiveCellResult& v) {
  v.defense_index = static_cast<std::size_t>(r.u64());
  v.scenario_index = static_cast<std::size_t>(r.u64());
  v.shard = static_cast<std::size_t>(r.u64());
  v.session_count = static_cast<std::size_t>(r.u64());
  v.flow_count = static_cast<std::size_t>(r.u64());
  const std::size_t epochs = r.length();
  v.epochs.reserve(epochs);
  for (std::size_t e = 0; e < epochs; ++e) {
    v.epochs.push_back(decode_epoch_score(r));
  }
}

void encode(WireWriter& w, const core::tuning::CandidateShardOutcome& v) {
  w.u64(v.sessions);
  w.u64(v.flows);
  w.u64(v.epochs.size());
  for (const attack::adaptive::EpochScore& epoch : v.epochs) {
    encode(w, epoch);
  }
  encode_streaming(w, v.streaming);
  w.u64(v.access_delay_us.size());
  for (const double d : v.access_delay_us) {
    w.f64(d);
  }
  w.u64(v.frames_dropped);
}

void decode(WireReader& r, core::tuning::CandidateShardOutcome& v) {
  v.sessions = static_cast<std::size_t>(r.u64());
  v.flows = static_cast<std::size_t>(r.u64());
  const std::size_t epochs = r.length();
  v.epochs.reserve(epochs);
  for (std::size_t e = 0; e < epochs; ++e) {
    v.epochs.push_back(decode_epoch_score(r));
  }
  v.streaming = decode_streaming(r);
  v.access_delay_us.resize(r.length());
  for (double& d : v.access_delay_us) {
    d = r.f64();
  }
  v.frames_dropped = r.u64();
}

}  // namespace reshape::runtime::wire
