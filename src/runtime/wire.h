// The shard-server wire format: versioned, length-prefixed frames that
// carry work orders and range outcomes between the coordinator and its
// worker processes (runtime/shard_server.h).
//
// Layout rules: little-endian fixed-width integers, doubles as their
// IEEE-754 bit pattern through std::bit_cast (lossless, ±inf and NaN
// payloads included — the snapshots' min/max sentinels survive intact),
// strings and arrays as a u64 element count followed by the elements.
// Every frame opens with a 16-byte header
//
//     magic u32 | version u16 | type u16 | payload length u64
//
// so a reader can reject foreign or stale streams before touching the
// payload. Decoders throw WireError on truncation, bad magic, version
// mismatch, or trailing garbage — a short read never yields a partially
// filled struct.
//
// Determinism contract: encode(decode(bytes)) == bytes and
// decode(encode(x)) == x for every codec here; the shard server's merged
// output is byte-identical to the in-process run *because* outcomes cross
// the process boundary losslessly (tests/wire_test.cc asserts both
// directions).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/tuning/tuner.h"
#include "obs/export.h"
#include "runtime/adaptive_campaign.h"
#include "runtime/campaign.h"
#include "runtime/grid_engine.h"

namespace reshape::runtime::wire {

/// Any malformed input: truncation, bad magic, version or type mismatch,
/// impossible lengths, trailing bytes.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr std::uint32_t kMagic = 0x52534857u;  // "WHSR" on the wire
inline constexpr std::uint16_t kVersion = 1;
inline constexpr std::size_t kFrameHeaderSize = 16;

// Types 3 and 4 (the former per-engine range frames) are retired: every
// engine's range outcome travels as kRange, and decode_frame_header
// rejects them like any other unknown type.
enum class FrameType : std::uint16_t {
  kWorkOrder = 1,  // coordinator -> worker: run cells [begin, end)
  kRange = 2,      // worker -> coordinator: a RangeOutcome<Cell>
  kShutdown = 5,   // coordinator -> worker: drain and exit
  kError = 6,      // worker -> coordinator: payload = what() string
};

/// Append-only payload builder.
class WireWriter {
 public:
  void u8(std::uint8_t v) { buffer_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);  // IEEE-754 bit pattern, lossless
  void str(std::string_view v);

  [[nodiscard]] const std::vector<std::uint8_t>& buffer() const {
    return buffer_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buffer_); }

 private:
  std::vector<std::uint8_t> buffer_;
};

/// Consuming payload parser; every getter throws WireError on truncation.
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> bytes) : bytes_{bytes} {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int64_t i64();
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();

  /// A u64 element count, validated against the bytes actually left
  /// (every element encodes at least one byte, so a bigger count is
  /// malformed — the cap that keeps a corrupt length from allocating).
  [[nodiscard]] std::size_t length();

  [[nodiscard]] std::size_t remaining() const {
    return bytes_.size() - offset_;
  }

  /// Throws WireError unless every byte was consumed.
  void require_exhausted() const;

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t offset_ = 0;
};

/// One header-prefixed frame around `payload`.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    FrameType type, std::span<const std::uint8_t> payload);

/// Decoded frame header; `length` bytes of payload follow.
struct FrameHeader {
  FrameType type = FrameType::kError;
  std::uint64_t length = 0;
};

/// Parses and validates the 16-byte header (magic, version).
[[nodiscard]] FrameHeader decode_frame_header(
    std::span<const std::uint8_t> header);

/// What the coordinator asks a worker to do: score `job`'s cells
/// [begin, end) on `threads` threads under `telemetry`.
struct WorkOrder {
  std::string job;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::uint64_t threads = 1;
  obs::TelemetryConfig telemetry{};

  friend bool operator==(const WorkOrder&, const WorkOrder&) = default;
};

// Payload codecs. Each encode_* returns the bare payload (no frame
// header); each decode_* consumes the whole span and throws WireError on
// anything malformed.
[[nodiscard]] std::vector<std::uint8_t> encode_work_order(const WorkOrder& o);
[[nodiscard]] WorkOrder decode_work_order(std::span<const std::uint8_t> b);

// Per-cell codecs the range codec is generic over.
void encode(WireWriter& w, const CellResult& v);
void decode(WireReader& r, CellResult& v);
void encode(WireWriter& w, const AdaptiveCellResult& v);
void decode(WireReader& r, AdaptiveCellResult& v);
void encode(WireWriter& w, const core::tuning::CandidateShardOutcome& v);
void decode(WireReader& r, core::tuning::CandidateShardOutcome& v);

// Mid-level codecs, exposed for the round-trip property tests.
void encode(WireWriter& w, const obs::TelemetryConfig& v);
[[nodiscard]] obs::TelemetryConfig decode_telemetry_config(WireReader& r);

void encode(WireWriter& w, const obs::LabelSet& v);
[[nodiscard]] obs::LabelSet decode_label_set(WireReader& r);

void encode(WireWriter& w, const ml::ConfusionMatrix& v);
[[nodiscard]] ml::ConfusionMatrix decode_confusion(WireReader& r);

void encode(WireWriter& w, const obs::MetricsSnapshot& v);
[[nodiscard]] obs::MetricsSnapshot decode_metrics_snapshot(WireReader& r);

void encode(WireWriter& w, const obs::WindowedSnapshot& v);
[[nodiscard]] obs::WindowedSnapshot decode_windowed_snapshot(WireReader& r);

void encode(WireWriter& w, const attack::adaptive::EpochScore& v);
[[nodiscard]] attack::adaptive::EpochScore decode_epoch_score(WireReader& r);

/// One range codec for every engine: begin, end, the cells through their
/// per-cell codec, then the metrics and windowed snapshots.
template <typename Cell>
[[nodiscard]] std::vector<std::uint8_t> encode_range(
    const RangeOutcome<Cell>& o) {
  WireWriter w;
  w.u64(o.begin);
  w.u64(o.end);
  w.u64(o.cells.size());
  for (const Cell& cell : o.cells) {
    encode(w, cell);
  }
  encode(w, o.metrics);
  encode(w, o.windows);
  return w.take();
}

/// Decodes an `Outcome` (a RangeOutcome<Cell>) from the whole span.
template <typename Outcome>
[[nodiscard]] Outcome decode_range(std::span<const std::uint8_t> b) {
  WireReader r{b};
  Outcome o;
  o.begin = static_cast<std::size_t>(r.u64());
  o.end = static_cast<std::size_t>(r.u64());
  const std::size_t n = r.length();
  o.cells.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    decode(r, o.cells.emplace_back());
  }
  o.metrics = decode_metrics_snapshot(r);
  o.windows = decode_windowed_snapshot(r);
  r.require_exhausted();
  return o;
}

[[nodiscard]] inline std::vector<std::uint8_t> encode_campaign_range(
    const CampaignRangeOutcome& o) {
  return encode_range(o);
}
[[nodiscard]] inline CampaignRangeOutcome decode_campaign_range(
    std::span<const std::uint8_t> b) {
  return decode_range<CampaignRangeOutcome>(b);
}

}  // namespace reshape::runtime::wire
