// The shard-server wire format: versioned, length-prefixed frames that
// carry work orders and range outcomes between the coordinator and its
// worker processes (runtime/shard_server.h).
//
// Layout rules are util/bytes.h's: little-endian fixed-width integers,
// doubles as their IEEE-754 bit pattern (the snapshots' ±inf min/max
// sentinels survive intact), strings and vectors as a u64 element count
// followed by the elements, fixed-size arrays without a count. Each
// struct's field order is written once, in wire.cc, and one generic
// codec walks it in both directions. Every frame opens with a 16-byte
// header
//
//     magic u32 | version u16 | type u16 | payload length u64
//
// so a reader can reject foreign or stale streams before touching the
// payload. Decoders throw util::ByteError on truncation, bad magic,
// version mismatch or trailing garbage — a short read never yields a
// partially filled struct — and on any value the coordinator's fold
// could not take: a confusion matrix of other than traffic::kAppCount
// classes, a metric kind out of range, a histogram without strictly
// ascending bounds plus one overflow bucket, series not strictly sorted
// by (name, labels), window points not strictly ascending, or a tuning
// cell whose access delays are not finite, non-negative and
// non-descending.
//
// Determinism contract: encode(decode(bytes)) == bytes and
// decode(encode(x)) == x for every codec here; the shard server's merged
// output is byte-identical to the in-process run *because* outcomes cross
// the process boundary losslessly (tests/wire_test.cc asserts both
// directions and pins the bytes).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/tuning/tuner.h"
#include "obs/export.h"
#include "runtime/adaptive_campaign.h"
#include "runtime/campaign.h"
#include "runtime/grid_engine.h"
#include "util/bytes.h"

namespace reshape::runtime::wire {

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

/// One header-prefixed frame around `payload`.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    FrameType type, std::span<const std::uint8_t> payload);

/// Decoded frame header; `length` bytes of payload follow.
struct FrameHeader {
  FrameType type = FrameType::kError;
  std::uint64_t length = 0;
};

/// Parses and validates the 16-byte header (magic, version, type).
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

/// The payload codec: `T`'s bare payload (no frame header), and its
/// inverse, which consumes the whole span. Defined for WorkOrder, the
/// three engines' range outcomes, and — for the round-trip tests — the
/// mid-level types LabelSet, MetricsSnapshot, WindowedSnapshot and
/// EpochScore (wire.cc instantiates exactly these).
template <typename T>
[[nodiscard]] std::vector<std::uint8_t> encode(const T& value);
template <typename T>
[[nodiscard]] T decode(std::span<const std::uint8_t> bytes);

[[nodiscard]] inline std::vector<std::uint8_t> encode_work_order(
    const WorkOrder& o) {
  return encode(o);
}
[[nodiscard]] inline WorkOrder decode_work_order(
    std::span<const std::uint8_t> b) {
  return decode<WorkOrder>(b);
}

/// One range codec for every engine: begin, end, the cells, then the
/// metrics and windowed snapshots.
template <typename Cell>
[[nodiscard]] std::vector<std::uint8_t> encode_range(
    const RangeOutcome<Cell>& o) {
  return encode(o);
}

/// Decodes an `Outcome` (a RangeOutcome<Cell>) from the whole span.
template <typename Outcome>
[[nodiscard]] Outcome decode_range(std::span<const std::uint8_t> b) {
  return decode<Outcome>(b);
}

[[nodiscard]] inline std::vector<std::uint8_t> encode_campaign_range(
    const CampaignRangeOutcome& o) {
  return encode_range(o);
}
[[nodiscard]] inline CampaignRangeOutcome decode_campaign_range(
    std::span<const std::uint8_t> b) {
  return decode_range<CampaignRangeOutcome>(b);
}

/// Throws util::ByteError unless a decoded `reply` answers `order`: the
/// ordered range, one cell per id in it, and — when it carries windowed
/// series — the order's window length (another length could not merge
/// with the other ranges'). With decode's own checks, every reply this
/// accepts folds.
template <typename Cell>
void check_reply(const RangeOutcome<Cell>& reply, const WorkOrder& order) {
  if (reply.begin != order.begin || reply.end != order.end ||
      reply.cells.size() != reply.end - reply.begin) {
    throw util::ByteError{"wire: worker answered a different range"};
  }
  if (!reply.windows.series.empty() &&
      reply.windows.window_us != order.telemetry.window.count_us()) {
    throw util::ByteError{"wire: worker used a different window length"};
  }
}

}  // namespace reshape::runtime::wire
