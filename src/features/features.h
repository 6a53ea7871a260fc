// MAC-layer traffic features, following the classification system of
// Zhang et al. (WiSec'11) that the paper uses as its attacker (§IV-C):
// "number of packets, max/min/average/standard deviation of packet size,
// and packet interarrival time in downlink and uplink".
//
// Windows of length W (the eavesdropping duration) are cut from a trace;
// idle gaps longer than 5 seconds are excluded from interarrival
// statistics, matching the paper's §IV-B processing.
//
// Extraction is single-pass over the struct-of-arrays columns. The batch
// extract_all_windows cuts the columns window by window and sweeps each
// slice per direction; the sniffer/adaptive per-arrival path pushes
// (time, size, direction) into an IncrementalWindowExtractor, which emits
// a window the moment its boundary is crossed. Both feed the same
// per-direction accumulator, so both produce bit-identical doubles to the
// original slice-per-window implementation (same util::RunningStats add
// order, same values).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "traffic/trace.h"
#include "util/stats.h"
#include "util/time.h"

namespace reshape::features {

/// Gaps longer than this are "idle time without data transmission" and do
/// not contribute to interarrival statistics (paper §IV-B).
inline constexpr util::Duration kIdleGapFilter = util::Duration::seconds(5.0);

/// Per-direction feature block.
struct DirectionFeatures {
  double packet_count = 0.0;
  double size_max = 0.0;
  double size_min = 0.0;
  double size_mean = 0.0;
  double size_std = 0.0;
  double iat_mean = 0.0;  // seconds, idle-filtered
  double iat_std = 0.0;   // seconds, idle-filtered

  static constexpr std::size_t kCount = 7;

  [[nodiscard]] std::array<double, kCount> to_array() const;
};

/// The full feature vector of one window: downlink block then uplink block.
struct WindowFeatures {
  DirectionFeatures downlink;
  DirectionFeatures uplink;

  static constexpr std::size_t kCount = 2 * DirectionFeatures::kCount;

  [[nodiscard]] std::vector<double> to_vector() const;

  /// Human-readable names, index-aligned with to_vector().
  [[nodiscard]] static const std::vector<std::string>& names();
};

/// Which features feed the classifier. kAll is the paper's default
/// attacker; kTimingOnly is the "traffic analysis attack based on the
/// packet interarrival time" used for Table VI, which padding and
/// morphing cannot defeat.
enum class FeatureSet : std::uint8_t {
  kAll,
  kTimingOnly,
  kSizeOnly,
};

/// Projects a full window-feature vector onto the chosen subset.
[[nodiscard]] std::vector<double> project(const WindowFeatures& features,
                                          FeatureSet set);

/// Compresses the heavy-tailed dimensions: packet counts become
/// log2(1 + n) and interarrival statistics log10(iat + 1 ms). Rates in
/// home WLANs span three orders of magnitude (1–54 Mbit/s links, variable
/// server throughput), so linear count/iat axes carry no usable contrast
/// after bounded scaling; the log domain restores it. Size features stay
/// linear (they are bounded by the MTU). Applied by the attack pipeline
/// before scaling.
[[nodiscard]] WindowFeatures log_compress(const WindowFeatures& features);

/// Number of dimensions project() returns for the subset.
[[nodiscard]] std::size_t feature_count(FeatureSet set);

/// Streaming per-arrival feature accumulator.
///
/// Windows of length `w` are aligned to the first pushed record; each
/// push() assigns the arrival to its window and returns the completed
/// window's features when a boundary is crossed (empty windows and
/// windows below `min_packets` emit nothing, matching the batch path).
/// finish() flushes the in-progress window; reset() forgets everything
/// (the next push re-anchors the alignment — the adaptive loop resets
/// per epoch). Records must arrive time-ordered.
class IncrementalWindowExtractor {
 public:
  explicit IncrementalWindowExtractor(util::Duration w,
                                      std::size_t min_packets = 2);

  std::optional<WindowFeatures> push(util::TimePoint time,
                                     std::uint32_t size_bytes,
                                     mac::Direction direction);
  std::optional<WindowFeatures> push(const traffic::PacketRecord& r) {
    return push(r.time, r.size_bytes, r.direction);
  }

  /// Emits the final in-progress window (if it qualifies).
  [[nodiscard]] std::optional<WindowFeatures> finish();

  void reset();

  /// Per-direction Welford accumulators (public: extract_window reuses
  /// them so the whole-window path shares the exact add sequence).
  struct DirectionAccumulator {
    util::RunningStats sizes;
    util::RunningStats gaps;
    std::int64_t previous_us = 0;
    bool has_previous = false;

    void clear();
    void add(std::int64_t t_us, std::uint32_t size_bytes);

    /// Adds every record of the columns whose direction matches `dir`,
    /// bit-identical to calling add() per matching record in order: the
    /// column sweep gathers sizes and idle-filtered gaps into small
    /// batches and feeds them through util::RunningStats::add_span, which
    /// preserves the sequential Welford order per accumulator.
    void add_span(std::span<const std::int64_t> times_us,
                  std::span<const std::uint32_t> sizes_bytes,
                  std::span<const mac::Direction> directions,
                  mac::Direction dir);

    [[nodiscard]] DirectionFeatures features() const;
  };

 private:
  [[nodiscard]] std::optional<WindowFeatures> emit();

  std::int64_t window_us_;
  std::size_t min_packets_;
  bool anchored_ = false;
  std::int64_t start_us_ = 0;     // first record's timestamp (alignment)
  std::int64_t window_index_ = 0; // window currently accumulating
  DirectionAccumulator down_;
  DirectionAccumulator up_;
};

/// Computes features over one window view. Returns std::nullopt when the
/// view is empty (nothing to classify).
[[nodiscard]] std::optional<WindowFeatures> extract_window(
    traffic::TraceView window);

/// Cuts the records into consecutive windows of length `w` (aligned to
/// the first record) and extracts features for every non-empty window
/// with at least `min_packets` packets. Scans window by window: one
/// division per window, a compare-only scan for its end, then one
/// column sweep per direction. Bit-identical to pushing every record
/// through IncrementalWindowExtractor.
///
/// Precondition: `records` is time-ordered (non-decreasing times), as
/// every Trace and TraceView slice is.
[[nodiscard]] std::vector<WindowFeatures> extract_all_windows(
    traffic::TraceView records, util::Duration w, std::size_t min_packets = 2);
[[nodiscard]] std::vector<WindowFeatures> extract_all_windows(
    const traffic::Trace& trace, util::Duration w, std::size_t min_packets = 2);

/// Same, appending into a caller-owned buffer (cleared first) so per-cell
/// arenas can reuse the allocation across flows. Same precondition:
/// `records` must be time-ordered.
void extract_all_windows_into(std::vector<WindowFeatures>& out,
                              traffic::TraceView records, util::Duration w,
                              std::size_t min_packets = 2);

/// Whole-trace feature summary (used by the Table I reproduction, which
/// reports per-interface averages over a long capture).
[[nodiscard]] std::optional<WindowFeatures> extract_whole(
    const traffic::Trace& trace);

}  // namespace reshape::features
