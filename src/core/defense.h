// Trace-level defense abstraction.
//
// Every defense mechanism the paper evaluates (reshaping with RA/RR/OR,
// frequency hopping, packet padding, traffic morphing, and combinations)
// is a transformation from one original trace to the set of flows an
// eavesdropper can observe, plus a byte-overhead account. This mirrors the
// paper's own trace-based methodology (§IV: "we evaluate traffic reshaping
// through simulations" over captured traces).
//
// Reshaping, padding, morphing and the §V-C combination are one per-packet
// composition, ReshapingDefense: an optional Scheduler picks the packet's
// virtual interface on its original size, then that interface's optional
// PacketShaper decides its on-air size. ReshapingDefense::dispatch is that
// composition for one packet; the batch apply() below and the live
// core::online::StreamingReshaper both run every packet through it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/scheduler.h"
#include "mac/frame.h"
#include "traffic/trace.h"
#include "util/check.h"

namespace reshape::core {

/// added/original bytes as a percentage — the paper's overhead metric
/// (0 when nothing was observed). Shared by the batch DefenseResult and
/// the streaming pipeline's StreamingStats so the two paths can never
/// disagree on the definition.
[[nodiscard]] double byte_overhead_percent(std::uint64_t added_bytes,
                                           std::uint64_t original_bytes);

/// The observable output of a defense applied to one trace.
struct DefenseResult {
  /// One trace per flow the adversary can isolate: per virtual MAC
  /// address for reshaping, per channel partition for FH, the single
  /// original flow for padding/morphing. Streams may be empty.
  std::vector<traffic::Trace> streams;

  /// Bytes of the original trace.
  std::uint64_t original_bytes = 0;

  /// Bytes added on the air (padding/morphing); zero for reshaping.
  std::uint64_t added_bytes = 0;

  /// added/original as a percentage (the paper's overhead metric).
  [[nodiscard]] double overhead_percent() const;

  /// Total packets across all streams.
  [[nodiscard]] std::size_t total_packets() const;
};

/// A defense mechanism.
class Defense {
 public:
  virtual ~Defense() = default;

  /// Transforms one application trace into observable flows.
  [[nodiscard]] virtual DefenseResult apply(const traffic::Trace& trace) = 0;
};

/// The identity defense: the adversary sees the original flow unchanged.
class NoDefense final : public Defense {
 public:
  [[nodiscard]] DefenseResult apply(const traffic::Trace& trace) override;
};

/// A per-packet size transform: padding and morphing both decide each
/// packet's on-air size from that packet alone.
class PacketShaper {
 public:
  virtual ~PacketShaper() = default;

  /// The shaped on-air size for a packet of `size_bytes` (never smaller).
  [[nodiscard]] virtual std::uint32_t shape(std::uint32_t size_bytes) = 0;
};

/// Packet padding, the classical baseline of Table VI: every packet is
/// padded up to `pad_to` bytes (the paper pads to the maximum on-air size,
/// 1576 bytes). It hides the size feature at enormous byte cost and leaves
/// timing untouched — which is how Table VI's timing-feature attack
/// defeats it.
class PaddingShaper final : public PacketShaper {
 public:
  explicit PaddingShaper(std::uint32_t pad_to = mac::kMaxFrameBytes);

  [[nodiscard]] std::uint32_t shape(std::uint32_t size_bytes) override {
    return std::max(size_bytes, pad_to_);
  }

 private:
  std::uint32_t pad_to_;
};

/// Traffic reshaping (§III-C) and the size shapers, as one composition:
/// each packet is dispatched to a virtual interface by the Scheduler (null
/// means a single stream), then shaped by that interface's PacketShaper
/// (a missing or null entry passes sizes through). The adversary observes
/// one flow per virtual MAC address.
///
/// The same scheduler logic runs on the AP for downlink and on the client
/// for uplink (§III-C: "the reshaping algorithm is running on both the
/// client and AP side"); both directions of a packet's flow land on the
/// interface the scheduler picks, so each virtual MAC carries a coherent
/// bidirectional sub-flow.
class ReshapingDefense final : public Defense {
 public:
  /// `shapers[i]` shapes interface i; the vector may be shorter than the
  /// interface count. Padding or morphing alone is a null scheduler with
  /// the shaper in slot 0; the §V-C combined defense is OR with shapers
  /// on the interfaces it morphs.
  explicit ReshapingDefense(
      std::unique_ptr<Scheduler> scheduler,
      std::vector<std::unique_ptr<PacketShaper>> shapers = {});

  /// Single-stream shaping: no scheduler, `shaper` in slot 0.
  [[nodiscard]] static ReshapingDefense shaping(
      std::unique_ptr<PacketShaper> shaper);

  [[nodiscard]] DefenseResult apply(const traffic::Trace& trace) override;

  /// One packet through the composition: picks its interface on the
  /// original size, then rewrites `packet.size_bytes` with that
  /// interface's shaped size. Returns the interface index.
  std::size_t dispatch(traffic::PacketRecord& packet) {
    std::size_t i = 0;
    if (scheduler_ != nullptr) {
      i = scheduler_->select_interface(packet);
      util::internal_check(i < stream_count_,
                           "ReshapingDefense: bad scheduler interface");
    }
    if (i < shapers_.size() && shapers_[i] != nullptr) {
      const std::uint32_t original = packet.size_bytes;
      packet.size_bytes = shapers_[i]->shape(original);
      util::internal_check(packet.size_bytes >= original,
                           "ReshapingDefense: shaper shrank a packet");
    }
    return i;
  }

  /// Number of observable output flows (scheduler interfaces, or 1).
  [[nodiscard]] std::size_t stream_count() const { return stream_count_; }

  /// Resets the scheduler's per-flow counters; RNG phases (scheduler and
  /// shapers) carry on, as Scheduler::reset documents.
  void reset();

 private:
  std::unique_ptr<Scheduler> scheduler_;  // may be null
  std::vector<std::unique_ptr<PacketShaper>> shapers_;
  std::size_t stream_count_;
};

}  // namespace reshape::core
