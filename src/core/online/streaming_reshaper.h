// The online (per-packet) reshaping pipeline.
//
// The paper's defense runs *live* at the AP and client: each packet is
// dispatched to a virtual MAC interface the moment it arrives (§III-C,
// "in real time"). The batch Defense::apply() path rewrites whole traces
// after the fact and therefore never sees what live operation costs —
// queueing behind the shared radio, per-packet added latency, airtime.
// StreamingReshaper is the streaming counterpart: it consumes packets one
// at a time through the same core::ReshapingDefense composition (optional
// scheduler, then per-interface size shapers) and adds only what live
// operation has on top — it models the single physical radio all virtual
// interfaces share (packets that arrive while the radio is busy wait in
// their interface's queue), accounts the resulting queueing delay and
// airtime against a configurable latency budget, and feeds the packet
// trace and windowed series.
//
// Equivalence: the per-interface streams a StreamingReshaper accumulates
// (original arrival timestamps, shaped sizes) are byte-identical to what
// ReshapingDefense::apply produces for the same input, because both call
// ReshapingDefense::dispatch for every packet in arrival order.
// tests/online_test.cc checks the parity for every composition across
// all registry scenarios, and tests/defense_golden_test.cc pins the
// shared output independently; the latency/airtime numbers are
// *additional* observables of the same transformation, not a different
// one.
//
// Radio model status: the shared-radio timeline here is a *per-pipeline
// model* — each reshaper believes it owns the physical card and nothing
// else contends for air. Since the contention subsystem landed
// (sim/channel/channel_arbiter.h), endpoints transmit at the release
// times modeled here and the arbitrated channel decides what the air
// actually does; wherever both views exist, prefer the observed
// sim::channel::ChannelStats, and treat StreamingStats as the modeled
// (deprecated-for-observation) view. Uncontended, the two timelines are
// identical — the golden-parity property tests/channel_test.cc asserts.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "core/defense.h"
#include "obs/packet_trace.h"
#include "obs/windowed.h"
#include "traffic/trace.h"
#include "util/time.h"

namespace reshape::core::online {

/// Knobs of the online pipeline.
struct StreamingConfig {
  /// PHY bitrate the shared radio serializes frames at (Mbit/s).
  double bitrate_mbps = 54.0;

  /// Per-packet latency budget: a packet whose queueing delay (time spent
  /// waiting for the radio) exceeds this counts as a deadline miss.
  util::Duration latency_budget = util::Duration::milliseconds(20);

  /// Accumulate per-interface Trace streams (the batch-parity output).
  /// Endpoints embedding the reshaper for accounting only (net::Client,
  /// net::AccessPoint) turn this off to keep memory flat over a session.
  bool record_streams = true;

  /// A copy with stream recording off — what endpoints that embed the
  /// reshaper purely for live-cost accounting pass to the constructor.
  [[nodiscard]] StreamingConfig accounting_only() const;
};

/// What the pipeline emits for one consumed packet.
struct ShapedPacket {
  std::size_t interface_index = 0;

  /// Original arrival time, shaped size — the record the adversary's
  /// flow-isolation view contains (identical to the batch path's output).
  traffic::PacketRecord record;

  /// When the shared radio starts transmitting this packet.
  util::TimePoint tx_start;

  /// tx_start - arrival: the latency the online defense added.
  util::Duration queueing_delay;

  bool deadline_miss = false;

  /// Lifecycle-trace id (obs::PacketTrace); 0 unless a tracer is attached.
  /// Endpoints copy it onto the mac::Frame they transmit so the span chain
  /// continues through the arbiter and sniffer.
  std::uint64_t trace_id = 0;
};

/// Aggregate accounting over every packet pushed since the last reset().
struct StreamingStats {
  std::uint64_t packets = 0;
  std::uint64_t original_bytes = 0;
  std::uint64_t added_bytes = 0;  // shaping (padding/morphing) bytes
  std::uint64_t deadline_misses = 0;
  util::Duration total_queueing_delay;
  util::Duration max_queueing_delay;
  util::Duration airtime_busy;      // radio time spent transmitting
  std::size_t max_queue_depth = 0;  // deepest any interface queue got

  /// Mean per-packet added latency in microseconds.
  [[nodiscard]] double mean_queueing_delay_us() const;

  /// added/original bytes as a percentage (the paper's overhead metric).
  [[nodiscard]] double overhead_percent() const;

  /// Fraction of packets that missed the latency budget (0 when empty).
  [[nodiscard]] double deadline_miss_rate() const;

  /// Accumulates another pipeline's (or shard's) stats into this one —
  /// sums and counters add, maxima take the max.
  void merge(const StreamingStats& other);
};

/// The streaming per-packet reshaping pipeline.
///
/// Feed packets in arrival order via push(); read back the per-interface
/// streams (batch-parity view) and the StreamingStats (live-cost view).
class StreamingReshaper {
 public:
  /// Runs `defense` packet by packet: a null scheduler gives one output
  /// stream (padding or morphing alone), no shapers leave sizes untouched
  /// (reshaping alone), and both empty is the identity pipeline, which
  /// still accounts airtime.
  explicit StreamingReshaper(ReshapingDefense defense,
                             StreamingConfig config = {});

  /// Consumes one packet. Arrival times must be non-decreasing across
  /// calls (the simulator clock and Trace invariant both guarantee it).
  ShapedPacket push(const traffic::PacketRecord& arrival);

  /// Number of observable output flows (scheduler interfaces, or 1).
  [[nodiscard]] std::size_t stream_count() const {
    return defense_.stream_count();
  }

  /// The accumulated per-interface streams (empty when record_streams is
  /// off). Indexed by interface.
  [[nodiscard]] const std::vector<traffic::Trace>& streams() const {
    return streams_;
  }

  [[nodiscard]] const StreamingStats& stats() const { return stats_; }
  [[nodiscard]] const StreamingConfig& config() const { return config_; }

  /// Attaches a lifecycle tracer (nullptr detaches). While attached, each
  /// pushed packet gets a fresh frame id and the pipeline records the
  /// enqueue / shape / schedule spans. Observation-only: tracing never
  /// touches the scheduler, shapers, or RNG state.
  void set_packet_trace(obs::PacketTrace* trace) { trace_ = trace; }
  [[nodiscard]] obs::PacketTrace* packet_trace() const { return trace_; }

  /// Attaches windowed-series emission (nullptr detaches): each pushed
  /// packet observes streaming_queueing_delay_us, streaming_deadline_miss,
  /// streaming_original_bytes, and streaming_added_bytes under `labels`
  /// at its *arrival* instant. Observation-only, like the packet trace.
  void set_windowed(obs::WindowedRegistry* registry,
                    const obs::LabelSet& labels = {});

  /// Packages the accumulated streams as a batch-compatible result,
  /// labeled with the originating application (requires record_streams).
  [[nodiscard]] DefenseResult result(traffic::AppType app) const;

  /// Clears streams, stats, and the radio timeline; resets the scheduler's
  /// per-flow counters (RNG phase is not reset, matching Scheduler::reset).
  void reset();

 private:
  ReshapingDefense defense_;
  StreamingConfig config_;
  std::vector<traffic::Trace> streams_;
  StreamingStats stats_;
  util::TimePoint radio_free_;    // when the shared radio next idles
  util::TimePoint last_arrival_;  // push-order monotonicity check
  bool saw_packet_ = false;
  // Modeled in-flight departures per interface, pruned on every push —
  // the per-interface queue the paper's live deployment would hold.
  std::vector<std::deque<util::TimePoint>> inflight_;
  obs::PacketTrace* trace_ = nullptr;  // not owned; nullptr = untraced
  // Windowed-series handles, resolved once in set_windowed (nullptr = off).
  struct WindowedEmit {
    obs::WindowedSeries* queueing_delay = nullptr;
    obs::WindowedSeries* deadline_miss = nullptr;
    obs::WindowedSeries* original_bytes = nullptr;
    obs::WindowedSeries* added_bytes = nullptr;
  };
  WindowedEmit windowed_;
};

/// Feeds a whole trace through the reshaper (after a reset()) and returns
/// the batch-compatible result, streams labeled with the trace's app —
/// the adapter the golden-parity tests and campaigns use to compare the
/// online path against Defense::apply().
[[nodiscard]] DefenseResult run_streaming(StreamingReshaper& reshaper,
                                          const traffic::Trace& trace);

}  // namespace reshape::core::online
