// One arbitrated DCF cell driven from releases known up front.
//
// The contended-cell scenarios (runtime/scenario.cc) and the tuner's
// access-delay measurement (core/tuning/tuner.cc) both replay a run's
// frames through one DCF channel. ArbitratedCell does it for both, with
// no simulator: callers add releases, then run() drives a DcfCore
// (dcf_core.h) from a plain loop and reports every frame that reaches the
// air by the index release() returned; frames dropped at the retry limit
// are not reported.
//
// Order. The releases form time-sorted chains: a chain is a maximal run
// of consecutive releases whose times do not decrease (a station's
// records; a step back in time, as when one AP transmitter serves several
// clients' records, starts a new chain). run() merges the chain heads in
// a small heap keyed on (when, index), so releases fire in time order and
// ties at one instant fire in add order. A release due at instant t fires
// before a decision due at t. That is the order a discrete-event
// simulator gives when every release is scheduled before the run and each
// decision is scheduled while it runs (ties in time break by scheduling
// order), so the on-air timeline equals that of a ChannelArbiter fed the
// same releases as preloaded events; tests/channel_test.cc checks this
// release for release.
//
// The core keys backoff substreams on registration order, so a station
// registers with it when its first release fires.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "sim/channel/dcf_core.h"
#include "util/rng.h"
#include "util/time.h"

namespace reshape::sim::channel {

class ArbitratedCell {
 public:
  /// `rng` seeds the per-station backoff substreams.
  ArbitratedCell(DcfParams params, util::Rng rng);

  /// Capacity for `count` releases.
  void reserve(std::size_t count) { releases_.reserve(count); }

  /// Appends a release of `size_bytes` by station `station` (any index;
  /// stations are numbered by the caller) at `when`; returns its index.
  std::size_t release(std::size_t station, util::TimePoint when,
                      std::uint32_t size_bytes);

  [[nodiscard]] std::size_t releases() const { return releases_.size(); }

  /// Chains with a release still to fire: while run() runs, the merge
  /// heap holds one entry per chain, never one per release.
  [[nodiscard]] std::size_t pending_chains() const { return heads_.size(); }

  /// Attaches the channel's windowed-series emission (see
  /// DcfCore::set_windowed) before run().
  void set_windowed(obs::WindowedRegistry* registry,
                    const obs::LabelSet& labels = {}) {
    core_.set_windowed(registry, labels);
  }

  /// Channel-wide totals across every station.
  [[nodiscard]] ChannelStats totals() const { return core_.totals(); }

  /// Runs every release through the cell, calling
  /// `on_air(release, on_air_instant, size_bytes, access_delay)` for each
  /// frame that reaches the air, in channel order. Call once.
  template <typename OnAir>
  void run(OnAir&& on_air) {
    start();
    for (;;) {
      const std::optional<util::TimePoint> decision = core_.next_decision();
      if (!heads_.empty() &&
          (!decision || heads_.front().first <= decision->count_us())) {
        fire_next_release();
        continue;
      }
      if (!decision) {
        return;
      }
      const DcfCore::Outcome& outcome = core_.decide(*decision);
      if (outcome.sent) {
        const DcfCore::Departure& sent = outcome.on_air;
        on_air(static_cast<std::size_t>(sent.handle), *decision,
               releases_[sent.handle].size_bytes, sent.access_delay);
      }
    }
  }

 private:
  static constexpr std::uint32_t kUnregistered =
      static_cast<std::uint32_t>(-1);
  struct Release {
    std::int64_t when_us;
    std::uint32_t station;  // the caller's index
    std::uint32_t size_bytes;
  };

  /// Marks the cell run and heaps every chain head.
  void start();

  /// Enqueues the earliest pending release and heaps its chain successor.
  void fire_next_release();

  DcfCore core_;
  std::vector<Release> releases_;
  std::vector<std::uint32_t> core_station_;  // per caller station
  // Min-heap of (when_us, release index) over the pending chain heads.
  std::vector<std::pair<std::int64_t, std::size_t>> heads_;
  bool ran_ = false;
};

}  // namespace reshape::sim::channel
