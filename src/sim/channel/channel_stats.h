// Per-station accounting of arbitrated channel access.
//
// ChannelStats is the *observed* counterpart of the modeled radio inside
// core::online::StreamingReshaper: access delay is measured from the
// moment a frame is handed to the channel (the reshaper's release time)
// to the true on-air instant — after carrier sense, backoff, and any
// collisions — rather than derived from a per-station model that assumes
// the station owns the radio. Where both views exist (net::WirelessClient,
// net::AccessPoint), ChannelStats supersede the reshaper's modeled
// numbers; the modeled accessors remain as documented thin wrappers.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/time.h"

namespace reshape::sim::channel {

/// What one station experienced on an arbitrated channel.
struct ChannelStats {
  std::uint64_t frames_sent = 0;      // frames put on the air
  std::uint64_t frames_dropped = 0;   // retry limit exceeded
  std::uint64_t collisions = 0;       // collision events this station was in
  std::uint64_t retries = 0;          // re-contention rounds after collisions
  util::Duration total_access_delay;  // enqueue -> on-air, summed
  util::Duration max_access_delay;    // worst single access
  util::Duration airtime;             // channel time this station occupied
  std::size_t max_queue_depth = 0;    // deepest the station's queue got

  /// Accumulates another station's (or shard's) stats into this one.
  void merge(const ChannelStats& other);
};

}  // namespace reshape::sim::channel
