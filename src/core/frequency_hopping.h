// Frequency-hopping baseline (the paper's FH comparator, footnote 2):
// a VirtualWiFi-style scheme hopping across channels 1, 6, 11 with a
// 500 ms dwell time per channel.
//
// FH partitions traffic *in time* rather than by feature: an eavesdropper
// pinned to one channel sees every third dwell of the flow. Because the
// per-partition packet-size distribution equals the original (time slicing
// subsamples it), FH barely lowers classification accuracy — the result
// the paper reports in Tables II/III.
#pragma once

#include <vector>

#include "core/defense.h"
#include "util/time.h"

namespace reshape::core {

/// Channel-hop schedule configuration.
struct HoppingConfig {
  std::vector<int> channels{1, 6, 11};
  util::Duration dwell = util::Duration::milliseconds(500);
};

/// Maps a timestamp to the channel the radio occupies at that instant.
class HoppingSchedule {
 public:
  explicit HoppingSchedule(HoppingConfig config);

  [[nodiscard]] int channel_at(util::TimePoint t) const;
  [[nodiscard]] const HoppingConfig& config() const { return config_; }

 private:
  HoppingConfig config_;
};

/// FH as a trace defense: the adversary's sniffer sits on one channel of
/// the hop set and observes only the dwells spent there. One stream per
/// observable partition — the paper's adversary classifies the partition
/// it can see, so `apply` returns a single stream (the monitored
/// channel's packets).
class FrequencyHoppingDefense final : public Defense {
 public:
  /// `monitored_channel` must be a member of the hop set.
  FrequencyHoppingDefense(HoppingConfig config, int monitored_channel);

  [[nodiscard]] DefenseResult apply(const traffic::Trace& trace) override;

  [[nodiscard]] const HoppingSchedule& schedule() const { return schedule_; }

 private:
  HoppingSchedule schedule_;
  int monitored_channel_;
};

}  // namespace reshape::core
