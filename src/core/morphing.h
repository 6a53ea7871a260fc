// Traffic-morphing baseline (Wright et al., NDSS'09 — the paper's second
// efficiency comparator in Table VI).
//
// Morphing re-sizes each packet of a source application so the flow's
// packet-size distribution imitates a chosen target application. This
// implementation uses conditional-CDF sampling: for a packet of size s,
// draw t from the target application's empirical size distribution
// conditioned on t >= s and pad to t. (The paper's own morphing baseline
// pads only — §V-C treats packet splitting as a separate, more expensive
// extension — so when the target distribution has no mass at or above s
// we pad to the target's maximum.)
//
// The paper's morphing pairing (§IV-D): chatting→gaming, gaming→browsing,
// browsing→BitTorrent, BitTorrent→video, video→downloading; downloading
// and uploading are left unmorphed (their traffic is already at the
// maximum size, morphing has nothing to do).
#pragma once

#include <optional>
#include <unordered_map>

#include "core/defense.h"
#include "traffic/app_type.h"
#include "util/distribution.h"
#include "util/rng.h"

namespace reshape::core {

/// The paper's source→target morphing map. Returns std::nullopt for
/// applications the paper leaves unmorphed (downloading, uploading).
[[nodiscard]] std::optional<traffic::AppType> paper_morph_target(
    traffic::AppType source);

/// Morphs a flow toward a target application's size distribution: the
/// morphing PacketShaper. Alone it is the single-stream shaper of a
/// ReshapingDefense with no scheduler; in the §V-C combined defense it
/// shapes individual virtual-interface streams after OR dispatch.
class MorphingDefense final : public PacketShaper {
 public:
  /// `target_sizes` is the empirical on-air size distribution of the
  /// target application (downlink and uplink pooled, as the morpher acts
  /// per packet regardless of direction).
  MorphingDefense(traffic::AppType target,
                  util::EmpiricalDistribution target_sizes, util::Rng rng);

  /// Draws the morphed size for one packet (one RNG draw per packet).
  [[nodiscard]] std::uint32_t shape(std::uint32_t size) override;

  [[nodiscard]] traffic::AppType target() const { return target_; }

 private:
  traffic::AppType target_;
  util::EmpiricalDistribution target_sizes_;
  util::Rng rng_;
};

}  // namespace reshape::core
