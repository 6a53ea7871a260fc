// One fully-materialized reshaping parameter point.
//
// The paper picks (L, I, phi) once from Table V's rules; the tuning
// subsystem instead sweeps a space of such points and carries the winner
// live. TunedConfiguration is the value that flows through all of it: the
// candidate the tuner scores, the preset recommend_parameters() returns,
// and the message body net::config_protocol pushes from the AP to a
// client — which rebuilds its StreamingReshaper from exactly this struct.
// It is therefore deliberately flat and serializable: bounds, an
// orthogonal range→interface assignment, and an optional per-interface
// pad-to-range-bound composition (the only per-packet shaper that needs
// no local profile data, so it survives the wire).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/defense.h"
#include "core/online/streaming_reshaper.h"
#include "core/scheduler.h"
#include "core/target_distribution.h"

namespace reshape::core::tuning {

/// A candidate/selected (L, I, phi, composition) point.
struct TunedConfiguration {
  /// Display label for reports; not serialized, excluded from equality.
  std::string name;

  /// I — the virtual-interface count.
  std::size_t interfaces = 0;

  /// The L strictly-increasing range upper bounds (SizeRanges layout).
  std::vector<std::uint32_t> range_bounds;

  /// phi as an orthogonal assignment: range j is owned by interface
  /// assignment[j]. Every interface must own at least one range.
  std::vector<std::size_t> assignment;

  /// Per-interface composition: interface i pads every dispatched packet
  /// up to pad_to[i] bytes (0 = pass through unchanged). Size must equal
  /// `interfaces`.
  std::vector<std::uint32_t> pad_to;

  /// The canonical I == L identity point over `ranges`.
  [[nodiscard]] static TunedConfiguration identity(std::string name,
                                                   SizeRanges ranges);

  /// Structural validity (the decode-side check): non-empty strictly
  /// increasing bounds, assignment covering every interface, pad vector
  /// sized to the interfaces. Never throws.
  [[nodiscard]] bool structurally_valid() const;

  /// Throws std::invalid_argument when !structurally_valid().
  void validate() const;

  [[nodiscard]] SizeRanges ranges() const;
  [[nodiscard]] TargetDistribution target() const;
  [[nodiscard]] bool padded() const;  // any pad_to entry non-zero

  /// The OR scheduler this point configures (deterministic — no seed).
  [[nodiscard]] std::unique_ptr<Scheduler> make_scheduler() const;

  /// The composition this point configures: OR dispatch on original
  /// sizes, then each padded interface's PaddingShaper. Both the live
  /// pipeline (which endpoints rebuild on a config push) and the batch
  /// defense run it.
  [[nodiscard]] ReshapingDefense make_composition() const;

  /// The live pipeline over make_composition().
  [[nodiscard]] std::unique_ptr<online::StreamingReshaper> make_reshaper(
      online::StreamingConfig config) const;

  /// The batch defense over make_composition().
  [[nodiscard]] std::unique_ptr<Defense> make_defense() const;

  /// "I=3 L=3 bounds=232,1540,1576" (+" pad" when padded) — for tables.
  [[nodiscard]] std::string summary() const;

  /// Structural equality; `name` is a label and does not participate.
  friend bool operator==(const TunedConfiguration& a,
                         const TunedConfiguration& b) {
    return a.interfaces == b.interfaces && a.range_bounds == b.range_bounds &&
           a.assignment == b.assignment && a.pad_to == b.pad_to;
  }
};

}  // namespace reshape::core::tuning
