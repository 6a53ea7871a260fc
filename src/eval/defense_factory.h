// Ready-made DefenseFactory builders for every mechanism the paper's
// tables compare. Each factory closes over its configuration and yields a
// fresh, independently-seeded defense per (app, session).
#pragma once

#include <cstddef>

#include "core/scheduler.h"
#include "core/target_distribution.h"
#include "eval/experiment.h"

namespace reshape::eval {

/// "Original": no defense.
[[nodiscard]] DefenseFactory no_defense_factory();

/// RA / RR / OR-default / OR-modulo via the scheduler factory.
[[nodiscard]] DefenseFactory reshaping_factory(core::SchedulerKind kind,
                                               std::size_t interfaces);

/// OR with an explicit range partition and orthogonal target (Table V and
/// the Fig. 4 variants).
[[nodiscard]] DefenseFactory orthogonal_factory(core::SizeRanges ranges,
                                                core::TargetDistribution phi);

/// FH: channels 1/6/11, 500 ms dwell, sniffer pinned to `monitored`.
[[nodiscard]] DefenseFactory frequency_hopping_factory(int monitored_channel);

/// Pad-to-maximum packet padding (a single-stream PaddingShaper).
[[nodiscard]] DefenseFactory padding_factory();

/// Traffic morphing with the paper's source→target pairing; target size
/// profiles come from the harness (the defender's own measurements).
/// Applications the paper leaves unmorphed pass through unchanged.
[[nodiscard]] DefenseFactory morphing_factory(ExperimentHarness& harness);

/// §V-C combined defense: OR, then morph the small-packet interface
/// toward gaming and the mid-range interface toward browsing. Each OR
/// interface impersonates some application; morphing those streams
/// breaks the impersonation the classifier latched onto (the paper
/// reports < 28 % mean accuracy) at a fraction of standalone morphing's
/// overhead, because only some interfaces are morphed.
[[nodiscard]] DefenseFactory combined_factory(ExperimentHarness& harness);

}  // namespace reshape::eval
