#include "eval/defense_factory.h"

#include <vector>

#include "core/frequency_hopping.h"
#include "core/morphing.h"

namespace reshape::eval {

DefenseFactory no_defense_factory() {
  return [](traffic::AppType, std::uint64_t) {
    return std::make_unique<core::NoDefense>();
  };
}

DefenseFactory reshaping_factory(core::SchedulerKind kind,
                                 std::size_t interfaces) {
  return [kind, interfaces](traffic::AppType, std::uint64_t seed) {
    return std::make_unique<core::ReshapingDefense>(
        core::make_scheduler(kind, interfaces, seed));
  };
}

DefenseFactory orthogonal_factory(core::SizeRanges ranges,
                                  core::TargetDistribution phi) {
  return [ranges, phi](traffic::AppType, std::uint64_t) {
    return std::make_unique<core::ReshapingDefense>(
        std::make_unique<core::OrthogonalScheduler>(ranges, phi));
  };
}

DefenseFactory frequency_hopping_factory(int monitored_channel) {
  return [monitored_channel](traffic::AppType, std::uint64_t) {
    return std::make_unique<core::FrequencyHoppingDefense>(
        core::HoppingConfig{}, monitored_channel);
  };
}

DefenseFactory padding_factory() {
  return [](traffic::AppType, std::uint64_t) {
    return std::make_unique<core::ReshapingDefense>(
        core::ReshapingDefense::shaping(
            std::make_unique<core::PaddingShaper>()));
  };
}

DefenseFactory morphing_factory(ExperimentHarness& harness) {
  return [&harness](traffic::AppType app, std::uint64_t seed)
             -> std::unique_ptr<core::Defense> {
    const auto target = core::paper_morph_target(app);
    if (!target) {
      return std::make_unique<core::NoDefense>();
    }
    return std::make_unique<core::ReshapingDefense>(
        core::ReshapingDefense::shaping(std::make_unique<core::MorphingDefense>(
            *target, harness.size_profile(*target), util::Rng{seed})));
  };
}

DefenseFactory combined_factory(ExperimentHarness& harness) {
  return [&harness](traffic::AppType, std::uint64_t seed) {
    // OR first (paper defaults), then per-interface morphing:
    // interface 0 carries the small packets that impersonate chatting —
    // morph it toward gaming; interface 1 carries the mid-range — morph
    // it toward browsing. Interface 2 (full frames) stays: its packets
    // are already maximal, morphing cannot change them.
    auto scheduler = std::make_unique<core::OrthogonalScheduler>(
        core::OrthogonalScheduler::identity(core::SizeRanges::paper_default()));
    std::vector<std::unique_ptr<core::PacketShaper>> morphers;
    morphers.push_back(std::make_unique<core::MorphingDefense>(
        traffic::AppType::kGaming,
        harness.size_profile(traffic::AppType::kGaming),
        util::Rng{util::splitmix64(seed ^ 0xAAULL)}));
    morphers.push_back(std::make_unique<core::MorphingDefense>(
        traffic::AppType::kBrowsing,
        harness.size_profile(traffic::AppType::kBrowsing),
        util::Rng{util::splitmix64(seed ^ 0xBBULL)}));
    return std::make_unique<core::ReshapingDefense>(std::move(scheduler),
                                                    std::move(morphers));
  };
}

}  // namespace reshape::eval
