#include "core/tuning/tuned_configuration.h"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <utility>

#include "util/check.h"

namespace reshape::core::tuning {

TunedConfiguration TunedConfiguration::identity(std::string name,
                                                SizeRanges ranges) {
  TunedConfiguration config;
  config.name = std::move(name);
  config.interfaces = ranges.count();
  config.range_bounds.reserve(ranges.count());
  for (std::size_t j = 0; j < ranges.count(); ++j) {
    config.range_bounds.push_back(ranges.upper_bound(j));
  }
  config.assignment.resize(ranges.count());
  std::iota(config.assignment.begin(), config.assignment.end(),
            std::size_t{0});
  config.pad_to.assign(config.interfaces, 0);
  return config;
}

bool TunedConfiguration::structurally_valid() const {
  if (interfaces == 0 || range_bounds.empty() ||
      assignment.size() != range_bounds.size() ||
      pad_to.size() != interfaces) {
    return false;
  }
  for (std::size_t j = 0; j < range_bounds.size(); ++j) {
    if (range_bounds[j] == 0 ||
        (j > 0 && range_bounds[j] <= range_bounds[j - 1])) {
      return false;
    }
  }
  std::vector<bool> owned(interfaces, false);
  for (const std::size_t owner : assignment) {
    if (owner >= interfaces) {
      return false;
    }
    owned[owner] = true;
  }
  return std::all_of(owned.begin(), owned.end(), [](bool o) { return o; });
}

void TunedConfiguration::validate() const {
  util::require(structurally_valid(),
                "TunedConfiguration: invalid (need strictly increasing "
                "bounds, an assignment covering every interface, and one "
                "pad entry per interface)");
}

SizeRanges TunedConfiguration::ranges() const {
  validate();
  return SizeRanges{range_bounds};
}

TargetDistribution TunedConfiguration::target() const {
  validate();
  return TargetDistribution::from_assignment(assignment, interfaces);
}

bool TunedConfiguration::padded() const {
  return std::any_of(pad_to.begin(), pad_to.end(),
                     [](std::uint32_t p) { return p > 0; });
}

std::unique_ptr<Scheduler> TunedConfiguration::make_scheduler() const {
  return std::make_unique<OrthogonalScheduler>(ranges(), target());
}

ReshapingDefense TunedConfiguration::make_composition() const {
  validate();
  std::vector<std::unique_ptr<PacketShaper>> shapers;
  if (padded()) {
    shapers.reserve(interfaces);
    for (const std::uint32_t pad : pad_to) {
      shapers.push_back(pad == 0 ? nullptr
                                 : std::make_unique<PaddingShaper>(pad));
    }
  }
  return ReshapingDefense{make_scheduler(), std::move(shapers)};
}

std::unique_ptr<online::StreamingReshaper> TunedConfiguration::make_reshaper(
    online::StreamingConfig config) const {
  return std::make_unique<online::StreamingReshaper>(make_composition(),
                                                     config);
}

std::unique_ptr<Defense> TunedConfiguration::make_defense() const {
  return std::make_unique<ReshapingDefense>(make_composition());
}

std::string TunedConfiguration::summary() const {
  std::ostringstream os;
  os << "I=" << interfaces << " L=" << range_bounds.size() << " bounds=";
  for (std::size_t j = 0; j < range_bounds.size(); ++j) {
    os << (j == 0 ? "" : ",") << range_bounds[j];
  }
  if (padded()) {
    os << " pad";
  }
  return os.str();
}

}  // namespace reshape::core::tuning
