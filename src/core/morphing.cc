#include "core/morphing.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace reshape::core {

std::optional<traffic::AppType> paper_morph_target(traffic::AppType source) {
  using traffic::AppType;
  switch (source) {
    case AppType::kChatting:
      return AppType::kGaming;
    case AppType::kGaming:
      return AppType::kBrowsing;
    case AppType::kBrowsing:
      return AppType::kBitTorrent;
    case AppType::kBitTorrent:
      return AppType::kVideo;
    case AppType::kVideo:
      return AppType::kDownloading;
    case AppType::kDownloading:
    case AppType::kUploading:
      return std::nullopt;
  }
  util::internal_check(false, "paper_morph_target: invalid app");
  return std::nullopt;
}

MorphingDefense::MorphingDefense(traffic::AppType target,
                                 util::EmpiricalDistribution target_sizes,
                                 util::Rng rng)
    : target_{target}, target_sizes_{std::move(target_sizes)}, rng_{rng} {}

std::uint32_t MorphingDefense::shape(std::uint32_t size) {
  const double drawn =
      target_sizes_.sample_at_least(rng_, static_cast<double>(size));
  // sample_at_least falls back to the target's maximum when nothing in the
  // target distribution is >= size; never shrink (padding-only morphing).
  const auto t = static_cast<std::uint32_t>(std::lround(drawn));
  return std::max(t, size);
}

}  // namespace reshape::core
