#include "sim/release_chains.h"

#include "util/check.h"

namespace reshape::sim {

void ReleaseChains::add(util::TimePoint when, std::uint64_t a,
                        std::uint64_t b) {
  util::require(!started_, "ReleaseChains::add: already started");
  releases_.push_back(Release{when.count_us(), a, b});
}

void ReleaseChains::start() {
  util::require(!started_, "ReleaseChains::start: already started");
  started_ = true;
  first_sequence_ = simulator_.reserve_sequences(releases_.size());
  for (std::size_t i = 0; i < releases_.size(); ++i) {
    if (i == 0 || releases_[i].when_us < releases_[i - 1].when_us) {
      schedule(i);
    }
  }
}

void ReleaseChains::schedule(std::size_t index) {
  simulator_.schedule_event(
      util::TimePoint::from_microseconds(releases_[index].when_us),
      first_sequence_ + index, *this, index);
}

void ReleaseChains::on_event(std::uint64_t index, std::uint64_t) {
  const Release& release = releases_[index];
  if (index + 1 < releases_.size() &&
      releases_[index + 1].when_us >= release.when_us) {
    schedule(index + 1);  // the chain continues
  }
  target_.on_event(release.a, release.b);
}

}  // namespace reshape::sim
