#include "sim/channel/arbitrated_cell.h"

#include <algorithm>
#include <functional>

#include "util/check.h"

namespace reshape::sim::channel {

namespace {
// Min-heap order on (when_us, release index) for std::push_heap/pop_heap.
using Head = std::pair<std::int64_t, std::size_t>;
constexpr std::greater<Head> kLater{};
}  // namespace

ArbitratedCell::ArbitratedCell(DcfParams params, util::Rng rng)
    : core_{params, rng} {}

std::size_t ArbitratedCell::release(std::size_t station, util::TimePoint when,
                                    std::uint32_t size_bytes) {
  util::require(!ran_, "ArbitratedCell::release: already run");
  util::require(station < kUnregistered,
                "ArbitratedCell::release: station index out of range");
  if (station >= core_station_.size()) {
    core_station_.resize(station + 1, kUnregistered);
  }
  releases_.push_back(Release{when.count_us(),
                              static_cast<std::uint32_t>(station),
                              size_bytes});
  return releases_.size() - 1;
}

void ArbitratedCell::start() {
  util::require(!ran_, "ArbitratedCell::run: already run");
  ran_ = true;
  core_.reserve_stations(core_station_.size());
  for (std::size_t i = 0; i < releases_.size(); ++i) {
    if (i == 0 || releases_[i].when_us < releases_[i - 1].when_us) {
      heads_.emplace_back(releases_[i].when_us, i);
    }
  }
  std::make_heap(heads_.begin(), heads_.end(), kLater);
}

void ArbitratedCell::fire_next_release() {
  std::pop_heap(heads_.begin(), heads_.end(), kLater);
  const std::size_t index = heads_.back().second;
  const Release& release = releases_[index];
  if (index + 1 < releases_.size() &&
      releases_[index + 1].when_us >= release.when_us) {
    // The chain continues: its next release takes the freed slot.
    heads_.back() = Head{releases_[index + 1].when_us, index + 1};
    std::push_heap(heads_.begin(), heads_.end(), kLater);
  } else {
    heads_.pop_back();
  }
  std::uint32_t& station = core_station_[release.station];
  if (station == kUnregistered) {
    station = static_cast<std::uint32_t>(core_.add_station());
  }
  core_.enqueue(station, index, release.size_bytes,
                util::TimePoint::from_microseconds(release.when_us));
}

}  // namespace reshape::sim::channel
