#include "sim/channel/arbitrated_cell.h"

#include <utility>

#include "util/check.h"

namespace reshape::sim::channel {

ArbitratedCell::ArbitratedCell(DcfParams params, util::Rng rng)
    : medium_{PathLossModel{}, util::Rng{0}},  // no listeners: never draws
      arbiter_{simulator_, medium_, kChannel, params, rng} {
  arbiter_.set_on_air_hook([this](const mac::Frame& frame,
                                  util::Duration access_delay,
                                  const RadioListener*) {
    on_air_(frame.trace_id - 1, frame, access_delay);
  });
}

std::size_t ArbitratedCell::release(std::size_t station, util::TimePoint when,
                                    std::uint32_t size_bytes) {
  util::require(!on_air_, "ArbitratedCell::release: already run");
  if (station >= stations_.size()) {
    stations_.resize(station + 1);
  }
  chains_.add(when, station, sizes_.size());
  sizes_.push_back(size_bytes);
  return sizes_.size() - 1;
}

void ArbitratedCell::run(OnAir on_air) {
  util::require(static_cast<bool>(on_air), "ArbitratedCell::run: no hook");
  on_air_ = std::move(on_air);
  chains_.start();
  simulator_.run();
}

void ArbitratedCell::on_event(std::uint64_t station_index,
                              std::uint64_t release) {
  Station& station = stations_[station_index];
  if (station.arbiter_index == kUnregistered) {
    station.arbiter_index = arbiter_.station_of(&station);
  }
  mac::Frame frame;
  frame.size_bytes = sizes_[release];
  frame.channel = kChannel;
  frame.trace_id = release + 1;
  arbiter_.enqueue(station.arbiter_index, std::move(frame), Position{});
}

}  // namespace reshape::sim::channel
