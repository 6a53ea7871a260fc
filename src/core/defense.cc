#include "core/defense.h"

#include <utility>

#include "util/check.h"

namespace reshape::core {

double byte_overhead_percent(std::uint64_t added_bytes,
                             std::uint64_t original_bytes) {
  if (original_bytes == 0) {
    return 0.0;
  }
  return 100.0 * static_cast<double>(added_bytes) /
         static_cast<double>(original_bytes);
}

double DefenseResult::overhead_percent() const {
  return byte_overhead_percent(added_bytes, original_bytes);
}

std::size_t DefenseResult::total_packets() const {
  std::size_t acc = 0;
  for (const traffic::Trace& s : streams) {
    acc += s.size();
  }
  return acc;
}

DefenseResult NoDefense::apply(const traffic::Trace& trace) {
  DefenseResult out;
  out.original_bytes = trace.total_bytes();
  out.streams.push_back(trace);
  return out;
}

PaddingShaper::PaddingShaper(std::uint32_t pad_to) : pad_to_{pad_to} {
  util::require(pad_to > 0, "PaddingShaper: pad target must be > 0");
}

ReshapingDefense::ReshapingDefense(
    std::unique_ptr<Scheduler> scheduler,
    std::vector<std::unique_ptr<PacketShaper>> shapers)
    : scheduler_{std::move(scheduler)},
      shapers_{std::move(shapers)},
      stream_count_{scheduler_ == nullptr ? 1
                                          : scheduler_->interface_count()} {
  util::require(stream_count_ >= 1,
                "ReshapingDefense: scheduler must expose >= 1 interface");
  util::require(shapers_.size() <= stream_count_,
                "ReshapingDefense: more shapers than interfaces");
}

ReshapingDefense ReshapingDefense::shaping(
    std::unique_ptr<PacketShaper> shaper) {
  std::vector<std::unique_ptr<PacketShaper>> shapers;
  shapers.push_back(std::move(shaper));
  return ReshapingDefense{nullptr, std::move(shapers)};
}

void ReshapingDefense::reset() {
  if (scheduler_ != nullptr) {
    scheduler_->reset();
  }
}

DefenseResult ReshapingDefense::apply(const traffic::Trace& trace) {
  DefenseResult out;
  out.original_bytes = trace.total_bytes();
  out.streams.assign(stream_count_, traffic::Trace{trace.app()});
  if (stream_count_ == 1) {
    out.streams.front().reserve(trace.size());
  }
  reset();
  traffic::Trace* streams = out.streams.data();
  for (traffic::PacketRecord r : trace.records()) {
    const std::size_t i = dispatch(r);
    streams[i].push_back(r);
  }
  if (!shapers_.empty()) {
    // Shapers never shrink a packet, so the bytes they added are the
    // streams' total minus the original; one pass after the loop keeps
    // the per-packet path to dispatch and append.
    for (const traffic::Trace& stream : out.streams) {
      out.added_bytes += stream.total_bytes();
    }
    out.added_bytes -= out.original_bytes;
  }
  return out;
}

}  // namespace reshape::core
