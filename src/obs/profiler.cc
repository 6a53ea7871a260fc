#include "obs/profiler.h"

#include <chrono>
#include <sstream>
#include <string_view>

#include <time.h>

namespace reshape::obs {

namespace {

constexpr std::array<std::string_view, kPhaseCount> kPhaseNames{
    "generation", "features", "streaming", "arbitration", "adaptive"};

/// Current wall-clock, in microseconds (monotonic).
std::int64_t wall_clock_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Calling thread's consumed CPU time, in microseconds; falls back to the
/// process clock where a per-thread clock is unavailable.
std::int64_t thread_cpu_us() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000 +
           ts.tv_nsec / 1'000;
  }
#endif
  return static_cast<std::int64_t>(clock()) * 1'000'000 / CLOCKS_PER_SEC;
}

}  // namespace

void PhaseLap::start() {
  wall_start_ = wall_clock_us();
  cpu_start_ = thread_cpu_us();
}

void PhaseLap::stop() {
  sample_->wall_us += wall_clock_us() - wall_start_;
  sample_->cpu_us += thread_cpu_us() - cpu_start_;
  ++sample_->calls;
}

void PhaseProfiler::add(std::size_t cell_id, const CellLaps& laps) {
  phases_["cells"].merge(laps.cell);
  phases_["cell/" + std::to_string(cell_id)].merge(laps.cell);
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    if (laps.phases[p].calls > 0) {
      phases_[std::string{kPhaseNames[p]}].merge(laps.phases[p]);
    }
  }
}

std::string PhaseProfiler::to_json() const {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [phase, sample] : phases_) {
    if (!first) {
      out << ",";
    }
    first = false;
    out << "\"" << phase << "\":{\"wall_us\":" << sample.wall_us
        << ",\"cpu_us\":" << sample.cpu_us << ",\"calls\":" << sample.calls
        << "}";
  }
  out << "}";
  return out.str();
}

}  // namespace reshape::obs
