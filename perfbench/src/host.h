// Host-side measurement helpers shared by both benchmark programs: clocks
// and resource counters read from outside the library, order statistics,
// argument parsing and the result line.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic wall clock, seconds.
[[nodiscard]] double wall_s();

/// CPU consumed by every thread of this process plus every child it has
/// reaped (CLOCK_PROCESS_CPUTIME_ID + RUSAGE_CHILDREN), seconds.
[[nodiscard]] double cpu_s();

/// Peak resident set of this process or of its largest reaped child,
/// whichever is larger, in MiB (ru_maxrss of RUSAGE_SELF/RUSAGE_CHILDREN).
[[nodiscard]] double peak_rss_mb();

/// The guest's CPU time accounting, summed over its CPUs, in clock ticks
/// (first line of /proc/stat): time spent running anything, and time the
/// hypervisor ran other guests while this one had work ("steal").
struct CpuTicks {
  std::uint64_t busy = 0;
  std::uint64_t steal = 0;
};

/// A wall-clock interval counted on the CPU time the host actually gave:
/// wall seconds x (1 - steal share). On a shared host a neighbour's load
/// can take a third of every CPU for minutes, which no repetition count
/// averages away; on an unshared host this is plain wall time.
class UnstolenTimer {
 public:
  UnstolenTimer();

  /// Unstolen seconds since construction; `steal` (optional) receives the
  /// steal share of the interval: steal / (busy + steal), 0 where
  /// /proc/stat is unreadable.
  [[nodiscard]] double seconds(double* steal = nullptr) const;

 private:
  double wall_;
  CpuTicks ticks_;
};

/// The CPUs this process may run on — what `nproc` prints.
[[nodiscard]] std::size_t nproc();

/// Median and quartiles, computed as Python's
/// statistics.quantiles(values, n=4) does (the "exclusive" method).
struct Quartiles {
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
};
[[nodiscard]] Quartiles quartiles(std::vector<double> values);

/// Passed and failed operations; every thrown run or failed check is one
/// failure. Failures are reported on stderr as they happen.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(std::string_view what, bool pass);
};

/// Command line shared by both programs:
///   --workload <name> --seed <n> --seconds <s>
struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
};
[[nodiscard]] Args parse_args(int argc, char** argv);

/// One named measurement of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Where and how the numbers were taken: printed as a JSON line next to
/// the result so every number carries its host, build and seed.
struct Context {
  std::string workload;
  std::uint64_t seed = 0;
  std::size_t threads = 0;
  std::size_t workers = 0;
  std::size_t repetitions = 0;
  std::size_t setups = 0;
  std::size_t sessions_per_run = 0;
  std::size_t cells = 0;
  std::string reference_digest;
  /// Share of all CPU time the hypervisor stole during the timed phase: a
  /// shared host's interference, which slows every wall-clock metric.
  double steal_share = 0.0;
  std::vector<std::pair<std::string, Quartiles>> spreads;
};

/// Prints the context line, then the result line (last line of stdout):
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
void print_result(const Context& context, const Tally& tally,
                  const std::vector<Metric>& metrics);

/// FNV-1a of a byte string, as 16 hex digits.
[[nodiscard]] std::string digest(std::string_view bytes);

}  // namespace perfbench
