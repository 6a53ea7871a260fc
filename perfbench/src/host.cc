#include "host.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

double timeval_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

std::string json_number(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", v);
  return buffer;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

// Zeros where /proc/stat is unreadable.
CpuTicks cpu_ticks() {
  std::ifstream stat{"/proc/stat"};
  std::string label;
  stat >> label;
  if (label != "cpu") {
    return CpuTicks{};
  }
  // user nice system idle iowait irq softirq steal
  std::uint64_t fields[8] = {};
  for (std::uint64_t& field : fields) {
    if (!(stat >> field)) {
      return CpuTicks{};
    }
  }
  return CpuTicks{fields[0] + fields[1] + fields[2] + fields[5] + fields[6],
                  fields[7]};
}

double steal_share(const CpuTicks& from, const CpuTicks& to) {
  if (to.busy < from.busy || to.steal < from.steal) {
    return 0.0;  // a reading failed
  }
  const std::uint64_t steal = to.steal - from.steal;
  const std::uint64_t wanted = to.busy - from.busy + steal;
  return wanted == 0 ? 0.0
                     : static_cast<double>(steal) / static_cast<double>(wanted);
}

}  // namespace

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9 + timeval_s(children.ru_utime) +
         timeval_s(children.ru_stime);
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

UnstolenTimer::UnstolenTimer() : wall_{wall_s()}, ticks_{cpu_ticks()} {}

double UnstolenTimer::seconds(double* steal) const {
  const double wall = wall_s() - wall_;
  const double share = steal_share(ticks_, cpu_ticks());
  if (steal != nullptr) {
    *steal = share;
  }
  return wall * (1.0 - share);
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0 && CPU_COUNT(&set) > 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

Quartiles quartiles(std::vector<double> values) {
  if (values.empty()) {
    throw std::invalid_argument{"quartiles: no samples"};
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  Quartiles q;
  q.median = n % 2 == 1 ? values[n / 2]
                        : 0.5 * (values[n / 2 - 1] + values[n / 2]);
  if (n == 1) {
    q.p25 = q.p75 = values[0];
    return q;
  }
  const auto cut = [&](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  q.p25 = cut(1);
  q.p75 = cut(3);
  return q;
}

void Tally::check(std::string_view what, bool pass) {
  ++attempted;
  if (!pass) {
    ++failed;
    std::cerr << "perfbench: FAILED check: " << what << "\n";
  }
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument{"missing value for " + std::string{flag}};
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else {
      throw std::invalid_argument{"unknown flag " + std::string{flag}};
    }
  }
  if (args.workload.empty() || !(args.seconds > 0.0)) {
    throw std::invalid_argument{
        "usage: --workload <name> --seed <n> --seconds <s>"};
  }
  return args;
}

void print_result(const Context& context, const Tally& tally,
                  const std::vector<Metric>& metrics) {
  std::ostringstream ctx;
  ctx << "{\"context\":{\"workload\":" << json_string(context.workload)
      << ",\"seed\":" << context.seed << ",\"nproc\":" << nproc()
      << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
      << ",\"threads\":" << context.threads
      << ",\"workers\":" << context.workers
      << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
      << ",\"compiler\":" << json_string(__VERSION__)
      << ",\"repetitions\":" << context.repetitions
      << ",\"setups\":" << context.setups
      << ",\"sessions_per_run\":" << context.sessions_per_run
      << ",\"cells\":" << context.cells
      << ",\"reference_digest\":" << json_string(context.reference_digest)
      << ",\"steal_share\":" << json_number(context.steal_share)
      << ",\"quartiles\":{";
  for (std::size_t i = 0; i < context.spreads.size(); ++i) {
    const auto& [name, q] = context.spreads[i];
    ctx << (i == 0 ? "" : ",") << json_string(name) << ":["
        << json_number(q.p25) << "," << json_number(q.median) << ","
        << json_number(q.p75) << "]";
  }
  ctx << "}}}";
  std::cout << ctx.str() << "\n";

  std::ostringstream out;
  out << "{\"correct\":" << (tally.failed == 0 ? "true" : "false")
      << ",\"attempted\":" << tally.attempted << ",\"failed\":" << tally.failed
      << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ",") << json_string(metrics[i].name)
        << ":{\"value\":" << json_number(metrics[i].value)
        << ",\"unit\":" << json_string(metrics[i].unit) << "}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

std::string digest(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(h));
  return buffer;
}

}  // namespace perfbench
