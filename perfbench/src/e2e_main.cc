// perfbench_e2e: set up the workload several times (setup_s is the
// median), build the 1-thread reference, then repeat the workload's run
// back to back for --seconds with nothing traced, checking every report
// against the reference. Prints the context line and the result line.
// Set-ups and repetitions are timed on unstolen time (host.h).
//
//   perfbench_e2e --workload paper-grid --seed 1 --seconds 10
#include <exception>
#include <iostream>

#include "host.h"
#include "workloads.h"

namespace {

using namespace perfbench;

// Set-ups per run; setup_s reports their median.
constexpr int kSetups = 3;

// A run never reports fewer timed repetitions than this, however long
// each one takes.
constexpr std::size_t kMinRepetitions = 3;

int run(const Args& args) {
  const std::size_t threads = nproc();
  const std::unique_ptr<Workload> workload =
      make_workload(args.workload, args.seed, threads);

  std::vector<double> setup_seconds;
  for (int i = 0; i < kSetups; ++i) {
    const UnstolenTimer timer;
    workload->set_up();
    setup_seconds.push_back(timer.seconds());
  }

  Tally tally;
  workload->build_reference(tally);
  const double sessions = static_cast<double>(workload->sessions_per_run());

  std::vector<double> rates;
  std::vector<double> cpu_ms;
  const UnstolenTimer phase;
  const double deadline = wall_s() + args.seconds;
  while (rates.size() < kMinRepetitions || wall_s() < deadline) {
    const UnstolenTimer timer;
    const double cpu0 = cpu_s();
    bool ran = true;
    try {
      workload->run_once();
    } catch (const std::exception& e) {
      std::cerr << "perfbench: run threw: " << e.what() << "\n";
      ran = false;
    }
    const double seconds = timer.seconds();
    const double cpu = cpu_s() - cpu0;
    tally.check("timed report equals the 1-thread reference",
                ran && workload->last_failures() == 0 &&
                    workload->last_report() == workload->reference());
    rates.push_back(sessions / seconds);
    cpu_ms.push_back(1000.0 * cpu / sessions);
  }

  double steal = 0.0;
  (void)phase.seconds(&steal);

  const Quartiles rate = quartiles(rates);
  const Quartiles cpu = quartiles(cpu_ms);
  const Quartiles setup = quartiles(setup_seconds);
  Context context;
  context.workload = args.workload;
  context.seed = args.seed;
  context.threads = threads;
  context.workers = workload->workers();
  context.repetitions = rates.size();
  context.setups = setup_seconds.size();
  context.sessions_per_run = workload->sessions_per_run();
  context.cells = workload->cells();
  context.reference_digest = digest(workload->reference());
  context.steal_share = steal;
  context.spreads = {{"sessions_per_s", rate},
                     {"cpu_ms_per_session", cpu},
                     {"setup_s", setup}};
  print_result(context, tally,
               {{"sessions_per_s", rate.median, "1/s"},
                {"cpu_ms_per_session", cpu.median, "ms"},
                {"setup_s", setup.median, "s"},
                {"peak_rss_mb", peak_rss_mb(), "MB"}});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench_e2e: " << e.what() << "\n";
    return 1;
  }
}
