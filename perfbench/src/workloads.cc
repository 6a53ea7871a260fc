#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "eval/defense_factory.h"
#include "runtime/scenario.h"
#include "util/rng.h"

namespace perfbench {

namespace rt = reshape::runtime;
namespace tuning = reshape::core::tuning;
using reshape::util::Duration;

namespace {

// Warm-up repetitions discarded after each set-up. On the 4-thread paper
// grid the first two warm runs still take as long as a 1-thread run while
// glibc raises its mmap threshold; the third is at steady state.
constexpr int kCampaignWarmups = 3;

// The attackers' training corpus is fixed; the seed varies the scored
// traffic. The trained models set the predict cost of every window: with
// the training seed drawn from the benchmark seed, paper-grid's CPU per
// session ranged 0.97-1.31 ms over five seeds, against 0.95-1.10 ms fixed.
constexpr std::uint64_t kTrainingSeed = 20110620;

/// The campaign master seed for benchmark seed `seed`: the first of a
/// keyed candidate sequence under which the workload slots of scenario
/// `sized` (keyed exactly as the engine keys them) total `target` packets
/// within +-`band`, none above `slot_cap`.
///
/// dense_wlan draws each station's app and rate, so its volume is
/// heavy-tailed: a 4-shard slot set ranges over 0.5M-1.4M packets between
/// deciles 1 and 9, and cost follows the total. Peak memory follows the
/// largest slot instead, since every pool thread's allocator arena ends up
/// holding the largest cell it scored; capping the sized slots below the
/// fixed paper-single-app slot makes that slot the largest on every seed.
/// The seed still changes every sampled session.
std::uint64_t sized_seed(std::uint64_t seed, std::uint64_t key,
                         const std::vector<rt::Scenario>& scenarios,
                         std::size_t shards, std::size_t sized, double target,
                         double band, double slot_cap) {
  constexpr int kMaxCandidates = 2000;
  const rt::CellGrid grid{1, scenarios.size(), shards};
  for (int k = 0; k < kMaxCandidates; ++k) {
    const std::uint64_t candidate = reshape::util::splitmix64(
        reshape::util::splitmix64(seed ^ key) + static_cast<std::uint64_t>(k));
    // Stop generating as soon as the candidate cannot land in the band.
    double total = 0.0;
    bool possible = true;
    for (std::size_t shard = 0; shard < shards && possible; ++shard) {
      reshape::util::Rng rng =
          rt::cell_streams(candidate, grid, sized * shards + shard).workload;
      const auto slot =
          static_cast<double>(packets_of(scenarios[sized].generate(rng)));
      total += slot;
      const auto left = static_cast<double>(shards - shard - 1);
      possible = slot <= slot_cap && total <= (1.0 + band) * target &&
                 total + left * slot_cap >= (1.0 - band) * target;
    }
    if (possible && std::abs(total - target) <= band * target) {
      return candidate;
    }
  }
  throw std::runtime_error{"no input of the stated size for this seed"};
}

rt::CampaignSpec paper_grid_spec(std::uint64_t seed) {
  rt::CampaignSpec spec;
  spec.training.seed = kTrainingSeed;
  spec.training.window = Duration::seconds(5.0);
  spec.training.train_sessions_per_app = 4;
  spec.training.train_session_duration = Duration::seconds(45.0);
  spec.training.test_sessions_per_app = 2;
  spec.training.test_session_duration = Duration::seconds(45.0);
  using reshape::core::SchedulerKind;
  namespace ev = reshape::eval;
  spec.defenses.push_back({"Original", ev::no_defense_factory()});
  spec.defenses.push_back({"FH", ev::frequency_hopping_factory(1)});
  spec.defenses.push_back(
      {"RA", ev::reshaping_factory(SchedulerKind::kRandom, 3)});
  spec.defenses.push_back(
      {"RR", ev::reshaping_factory(SchedulerKind::kRoundRobin, 3)});
  spec.defenses.push_back(
      {"OR", ev::reshaping_factory(SchedulerKind::kOrthogonal, 3)});
  spec.defenses.push_back({"Padding", ev::padding_factory()});
  // The paper's calibrated per-app models without session jitter: every
  // slot of this scenario holds 316k packets +-1% whatever the seed.
  spec.scenarios.push_back(rt::paper_single_app(
      4, Duration::seconds(60.0), reshape::traffic::SessionJitter::none()));
  spec.scenarios.push_back(rt::dense_wlan(8, Duration::seconds(60.0)));
  spec.shards = 4;  // 48 cells: many more than threads
  spec.seed = sized_seed(seed, 0x9A9E26D1ULL, spec.scenarios, spec.shards,
                         /*sized=*/1, /*target=*/8.0e5, /*band=*/0.03,
                         /*slot_cap=*/3.0e5);
  return spec;
}

// Not sized: 10k stations each drawing one of two sparse apps keep the
// cell's volume within a fraction of a percent from seed to seed.
rt::CampaignSpec dense_spec(std::uint64_t seed) {
  rt::CampaignSpec spec;
  spec.seed = reshape::util::splitmix64(seed ^ 0xD3E5E10ULL);
  spec.training.seed = kTrainingSeed;
  spec.training.window = Duration::seconds(5.0);
  spec.training.train_sessions_per_app = 2;
  spec.training.train_session_duration = Duration::seconds(30.0);
  spec.training.test_sessions_per_app = 1;
  spec.training.test_session_duration = Duration::seconds(30.0);
  spec.defenses.push_back({"Original", reshape::eval::no_defense_factory()});
  spec.defenses.push_back(
      {"OR", reshape::eval::reshaping_factory(
                 reshape::core::SchedulerKind::kOrthogonal, 3)});
  spec.scenarios.push_back(rt::dense_wlan_10k());
  // 8 cells on 4 workers: ranges are claimed one cell at a time, so a
  // worker whose CPU is briefly taken sheds cells to the others instead of
  // setting the repetition's wall time alone.
  spec.shards = 4;
  return spec;
}

reshape::obs::TelemetryConfig audited() {
  reshape::obs::TelemetryConfig config;
  config.metrics = true;
  config.windowed = true;
  config.privacy = true;
  return config;
}

tuning::TunerSpec tuning_spec(std::uint64_t seed) {
  // bench_parameter_tuning's full (non-smoke) spec at the 10 s cadence,
  // on its own arena. The arena's four stations draw their apps and rates,
  // so its volume ranges over 12x from one arena seed to the next (80k to
  // 1.1M packets over two shards) with no seed-independent part to size
  // against; the seed instead draws the adversary's bootstrap corpus and
  // the defender's size profile, which the candidate space is built from.
  tuning::TunerSpec spec;
  spec.seed = 0x7C7E5;
  spec.bootstrap.seed = reshape::util::splitmix64(seed ^ 0x7124A3ULL);
  spec.bootstrap.train_sessions_per_app = 6;
  spec.bootstrap.train_session_duration = Duration::seconds(60.0);
  spec.attacker.cadence = Duration::seconds(10.0);
  spec.scenario = rt::tuned_vs_table5(4, Duration::seconds(90.0));
  spec.shards = 2;
  spec.objective.adaptive_cross_percent = 40.0;
  spec.objective.budgets.max_deadline_miss_rate = 0.25;
  spec.objective.budgets.max_overhead_percent = 60.0;
  spec.objective.budgets.max_frame_drop_rate = 0.05;
  return spec;
}

std::size_t session_count(const rt::CampaignReport& report) {
  std::size_t sessions = 0;
  for (const rt::CellResult& cell : report.cells) {
    sessions += cell.session_count;
  }
  return sessions;
}

}  // namespace

std::uint64_t packets_of(const std::vector<reshape::traffic::Trace>& traces) {
  std::uint64_t packets = 0;
  for (const reshape::traffic::Trace& trace : traces) {
    packets += trace.size();
  }
  return packets;
}

// ------------------------------------------------------------- campaign

CampaignWorkload::CampaignWorkload(std::string_view name,
                                   rt::CampaignSpec spec,
                                   reshape::obs::TelemetryConfig telemetry,
                                   std::size_t threads, std::size_t workers)
    : Workload{threads},
      name_{name},
      spec_{std::move(spec)},
      telemetry_{telemetry} {
  shard_.workers = workers;
  shard_.threads_per_worker =
      workers == 0 ? 1 : std::max<std::size_t>(1, threads / workers);
}

std::size_t CampaignWorkload::cells() const {
  return spec_.defenses.size() * spec_.scenarios.size() * spec_.shards;
}

void CampaignWorkload::set_up() {
  engine_.reset();
  engine_ = std::make_unique<rt::CampaignEngine>(spec_);
  engine_->train();
  engine_->set_telemetry(telemetry_);
  (void)engine_->run_range(0, 0, 1);  // builds the privacy probe when on
  engine_->warm_workloads();
  for (int i = 0; i < kCampaignWarmups; ++i) {
    run_once();
  }
}

void CampaignWorkload::build_reference(Tally& tally) {
  std::string untelemetered;
  if (telemetry_.any()) {
    engine_->set_telemetry(reshape::obs::TelemetryConfig{});
    untelemetered = engine_->run(threads_).to_json();
    engine_->set_telemetry(telemetry_);
  }
  const rt::CampaignReport report = engine_->run(1);
  reference_ = report.to_json();
  sessions_ = session_count(report);
  if (telemetry_.any()) {
    // Telemetry is observation-only: the report must not move by a byte.
    tally.check("report identical with telemetry on and off",
                untelemetered == reference_);
  }
  if (name_ == kPaperGrid) {
    // Paper claim (Table II): OR leaves the attacker >= 25 points below
    // its accuracy on undefended single-app traffic.
    const double original =
        report.aggregate("Original", "paper-single-app").evaluation.mean_accuracy;
    const double orthogonal =
        report.aggregate("OR", "paper-single-app").evaluation.mean_accuracy;
    tally.check("OR >= 25 points below Original on paper-single-app",
                original - orthogonal >= 25.0);
  }
}

void CampaignWorkload::run_once() {
  failures_.clear();
  last_ = sharded() ? rt::run_sharded(*engine_, shard_, &failures_)
                    : engine_->run(threads_);
}

std::string CampaignWorkload::last_report() const { return last_.to_json(); }

// --------------------------------------------------------------- tuning

TuningWorkload::TuningWorkload(tuning::TunerSpec spec, std::size_t threads)
    : Workload{threads}, spec_{std::move(spec)} {}

std::size_t TuningWorkload::cells() const {
  return tuner_ ? tuner_->cell_count() : 0;
}

void TuningWorkload::set_up() {
  tuner_.reset();
  tuner_ = std::make_unique<tuning::ParameterTuner>(spec_);
  tuner_->train();
  // A full sweep takes seconds, so the discarded warm-up is one pass over
  // two cells per thread: enough for the allocator to settle.
  const std::size_t warm = std::min(tuner_->cell_count(), 2 * threads_);
  (void)tuner_->run_range(0, warm, threads_);
}

void TuningWorkload::build_reference(Tally&) {
  std::vector<tuning::TuningRangeOutcome> ranges;
  ranges.push_back(tuner_->run_range(0, tuner_->cell_count(), 1));
  sessions_ = 0;
  for (const tuning::CandidateShardOutcome& cell : ranges.front().cells) {
    sessions_ += cell.sessions;
  }
  reference_ = tuner_->fold(std::move(ranges)).to_json();
}

void TuningWorkload::run_once() { last_ = tuner_->run(threads_); }

std::string TuningWorkload::last_report() const { return last_.to_json(); }

// ------------------------------------------------------------- registry

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed,
                                        std::size_t threads) {
  if (name == kPaperGrid) {
    return std::make_unique<CampaignWorkload>(
        name, paper_grid_spec(seed), reshape::obs::TelemetryConfig{}, threads,
        0);
  }
  if (name == kDense10k) {
    rt::CampaignSpec spec = dense_spec(seed);
    const std::size_t cells =
        spec.defenses.size() * spec.scenarios.size() * spec.shards;
    // workers x threads_per_worker = nproc, one worker per cell at most.
    const std::size_t workers = std::min(threads, cells);
    return std::make_unique<CampaignWorkload>(name, std::move(spec), audited(),
                                              threads, workers);
  }
  if (name == kTuningSweep) {
    return std::make_unique<TuningWorkload>(tuning_spec(seed), threads);
  }
  throw std::invalid_argument{"unknown workload '" + std::string{name} +
                              "' (paper-grid, dense-10k-audited, "
                              "tuning-sweep)"};
}

}  // namespace perfbench
