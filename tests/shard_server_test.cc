// Shard-server determinism tests (runtime/shard_server.h): the report
// and telemetry a coordinator folds from worker processes must be
// byte-identical to the in-process run at every worker and thread count,
// and a dead or hostile worker must degrade throughput, never the result.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/scheduler.h"
#include "core/tuning/tuner.h"
#include "eval/defense_factory.h"
#include "obs/export.h"
#include "runtime/adaptive_campaign.h"
#include "runtime/campaign.h"
#include "runtime/scenario.h"
#include "runtime/shard_server.h"
#include "runtime/wire.h"

namespace {

using namespace reshape;

obs::TelemetryConfig deterministic_telemetry() {
  obs::TelemetryConfig config;
  config.metrics = true;
  config.windowed = true;
  config.privacy = true;
  return config;
}

runtime::CampaignSpec tiny_campaign() {
  runtime::CampaignSpec spec;
  spec.seed = 4242;
  spec.training.seed = 777;
  spec.training.train_sessions_per_app = 2;
  spec.training.train_session_duration = util::Duration::seconds(30.0);
  spec.training.test_sessions_per_app = 1;
  spec.training.test_session_duration = util::Duration::seconds(30.0);
  spec.defenses.push_back({"Original", eval::no_defense_factory()});
  spec.defenses.push_back(
      {"OR", eval::reshaping_factory(core::SchedulerKind::kOrthogonal, 3)});
  spec.scenarios.push_back(
      runtime::multi_app_station(1, util::Duration::seconds(30.0)));
  spec.shards = 2;
  return spec;
}

runtime::AdaptiveCampaignSpec tiny_adaptive() {
  runtime::AdaptiveCampaignSpec spec;
  spec.seed = 0xADA;
  spec.bootstrap.seed = 777;
  spec.bootstrap.train_sessions_per_app = 2;
  spec.bootstrap.train_session_duration = util::Duration::seconds(30.0);
  spec.attacker.cadence = util::Duration::seconds(10.0);
  spec.defenses.push_back({"Original", eval::no_defense_factory()});
  spec.defenses.push_back(
      {"OR", eval::reshaping_factory(core::SchedulerKind::kOrthogonal, 3)});
  spec.scenarios.push_back(
      runtime::multi_app_station(1, util::Duration::seconds(30.0)));
  spec.shards = 2;
  return spec;
}

core::tuning::TunerSpec tiny_tuning() {
  core::tuning::TunerSpec spec;
  spec.seed = 0x7C7E5;
  spec.bootstrap.seed = 20110620;
  spec.bootstrap.train_sessions_per_app = 2;
  spec.bootstrap.train_session_duration = util::Duration::seconds(30.0);
  spec.attacker.cadence = util::Duration::seconds(10.0);
  spec.scenario = runtime::tuned_vs_table5(2, util::Duration::seconds(30.0));
  spec.streaming.bitrate_mbps = 24.0;
  spec.arbitration_bitrate_mbps = 24.0;
  spec.shards = 2;
  spec.space.interleaved_fine_partitions = false;
  spec.space.padded_compositions = false;
  return spec;
}

// The workers × threads grid every engine must hold byte-identity over.
struct GridPoint {
  std::size_t workers;
  std::size_t threads;
};
constexpr GridPoint kGrid[] = {{1, 1}, {1, 2}, {2, 1}, {2, 2}, {4, 1}, {4, 2}};

TEST(ShardServerTest, CampaignByteIdenticalAcrossWorkersAndThreads) {
  runtime::CampaignEngine baseline{tiny_campaign()};
  baseline.set_telemetry(deterministic_telemetry());
  const std::string expect_report = baseline.run(1).to_json();
  const std::string expect_telemetry = baseline.telemetry_to_json();

  runtime::CampaignEngine sharded{tiny_campaign()};
  sharded.set_telemetry(deterministic_telemetry());
  for (const GridPoint& point : kGrid) {
    runtime::ShardConfig config;
    config.workers = point.workers;
    config.threads_per_worker = point.threads;
    std::vector<std::string> failures;
    const std::string report =
        runtime::run_sharded(sharded, config, &failures).to_json();
    EXPECT_TRUE(failures.empty())
        << point.workers << "x" << point.threads << ": " << failures.front();
    EXPECT_EQ(report, expect_report)
        << "report differs at workers=" << point.workers
        << " threads=" << point.threads;
    EXPECT_EQ(sharded.telemetry_to_json(), expect_telemetry)
        << "telemetry differs at workers=" << point.workers
        << " threads=" << point.threads;
  }
}

TEST(ShardServerTest, AdaptiveByteIdenticalAcrossWorkersAndThreads) {
  runtime::AdaptiveCampaignEngine baseline{tiny_adaptive()};
  baseline.set_telemetry(deterministic_telemetry());
  const std::string expect_report = baseline.run(1).to_json();
  const std::string expect_telemetry = baseline.telemetry_to_json();

  runtime::AdaptiveCampaignEngine sharded{tiny_adaptive()};
  sharded.set_telemetry(deterministic_telemetry());
  for (const GridPoint& point : kGrid) {
    runtime::ShardConfig config;
    config.workers = point.workers;
    config.threads_per_worker = point.threads;
    std::vector<std::string> failures;
    const std::string report =
        runtime::run_sharded(sharded, config, &failures).to_json();
    EXPECT_TRUE(failures.empty())
        << point.workers << "x" << point.threads << ": " << failures.front();
    EXPECT_EQ(report, expect_report)
        << "report differs at workers=" << point.workers
        << " threads=" << point.threads;
    EXPECT_EQ(sharded.telemetry_to_json(), expect_telemetry)
        << "telemetry differs at workers=" << point.workers
        << " threads=" << point.threads;
  }
}

TEST(ShardServerTest, TuningByteIdenticalAcrossWorkersAndThreads) {
  core::tuning::ParameterTuner baseline{tiny_tuning()};
  baseline.set_telemetry(deterministic_telemetry());
  const std::string expect_report = baseline.run(1).to_json();
  const std::string expect_telemetry = baseline.telemetry_to_json();

  core::tuning::ParameterTuner sharded{tiny_tuning()};
  sharded.set_telemetry(deterministic_telemetry());
  for (const GridPoint& point : kGrid) {
    runtime::ShardConfig config;
    config.workers = point.workers;
    config.threads_per_worker = point.threads;
    std::vector<std::string> failures;
    const std::string report =
        runtime::run_sharded(sharded, config, &failures).to_json();
    EXPECT_TRUE(failures.empty())
        << point.workers << "x" << point.threads << ": " << failures.front();
    EXPECT_EQ(report, expect_report)
        << "report differs at workers=" << point.workers
        << " threads=" << point.threads;
    EXPECT_EQ(sharded.telemetry_to_json(), expect_telemetry)
        << "telemetry differs at workers=" << point.workers
        << " threads=" << point.threads;
  }
}

TEST(ShardServerTest, ZeroWorkersRunsEverythingInProcess) {
  runtime::CampaignEngine baseline{tiny_campaign()};
  const std::string expect = baseline.run(1).to_json();

  runtime::CampaignEngine sharded{tiny_campaign()};
  runtime::ShardConfig config;
  config.workers = 0;  // degenerate: range-partitioned, folded, no children
  std::vector<std::string> failures;
  EXPECT_EQ(runtime::run_sharded(sharded, config, &failures).to_json(),
            expect);
  EXPECT_TRUE(failures.empty());
}

TEST(ShardServerTest, DeadWorkersDegradeThroughputNeverTheResult) {
  runtime::CampaignEngine baseline{tiny_campaign()};
  baseline.set_telemetry(deterministic_telemetry());
  const std::string expect_report = baseline.run(1).to_json();
  const std::string expect_telemetry = baseline.telemetry_to_json();

  // /bin/false execs, ignores the protocol socket, and exits 1 — every
  // worker dies before replying. The coordinator must record a failure
  // per worker and re-run all ranges in-process, landing on the exact
  // same bytes.
  runtime::CampaignEngine sharded{tiny_campaign()};
  sharded.set_telemetry(deterministic_telemetry());
  runtime::ShardConfig config;
  config.workers = 2;
  config.worker_command = {"/bin/false"};
  std::vector<std::string> failures;
  const std::string report =
      runtime::run_sharded(sharded, config, &failures).to_json();
  EXPECT_FALSE(failures.empty());
  EXPECT_EQ(report, expect_report);
  EXPECT_EQ(sharded.telemetry_to_json(), expect_telemetry);
}

TEST(ShardServerTest, NonexistentWorkerBinaryStillCompletes) {
  runtime::CampaignEngine baseline{tiny_campaign()};
  const std::string expect = baseline.run(1).to_json();

  runtime::CampaignEngine sharded{tiny_campaign()};
  runtime::ShardConfig config;
  config.workers = 2;
  config.worker_command = {"/nonexistent/shard-worker-binary"};
  std::vector<std::string> failures;
  EXPECT_EQ(runtime::run_sharded(sharded, config, &failures).to_json(),
            expect);
  EXPECT_FALSE(failures.empty());
}

/// An exec-mode worker command that writes `bytes` to the protocol
/// socket (fd 3) and exits, whatever it is asked.
std::vector<std::string> printf_worker(const std::vector<std::uint8_t>& bytes) {
  std::string escaped;
  for (const std::uint8_t byte : bytes) {
    escaped += '\\';
    escaped += static_cast<char>('0' + ((byte >> 6) & 7));
    escaped += static_cast<char>('0' + ((byte >> 3) & 7));
    escaped += static_cast<char>('0' + (byte & 7));
  }
  return {"/bin/sh", "-c", "printf '" + escaped + "' >&3"};
}

/// Runs tiny_campaign() sharded under `config` (serving `factory_of` the
/// sharded engine, when set) and checks the run still lands on the
/// in-process bytes with at least one recorded failure.
void expect_hostile_run_recovers(
    const runtime::ShardConfig& config,
    const std::function<runtime::JobFactory(runtime::CampaignEngine&)>&
        factory_of = nullptr) {
  runtime::CampaignEngine baseline{tiny_campaign()};
  baseline.set_telemetry(deterministic_telemetry());
  const std::string expect_report = baseline.run(1).to_json();
  const std::string expect_telemetry = baseline.telemetry_to_json();

  runtime::CampaignEngine sharded{tiny_campaign()};
  sharded.set_telemetry(deterministic_telemetry());
  std::vector<std::string> failures;
  const std::string report =
      runtime::run_sharded(sharded, config, &failures,
                           factory_of ? factory_of(sharded) : nullptr)
          .to_json();
  EXPECT_FALSE(failures.empty());
  EXPECT_EQ(report, expect_report);
  EXPECT_EQ(sharded.telemetry_to_json(), expect_telemetry);
}

TEST(ShardServerTest, HugeLengthHeaderIsAWorkerFailure) {
  // A valid header claiming a 2^63-1 byte payload, then EOF: the
  // coordinator must read it as a short read, not allocate the claim.
  std::vector<std::uint8_t> header =
      runtime::wire::encode_frame(runtime::wire::FrameType::kRange, {});
  for (std::size_t i = 8; i < runtime::wire::kFrameHeaderSize; ++i) {
    header[i] = 0xFF;
  }
  header[runtime::wire::kFrameHeaderSize - 1] = 0x7F;
  runtime::ShardConfig config;
  config.workers = 2;
  config.worker_command = printf_worker(header);
  expect_hostile_run_recovers(config);
}

TEST(ShardServerTest, GarbagePayloadIsAWorkerFailure) {
  // Well framed, but the 8-byte payload is no range outcome.
  const std::vector<std::uint8_t> garbage = {0xDE, 0xAD, 0xBE, 0xEF,
                                             0xDE, 0xAD, 0xBE, 0xEF};
  runtime::ShardConfig config;
  config.workers = 2;
  config.worker_command = printf_worker(
      runtime::wire::encode_frame(runtime::wire::FrameType::kRange, garbage));
  expect_hostile_run_recovers(config);
}

TEST(ShardServerTest, WrongRangeReplyIsAWorkerFailure) {
  // Fork-mode workers that answer the neighbouring range; the
  // coordinator's own in-process fallback (same factory, same pid as the
  // test) stays honest.
  const pid_t coordinator = ::getpid();
  const auto lying = [coordinator](runtime::CampaignEngine& engine) {
    return runtime::JobFactory{[&engine, coordinator](std::string_view) {
      runtime::WorkerJob job = runtime::range_job(&engine);
      if (::getpid() != coordinator) {
        job.run = [&engine](const runtime::wire::WorkOrder& order) {
          runtime::CampaignRangeOutcome outcome =
              engine.run_range(order.begin, order.end, order.threads);
          ++outcome.begin;
          ++outcome.end;
          return runtime::wire::encode_frame(
              runtime::wire::FrameType::kRange,
              runtime::wire::encode_range(outcome));
        };
      }
      return job;
    }};
  };
  runtime::ShardConfig config;
  config.workers = 2;
  expect_hostile_run_recovers(config, lying);
}

/// One range per (begin, end) pair, each holding end - begin default cells.
template <typename Outcome>
std::vector<Outcome> ranges_of(
    std::initializer_list<std::pair<std::size_t, std::size_t>> bounds) {
  std::vector<Outcome> out;
  for (const auto& [begin, end] : bounds) {
    Outcome range;
    range.begin = begin;
    range.end = end;
    range.cells.resize(end - begin);
    out.push_back(std::move(range));
  }
  return out;
}

template <typename Engine>
void expect_fold_guard(Engine& engine) {
  using Outcome = typename Engine::Outcome;
  const std::size_t n = engine.cell_count();
  ASSERT_GE(n, 3u);
  EXPECT_THROW((void)engine.fold(ranges_of<Outcome>({{0, 1}, {2, n}})),
               std::invalid_argument)
      << "gap";
  EXPECT_THROW((void)engine.fold(ranges_of<Outcome>({{0, 2}, {1, n}})),
               std::invalid_argument)
      << "overlap";
  std::vector<Outcome> short_cells = ranges_of<Outcome>({{0, n}});
  short_cells.front().cells.pop_back();
  EXPECT_THROW((void)engine.fold(std::move(short_cells)),
               std::invalid_argument)
      << "short cells";
  EXPECT_THROW((void)engine.fold(ranges_of<Outcome>({{0, n - 1}})),
               std::invalid_argument)
      << "missing tail";
}

TEST(ShardServerTest, FoldRejectsRangesThatDoNotTileTheGrid) {
  runtime::CampaignEngine campaign{tiny_campaign()};
  expect_fold_guard(campaign);
  runtime::AdaptiveCampaignEngine adaptive{tiny_adaptive()};
  expect_fold_guard(adaptive);
  core::tuning::ParameterTuner tuner{tiny_tuning()};
  expect_fold_guard(tuner);
}

}  // namespace
