// The streaming pipeline's golden-parity and live-cost guarantees:
//   * feeding a whole trace through core::online::StreamingReshaper yields
//     per-interface streams byte-identical to the batch
//     ReshapingDefense::apply() path, for every composition (reshaping,
//     padding, morphing, OR+morphing, padded OR), across every registry
//     scenario;
//   * the queueing/airtime accounting obeys the shared-radio model
//     (monotone timeline, budget-driven deadline misses, clean reset).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/defense.h"
#include "core/morphing.h"
#include "core/online/streaming_reshaper.h"
#include "core/scheduler.h"
#include "core/target_distribution.h"
#include "core/tuning/tuned_configuration.h"
#include "mac/frame.h"
#include "runtime/scenario.h"
#include "traffic/generator.h"
#include "util/distribution.h"

namespace reshape::core::online {
namespace {

using traffic::AppType;
using util::Duration;

void expect_same_result(const DefenseResult& batch,
                        const DefenseResult& streaming,
                        const std::string& context) {
  EXPECT_EQ(batch.original_bytes, streaming.original_bytes) << context;
  EXPECT_EQ(batch.added_bytes, streaming.added_bytes) << context;
  ASSERT_EQ(batch.streams.size(), streaming.streams.size()) << context;
  for (std::size_t i = 0; i < batch.streams.size(); ++i) {
    EXPECT_EQ(batch.streams[i].app(), streaming.streams[i].app()) << context;
    const auto a = batch.streams[i].records();
    const auto b = streaming.streams[i].records();
    ASSERT_EQ(a.size(), b.size()) << context << " stream " << i;
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin()))
        << context << " stream " << i;
  }
}

std::unique_ptr<Scheduler> or_identity() {
  return std::make_unique<OrthogonalScheduler>(
      OrthogonalScheduler::identity(SizeRanges::paper_default()));
}

util::EmpiricalDistribution profile_of(AppType app, std::uint64_t seed) {
  const traffic::Trace trace = traffic::generate_trace(
      app, Duration::seconds(30), seed, traffic::SessionJitter::none());
  return util::EmpiricalDistribution{trace.sizes()};
}

/// One composition, built twice from identical state: once for the batch
/// apply(), once inside the streaming pipeline.
struct ParityCase {
  std::string name;
  std::function<ReshapingDefense()> make;
};

std::vector<ParityCase> make_parity_cases(std::uint64_t seed) {
  const util::EmpiricalDistribution gaming = profile_of(AppType::kGaming, 0x6A);
  const util::EmpiricalDistribution browsing =
      profile_of(AppType::kBrowsing, 0x6B);
  std::vector<ParityCase> cases;
  cases.push_back({"OR", [] { return ReshapingDefense{or_identity()}; }});
  cases.push_back({"OR-mod", [] {
                     return ReshapingDefense{
                         std::make_unique<ModuloScheduler>(3)};
                   }});
  cases.push_back({"RA", [seed] {
                     return ReshapingDefense{std::make_unique<RandomScheduler>(
                         3, util::Rng{seed})};
                   }});
  cases.push_back({"RR", [] {
                     return ReshapingDefense{
                         std::make_unique<RoundRobinScheduler>(3)};
                   }});
  cases.push_back({"Padding", [] {
                     return ReshapingDefense::shaping(
                         std::make_unique<PaddingShaper>(mac::kMaxFrameBytes));
                   }});
  cases.push_back({"Morphing", [seed, browsing] {
                     return ReshapingDefense::shaping(
                         std::make_unique<MorphingDefense>(
                             AppType::kBrowsing, browsing, util::Rng{seed}));
                   }});
  // The §V-C layout of eval::combined_factory: interface 0 morphs toward
  // gaming, interface 1 toward browsing, interface 2 passes through.
  cases.push_back({"OR+Morphing", [seed, gaming, browsing] {
                     std::vector<std::unique_ptr<PacketShaper>> morphers;
                     morphers.push_back(std::make_unique<MorphingDefense>(
                         AppType::kGaming, gaming, util::Rng{seed ^ 0xAA}));
                     morphers.push_back(std::make_unique<MorphingDefense>(
                         AppType::kBrowsing, browsing, util::Rng{seed ^ 0xBB}));
                     return ReshapingDefense{or_identity(),
                                             std::move(morphers)};
                   }});
  // The tuner's padded composition; both pads cross a range bound.
  cases.push_back({"OR+Pad", [] {
                     auto config = tuning::TunedConfiguration::identity(
                         "parity", SizeRanges::paper_default());
                     config.pad_to = {600, 1576, 0};
                     return config.make_composition();
                   }});
  return cases;
}

// --------------------------- golden parity over the scenario registry ---

class StreamingParityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(StreamingParityTest, StreamingMatchesBatchForEverySession) {
  const runtime::Scenario& scenario =
      runtime::ScenarioRegistry::global().at(GetParam());
  util::Rng rng{0xF00D};
  const std::vector<traffic::Trace> sessions = scenario.generate(rng);
  ASSERT_FALSE(sessions.empty());
  for (const ParityCase& pc : make_parity_cases(/*seed=*/0xCAFE)) {
    ReshapingDefense batch_defense = pc.make();
    StreamingReshaper pipeline{pc.make()};
    for (std::size_t s = 0; s < sessions.size(); ++s) {
      const DefenseResult batch = batch_defense.apply(sessions[s]);
      const DefenseResult streaming = run_streaming(pipeline, sessions[s]);
      expect_same_result(batch, streaming,
                         pc.name + " on " + GetParam() + " session " +
                             std::to_string(s));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, StreamingParityTest,
    ::testing::ValuesIn(runtime::ScenarioRegistry::global().names()),
    [](const auto& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

// ------------------------------------------------ dispatch composition ---

TEST(StreamingCombinedParityTest, SchedulerSeesOriginalSizes) {
  // Dispatch must happen on the *pre-morph* size: a 100-byte packet
  // belongs to OR interface 0 (small range) even when interface 0's
  // morpher then pads it beyond the range boundary.
  std::vector<std::unique_ptr<PacketShaper>> shapers;
  shapers.push_back(std::make_unique<PaddingShaper>(1500));
  StreamingReshaper pipeline{
      ReshapingDefense{or_identity(), std::move(shapers)}};
  traffic::PacketRecord small;
  small.size_bytes = 100;
  const ShapedPacket shaped = pipeline.push(small);
  EXPECT_EQ(shaped.interface_index, 0u);       // dispatched on 100 bytes
  EXPECT_EQ(shaped.record.size_bytes, 1500u);  // then padded post-dispatch
  EXPECT_EQ(pipeline.stats().added_bytes, 1400u);
}

TEST(StreamingCombinedParityTest, RejectsShaperListWithoutScheduler) {
  // Without a scheduler there is one stream, so only slot 0 may be set.
  std::vector<std::unique_ptr<PacketShaper>> shapers;
  shapers.push_back(std::make_unique<PaddingShaper>(1500));
  shapers.push_back(std::make_unique<PaddingShaper>(1500));
  EXPECT_THROW((ReshapingDefense{nullptr, std::move(shapers)}),
               std::invalid_argument);
}

TEST(StreamingCombinedParityTest, RejectsMoreShapersThanInterfaces) {
  std::vector<std::unique_ptr<PacketShaper>> shapers;
  for (int i = 0; i < 4; ++i) {
    shapers.push_back(std::make_unique<PaddingShaper>(1500));
  }
  EXPECT_THROW((ReshapingDefense{std::make_unique<ModuloScheduler>(3),
                                 std::move(shapers)}),
               std::invalid_argument);
}

// RA parity holds packet-by-packet only when both paths consume the RNG
// identically; a second pass through the same reshaper must keep matching
// a second batch apply (reset() clears counters, not the RNG phase —
// exactly like Scheduler::reset()).
TEST(StreamingParityDetailTest, RepeatedRunsTrackBatchRngPhase) {
  ReshapingDefense batch{std::make_unique<RandomScheduler>(3, util::Rng{9})};
  StreamingReshaper streaming{
      ReshapingDefense{std::make_unique<RandomScheduler>(3, util::Rng{9})}};
  const traffic::Trace trace =
      traffic::generate_trace(AppType::kBrowsing, Duration::seconds(5), 0x31);
  for (int pass = 0; pass < 3; ++pass) {
    expect_same_result(batch.apply(trace), run_streaming(streaming, trace),
                       "pass " + std::to_string(pass));
  }
}

// --------------------------------------------- shared-radio accounting ---

traffic::PacketRecord packet_at(std::int64_t us, std::uint32_t size) {
  traffic::PacketRecord r;
  r.time = util::TimePoint::from_microseconds(us);
  r.size_bytes = size;
  return r;
}

TEST(StreamingStatsTest, BackToBackArrivalsQueueBehindTheRadio) {
  StreamingConfig config;
  config.bitrate_mbps = 54.0;
  StreamingReshaper pipeline{
      ReshapingDefense{std::make_unique<RoundRobinScheduler>(3)}, config};
  const util::Duration on_air = mac::airtime(1500, 54.0);
  // Three packets arrive at the same instant: the radio serializes them.
  const auto first = pipeline.push(packet_at(0, 1500));
  const auto second = pipeline.push(packet_at(0, 1500));
  const auto third = pipeline.push(packet_at(0, 1500));
  EXPECT_EQ(first.queueing_delay, util::Duration{});
  EXPECT_EQ(second.queueing_delay, on_air);
  EXPECT_EQ(third.queueing_delay, on_air * 2);
  EXPECT_EQ(pipeline.stats().airtime_busy, on_air * 3);
  EXPECT_EQ(pipeline.stats().max_queueing_delay, on_air * 2);
  // RR spread them across three interfaces, one in flight each.
  EXPECT_EQ(pipeline.stats().max_queue_depth, 1u);
  // A later packet, after the backlog drained, pays nothing.
  const auto later =
      pipeline.push(packet_at(on_air.count_us() * 5, 1500));
  EXPECT_EQ(later.queueing_delay, util::Duration{});
}

TEST(StreamingStatsTest, LatencyBudgetDrivesDeadlineMisses) {
  StreamingConfig tight;
  tight.latency_budget = util::Duration::microseconds(1);
  StreamingReshaper pipeline{
      ReshapingDefense{std::make_unique<RoundRobinScheduler>(1)}, tight};
  (void)pipeline.push(packet_at(0, 1500));
  const auto queued = pipeline.push(packet_at(0, 1500));
  EXPECT_TRUE(queued.deadline_miss);
  EXPECT_EQ(pipeline.stats().deadline_misses, 1u);
  EXPECT_EQ(pipeline.stats().max_queue_depth, 2u);
}

TEST(StreamingStatsTest, ShapingAccountsAddedBytes) {
  StreamingReshaper pipeline{
      ReshapingDefense::shaping(std::make_unique<PaddingShaper>(1576))};
  (void)pipeline.push(packet_at(0, 100));
  (void)pipeline.push(packet_at(10, 1576));
  EXPECT_EQ(pipeline.stats().original_bytes, 1676u);
  EXPECT_EQ(pipeline.stats().added_bytes, 1476u);
  EXPECT_NEAR(pipeline.stats().overhead_percent(),
              100.0 * 1476.0 / 1676.0, 1e-9);
}

TEST(StreamingStatsTest, ResetClearsTimelineAndStreams) {
  StreamingReshaper pipeline{
      ReshapingDefense{std::make_unique<RoundRobinScheduler>(2)}};
  const traffic::Trace trace =
      traffic::generate_trace(AppType::kChatting, Duration::seconds(5), 0x41);
  const DefenseResult first = run_streaming(pipeline, trace);
  const DefenseResult second = run_streaming(pipeline, trace);
  expect_same_result(first, second, "reset round-trip");
  EXPECT_EQ(pipeline.stats().packets, trace.size());
}

TEST(StreamingStatsTest, RejectsOutOfOrderArrivals) {
  StreamingReshaper pipeline{
      ReshapingDefense{std::make_unique<RoundRobinScheduler>(2)}};
  (void)pipeline.push(packet_at(100, 400));
  EXPECT_THROW((void)pipeline.push(packet_at(50, 400)),
               std::invalid_argument);
}

TEST(StreamingStatsTest, ValidatesConfig) {
  StreamingConfig bad_bitrate;
  bad_bitrate.bitrate_mbps = 0.0;
  EXPECT_THROW((StreamingReshaper{ReshapingDefense{nullptr}, bad_bitrate}),
               std::invalid_argument);
  StreamingReshaper no_streams{ReshapingDefense{nullptr},
                               StreamingConfig{}.accounting_only()};
  EXPECT_THROW((void)no_streams.result(AppType::kBrowsing),
               std::invalid_argument);
}

// ------------------------------------------- live-reshaping scenario ---

TEST(LiveReshapingScenarioTest, RegisteredAndDeterministic) {
  const runtime::Scenario* scenario =
      runtime::ScenarioRegistry::global().find("live-reshaping");
  ASSERT_NE(scenario, nullptr);
  util::Rng a{77};
  util::Rng b{77};
  const auto sa = scenario->generate(a);
  const auto sb = scenario->generate(b);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    ASSERT_EQ(sa[i].size(), sb[i].size());
    for (std::size_t p = 0; p < sa[i].size(); ++p) {
      EXPECT_EQ(sa[i][p], sb[i][p]);
    }
  }
}

TEST(LiveReshapingScenarioTest, QueueingOnlyEverDelaysPackets) {
  // The live pipeline re-timestamps to tx_start >= arrival, so the live
  // session of a station starts no earlier than the original would and
  // stays time-ordered (Trace enforces ordering on push_back already).
  const runtime::Scenario scenario =
      runtime::live_reshaping(4, Duration::seconds(20));
  util::Rng rng{123};
  for (const traffic::Trace& session : scenario.generate(rng)) {
    ASSERT_FALSE(session.empty());
    for (std::size_t p = 1; p < session.size(); ++p) {
      EXPECT_LE(session[p - 1].time, session[p].time);
    }
  }
}

}  // namespace
}  // namespace reshape::core::online
