// Unit tests for src/core: size ranges, target distributions (Eq. 2
// orthogonality), the Eq. 1 objective, all schedulers, the trace-level
// defenses, parameter selection, and TPC.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/defense.h"
#include "core/frequency_hopping.h"
#include "core/morphing.h"
#include "core/scheduler.h"
#include "core/target_distribution.h"
#include "core/tpc.h"
#include "core/tuning/presets.h"
#include "traffic/generator.h"
#include "util/stats.h"

namespace reshape::core {
namespace {

using traffic::AppType;
using traffic::PacketRecord;
using traffic::Trace;
using util::Duration;
using util::TimePoint;

PacketRecord record(double t, std::uint32_t size,
                    mac::Direction dir = mac::Direction::kDownlink) {
  return PacketRecord{TimePoint::from_seconds(t), size, dir};
}

Trace bt_trace(double seconds = 30.0, std::uint64_t seed = 0xB7) {
  return traffic::generate_trace(AppType::kBitTorrent,
                                 Duration::seconds(seconds), seed,
                                 traffic::SessionJitter::none());
}

// ---------------------------------------------------------- SizeRanges ---

TEST(SizeRangesTest, PaperDefaultPartition) {
  const SizeRanges r = SizeRanges::paper_default();
  EXPECT_EQ(r.count(), 3u);
  EXPECT_EQ(r.range_of(1), 0u);
  EXPECT_EQ(r.range_of(232), 0u);   // ranges are (lo, hi]
  EXPECT_EQ(r.range_of(233), 1u);
  EXPECT_EQ(r.range_of(1540), 1u);
  EXPECT_EQ(r.range_of(1541), 2u);
  EXPECT_EQ(r.range_of(1576), 2u);
  EXPECT_EQ(r.range_of(9999), 2u);  // clamps above l_max
}

TEST(SizeRangesTest, RejectsBadBounds) {
  EXPECT_THROW(SizeRanges{std::vector<std::uint32_t>{}},
               std::invalid_argument);
  EXPECT_THROW((SizeRanges{std::vector<std::uint32_t>{100, 100}}),
               std::invalid_argument);
  EXPECT_THROW((SizeRanges{std::vector<std::uint32_t>{200, 100}}),
               std::invalid_argument);
}

TEST(SizeRangesTest, ProbabilitiesSumToOne) {
  Trace trace{AppType::kBrowsing};
  trace.push_back(record(0.0, 100));
  trace.push_back(record(1.0, 500));
  trace.push_back(record(2.0, 1576));
  trace.push_back(record(3.0, 1576));
  const auto p = SizeRanges::paper_default().probabilities(trace);
  EXPECT_DOUBLE_EQ(p[0], 0.25);
  EXPECT_DOUBLE_EQ(p[1], 0.25);
  EXPECT_DOUBLE_EQ(p[2], 0.5);
}

TEST(SizeRangesTest, TableVPartitions) {
  EXPECT_EQ(SizeRanges::paper_l2().count(), 2u);
  EXPECT_EQ(SizeRanges::paper_l5().count(), 5u);
  EXPECT_EQ(SizeRanges::equal_thirds().count(), 3u);
  EXPECT_EQ(SizeRanges::paper_l5().upper_bound(1), 500u);
}

// -------------------------------------------------- TargetDistribution ---

TEST(TargetDistributionTest, IdentityIsOrthogonal) {
  const auto t = TargetDistribution::orthogonal_identity(3);
  EXPECT_TRUE(t.is_orthogonal());
  EXPECT_EQ(t.owner_of(0), 0u);
  EXPECT_EQ(t.owner_of(2), 2u);
}

TEST(TargetDistributionTest, RowsMustBeStochastic) {
  EXPECT_THROW(TargetDistribution({{0.5, 0.4}}), std::invalid_argument);
  EXPECT_THROW(TargetDistribution({{1.5, -0.5}}), std::invalid_argument);
  EXPECT_NO_THROW(TargetDistribution({{0.5, 0.5}}));
}

TEST(TargetDistributionTest, NonOrthogonalDetected) {
  // Both interfaces put mass on range 0.
  const TargetDistribution t{{{0.5, 0.5}, {1.0, 0.0}}};
  EXPECT_FALSE(t.is_orthogonal());
  EXPECT_THROW((void)t.owner_of(0), std::invalid_argument);
}

TEST(TargetDistributionTest, FromAssignmentGroupsRanges) {
  // 5 ranges onto 2 interfaces: {0,2,4} -> iface0, {1,3} -> iface1.
  const std::vector<std::size_t> assignment{0, 1, 0, 1, 0};
  const auto t = TargetDistribution::from_assignment(assignment, 2);
  EXPECT_TRUE(t.is_orthogonal());
  EXPECT_DOUBLE_EQ(t.value(0, 0), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(t.value(1, 1), 0.5);
  EXPECT_EQ(t.owner_of(4), 0u);
}

TEST(TargetDistributionTest, FromAssignmentRejectsIdleInterface) {
  const std::vector<std::size_t> assignment{0, 0, 0};
  EXPECT_THROW((void)TargetDistribution::from_assignment(assignment, 2),
               std::invalid_argument);
}

TEST(ObjectiveTest, ZeroWhenObservedEqualsTarget) {
  const auto t = TargetDistribution::orthogonal_identity(2);
  const std::vector<std::vector<double>> observed{{1.0, 0.0}, {0.0, 1.0}};
  EXPECT_DOUBLE_EQ(reshaping_objective(t, observed), 0.0);
}

TEST(ObjectiveTest, KnownValueForUniformSplit) {
  // RA/RR leave each interface's distribution equal to the original; with
  // a 50/50 original the per-interface distance to the orthogonal target
  // is sqrt(0.5^2 + 0.5^2) per interface.
  const auto t = TargetDistribution::orthogonal_identity(2);
  const std::vector<std::vector<double>> observed{{0.5, 0.5}, {0.5, 0.5}};
  EXPECT_NEAR(reshaping_objective(t, observed), 2.0 * std::sqrt(0.5), 1e-12);
}

TEST(ObjectiveTest, ShapeMismatchThrows) {
  const auto t = TargetDistribution::orthogonal_identity(2);
  const std::vector<std::vector<double>> bad{{1.0, 0.0}};
  EXPECT_THROW((void)reshaping_objective(t, bad), std::invalid_argument);
}

// ----------------------------------------------------------- Schedulers ---

TEST(RandomSchedulerTest, CoversAllInterfacesUniformly) {
  RandomScheduler s{3, util::Rng{1}};
  std::array<int, 3> counts{};
  const PacketRecord r = record(0.0, 500);
  for (int i = 0; i < 9000; ++i) {
    ++counts[s.select_interface(r)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, 3000, 200);
  }
}

TEST(RoundRobinSchedulerTest, CyclesInOrder) {
  RoundRobinScheduler s{3};
  const PacketRecord r = record(0.0, 500);
  EXPECT_EQ(s.select_interface(r), 0u);
  EXPECT_EQ(s.select_interface(r), 1u);
  EXPECT_EQ(s.select_interface(r), 2u);
  EXPECT_EQ(s.select_interface(r), 0u);
  s.reset();
  EXPECT_EQ(s.select_interface(r), 0u);
}

TEST(OrthogonalSchedulerTest, RoutesByRange) {
  auto s = OrthogonalScheduler::identity(SizeRanges::paper_default());
  EXPECT_EQ(s.select_interface(record(0.0, 108)), 0u);
  EXPECT_EQ(s.select_interface(record(0.0, 800)), 1u);
  EXPECT_EQ(s.select_interface(record(0.0, 1576)), 2u);
}

TEST(OrthogonalSchedulerTest, CustomAssignment) {
  // Two interfaces over three ranges: small+large -> 0, mid -> 1.
  const std::vector<std::size_t> assignment{0, 1, 0};
  OrthogonalScheduler s{SizeRanges::paper_default(),
                        TargetDistribution::from_assignment(assignment, 2)};
  EXPECT_EQ(s.interface_count(), 2u);
  EXPECT_EQ(s.select_interface(record(0.0, 100)), 0u);
  EXPECT_EQ(s.select_interface(record(0.0, 1000)), 1u);
  EXPECT_EQ(s.select_interface(record(0.0, 1576)), 0u);
}

TEST(OrthogonalSchedulerTest, RejectsNonOrthogonalTarget) {
  EXPECT_THROW(OrthogonalScheduler(SizeRanges::paper_l2(),
                                   TargetDistribution{
                                       {{0.5, 0.5}, {0.5, 0.5}}}),
               std::invalid_argument);
}

TEST(ModuloSchedulerTest, UsesSizeResidue) {
  ModuloScheduler s{3};
  EXPECT_EQ(s.select_interface(record(0.0, 300)), 0u);
  EXPECT_EQ(s.select_interface(record(0.0, 301)), 1u);
  EXPECT_EQ(s.select_interface(record(0.0, 302)), 2u);
}

TEST(SchedulerFactoryTest, BuildsEveryKind) {
  for (const auto kind :
       {SchedulerKind::kRandom, SchedulerKind::kRoundRobin,
        SchedulerKind::kOrthogonal, SchedulerKind::kModulo}) {
    const auto s = make_scheduler(kind, 3, 1);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->interface_count(), 3u);
  }
  EXPECT_THROW((void)make_scheduler(SchedulerKind::kOrthogonal, 4, 1),
               std::invalid_argument);
}

// ------------------------------------------------------------ Defenses ---

TEST(NoDefenseTest, PassesTraceThrough) {
  const Trace trace = bt_trace(10.0);
  NoDefense defense;
  const DefenseResult result = defense.apply(trace);
  ASSERT_EQ(result.streams.size(), 1u);
  EXPECT_EQ(result.streams[0].size(), trace.size());
  EXPECT_EQ(result.added_bytes, 0u);
  EXPECT_DOUBLE_EQ(result.overhead_percent(), 0.0);
}

TEST(ReshapingDefenseTest, PartitionsWithoutLossOrNoise) {
  const Trace trace = bt_trace(20.0);
  ReshapingDefense defense{std::make_unique<OrthogonalScheduler>(
      OrthogonalScheduler::identity(SizeRanges::paper_default()))};
  const DefenseResult result = defense.apply(trace);
  EXPECT_EQ(result.streams.size(), 3u);
  EXPECT_EQ(result.total_packets(), trace.size());
  EXPECT_EQ(result.added_bytes, 0u);
  std::uint64_t bytes = 0;
  for (const Trace& s : result.streams) {
    bytes += s.total_bytes();
  }
  EXPECT_EQ(bytes, trace.total_bytes());
}

TEST(ReshapingDefenseTest, StreamsPreserveLabelAndOrder) {
  const Trace trace = bt_trace(10.0);
  ReshapingDefense defense{std::make_unique<RoundRobinScheduler>(3)};
  const DefenseResult result = defense.apply(trace);
  for (const Trace& s : result.streams) {
    EXPECT_EQ(s.app(), AppType::kBitTorrent);
    for (std::size_t i = 1; i < s.size(); ++i) {
      EXPECT_LE(s[i - 1].time, s[i].time);
    }
  }
}

TEST(ReshapingDefenseTest, NullSchedulerIsOneUnshapedStream) {
  const Trace trace = bt_trace(10.0);
  ReshapingDefense defense{nullptr};
  const DefenseResult result = defense.apply(trace);
  ASSERT_EQ(result.streams.size(), 1u);
  ASSERT_EQ(result.streams[0].size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(result.streams[0][i], trace[i]);
  }
  EXPECT_EQ(result.added_bytes, 0u);
}

TEST(FrequencyHoppingTest, ScheduleCycles) {
  HoppingSchedule schedule{HoppingConfig{}};
  EXPECT_EQ(schedule.channel_at(TimePoint::from_seconds(0.1)), 1);
  EXPECT_EQ(schedule.channel_at(TimePoint::from_seconds(0.6)), 6);
  EXPECT_EQ(schedule.channel_at(TimePoint::from_seconds(1.1)), 11);
  EXPECT_EQ(schedule.channel_at(TimePoint::from_seconds(1.6)), 1);
}

TEST(FrequencyHoppingTest, SnifferSeesOneThird) {
  const Trace trace = bt_trace(60.0);
  FrequencyHoppingDefense defense{HoppingConfig{}, 1};
  const DefenseResult result = defense.apply(trace);
  ASSERT_EQ(result.streams.size(), 1u);
  const double share = static_cast<double>(result.streams[0].size()) /
                       static_cast<double>(trace.size());
  EXPECT_NEAR(share, 1.0 / 3.0, 0.12);
  EXPECT_EQ(result.added_bytes, 0u);
}

TEST(FrequencyHoppingTest, ObservedPacketsAreInMonitoredDwells) {
  const Trace trace = bt_trace(30.0);
  FrequencyHoppingDefense defense{HoppingConfig{}, 6};
  const DefenseResult result = defense.apply(trace);
  const HoppingSchedule schedule{HoppingConfig{}};
  for (const PacketRecord& r : result.streams[0].records()) {
    EXPECT_EQ(schedule.channel_at(r.time), 6);
  }
}

TEST(FrequencyHoppingTest, MonitoredChannelMustBeInHopSet) {
  EXPECT_THROW(FrequencyHoppingDefense(HoppingConfig{}, 3),
               std::invalid_argument);
}

TEST(PaddingTest, PadsEverythingToTarget) {
  const Trace trace = bt_trace(10.0);
  auto defense = ReshapingDefense::shaping(std::make_unique<PaddingShaper>());
  const DefenseResult result = defense.apply(trace);
  for (const PacketRecord& r : result.streams[0].records()) {
    EXPECT_EQ(r.size_bytes, mac::kMaxFrameBytes);
  }
  EXPECT_GT(result.overhead_percent(), 0.0);
}

TEST(PaddingTest, OverheadAccountingIsExact) {
  Trace trace{AppType::kChatting};
  trace.push_back(record(0.0, 576));
  trace.push_back(record(1.0, 1576));
  auto defense = ReshapingDefense::shaping(std::make_unique<PaddingShaper>());
  const DefenseResult result = defense.apply(trace);
  EXPECT_EQ(result.added_bytes, 1000u);
  EXPECT_EQ(result.original_bytes, 2152u);
}

TEST(MorphingTest, NeverShrinksAndFollowsTarget) {
  const Trace target_trace = traffic::generate_trace(
      AppType::kDownloading, Duration::seconds(30), 5,
      traffic::SessionJitter::none());
  util::EmpiricalDistribution target{target_trace.sizes()};
  auto defense = ReshapingDefense::shaping(std::make_unique<MorphingDefense>(
      AppType::kDownloading, target, util::Rng{7}));
  const Trace source = bt_trace(10.0);
  const DefenseResult result = defense.apply(source);
  ASSERT_EQ(result.streams[0].size(), source.size());
  for (std::size_t i = 0; i < source.size(); ++i) {
    EXPECT_GE(result.streams[0][i].size_bytes, source[i].size_bytes);
  }
  EXPECT_GT(result.added_bytes, 0u);
}

TEST(MorphingTest, PaperPairingIsAsPublished) {
  EXPECT_EQ(paper_morph_target(AppType::kChatting), AppType::kGaming);
  EXPECT_EQ(paper_morph_target(AppType::kGaming), AppType::kBrowsing);
  EXPECT_EQ(paper_morph_target(AppType::kBrowsing), AppType::kBitTorrent);
  EXPECT_EQ(paper_morph_target(AppType::kBitTorrent), AppType::kVideo);
  EXPECT_EQ(paper_morph_target(AppType::kVideo), AppType::kDownloading);
  EXPECT_FALSE(paper_morph_target(AppType::kDownloading).has_value());
  EXPECT_FALSE(paper_morph_target(AppType::kUploading).has_value());
}

TEST(CombinedDefenseTest, MorphsOnlySelectedInterfaces) {
  const Trace trace = bt_trace(20.0);
  const Trace profile_trace = traffic::generate_trace(
      AppType::kGaming, Duration::seconds(20), 9,
      traffic::SessionJitter::none());
  util::EmpiricalDistribution profile{profile_trace.sizes()};

  std::vector<std::unique_ptr<PacketShaper>> morphers;
  morphers.push_back(std::make_unique<MorphingDefense>(AppType::kGaming,
                                                      profile, util::Rng{11}));
  ReshapingDefense defense{
      std::make_unique<OrthogonalScheduler>(
          OrthogonalScheduler::identity(SizeRanges::paper_default())),
      std::move(morphers)};
  const DefenseResult result = defense.apply(trace);
  EXPECT_EQ(result.streams.size(), 3u);
  EXPECT_GT(result.added_bytes, 0u);
  // Interface 2 (full frames) untouched: still only sizes > 1540.
  for (const PacketRecord& r : result.streams[2].records()) {
    EXPECT_GT(r.size_bytes, 1540u);
  }
}

TEST(CombinedDefenseTest, RejectsBadMorpherKey) {
  const Trace profile_trace = bt_trace(5.0);
  util::EmpiricalDistribution profile{profile_trace.sizes()};
  // A morpher in slot 7 of a 3-interface scheduler.
  std::vector<std::unique_ptr<PacketShaper>> morphers(7);
  morphers.push_back(std::make_unique<MorphingDefense>(AppType::kGaming,
                                                      profile, util::Rng{1}));
  EXPECT_THROW(ReshapingDefense(std::make_unique<RoundRobinScheduler>(3),
                                std::move(morphers)),
               std::invalid_argument);
}

// -------------------------------------------------- parameter selection ---

TEST(ParameterSelectionTest, EntropyIsLog2N) {
  EXPECT_DOUBLE_EQ(tuning::privacy_entropy_bits(1), 0.0);
  EXPECT_DOUBLE_EQ(tuning::privacy_entropy_bits(8), 3.0);
}

TEST(ParameterSelectionTest, ZeroPopulationHasZeroEntropy) {
  // Documented clamp: an empty WLAN carries no anonymity, not an error.
  EXPECT_DOUBLE_EQ(tuning::privacy_entropy_bits(0), 0.0);
}

TEST(ParameterSelectionTest, RecommendationsAreOrthogonal) {
  for (const std::size_t i : {std::size_t{2}, std::size_t{3}, std::size_t{4},
                              std::size_t{5}, std::size_t{8}}) {
    const tuning::ParameterRecommendation rec =
        tuning::recommend_parameters(i, 20);
    EXPECT_EQ(rec.interfaces, i);
    EXPECT_EQ(rec.ranges.count(), i);
    EXPECT_TRUE(rec.target.is_orthogonal());
    EXPECT_EQ(rec.ranges.max_size(), mac::kMaxFrameBytes);
    EXPECT_GT(rec.privacy_entropy, tuning::privacy_entropy_bits(20));
  }
}

TEST(ParameterSelectionTest, ClampsInterfaceCountToDocumentedRange) {
  // The documented [2, 8] clamp, including both degenerate extremes.
  EXPECT_EQ(tuning::recommend_parameters(0, 10).interfaces, 2u);
  EXPECT_EQ(tuning::recommend_parameters(1, 10).interfaces, 2u);
  EXPECT_EQ(tuning::recommend_parameters(8, 10).interfaces, 8u);
  EXPECT_EQ(tuning::recommend_parameters(50, 10).interfaces, 8u);
}

TEST(ParameterSelectionTest, ZeroPopulationRecommendationCountsTheClient) {
  // population 0 counts as 1 (the client itself): H = log2(1 + I).
  const tuning::ParameterRecommendation rec =
      tuning::recommend_parameters(3, 0);
  EXPECT_DOUBLE_EQ(rec.privacy_entropy, std::log2(4.0));
}

TEST(ParameterSelectionTest, PresetConvertsToTunedConfiguration) {
  const tuning::TunedConfiguration preset =
      tuning::to_tuned_configuration(tuning::recommend_parameters(3, 12));
  EXPECT_TRUE(preset.structurally_valid());
  EXPECT_EQ(preset.interfaces, 3u);
  EXPECT_EQ(preset.range_bounds,
            (std::vector<std::uint32_t>{232, 1540, 1576}));
  EXPECT_EQ(preset.assignment, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_FALSE(preset.padded());
}

TEST(ParameterSelectionTest, EqualMassRangesBalance) {
  const Trace trace = bt_trace(60.0);
  const SizeRanges ranges = tuning::equal_mass_ranges(trace, 3);
  const auto p = ranges.probabilities(trace);
  for (const double v : p) {
    EXPECT_GT(v, 0.1);  // roughly balanced mass
  }
  const std::vector<double> sizes = trace.sizes();
  EXPECT_EQ(ranges.max_size(),
            static_cast<std::uint32_t>(
                *std::max_element(sizes.begin(), sizes.end())));
}

TEST(ParameterSelectionTest, EqualMassHandlesDegenerateTraces) {
  // A trace that is 100% one size cannot be split: collapses to 1 range.
  Trace trace{AppType::kDownloading};
  for (int i = 0; i < 100; ++i) {
    trace.push_back(record(i, 1576));
  }
  const SizeRanges ranges = tuning::equal_mass_ranges(trace, 3);
  EXPECT_EQ(ranges.count(), 1u);
  EXPECT_EQ(ranges.max_size(), 1576u);
}

TEST(ParameterSelectionTest, EqualMassHandlesMoreRangesThanDistinctSizes) {
  // l far above the number of distinct sizes must still yield a valid
  // non-empty strictly-increasing partition ending at the max size.
  Trace trace{AppType::kBrowsing};
  for (int i = 0; i < 90; ++i) {
    trace.push_back(record(i, i % 3 == 0 ? 200u : (i % 3 == 1 ? 800u : 1576u)));
  }
  const SizeRanges ranges = tuning::equal_mass_ranges(trace, 10);
  ASSERT_GE(ranges.count(), 1u);
  EXPECT_LE(ranges.count(), 3u);  // only 3 distinct sizes exist
  for (std::size_t j = 1; j < ranges.count(); ++j) {
    EXPECT_LT(ranges.upper_bound(j - 1), ranges.upper_bound(j));
  }
  EXPECT_EQ(ranges.max_size(), 1576u);
}

TEST(ParameterSelectionTest, EqualMassSingleSizeTraceForAnyL) {
  Trace trace{AppType::kChatting};
  for (int i = 0; i < 10; ++i) {
    trace.push_back(record(i, 130));
  }
  for (const std::size_t l : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                              std::size_t{64}}) {
    const SizeRanges ranges = tuning::equal_mass_ranges(trace, l);
    EXPECT_EQ(ranges.count(), 1u) << "l=" << l;
    EXPECT_EQ(ranges.max_size(), 130u) << "l=" << l;
  }
}

// ---------------------------------------------------------------- TPC ---

TEST(TpcTest, FixedPowerIsConstant) {
  auto tpc = TransmitPowerControl::fixed(17.0);
  EXPECT_FALSE(tpc.randomised());
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(tpc.next_power_dbm(), 17.0);
  }
}

TEST(TpcTest, UniformStaysInRangeAndVaries) {
  auto tpc = TransmitPowerControl::uniform(5.0, 25.0, util::Rng{3});
  EXPECT_TRUE(tpc.randomised());
  util::RunningStats stats;
  for (int i = 0; i < 2000; ++i) {
    const double p = tpc.next_power_dbm();
    EXPECT_GE(p, 5.0);
    EXPECT_LE(p, 25.0);
    stats.add(p);
  }
  EXPECT_NEAR(stats.mean(), 15.0, 0.5);
  EXPECT_GT(stats.stddev(), 4.0);
}

TEST(TpcTest, RejectsInvertedRange) {
  EXPECT_THROW((void)TransmitPowerControl::uniform(10.0, 10.0, util::Rng{1}),
               std::invalid_argument);
}

}  // namespace
}  // namespace reshape::core
