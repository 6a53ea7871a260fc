// Unit tests for src/traffic: trace container invariants, CSV round-trip,
// application models, generators, and calibration against the paper's
// Table I downlink targets.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "traffic/app_model.h"
#include "traffic/app_type.h"
#include "traffic/generator.h"
#include "traffic/trace.h"
#include "util/stats.h"

namespace reshape::traffic {
namespace {

using util::Duration;
using util::TimePoint;

// ------------------------------------------------------------ AppType ---

TEST(AppTypeTest, NamesAreDistinct) {
  for (const AppType a : kAllApps) {
    for (const AppType b : kAllApps) {
      if (a != b) {
        EXPECT_NE(to_string(a), to_string(b));
        EXPECT_NE(short_name(a), short_name(b));
      }
    }
  }
}

TEST(AppTypeTest, IndexRoundTrips) {
  for (const AppType a : kAllApps) {
    EXPECT_EQ(app_from_index(app_index(a)), a);
  }
  EXPECT_THROW((void)app_from_index(kAppCount), std::out_of_range);
}

TEST(AppTypeTest, PaperRowOrder) {
  EXPECT_EQ(short_name(kAllApps[0]), "br.");
  EXPECT_EQ(short_name(kAllApps[3]), "do.");
  EXPECT_EQ(short_name(kAllApps[6]), "bt.");
}

// -------------------------------------------------------------- Trace ---

PacketRecord record(double t, std::uint32_t size,
                    mac::Direction dir = mac::Direction::kDownlink) {
  return PacketRecord{TimePoint::from_seconds(t), size, dir};
}

TEST(TraceTest, EnforcesTimeOrder) {
  Trace trace{AppType::kChatting};
  trace.push_back(record(1.0, 100));
  trace.push_back(record(1.0, 200));  // ties allowed
  trace.push_back(record(2.0, 300));
  EXPECT_THROW(trace.push_back(record(0.5, 400)), std::invalid_argument);
  EXPECT_EQ(trace.size(), 3u);
}

TEST(TraceTest, BasicAccessors) {
  Trace trace{AppType::kGaming};
  trace.push_back(record(1.0, 100));
  trace.push_back(record(3.0, 200, mac::Direction::kUplink));
  EXPECT_EQ(trace.app(), AppType::kGaming);
  EXPECT_EQ(trace.start_time(), TimePoint::from_seconds(1.0));
  EXPECT_EQ(trace.end_time(), TimePoint::from_seconds(3.0));
  EXPECT_EQ(trace.duration(), Duration::seconds(2.0));
  EXPECT_EQ(trace.total_bytes(), 300u);
  EXPECT_EQ(trace.count(mac::Direction::kDownlink), 1u);
  EXPECT_EQ(trace.count(mac::Direction::kUplink), 1u);
}

TEST(TraceTest, EmptyTraceEdgeCases) {
  Trace trace;
  EXPECT_TRUE(trace.empty());
  EXPECT_EQ(trace.duration(), Duration{});
  EXPECT_THROW((void)trace.start_time(), std::invalid_argument);
  EXPECT_THROW((void)trace.end_time(), std::invalid_argument);
}

TEST(TraceTest, SliceIsHalfOpen) {
  Trace trace{AppType::kBrowsing};
  for (int i = 0; i < 10; ++i) {
    trace.push_back(record(i, 100));
  }
  const auto window =
      trace.slice(TimePoint::from_seconds(2.0), TimePoint::from_seconds(5.0));
  ASSERT_EQ(window.size(), 3u);
  EXPECT_EQ(window.front().time, TimePoint::from_seconds(2.0));
  EXPECT_EQ(window.back().time, TimePoint::from_seconds(4.0));
}

TEST(TraceTest, SliceOutsideRangeIsEmpty) {
  Trace trace{AppType::kBrowsing};
  trace.push_back(record(1.0, 100));
  EXPECT_TRUE(trace
                  .slice(TimePoint::from_seconds(5.0),
                         TimePoint::from_seconds(9.0))
                  .empty());
}

TEST(TraceTest, FilterSplitsDirections) {
  Trace trace{AppType::kVideo};
  trace.push_back(record(1.0, 100, mac::Direction::kDownlink));
  trace.push_back(record(2.0, 200, mac::Direction::kUplink));
  trace.push_back(record(3.0, 300, mac::Direction::kDownlink));
  const Trace down = trace.filter(mac::Direction::kDownlink);
  EXPECT_EQ(down.size(), 2u);
  EXPECT_EQ(down.app(), AppType::kVideo);
  EXPECT_EQ(down.total_bytes(), 400u);
}

TEST(TraceTest, MergeInterleavesSorted) {
  Trace a{AppType::kBrowsing};
  a.push_back(record(1.0, 1));
  a.push_back(record(3.0, 3));
  Trace b{AppType::kBrowsing};
  b.push_back(record(2.0, 2));
  b.push_back(record(4.0, 4));
  const std::vector<Trace> parts{a, b};
  const Trace merged = Trace::merge(parts, AppType::kBrowsing);
  ASSERT_EQ(merged.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(merged[i].size_bytes, i + 1);
  }
}

TEST(TraceTest, CsvRoundTrip) {
  Trace trace{AppType::kBitTorrent};
  trace.push_back(record(0.5, 108, mac::Direction::kDownlink));
  trace.push_back(record(1.25, 1576, mac::Direction::kUplink));
  std::stringstream buffer;
  trace.save_csv(buffer);
  const Trace loaded = Trace::load_csv(buffer, AppType::kBitTorrent);
  ASSERT_EQ(loaded.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(loaded[i], trace[i]);
  }
}

TEST(TraceTest, CsvRejectsGarbage) {
  std::istringstream bad{"not,a,header\n"};
  EXPECT_THROW((void)Trace::load_csv(bad, AppType::kBrowsing),
               std::invalid_argument);
}

// ----------------------------------------------------------- SizeModel ---

TEST(SizeModelTest, SamplesWithinComponents) {
  SizeModel model;
  model.components = {{1.0, 100, 200}, {1.0, 1500, 1576}};
  util::Rng rng{1};
  for (int i = 0; i < 1000; ++i) {
    const std::uint32_t s = model.sample(rng);
    EXPECT_TRUE((s >= 100 && s <= 200) || (s >= 1500 && s <= 1576));
  }
}

TEST(SizeModelTest, MeanClosedFormMatchesEmpirical) {
  SizeModel model;
  model.components = {{0.7, 100, 200}, {0.3, 1000, 1200}};
  util::Rng rng{2};
  util::RunningStats stats;
  for (int i = 0; i < 200000; ++i) {
    stats.add(model.sample(rng));
  }
  EXPECT_NEAR(stats.mean(), model.mean(), 3.0);
}

// -------------------------------------------------------- ArrivalModel ---

TEST(ArrivalModelTest, ExpectedGapSteady) {
  ArrivalModel a{ArrivalKind::kSteadyJitter, 0.01, 0.002, 0, 0, 0};
  EXPECT_DOUBLE_EQ(a.expected_mean_gap(), 0.01);
}

TEST(ArrivalModelTest, ExpectedGapBursty) {
  // B=10 packets: 9 gaps of 0.01 plus one idle of 1.0, over 10 packets.
  ArrivalModel a{ArrivalKind::kBursty, 0.01, 0.0, 10.0, 1.0, 0.5};
  EXPECT_NEAR(a.expected_mean_gap(), (9 * 0.01 + 1.0) / 10.0, 1e-12);
}

// ----------------------------------------------------------- AppModel ---

TEST(AppModelTest, AllModelsWellFormed) {
  for (const AppType app : kAllApps) {
    const AppModel& m = model_for(app);
    EXPECT_EQ(m.app, app);
    EXPECT_FALSE(m.downlink.size.components.empty());
    EXPECT_FALSE(m.uplink.size.components.empty());
    EXPECT_GT(m.downlink.arrival.expected_mean_gap(), 0.0);
    EXPECT_GT(m.uplink.arrival.expected_mean_gap(), 0.0);
    EXPECT_GT(m.rate_spread, 0.0);
  }
}

TEST(AppModelTest, PerturbZeroSigmaIsIdentity) {
  util::Rng rng{3};
  const AppModel& base = model_for(AppType::kVideo);
  const AppModel same = base.perturbed(rng, SessionJitter::none());
  EXPECT_DOUBLE_EQ(same.downlink.arrival.mean_gap_s,
                   base.downlink.arrival.mean_gap_s);
  EXPECT_DOUBLE_EQ(same.downlink.size.components[0].weight,
                   base.downlink.size.components[0].weight);
}

TEST(AppModelTest, PerturbChangesRates) {
  util::Rng rng{4};
  const AppModel& base = model_for(AppType::kDownloading);
  const AppModel other = base.perturbed(rng, SessionJitter{});
  EXPECT_NE(other.downlink.arrival.mean_gap_s,
            base.downlink.arrival.mean_gap_s);
}

TEST(AppModelTest, PerturbedRateIsMeanPreserving) {
  // exp(N(-s^2/2, s)) has mean 1, so averaged over many sessions the
  // mean gap should stay near the calibrated value.
  util::Rng rng{5};
  const AppModel& base = model_for(AppType::kVideo);
  util::RunningStats gaps;
  for (int s = 0; s < 4000; ++s) {
    gaps.add(base.perturbed(rng, SessionJitter{}).downlink.arrival.mean_gap_s);
  }
  EXPECT_NEAR(gaps.mean(), base.downlink.arrival.mean_gap_s,
              base.downlink.arrival.mean_gap_s * 0.1);
}

// ----------------------------------------------------------- Generator ---

TEST(GeneratorTest, DeterministicPerSeed) {
  const Trace a = generate_trace(AppType::kGaming, Duration::seconds(20), 42);
  const Trace b = generate_trace(AppType::kGaming, Duration::seconds(20), 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]);
  }
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  const Trace a = generate_trace(AppType::kGaming, Duration::seconds(20), 1);
  const Trace b = generate_trace(AppType::kGaming, Duration::seconds(20), 2);
  EXPECT_NE(a.size(), b.size());
}

TEST(GeneratorTest, RespectsDuration) {
  const Trace t =
      generate_trace(AppType::kDownloading, Duration::seconds(10), 7);
  EXPECT_LT(t.end_time(), TimePoint::from_seconds(10.0));
  EXPECT_FALSE(t.empty());
}

TEST(GeneratorTest, BothDirectionsPresent) {
  const Trace t = generate_trace(AppType::kBrowsing, Duration::seconds(60), 9);
  EXPECT_GT(t.count(mac::Direction::kDownlink), 0u);
  EXPECT_GT(t.count(mac::Direction::kUplink), 0u);
}

TEST(GeneratorTest, MergedStreamIsTimeOrdered) {
  AppTrafficSource source{AppType::kBitTorrent, 11};
  TimePoint last;
  for (int i = 0; i < 5000; ++i) {
    const PacketRecord r = source.next();
    EXPECT_GE(r.time, last);
    last = r.time;
  }
}

TEST(GeneratorTest, SingleDirectionOverloadFilters) {
  const Trace down =
      generate_trace(AppType::kVideo, Duration::seconds(30), 13,
                     mac::Direction::kDownlink, SessionJitter::none());
  EXPECT_GT(down.size(), 0u);
  EXPECT_EQ(down.count(mac::Direction::kUplink), 0u);
}

TEST(GeneratorTest, RejectsNonPositiveDuration) {
  EXPECT_THROW(
      (void)generate_trace(AppType::kVideo, Duration::seconds(0.0), 1),
      std::invalid_argument);
}

TEST(GeneratorTest, UploadingIsUplinkHeavy) {
  const Trace t =
      generate_trace(AppType::kUploading, Duration::seconds(30), 17,
                     SessionJitter::none());
  std::uint64_t up_bytes = 0;
  std::uint64_t down_bytes = 0;
  for (const PacketRecord& r : t.records()) {
    (r.direction == mac::Direction::kUplink ? up_bytes : down_bytes) +=
        r.size_bytes;
  }
  EXPECT_GT(up_bytes, 10 * down_bytes);
}

// ------------------------------------------- Table I calibration sweep ---

TEST(GeneratorTest, RngOverloadMatchesSeedOverload) {
  // The Rng overload must be exactly "draw one u64, seed with it" so that
  // keyed substreams and explicit seeds produce interchangeable sessions.
  util::Rng rng{123};
  const std::uint64_t seed = util::Rng{123}.next_u64();
  const Trace via_rng = generate_trace(AppType::kGaming,
                                       Duration::seconds(10.0), rng);
  const Trace via_seed =
      generate_trace(AppType::kGaming, Duration::seconds(10.0), seed);
  ASSERT_EQ(via_rng.size(), via_seed.size());
  for (std::size_t i = 0; i < via_rng.size(); ++i) {
    EXPECT_EQ(via_rng[i], via_seed[i]);
  }
}

// GoogleTest prints this parameter as a raw byte dump, and ctest's
// discovered test names include that dump. The padding after `app` is
// therefore spelled out and zeroed: left implicit, it holds whatever the
// stack held, and the case names change from run to run.
struct CalibrationCase {
  AppType app;
  std::uint8_t zero_padding[7];
  double mean_size;   // paper Table I, downlink
  double mean_iat_s;  // paper Table I, downlink
};
static_assert(sizeof(CalibrationCase) ==
                  sizeof(AppType) + 7 + 2 * sizeof(double),
              "CalibrationCase must have no implicit padding");

class CalibrationTest : public ::testing::TestWithParam<CalibrationCase> {};

TEST_P(CalibrationTest, DownlinkSizeMatchesTable1) {
  const auto& param = GetParam();
  const Trace down =
      generate_trace(param.app, Duration::seconds(900), 0xCA11B,
                     mac::Direction::kDownlink, SessionJitter::none());
  util::RunningStats sizes;
  for (const PacketRecord& r : down.records()) {
    sizes.add(r.size_bytes);
  }
  EXPECT_NEAR(sizes.mean(), param.mean_size, param.mean_size * 0.08)
      << to_string(param.app);
}

TEST_P(CalibrationTest, DownlinkRateMatchesTable1) {
  const auto& param = GetParam();
  const Trace down =
      generate_trace(param.app, Duration::seconds(900), 0xCA11C,
                     mac::Direction::kDownlink, SessionJitter::none());
  // Long-run mean gap (idle filtering is a feature-extraction concern; at
  // whole-trace scale the generator's expected gap is the right target).
  const double gap = down.duration().to_seconds() /
                     static_cast<double>(down.size() - 1);
  EXPECT_NEAR(gap, param.mean_iat_s, param.mean_iat_s * 0.35)
      << to_string(param.app);
}

INSTANTIATE_TEST_SUITE_P(
    Table1, CalibrationTest,
    ::testing::Values(
        CalibrationCase{AppType::kBrowsing, {}, 1013.2, 0.0284},
        CalibrationCase{AppType::kChatting, {}, 269.1, 0.9901},
        CalibrationCase{AppType::kGaming, {}, 459.5, 0.3084},
        CalibrationCase{AppType::kDownloading, {}, 1575.3, 0.0023},
        CalibrationCase{AppType::kUploading, {}, 132.8, 0.0301},
        CalibrationCase{AppType::kVideo, {}, 1547.6, 0.0119},
        CalibrationCase{AppType::kBitTorrent, {}, 962.0, 0.0247}),
    [](const ::testing::TestParamInfo<CalibrationCase>& info) {
      return std::string{to_string(info.param.app)};
    });

}  // namespace
}  // namespace reshape::traffic
