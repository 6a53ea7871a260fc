// Unit tests for src/features: window extraction, the 5-second idle
// filter, feature subsets, log compression, and both scalers.
#include <gtest/gtest.h>

#include <cmath>

#include "features/features.h"
#include "features/scaler.h"
#include "traffic/generator.h"
#include "traffic/trace.h"

namespace reshape::features {
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

// ------------------------------------------------------ extract_window ---

TEST(ExtractWindowTest, EmptyWindowIsNullopt) {
  const Trace empty;
  EXPECT_FALSE(extract_window(empty.records()).has_value());
}

TEST(ExtractWindowTest, SizeStatisticsPerDirection) {
  Trace trace{AppType::kBrowsing};
  trace.push_back(record(0.0, 100));
  trace.push_back(record(1.0, 300));
  trace.push_back(record(2.0, 200, mac::Direction::kUplink));
  const auto f = extract_window(trace.records());
  ASSERT_TRUE(f.has_value());
  EXPECT_DOUBLE_EQ(f->downlink.packet_count, 2.0);
  EXPECT_DOUBLE_EQ(f->downlink.size_mean, 200.0);
  EXPECT_DOUBLE_EQ(f->downlink.size_min, 100.0);
  EXPECT_DOUBLE_EQ(f->downlink.size_max, 300.0);
  EXPECT_DOUBLE_EQ(f->downlink.size_std, 100.0);
  EXPECT_DOUBLE_EQ(f->uplink.packet_count, 1.0);
  EXPECT_DOUBLE_EQ(f->uplink.size_mean, 200.0);
}

TEST(ExtractWindowTest, InterarrivalMean) {
  Trace trace{AppType::kBrowsing};
  trace.push_back(record(0.0, 100));
  trace.push_back(record(0.5, 100));
  trace.push_back(record(1.5, 100));
  const auto f = extract_window(trace.records());
  ASSERT_TRUE(f.has_value());
  EXPECT_DOUBLE_EQ(f->downlink.iat_mean, 0.75);  // gaps 0.5 and 1.0
}

TEST(ExtractWindowTest, IdleGapsAreFiltered) {
  // Paper §IV-B: gaps > 5 s do not count toward interarrival time.
  Trace trace{AppType::kChatting};
  trace.push_back(record(0.0, 100));
  trace.push_back(record(1.0, 100));
  trace.push_back(record(9.0, 100));  // 8 s idle: filtered
  trace.push_back(record(9.5, 100));
  const auto f = extract_window(trace.records());
  ASSERT_TRUE(f.has_value());
  EXPECT_DOUBLE_EQ(f->downlink.iat_mean, 0.75);  // only 1.0 and 0.5 count
}

TEST(ExtractWindowTest, ExactlyFiveSecondGapIsKept) {
  Trace trace{AppType::kChatting};
  trace.push_back(record(0.0, 100));
  trace.push_back(record(5.0, 100));
  const auto f = extract_window(trace.records());
  ASSERT_TRUE(f.has_value());
  EXPECT_DOUBLE_EQ(f->downlink.iat_mean, 5.0);
}

TEST(ExtractWindowTest, MissingDirectionYieldsZeros) {
  Trace trace{AppType::kDownloading};
  trace.push_back(record(0.0, 1576));
  const auto f = extract_window(trace.records());
  ASSERT_TRUE(f.has_value());
  EXPECT_DOUBLE_EQ(f->uplink.packet_count, 0.0);
  EXPECT_DOUBLE_EQ(f->uplink.size_mean, 0.0);
  EXPECT_DOUBLE_EQ(f->uplink.iat_mean, 0.0);
}

// -------------------------------------------------- extract_all_windows ---

TEST(ExtractAllWindowsTest, WindowCountMatchesDuration) {
  Trace trace{AppType::kVideo};
  for (int i = 0; i < 100; ++i) {
    trace.push_back(record(0.1 * i, 1500));  // 10 s of traffic
  }
  const auto windows = extract_all_windows(trace, Duration::seconds(5.0));
  EXPECT_EQ(windows.size(), 2u);
}

TEST(ExtractAllWindowsTest, SkipsSparseWindows) {
  Trace trace{AppType::kChatting};
  trace.push_back(record(0.0, 100));
  trace.push_back(record(0.1, 100));
  trace.push_back(record(7.0, 100));  // alone in its window
  const auto windows =
      extract_all_windows(trace, Duration::seconds(5.0), /*min_packets=*/2);
  EXPECT_EQ(windows.size(), 1u);
}

TEST(ExtractAllWindowsTest, EmptyTraceYieldsNothing) {
  EXPECT_TRUE(extract_all_windows(Trace{}, Duration::seconds(5.0)).empty());
}

TEST(ExtractAllWindowsTest, RejectsNonPositiveWindow) {
  Trace trace{AppType::kVideo};
  trace.push_back(record(0.0, 100));
  EXPECT_THROW((void)extract_all_windows(trace, Duration::seconds(0.0)),
               std::invalid_argument);
}

TEST(ExtractAllWindowsTest, WindowsAlignToTraceStart) {
  Trace trace{AppType::kVideo};
  for (int i = 0; i < 40; ++i) {
    trace.push_back(record(100.0 + 0.5 * i, 1500));  // starts at t=100
  }
  const auto windows = extract_all_windows(trace, Duration::seconds(5.0));
  EXPECT_EQ(windows.size(), 4u);
  EXPECT_DOUBLE_EQ(windows.front().downlink.packet_count, 10.0);
}

// -------------------------------------------------------------- subset ---

TEST(FeatureSetTest, ProjectionSizes) {
  WindowFeatures f;
  EXPECT_EQ(project(f, FeatureSet::kAll).size(), feature_count(FeatureSet::kAll));
  EXPECT_EQ(project(f, FeatureSet::kTimingOnly).size(),
            feature_count(FeatureSet::kTimingOnly));
  EXPECT_EQ(project(f, FeatureSet::kSizeOnly).size(),
            feature_count(FeatureSet::kSizeOnly));
}

TEST(FeatureSetTest, TimingOnlyIsSizeInvariant) {
  WindowFeatures a;
  a.downlink.packet_count = 10;
  a.downlink.size_mean = 100;
  a.downlink.iat_mean = 0.5;
  WindowFeatures b = a;
  b.downlink.size_mean = 1576;  // padding changes sizes only
  b.downlink.size_max = 1576;
  EXPECT_EQ(project(a, FeatureSet::kTimingOnly),
            project(b, FeatureSet::kTimingOnly));
  EXPECT_NE(project(a, FeatureSet::kAll), project(b, FeatureSet::kAll));
}

TEST(FeatureSetTest, NamesAlignWithVector) {
  EXPECT_EQ(WindowFeatures::names().size(), WindowFeatures::kCount);
  EXPECT_EQ(WindowFeatures::names()[0], "down.count");
  EXPECT_EQ(WindowFeatures::names()[7], "up.count");
}

// -------------------------------------------------------- log_compress ---

TEST(LogCompressTest, CountsBecomeLog2) {
  WindowFeatures f;
  f.downlink.packet_count = 1023.0;
  const WindowFeatures g = log_compress(f);
  EXPECT_NEAR(g.downlink.packet_count, 10.0, 0.01);
}

TEST(LogCompressTest, EmptyDirectionIsFinite) {
  WindowFeatures f;  // all zero
  const WindowFeatures g = log_compress(f);
  EXPECT_DOUBLE_EQ(g.downlink.packet_count, 0.0);
  EXPECT_DOUBLE_EQ(g.downlink.iat_mean, -3.0);  // log10(1e-3)
  EXPECT_TRUE(std::isfinite(g.uplink.iat_std));
}

TEST(LogCompressTest, SizesStayLinear) {
  WindowFeatures f;
  f.downlink.size_mean = 1576.0;
  EXPECT_DOUBLE_EQ(log_compress(f).downlink.size_mean, 1576.0);
}

TEST(LogCompressTest, MonotoneInIat) {
  WindowFeatures a;
  a.downlink.iat_mean = 0.001;
  WindowFeatures b;
  b.downlink.iat_mean = 1.0;
  EXPECT_LT(log_compress(a).downlink.iat_mean,
            log_compress(b).downlink.iat_mean);
}

// -------------------------------------------------------- MinMaxScaler ---

TEST(MinMaxScalerTest, GuardsMisuse) {
  MinMaxScaler scaler;
  EXPECT_THROW((void)scaler.transform(std::vector<double>{1.0}),
               std::invalid_argument);
  std::vector<std::vector<double>> rows{{1.0, 2.0}};
  scaler.fit(rows);
  EXPECT_THROW((void)scaler.transform(std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(MinMaxScalerTest, MapsTrainingRangeToUnit) {
  std::vector<std::vector<double>> rows{{0.0, 100.0}, {10.0, 200.0}};
  MinMaxScaler scaler;
  scaler.fit(rows);
  const auto lo = scaler.transform(rows[0]);
  const auto hi = scaler.transform(rows[1]);
  EXPECT_DOUBLE_EQ(lo[0], 0.0);
  EXPECT_DOUBLE_EQ(hi[0], 1.0);
  EXPECT_DOUBLE_EQ(lo[1], 0.0);
  EXPECT_DOUBLE_EQ(hi[1], 1.0);
}

TEST(MinMaxScalerTest, ClampsOutOfRangeInputs) {
  std::vector<std::vector<double>> rows{{0.0}, {10.0}};
  MinMaxScaler scaler;
  scaler.fit(rows);
  EXPECT_DOUBLE_EQ(scaler.transform(std::vector<double>{-5.0})[0], 0.0);
  EXPECT_DOUBLE_EQ(scaler.transform(std::vector<double>{50.0})[0], 1.0);
}

TEST(MinMaxScalerTest, ConstantColumnMapsToZero) {
  std::vector<std::vector<double>> rows{{4.0}, {4.0}};
  MinMaxScaler scaler;
  scaler.fit(rows);
  EXPECT_DOUBLE_EQ(scaler.transform(std::vector<double>{4.0})[0], 0.0);
}

TEST(MinMaxScalerTest, TransformAllMatchesTransform) {
  std::vector<std::vector<double>> rows{{1.0, 2.0}, {3.0, 4.0}, {2.0, 3.0}};
  MinMaxScaler scaler;
  scaler.fit(rows);
  const auto all = scaler.transform_all(rows);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(all[i], scaler.transform(rows[i]));
  }
}

// ---------------------------------------- end-to-end feature sanity ---

TEST(FeaturePipelineTest, GeneratedTrafficProducesSaneFeatures) {
  const Trace trace = traffic::generate_trace(
      AppType::kVideo, Duration::seconds(30), 99,
      traffic::SessionJitter::none());
  const auto windows = extract_all_windows(trace, Duration::seconds(5.0));
  ASSERT_GT(windows.size(), 3u);
  for (const WindowFeatures& w : windows) {
    EXPECT_GT(w.downlink.packet_count, 0.0);
    EXPECT_GE(w.downlink.size_max, w.downlink.size_mean);
    EXPECT_GE(w.downlink.size_mean, w.downlink.size_min);
    EXPECT_LE(w.downlink.size_max, 1576.0);
    EXPECT_GT(w.downlink.iat_mean, 0.0);
    EXPECT_LT(w.downlink.iat_mean, 5.0);
  }
}

}  // namespace
}  // namespace reshape::features
