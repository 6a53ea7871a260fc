// Unit tests of obs::WindowedSeries / WindowedRegistry / WindowedSnapshot:
// window-boundary bucketing, the canonical window-wise merge (commutative,
// associative, observe==merge equivalence), stable JSON, and the
// EpochScore and Trace publishers.
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "attack/adaptive/adaptive_attacker.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/windowed.h"
#include "traffic/trace.h"
#include "util/time.h"

namespace {

using namespace reshape;

util::TimePoint at_us(std::int64_t us) {
  return util::TimePoint::from_microseconds(us);
}

TEST(WindowedSeriesTest, BucketsHalfOpenWindows) {
  obs::WindowedSeries series{util::Duration::microseconds(100)};
  series.observe(at_us(0), 1.0);
  series.observe(at_us(99), 2.0);
  series.observe(at_us(100), 3.0);  // exactly on the boundary: window 1
  series.observe(at_us(250), 4.0);

  ASSERT_EQ(series.points().size(), 3u);
  EXPECT_EQ(series.points()[0].window, 0);
  EXPECT_EQ(series.points()[0].value.count, 2u);
  EXPECT_DOUBLE_EQ(series.points()[0].value.sum, 3.0);
  EXPECT_DOUBLE_EQ(series.points()[0].value.min, 1.0);
  EXPECT_DOUBLE_EQ(series.points()[0].value.max, 2.0);
  EXPECT_EQ(series.points()[1].window, 1);
  EXPECT_DOUBLE_EQ(series.points()[1].value.sum, 3.0);
  // Window 2 (200..299) exists; the empty window between 1 and 2 does not.
  EXPECT_EQ(series.points()[2].window, 2);
  EXPECT_DOUBLE_EQ(series.points()[2].value.mean(), 4.0);
}

TEST(WindowedSeriesTest, OutOfOrderObservationsFoldIntoPlace) {
  obs::WindowedSeries series{util::Duration::microseconds(10)};
  series.observe(at_us(5), 1.0);
  series.observe(at_us(35), 2.0);
  series.observe(at_us(15), 3.0);  // belongs between the two existing windows
  series.observe(at_us(7), 4.0);   // folds into the first window

  ASSERT_EQ(series.points().size(), 3u);
  EXPECT_EQ(series.points()[0].window, 0);
  EXPECT_EQ(series.points()[0].value.count, 2u);
  EXPECT_EQ(series.points()[1].window, 1);
  EXPECT_DOUBLE_EQ(series.points()[1].value.sum, 3.0);
  EXPECT_EQ(series.points()[2].window, 3);
}

TEST(WindowedSeriesTest, RejectsNonPositiveWindow) {
  EXPECT_THROW(obs::WindowedSeries{util::Duration{}}, std::invalid_argument);
  EXPECT_THROW(obs::WindowedRegistry{util::Duration::microseconds(-5)},
               std::invalid_argument);
}

TEST(WindowedSnapshotTest, MergeEqualsSingleRegistryObservation) {
  // observe(a); observe(b) == merge(snapshot(a-half), snapshot(b-half)) —
  // the canonical equivalence sharded campaign workers rely on.
  const util::Duration window = util::Duration::microseconds(50);
  const obs::LabelSet labels{{"cell", "0"}};

  obs::WindowedRegistry all{window};
  obs::WindowedRegistry left{window};
  obs::WindowedRegistry right{window};
  const std::vector<std::pair<std::int64_t, double>> samples{
      {10, 5.0}, {60, 7.0}, {70, 1.0}, {120, 9.0}, {130, 2.0}, {220, 8.0}};
  for (std::size_t i = 0; i < samples.size(); ++i) {
    all.series("s", labels).observe(at_us(samples[i].first),
                                    samples[i].second);
    (i % 2 == 0 ? left : right)
        .series("s", labels)
        .observe(at_us(samples[i].first), samples[i].second);
  }

  obs::WindowedSnapshot merged = left.snapshot();
  merged.merge(right.snapshot());
  EXPECT_EQ(merged.to_json(), all.snapshot().to_json());

  // Commutative: the other order gives the same bytes.
  obs::WindowedSnapshot reversed = right.snapshot();
  reversed.merge(left.snapshot());
  EXPECT_EQ(reversed.to_json(), merged.to_json());

  // An empty snapshot is the identity (and adopts the window length).
  obs::WindowedSnapshot empty;
  empty.merge(merged);
  EXPECT_EQ(empty.to_json(), merged.to_json());
}

TEST(WindowedSnapshotTest, MergeInterleavesDisjointSeriesAndWindows) {
  const util::Duration window = util::Duration::microseconds(10);
  obs::WindowedRegistry a{window};
  obs::WindowedRegistry b{window};
  a.series("alpha").observe(at_us(5), 1.0);
  a.series("gamma").observe(at_us(25), 3.0);
  b.series("beta").observe(at_us(15), 2.0);
  b.series("gamma").observe(at_us(45), 4.0);

  obs::WindowedSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  ASSERT_EQ(merged.series.size(), 3u);
  EXPECT_EQ(merged.series[0].name, "alpha");
  EXPECT_EQ(merged.series[1].name, "beta");
  EXPECT_EQ(merged.series[2].name, "gamma");
  ASSERT_EQ(merged.series[2].points.size(), 2u);
  EXPECT_EQ(merged.series[2].points[0].window, 2);
  EXPECT_EQ(merged.series[2].points[1].window, 4);

  const obs::SeriesWindows* gamma = merged.find("gamma");
  ASSERT_NE(gamma, nullptr);
  EXPECT_EQ(gamma->points.size(), 2u);
  EXPECT_EQ(merged.find("delta"), nullptr);
}

TEST(WindowedSeriesTest, ObserveKeepsNegativeZeroExact) {
  // observe() folds a one-value accumulator: its sum is 0.0 + v and its
  // min/max are v itself, so a -0.0 reading stays -0.0 at the extremes.
  obs::WindowedSeries series{util::Duration::microseconds(100)};
  series.observe(at_us(10), -0.0);
  series.observe(at_us(20), -0.0);
  series.observe(at_us(110), 1.5);
  series.observe(at_us(120), -0.0);
  ASSERT_EQ(series.points().size(), 2u);
  const obs::WindowAccumulator& first = series.points()[0].value;
  EXPECT_EQ(first.count, 2u);
  EXPECT_FALSE(std::signbit(first.sum));
  EXPECT_TRUE(std::signbit(first.min));
  EXPECT_TRUE(std::signbit(first.max));
  const obs::WindowAccumulator& second = series.points()[1].value;
  EXPECT_EQ(second.sum, 1.5);
  EXPECT_TRUE(std::signbit(second.min));
  EXPECT_EQ(second.max, 1.5);
}

TEST(WindowedSnapshotTest, MergeRejectsMismatchedWindowLengths) {
  obs::WindowedRegistry a{util::Duration::microseconds(10)};
  obs::WindowedRegistry b{util::Duration::microseconds(20)};
  a.series("s").observe(at_us(1), 1.0);
  b.series("s").observe(at_us(1), 1.0);
  obs::WindowedSnapshot merged = a.snapshot();
  EXPECT_THROW(merged.merge(b.snapshot()), std::invalid_argument);
}

TEST(WindowedSnapshotTest, JsonAndCsvAreStable) {
  obs::WindowedRegistry registry{util::Duration::microseconds(100)};
  registry.series("s", obs::LabelSet{{"k", "v"}}).observe(at_us(150), 2.5);
  const std::string json = registry.snapshot().to_json();
  EXPECT_EQ(json,
            "{\"window_us\":100,\"series\":[{\"name\":\"s\",\"labels\":"
            "{\"k\":\"v\"},\"points\":[{\"window\":1,\"count\":1,"
            "\"sum\":2.5,\"min\":2.5,\"max\":2.5}]}]}");
  EXPECT_EQ(registry.snapshot().to_json(), json);
}

TEST(WindowedPublishTest, EpochScoreObservesAtEpochStart) {
  obs::WindowedRegistry registry{util::Duration::seconds(15.0)};
  attack::adaptive::EpochScore score;
  score.epoch = 2;
  score.start = util::TimePoint::from_seconds(30.0);
  score.end = util::TimePoint::from_seconds(45.0);
  score.windows = 4;
  score.confusion = ml::ConfusionMatrix{2};
  score.confusion.add(0, 0);
  score.confusion.add(0, 0);
  score.confusion.add(1, 1);
  score.confusion.add(1, 0);
  publish_windowed(registry, score, obs::LabelSet{{"shard", "0"}});

  const obs::WindowedSnapshot snapshot = registry.snapshot();
  const obs::SeriesWindows* accuracy = snapshot.find(
      "adaptive_accuracy_percent", obs::LabelSet{{"shard", "0"}});
  ASSERT_NE(accuracy, nullptr);
  ASSERT_EQ(accuracy->points.size(), 1u);
  EXPECT_EQ(accuracy->points[0].window, 2);  // 30s / 15s cadence
  EXPECT_DOUBLE_EQ(accuracy->points[0].value.mean(),
                   score.accuracy_percent());
  // No static baseline was tracked, so no static series appears.
  EXPECT_EQ(snapshot.find("adaptive_static_accuracy_percent",
                          obs::LabelSet{{"shard", "0"}}),
            nullptr);

  // A quiet epoch contributes its window count but no accuracy point.
  attack::adaptive::EpochScore quiet;
  quiet.start = util::TimePoint::from_seconds(60.0);
  quiet.windows = 0;
  publish_windowed(registry, quiet, obs::LabelSet{{"shard", "0"}});
  const obs::WindowedSnapshot after = registry.snapshot();
  EXPECT_EQ(after.find("adaptive_accuracy_percent",
                       obs::LabelSet{{"shard", "0"}})
                ->points.size(),
            1u);
  EXPECT_EQ(
      after.find("adaptive_windows", obs::LabelSet{{"shard", "0"}})
          ->points.size(),
      2u);
}

TEST(WindowedPublishTest, TracePublisherCountsPacketsAndBytes) {
  obs::WindowedRegistry registry{util::Duration::microseconds(1000)};
  traffic::Trace trace{traffic::AppType::kChatting};
  trace.push_back(at_us(100), 200, mac::Direction::kUplink);
  trace.push_back(at_us(900), 300, mac::Direction::kDownlink);
  trace.push_back(at_us(1500), 50, mac::Direction::kUplink);
  publish_windowed(registry, trace, "offered_bytes", obs::LabelSet{});

  const obs::WindowedSnapshot snapshot = registry.snapshot();
  const obs::SeriesWindows* offered = snapshot.find("offered_bytes");
  ASSERT_NE(offered, nullptr);
  ASSERT_EQ(offered->points.size(), 2u);
  EXPECT_EQ(offered->points[0].value.count, 2u);       // packets
  EXPECT_DOUBLE_EQ(offered->points[0].value.sum, 500.0);  // bytes
  EXPECT_DOUBLE_EQ(offered->points[1].value.sum, 50.0);
}

}  // namespace
