// Unit tests for the CART decision tree and the airtime-cost analysis —
// the two extension modules behind the robustness and airtime ablations.
#include <gtest/gtest.h>

#include "core/airtime.h"
#include "core/defense.h"
#include "core/scheduler.h"
#include "ml/decision_tree.h"
#include "ml/metrics.h"
#include "traffic/generator.h"
#include "util/rng.h"

namespace reshape {
namespace {

// ------------------------------------------------------- DecisionTree ---

ml::Dataset xor_like(std::uint64_t seed, int per_quadrant = 40) {
  // XOR pattern: not linearly separable, easy for an axis-aligned tree
  // with depth >= 2.
  util::Rng rng{seed};
  ml::Dataset data;
  for (int q = 0; q < 4; ++q) {
    const double cx = (q & 1) ? 1.0 : -1.0;
    const double cy = (q & 2) ? 1.0 : -1.0;
    const int label = ((q & 1) ^ ((q & 2) >> 1));
    for (int k = 0; k < per_quadrant; ++k) {
      data.add({cx + rng.normal(0.0, 0.2), cy + rng.normal(0.0, 0.2)}, label);
    }
  }
  data.set_num_classes(2);
  return data;
}

TEST(DecisionTreeTest, SolvesXor) {
  ml::DecisionTreeClassifier tree;
  const ml::Dataset data = xor_like(1);
  tree.fit(data);
  ml::ConfusionMatrix confusion{2};
  for (std::size_t i = 0; i < data.size(); ++i) {
    confusion.add(data.label(i), tree.predict(data.row(i)));
  }
  EXPECT_GT(confusion.overall_accuracy(), 0.97);
  EXPECT_GE(tree.depth(), 2u);  // XOR needs at least two split levels
}

TEST(DecisionTreeTest, RespectsMaxDepth) {
  ml::TreeConfig config;
  config.max_depth = 1;
  ml::DecisionTreeClassifier stump{config};
  stump.fit(xor_like(2));
  EXPECT_LE(stump.depth(), 1u);
  EXPECT_LE(stump.node_count(), 3u);  // root + two leaves
}

TEST(DecisionTreeTest, PureDataIsSingleLeaf) {
  ml::Dataset data;
  data.add({1.0}, 0);
  data.add({2.0}, 0);
  data.add({3.0}, 0);
  data.set_num_classes(2);
  ml::DecisionTreeClassifier tree;
  tree.fit(data);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.predict(std::vector<double>{99.0}), 0);
}

TEST(DecisionTreeTest, DeterministicRefit) {
  const ml::Dataset data = xor_like(3);
  ml::DecisionTreeClassifier a;
  ml::DecisionTreeClassifier b;
  a.fit(data);
  b.fit(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(a.predict(data.row(i)), b.predict(data.row(i)));
  }
}

TEST(DecisionTreeTest, GuardsMisuse) {
  ml::DecisionTreeClassifier tree;
  EXPECT_THROW((void)tree.predict(std::vector<double>{1.0}),
               std::invalid_argument);
  ml::Dataset empty;
  EXPECT_THROW(tree.fit(empty), std::invalid_argument);
  ml::TreeConfig bad;
  bad.max_depth = 0;
  EXPECT_THROW(ml::DecisionTreeClassifier{bad}, std::invalid_argument);
}

TEST(DecisionTreeTest, MulticlassBlobs) {
  util::Rng rng{5};
  ml::Dataset data;
  for (int c = 0; c < 5; ++c) {
    for (int k = 0; k < 30; ++k) {
      data.add({rng.normal(2.0 * c, 0.3), rng.normal(-c, 0.3)}, c);
    }
  }
  ml::DecisionTreeClassifier tree;
  tree.fit(data);
  int correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    correct += tree.predict(data.row(i)) == data.label(i);
  }
  EXPECT_GT(correct, static_cast<int>(data.size()) * 95 / 100);
}

// ------------------------------------------------------------ Airtime ---

TEST(AirtimeTest, SingleFrameMatchesMacModel) {
  traffic::Trace trace{traffic::AppType::kVideo};
  traffic::PacketRecord r;
  r.time = util::TimePoint::from_seconds(1.0);
  r.size_bytes = 1500;
  trace.push_back(r);
  const core::AirtimeCost cost = core::trace_airtime(trace, 54.0);
  EXPECT_EQ(cost.total, mac::airtime(1500, 54.0));
}

TEST(AirtimeTest, UtilisationIsBounded) {
  const traffic::Trace trace = traffic::generate_trace(
      traffic::AppType::kDownloading, util::Duration::seconds(20), 1,
      traffic::SessionJitter::none());
  const core::AirtimeCost cost = core::trace_airtime(trace, 54.0);
  EXPECT_GT(cost.utilisation, 0.0);
  EXPECT_LT(cost.utilisation, 1.0);
}

TEST(AirtimeTest, ReshapingAddsZeroAirtime) {
  const traffic::Trace trace = traffic::generate_trace(
      traffic::AppType::kBitTorrent, util::Duration::seconds(20), 2,
      traffic::SessionJitter::none());
  core::NoDefense none;
  core::ReshapingDefense reshaping{
      core::make_scheduler(core::SchedulerKind::kOrthogonal, 3, 1)};
  const auto baseline = core::defense_airtime(none.apply(trace), 54.0);
  const auto reshaped = core::defense_airtime(reshaping.apply(trace), 54.0);
  EXPECT_EQ(reshaped.total, baseline.total);
  EXPECT_DOUBLE_EQ(reshaped.overhead_percent(baseline), 0.0);
}

TEST(AirtimeTest, PaddingAddsAirtime) {
  const traffic::Trace trace = traffic::generate_trace(
      traffic::AppType::kChatting, util::Duration::seconds(60), 3,
      traffic::SessionJitter::none());
  core::NoDefense none;
  auto padding = core::ReshapingDefense::shaping(
      std::make_unique<core::PaddingShaper>());
  const auto baseline = core::defense_airtime(none.apply(trace), 54.0);
  const auto padded = core::defense_airtime(padding.apply(trace), 54.0);
  EXPECT_GT(padded.overhead_percent(baseline), 50.0);  // chatting is small
}

TEST(AirtimeTest, SlowerBitrateCostsMore) {
  const traffic::Trace trace = traffic::generate_trace(
      traffic::AppType::kVideo, util::Duration::seconds(5), 4,
      traffic::SessionJitter::none());
  EXPECT_GT(core::trace_airtime(trace, 11.0).total,
            core::trace_airtime(trace, 54.0).total);
  EXPECT_THROW((void)core::trace_airtime(trace, 0.0), std::invalid_argument);
}

TEST(AirtimeTest, EmptyTraceIsZero) {
  const core::AirtimeCost cost =
      core::trace_airtime(traffic::Trace{}, 54.0);
  EXPECT_EQ(cost.total.count_us(), 0);
  EXPECT_DOUBLE_EQ(cost.utilisation, 0.0);
}

}  // namespace
}  // namespace reshape
