// Unit tests for src/attack: the sniffer's flow isolation, the classifier
// attack pipeline, and the RSSI linker.
#include <gtest/gtest.h>

#include "attack/classifier_attack.h"
#include "attack/rssi_linker.h"
#include "attack/sniffer.h"
#include "ml/knn.h"
#include "traffic/generator.h"

namespace reshape::attack {
namespace {

using traffic::AppType;
using util::Duration;
using util::TimePoint;

// ------------------------------------------------------------- Sniffer ---

mac::Frame data_frame(const mac::MacAddress& src, const mac::MacAddress& dst,
                      std::uint32_t size, double t) {
  mac::Frame f;
  f.source = src;
  f.destination = dst;
  f.size_bytes = size;
  f.timestamp = TimePoint::from_seconds(t);
  return f;
}

TEST(SnifferTest, KeysFlowsByClientSideMac) {
  const auto bssid = mac::MacAddress::parse("02:00:00:00:00:01");
  const auto sta = mac::MacAddress::parse("02:00:00:00:00:02");
  Sniffer sniffer{bssid};
  sniffer.on_frame(data_frame(bssid, sta, 500, 0.0), -50.0);  // downlink
  sniffer.on_frame(data_frame(sta, bssid, 100, 1.0), -55.0);  // uplink
  EXPECT_EQ(sniffer.frames_captured(), 2u);
  ASSERT_EQ(sniffer.observed_stations().size(), 1u);
  EXPECT_EQ(sniffer.observed_stations()[0], sta);

  const traffic::Trace flow = sniffer.flow_of(sta, AppType::kBrowsing);
  ASSERT_EQ(flow.size(), 2u);
  EXPECT_EQ(flow[0].direction, mac::Direction::kDownlink);
  EXPECT_EQ(flow[1].direction, mac::Direction::kUplink);
  EXPECT_EQ(flow.app(), AppType::kBrowsing);
}

TEST(SnifferTest, IgnoresForeignCellsAndManagement) {
  const auto bssid = mac::MacAddress::parse("02:00:00:00:00:01");
  const auto other_ap = mac::MacAddress::parse("02:00:00:00:00:09");
  const auto sta = mac::MacAddress::parse("02:00:00:00:00:02");
  Sniffer sniffer{bssid};
  sniffer.on_frame(data_frame(other_ap, sta, 500, 0.0), -50.0);
  mac::Frame mgmt = data_frame(sta, bssid, 120, 1.0);
  mgmt.type = mac::FrameType::kManagement;
  sniffer.on_frame(mgmt, -50.0);
  EXPECT_EQ(sniffer.frames_captured(), 0u);
}

TEST(SnifferTest, MeanRssiTracksUplinkOnly) {
  const auto bssid = mac::MacAddress::parse("02:00:00:00:00:01");
  const auto sta = mac::MacAddress::parse("02:00:00:00:00:02");
  Sniffer sniffer{bssid};
  sniffer.on_frame(data_frame(sta, bssid, 100, 0.0), -40.0);
  sniffer.on_frame(data_frame(sta, bssid, 100, 1.0), -60.0);
  sniffer.on_frame(data_frame(bssid, sta, 100, 2.0), -10.0);  // AP's power
  const auto rssi = sniffer.mean_rssi();
  ASSERT_EQ(rssi.size(), 1u);
  EXPECT_EQ(rssi[0].first, sta);
  EXPECT_DOUBLE_EQ(rssi[0].second, -50.0);
}

TEST(SnifferTest, ReportsAreSortedByMacAddress) {
  // Stations appear on the air in descending-address order; both reports
  // must come back ascending regardless (byte-stable epoch logs depend on
  // it — the old unordered_map-backed path varied across libstdc++).
  const auto bssid = mac::MacAddress::parse("02:00:00:00:00:01");
  const auto high = mac::MacAddress::parse("02:00:00:00:00:99");
  const auto mid = mac::MacAddress::parse("02:00:00:00:00:55");
  const auto low = mac::MacAddress::parse("02:00:00:00:00:22");
  Sniffer sniffer{bssid};
  sniffer.on_frame(data_frame(high, bssid, 100, 0.0), -40.0);
  sniffer.on_frame(data_frame(mid, bssid, 100, 1.0), -50.0);
  sniffer.on_frame(data_frame(low, bssid, 100, 2.0), -60.0);

  const auto stations = sniffer.observed_stations();
  ASSERT_EQ(stations.size(), 3u);
  EXPECT_EQ(stations[0], low);
  EXPECT_EQ(stations[1], mid);
  EXPECT_EQ(stations[2], high);

  const auto rssi = sniffer.mean_rssi();
  ASSERT_EQ(rssi.size(), 3u);
  EXPECT_EQ(rssi[0].first, low);
  EXPECT_EQ(rssi[1].first, mid);
  EXPECT_EQ(rssi[2].first, high);
}

TEST(SnifferTest, ClearDropsState) {
  const auto bssid = mac::MacAddress::parse("02:00:00:00:00:01");
  Sniffer sniffer{bssid};
  sniffer.on_frame(
      data_frame(mac::MacAddress::parse("02:00:00:00:00:02"), bssid, 50, 0.0),
      -50.0);
  sniffer.clear();
  EXPECT_EQ(sniffer.frames_captured(), 0u);
  EXPECT_TRUE(sniffer.observed_stations().empty());
}

TEST(SnifferTest, RequiresBssid) {
  EXPECT_THROW(Sniffer{mac::MacAddress{}}, std::invalid_argument);
}

// --------------------------------------------------- ClassifierAttack ---

TEST(ClassifierAttackTest, TrainsAndSeparatesTwoApps) {
  // kNN keeps this test fast and deterministic.
  AttackConfig config;
  ClassifierAttack attack{config, std::make_unique<ml::KnnClassifier>(3)};
  std::vector<traffic::Trace> corpus;
  for (std::uint64_t s = 0; s < 6; ++s) {
    corpus.push_back(traffic::generate_trace(AppType::kChatting,
                                             Duration::seconds(60), 100 + s));
    corpus.push_back(traffic::generate_trace(AppType::kDownloading,
                                             Duration::seconds(60), 200 + s));
  }
  attack.train(corpus);
  EXPECT_TRUE(attack.trained());

  const traffic::Trace probe = traffic::generate_trace(
      AppType::kDownloading, Duration::seconds(30), 999);
  const auto votes = attack.classify_flow(probe);
  ASSERT_FALSE(votes.empty());
  int correct = 0;
  for (const int v : votes) {
    correct += v == static_cast<int>(traffic::app_index(AppType::kDownloading));
  }
  EXPECT_GT(correct * 2, static_cast<int>(votes.size()));  // majority
}

TEST(ClassifierAttackTest, EvaluateBuildsConfusionOverWindows) {
  AttackConfig config;
  ClassifierAttack attack{config, std::make_unique<ml::KnnClassifier>(3)};
  std::vector<traffic::Trace> corpus;
  for (std::uint64_t s = 0; s < 4; ++s) {
    corpus.push_back(traffic::generate_trace(AppType::kVideo,
                                             Duration::seconds(40), 300 + s));
    corpus.push_back(traffic::generate_trace(AppType::kChatting,
                                             Duration::seconds(40), 400 + s));
  }
  attack.train(corpus);
  std::vector<traffic::Trace> flows{
      traffic::generate_trace(AppType::kVideo, Duration::seconds(40), 888)};
  const auto confusion = attack.evaluate(flows);
  EXPECT_GT(confusion.total(), 0u);
  EXPECT_GT(confusion.accuracy(
                static_cast<int>(traffic::app_index(AppType::kVideo))),
            0.5);
}

TEST(ClassifierAttackTest, GuardsMisuse) {
  AttackConfig config;
  ClassifierAttack attack{config, std::make_unique<ml::KnnClassifier>(3)};
  EXPECT_THROW(attack.train({}), std::invalid_argument);
  EXPECT_THROW((void)attack.classify_flow(traffic::Trace{}),
               std::invalid_argument);
  EXPECT_THROW(ClassifierAttack(config, nullptr), std::invalid_argument);
}

TEST(ClassifierAttackTest, EmptyFlowYieldsNoVotes) {
  AttackConfig config;
  ClassifierAttack attack{config, std::make_unique<ml::KnnClassifier>(1)};
  const std::vector<traffic::Trace> corpus{
      traffic::generate_trace(AppType::kVideo, Duration::seconds(20), 1),
      traffic::generate_trace(AppType::kChatting, Duration::seconds(20), 2)};
  attack.train(corpus);
  EXPECT_TRUE(attack.classify_flow(traffic::Trace{}).empty());
}

// --------------------------------------------------------- profile_rows ---

std::vector<traffic::Trace> two_app_corpus() {
  return {traffic::generate_trace(AppType::kBrowsing, Duration::seconds(40), 5),
          traffic::generate_trace(AppType::kVideo, Duration::seconds(40), 6)};
}

TEST(ProfileRowsTest, AugmentedWindowsGiveDownlinkUplinkThenFullRow) {
  AttackConfig config;  // kAll, log-compressed, augmentation on
  ASSERT_TRUE(config.augment_direction_masks);
  const std::vector<traffic::Trace> corpus = two_app_corpus();
  const ml::Dataset data = profile_rows(corpus, config);

  // A masked row keeps one direction's block and writes the
  // empty-direction signature over the other.
  constexpr std::size_t kHalf = features::DirectionFeatures::kCount;
  const auto blank_array =
      features::log_compress(features::WindowFeatures{}).downlink.to_array();
  const std::vector<double> blank(blank_array.begin(), blank_array.end());
  const auto block = [](const std::vector<double>& row, bool downlink) {
    const auto begin = row.begin() + (downlink ? 0 : kHalf);
    return std::vector<double>(begin, begin + kHalf);
  };

  std::vector<std::vector<double>> full_rows;
  std::vector<features::WindowFeatures> windows;
  std::size_t next = 0;
  std::size_t two_sided = 0;
  for (const traffic::Trace& t : corpus) {
    const int label = static_cast<int>(traffic::app_index(t.app()));
    feature_rows_into(full_rows, t.records(), config, windows);
    ASSERT_FALSE(full_rows.empty());
    for (const std::vector<double>& full : full_rows) {
      const bool downlink = full[0] > 0.0;  // packet_count leads each block
      const bool uplink = full[kHalf] > 0.0;
      two_sided += downlink && uplink ? 1 : 0;
      if (downlink) {
        ASSERT_LT(next, data.size());
        EXPECT_EQ(block(data.row(next), true), block(full, true));
        EXPECT_EQ(block(data.row(next), false), blank);
        EXPECT_EQ(data.label(next), label);
        ++next;
      }
      if (uplink) {
        ASSERT_LT(next, data.size());
        EXPECT_EQ(block(data.row(next), true), blank);
        EXPECT_EQ(block(data.row(next), false), block(full, false));
        EXPECT_EQ(data.label(next), label);
        ++next;
      }
      ASSERT_LT(next, data.size());
      EXPECT_EQ(data.row(next), full);
      EXPECT_EQ(data.label(next), label);
      ++next;
    }
  }
  EXPECT_EQ(next, data.size());
  EXPECT_GT(two_sided, 0u);  // the three-row order is really exercised
  EXPECT_EQ(data.num_classes(), static_cast<int>(traffic::kAppCount));
}

TEST(ProfileRowsTest, WithoutAugmentationEqualsConcatenatedFeatureRows) {
  AttackConfig config;
  config.augment_direction_masks = false;
  const std::vector<traffic::Trace> corpus = two_app_corpus();
  const ml::Dataset data = profile_rows(corpus, config);

  std::vector<std::vector<double>> expected;
  std::vector<int> labels;
  std::vector<std::vector<double>> rows;
  std::vector<features::WindowFeatures> windows;
  for (const traffic::Trace& t : corpus) {
    feature_rows_into(rows, t.records(), config, windows);
    for (std::vector<double>& row : rows) {
      expected.push_back(std::move(row));
      labels.push_back(static_cast<int>(traffic::app_index(t.app())));
    }
  }
  ASSERT_EQ(data.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(data.row(i), expected[i]) << "row " << i;
    EXPECT_EQ(data.label(i), labels[i]) << "row " << i;
  }
}

TEST(ProfileRowsTest, RejectsCorpusWithoutUsableWindows) {
  AttackConfig config;
  EXPECT_THROW((void)profile_rows({}, config), std::invalid_argument);
  const std::vector<traffic::Trace> empty_flows(2);
  EXPECT_THROW((void)profile_rows(empty_flows, config), std::invalid_argument);
}

// ----------------------------------------------------------- RssiLinker ---

mac::MacAddress addr(int k) {
  return mac::MacAddress::from_u64(0x020000000000ULL +
                                   static_cast<std::uint64_t>(k));
}

TEST(RssiLinkerTest, LinksCloseAndSeparatesFar) {
  RssiLinker linker{2.0};
  const std::vector<std::pair<mac::MacAddress, double>> rssi{
      {addr(1), -50.0}, {addr(2), -50.5}, {addr(3), -51.0},  // one client
      {addr(4), -70.0},                                      // far station
  };
  const auto groups = linker.link(rssi);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_TRUE(RssiLinker::exactly_linked(groups,
                                         {addr(1), addr(2), addr(3)}));
  EXPECT_TRUE(RssiLinker::exactly_linked(groups, {addr(4)}));
}

TEST(RssiLinkerTest, ChainedLinkageIsTransitive) {
  // -50, -48.5, -47: neighbours within 2 dB link the whole chain.
  RssiLinker linker{2.0};
  const std::vector<std::pair<mac::MacAddress, double>> rssi{
      {addr(1), -50.0}, {addr(2), -48.5}, {addr(3), -47.0}};
  const auto groups = linker.link(rssi);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].size(), 3u);
}

TEST(RssiLinkerTest, SpreadMeansBreakLinks) {
  RssiLinker linker{2.0};
  const std::vector<std::pair<mac::MacAddress, double>> rssi{
      {addr(1), -40.0}, {addr(2), -50.0}, {addr(3), -60.0}};
  EXPECT_EQ(linker.link(rssi).size(), 3u);
}

TEST(RssiLinkerTest, EmptyInputYieldsNoGroups) {
  RssiLinker linker{2.0};
  EXPECT_TRUE(linker.link({}).empty());
}

TEST(RssiLinkerTest, ExactLinkRequiresExactGroup) {
  const std::vector<LinkedGroup> groups{{addr(1), addr(2)}};
  EXPECT_TRUE(RssiLinker::exactly_linked(groups, {addr(2), addr(1)}));
  EXPECT_FALSE(RssiLinker::exactly_linked(groups, {addr(1)}));
  EXPECT_FALSE(RssiLinker::exactly_linked(groups,
                                          {addr(1), addr(2), addr(3)}));
}

TEST(RssiLinkerTest, RejectsNegativeThreshold) {
  EXPECT_THROW(RssiLinker{-1.0}, std::invalid_argument);
}

}  // namespace
}  // namespace reshape::attack
