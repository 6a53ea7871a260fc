// Unit tests for the adaptive attacker-in-the-loop: the incremental
// trainer's warm refits and sliding window, the prequential epoch loop
// (score-then-train, oracle and RSSI-cluster labeling), concurrent
// sessions on one const attacker, a bit-for-bit pin of the session
// curves, sniffer observation, and the adaptive registry scenarios.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "attack/adaptive/adaptive_attacker.h"
#include "core/defense.h"
#include "ml/incremental.h"
#include "ml/knn.h"
#include "runtime/scenario.h"
#include "traffic/generator.h"

namespace reshape::attack::adaptive {
namespace {

using traffic::AppType;
using util::Duration;
using util::TimePoint;

// ---------------------------------------------------- IncrementalTrainer ---

std::vector<double> row2(double a, double b) { return {a, b}; }

TEST(IncrementalTrainerTest, RefitsOverBasePlusWindow) {
  ml::IncrementalTrainer trainer{std::make_unique<ml::KnnClassifier>(1), 2};
  trainer.set_base(ml::Dataset{{row2(0.0, 0.0), row2(1.0, 1.0)}, {0, 1}, 2});
  ASSERT_TRUE(trainer.refit());
  EXPECT_EQ(trainer.refits(), 1u);
  EXPECT_EQ(trainer.base_rows(), 2u);
  EXPECT_EQ(trainer.predict(row2(0.1, 0.1)), 0);
  EXPECT_EQ(trainer.predict(row2(0.9, 0.9)), 1);

  // New evidence relabels the upper-right corner; a warm refit absorbs it.
  trainer.add(row2(0.9, 0.9), 0);
  trainer.add(row2(0.95, 0.95), 0);
  ASSERT_TRUE(trainer.refit());
  EXPECT_EQ(trainer.refits(), 2u);
  EXPECT_EQ(trainer.total_rows(), 4u);
  EXPECT_EQ(trainer.predict(row2(0.92, 0.92)), 0);
}

TEST(IncrementalTrainerTest, SlidingWindowEvictsOldestRows) {
  ml::IncrementalTrainerConfig config;
  config.max_adaptive_rows = 3;
  ml::IncrementalTrainer trainer{std::make_unique<ml::KnnClassifier>(1), 2,
                                 config};
  for (int k = 0; k < 10; ++k) {
    trainer.add(row2(static_cast<double>(k), 0.0), k % 2);
  }
  EXPECT_EQ(trainer.adaptive_rows(), 3u);  // only the newest three survive
  ASSERT_TRUE(trainer.refit());
  // Rows 7/8/9 remain: a probe at 0 lands on the oldest survivor (7 -> 1).
  EXPECT_EQ(trainer.predict(row2(0.0, 0.0)), 1);
}

TEST(IncrementalTrainerTest, GuardsMisuse) {
  EXPECT_THROW((ml::IncrementalTrainer{nullptr, 2}), std::invalid_argument);
  ml::IncrementalTrainer trainer{std::make_unique<ml::KnnClassifier>(1), 2};
  EXPECT_FALSE(trainer.refit());  // nothing to fit
  EXPECT_THROW((void)trainer.predict(row2(0, 0)), std::invalid_argument);
  EXPECT_THROW(trainer.add(row2(0, 0), 7), std::invalid_argument);
  trainer.add(row2(0, 0), 0);
  EXPECT_THROW(trainer.add({1.0}, 0), std::invalid_argument);  // dim mismatch
}

// ----------------------------------------------------- AdaptiveAttacker ---

AdaptiveConfig fast_config() {
  AdaptiveConfig config;
  config.cadence = Duration::seconds(15.0);
  return config;
}

std::vector<traffic::Trace> clean_corpus(std::uint64_t seed) {
  std::vector<traffic::Trace> corpus;
  for (const AppType app : {AppType::kChatting, AppType::kDownloading,
                            AppType::kBrowsing, AppType::kBitTorrent}) {
    for (std::uint64_t s = 0; s < 3; ++s) {
      corpus.push_back(traffic::generate_trace(app, Duration::seconds(45),
                                               seed + 16 * s +
                                                   traffic::app_index(app)));
    }
  }
  return corpus;
}

/// An attacker trained on clean_corpus(seed).
AdaptiveAttacker trained_attacker(const AdaptiveConfig& config,
                                  std::uint64_t seed) {
  return AdaptiveAttacker{config,
                          profile_rows(clean_corpus(seed), config.attack)};
}

/// Splits a session across OR virtual interfaces — the defended
/// appearance that collapses the static profile (paper Table II:
/// browsing/BitTorrent fall to ~2 % under OR) but that a re-training
/// attacker can learn with oracle labels.
void or_flows(AppType app, std::uint64_t seed, std::uint64_t first_mac,
              double rssi, std::vector<ObservedFlow>& out) {
  core::ReshapingDefense reshaping{std::make_unique<core::OrthogonalScheduler>(
      core::OrthogonalScheduler::identity(core::SizeRanges::paper_default()))};
  const traffic::Trace original =
      traffic::generate_trace(app, Duration::seconds(75), seed);
  core::DefenseResult defended = reshaping.apply(original);
  std::uint64_t mac = first_mac;
  for (traffic::Trace& stream : defended.streams) {
    if (stream.empty()) {
      continue;
    }
    ObservedFlow flow;
    flow.address = mac::MacAddress::from_u64(0x020000000000ULL + mac++);
    flow.mean_rssi = rssi;
    flow.flow = std::move(stream);
    flow.flow.set_app(app);
    out.push_back(std::move(flow));
  }
}

TEST(AdaptiveAttackerTest, PrequentialLoopScoresThenTrains) {
  const AdaptiveAttacker attacker = trained_attacker(fast_config(), 0x100);

  std::vector<ObservedFlow> flows;
  or_flows(AppType::kBrowsing, 0x200, 1, -50.0, flows);
  or_flows(AppType::kBitTorrent, 0x300, 10, -60.0, flows);
  ASSERT_FALSE(flows.empty());
  const std::vector<EpochScore> epochs = attacker.run_session(flows);
  ASSERT_GE(epochs.size(), 3u);

  // Epoch 0 is scored by the bootstrap-only model: adaptive == static.
  EXPECT_EQ(epochs[0].accuracy_percent(), epochs[0].static_accuracy_percent());
  EXPECT_EQ(epochs[0].training_rows,
            attacker.base().size() + epochs[0].labels_assigned);

  // Oracle labels are always correct, and the trainer grows per epoch.
  std::size_t windows = 0;
  for (const EpochScore& epoch : epochs) {
    EXPECT_EQ(epoch.labels_correct, epoch.labels_assigned);
    EXPECT_EQ(epoch.windows, epoch.labels_assigned);
    windows += epoch.windows;
  }
  ASSERT_GT(windows, 0u);

  // The arms race: against padded traffic the static baseline flounders
  // while the adaptive model learns the defended appearance — by the late
  // epochs it must beat the frozen pipeline on the same windows.
  const EpochScore& last = epochs.back();
  EXPECT_GT(last.accuracy_percent(), last.static_accuracy_percent());
  EXPECT_GT(last.accuracy_percent(), epochs[0].accuracy_percent());
}

TEST(AdaptiveAttackerTest, RepeatedSessionsAreIndependent) {
  // Each session trains its own model from the bootstrap rows, so
  // replaying the same capture yields the same curve (the arms race
  // restarts per session).
  const AdaptiveAttacker attacker = trained_attacker(fast_config(), 0x111);
  std::vector<ObservedFlow> flows;
  or_flows(AppType::kBrowsing, 0x222, 1, -50.0, flows);
  const auto first = attacker.run_session(flows);
  const auto second = attacker.run_session(flows);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t e = 0; e < first.size(); ++e) {
    EXPECT_EQ(first[e].accuracy_percent(), second[e].accuracy_percent());
    EXPECT_EQ(first[e].training_rows, second[e].training_rows);
  }
}

/// Two physical stations, each split across two virtual MACs at nearly
/// the same RSSI: four clean flows.
std::vector<ObservedFlow> linked_clean_flows() {
  const auto clean_flow = [](AppType app, std::uint64_t seed,
                             std::uint64_t mac, double rssi) {
    ObservedFlow flow;
    flow.address = mac::MacAddress::from_u64(0x020000000000ULL + mac);
    flow.flow = traffic::generate_trace(app, Duration::seconds(60), seed);
    flow.mean_rssi = rssi;
    return flow;
  };
  std::vector<ObservedFlow> flows;
  flows.push_back(clean_flow(AppType::kChatting, 0x500, 1, -50.0));
  flows.push_back(clean_flow(AppType::kChatting, 0x501, 2, -50.4));
  flows.push_back(clean_flow(AppType::kDownloading, 0x502, 3, -68.0));
  flows.push_back(clean_flow(AppType::kDownloading, 0x503, 4, -68.3));
  return flows;
}

TEST(AdaptiveAttackerTest, RssiClusterLabelingPoolsLinkedFlows) {
  // Two physical stations, each split across two virtual MACs at nearly
  // the same RSSI; the §V-A adversary links them and pseudo-labels per
  // cluster. Clean (undefended) flows keep the current model accurate, so
  // the majority vote should mostly recover the truth.
  AdaptiveConfig config = fast_config();
  config.labeling = Labeling::kRssiCluster;
  const AdaptiveAttacker attacker = trained_attacker(config, 0x400);

  const std::vector<EpochScore> epochs =
      attacker.run_session(linked_clean_flows());
  ASSERT_FALSE(epochs.empty());
  std::size_t assigned = 0;
  std::size_t correct = 0;
  for (const EpochScore& epoch : epochs) {
    assigned += epoch.labels_assigned;
    correct += epoch.labels_correct;
  }
  ASSERT_GT(assigned, 0u);
  // Pseudo-labels are noisy but must beat coin-flipping over 3 classes.
  EXPECT_GT(static_cast<double>(correct),
            0.5 * static_cast<double>(assigned));
}

TEST(AdaptiveAttackerTest, GuardsMisuse) {
  // An attacker without bootstrap rows cannot exist.
  EXPECT_THROW((AdaptiveAttacker{fast_config(), ml::Dataset{}}),
               std::invalid_argument);
  const ml::Dataset base =
      profile_rows(clean_corpus(0x600), fast_config().attack);
  AdaptiveConfig bad;
  bad.cadence = Duration{};
  EXPECT_THROW((AdaptiveAttacker{bad, base}), std::invalid_argument);
  const AdaptiveAttacker attacker{fast_config(), base};
  EXPECT_TRUE(attacker.run_session({}).empty());  // nothing on the air
}

// ------------------------------------------------ session-curve pin ---

// FNV-1a 64 over every EpochScore field of a curve: epoch index, start and
// end (µs), windows, both confusion matrices cell by cell, both label
// tallies, training rows and the refit flag.
class CurveDigest {
 public:
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xFFU;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void add(const ml::ConfusionMatrix& confusion) {
    add(static_cast<std::uint64_t>(confusion.num_classes()));
    for (int truth = 0; truth < confusion.num_classes(); ++truth) {
      for (int predicted = 0; predicted < confusion.num_classes();
           ++predicted) {
        add(confusion.count(truth, predicted));
      }
    }
  }
  void add(const std::vector<EpochScore>& curve) {
    add(std::uint64_t{curve.size()});
    for (const EpochScore& epoch : curve) {
      add(std::uint64_t{epoch.epoch});
      add(static_cast<std::uint64_t>(epoch.start.count_us()));
      add(static_cast<std::uint64_t>(epoch.end.count_us()));
      add(std::uint64_t{epoch.windows});
      add(epoch.confusion);
      add(epoch.static_confusion);
      add(std::uint64_t{epoch.labels_correct});
      add(std::uint64_t{epoch.labels_assigned});
      add(std::uint64_t{epoch.training_rows});
      add(std::uint64_t{epoch.refitted ? 1U : 0U});
    }
  }
  [[nodiscard]] std::string hex() const {
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

TEST(AdaptiveAttackerPinTest, SessionCurvesPinnedBitForBit) {
  // Labeling is fixed per attacker, so the pin runs two attackers over one
  // bootstrap profile. The oracle attacker runs two sessions back to back
  // (a session must not see its predecessor's rows); its 16-row window
  // evicts within the OR session. The RSSI-cluster attacker pools the
  // four linked clean flows of RssiClusterLabelingPoolsLinkedFlows.
  AdaptiveConfig oracle_config = fast_config();
  oracle_config.max_adaptive_rows = 16;
  AdaptiveConfig cluster_config = fast_config();
  cluster_config.labeling = Labeling::kRssiCluster;
  const ml::Dataset base =
      profile_rows(clean_corpus(0x700), oracle_config.attack);
  const AdaptiveAttacker oracle{oracle_config, base};
  const AdaptiveAttacker cluster{cluster_config, base};

  std::vector<ObservedFlow> or_session;
  or_flows(AppType::kBrowsing, 0x710, 1, -50.0, or_session);
  or_flows(AppType::kBitTorrent, 0x720, 10, -60.0, or_session);
  const std::vector<ObservedFlow> linked = linked_clean_flows();

  const std::vector<EpochScore> or_curve = oracle.run_session(or_session);
  const std::vector<EpochScore> oracle_linked = oracle.run_session(linked);
  const std::vector<EpochScore> cluster_linked = cluster.run_session(linked);
  ASSERT_FALSE(or_curve.empty());
  std::size_t assigned = 0;
  for (const EpochScore& epoch : or_curve) {
    assigned += epoch.labels_assigned;
  }
  ASSERT_GT(assigned, oracle_config.max_adaptive_rows);  // the window evicts
  EXPECT_EQ(or_curve.back().training_rows,
            base.size() + oracle_config.max_adaptive_rows);

  CurveDigest digest;
  digest.add(or_curve);
  digest.add(oracle_linked);
  digest.add(cluster_linked);
  EXPECT_EQ(digest.hex(), "0x2f1cf2a7f830a6b3");
}

TEST(AdaptiveAttackerTest, ConstSessionsAgreeAcrossThreads) {
  // Engines share one const attacker across their worker threads: each
  // session trains its own model, so concurrent sessions read exactly the
  // curve a serial one does.
  AdaptiveConfig config = fast_config();
  config.labeling = Labeling::kRssiCluster;
  const AdaptiveAttacker attacker = trained_attacker(config, 0x800);
  std::vector<ObservedFlow> flows;
  or_flows(AppType::kBrowsing, 0x810, 1, -50.0, flows);
  or_flows(AppType::kChatting, 0x820, 10, -62.0, flows);
  CurveDigest serial;
  serial.add(attacker.run_session(flows));

  constexpr std::size_t kThreads = 4;
  std::vector<std::string> digests(kThreads);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&attacker, &flows, &digests, t] {
      CurveDigest digest;
      digest.add(attacker.run_session(flows));
      digests[t] = digest.hex();
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  for (const std::string& digest : digests) {
    EXPECT_EQ(digest, serial.hex());
  }
}

TEST(AdaptiveObserveTest, PullsSortedLabeledFlowsFromSniffer) {
  const auto bssid = mac::MacAddress::parse("02:00:00:00:00:01");
  const auto sta_a = mac::MacAddress::parse("02:00:00:00:00:0a");
  const auto sta_b = mac::MacAddress::parse("02:00:00:00:00:0b");
  Sniffer sniffer{bssid};
  const auto frame = [](const mac::MacAddress& src, const mac::MacAddress& dst,
                        double t) {
    mac::Frame f;
    f.source = src;
    f.destination = dst;
    f.size_bytes = 400;
    f.timestamp = TimePoint::from_seconds(t);
    return f;
  };
  sniffer.on_frame(frame(sta_b, bssid, 0.0), -60.0);
  sniffer.on_frame(frame(sta_a, bssid, 1.0), -50.0);
  sniffer.on_frame(frame(bssid, sta_a, 2.0), -30.0);

  const std::vector<ObservedFlow> flows =
      observe(sniffer, AppType::kBrowsing);
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_EQ(flows[0].address, sta_a);  // sorted by MAC
  EXPECT_EQ(flows[1].address, sta_b);
  EXPECT_EQ(flows[0].flow.size(), 2u);  // uplink + downlink
  EXPECT_DOUBLE_EQ(flows[0].mean_rssi, -50.0);  // uplink-only signature
  EXPECT_DOUBLE_EQ(flows[1].mean_rssi, -60.0);
  EXPECT_EQ(flows[0].flow.app(), AppType::kBrowsing);
}

// ----------------------------------------------- adaptive scenarios ---

TEST(AdaptiveScenarioTest, RegisteredAndDeterministic) {
  for (const char* name :
       {"adaptive-contended-cell", "adaptive-roaming-retrain"}) {
    const runtime::Scenario* scenario =
        runtime::ScenarioRegistry::global().find(name);
    ASSERT_NE(scenario, nullptr) << name;
  }
  for (const runtime::Scenario& scenario :
       {runtime::adaptive_contended_cell(3, Duration::seconds(15.0)),
        runtime::adaptive_roaming_retrain(4, Duration::seconds(15.0))}) {
    util::Rng a{0xBEEF};
    util::Rng b{0xBEEF};
    const auto sa = scenario.generate(a);
    const auto sb = scenario.generate(b);
    ASSERT_EQ(sa.size(), sb.size()) << scenario.name();
    std::size_t total = 0;
    for (std::size_t i = 0; i < sa.size(); ++i) {
      ASSERT_EQ(sa[i].size(), sb[i].size()) << scenario.name();
      for (std::size_t p = 0; p < sa[i].size(); ++p) {
        ASSERT_EQ(sa[i][p], sb[i][p]) << scenario.name();
      }
      total += sa[i].size();
    }
    EXPECT_GT(total, 0u) << scenario.name();
  }
}

TEST(AdaptiveScenarioTest, RoamingKeepsPerStationOrderAndOnlyDelays) {
  // Arbitration in either cell only ever pushes a packet later; the merge
  // across cells must stay time-ordered per station.
  const runtime::Scenario scenario =
      runtime::adaptive_roaming_retrain(4, Duration::seconds(15.0));
  util::Rng rng{7};
  const std::vector<traffic::Trace> sessions = scenario.generate(rng);
  ASSERT_EQ(sessions.size(), 4u);
  for (const traffic::Trace& session : sessions) {
    for (std::size_t p = 1; p < session.size(); ++p) {
      EXPECT_GE(session[p].time, session[p - 1].time);
    }
  }
}

}  // namespace
}  // namespace reshape::attack::adaptive
