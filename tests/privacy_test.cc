// Label-free privacy telemetry: the LeakageAuditor reduction (window
// bucketing, balance/anonymity, pairwise JSD, RSSI linkage, the
// nearest-centroid attacker proxy), the obs::publish_leakage fold and its
// gating, the privacy budget rules, and the observation-only contract on
// a small campaign (the report must not move by a byte when auditing is
// on, and the privacy series must merge deterministically).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "attack/audit/leakage_audit.h"
#include "eval/defense_factory.h"
#include "ml/dataset.h"
#include "obs/privacy.h"
#include "obs/slo.h"
#include "obs/windowed.h"
#include "runtime/campaign.h"
#include "runtime/scenario.h"
#include "util/time.h"

namespace reshape {
namespace {

using attack::audit::AuditConfig;
using attack::audit::LeakageAuditor;
using attack::audit::NearestCentroidProbe;
using util::Duration;
using util::TimePoint;

TimePoint at_s(double seconds) {
  return TimePoint::from_microseconds(
      static_cast<std::int64_t>(seconds * 1e6));
}

/// `packets` constant-size packets at a fixed cadence starting at
/// `start`, all uplink.
traffic::Trace steady_trace(double start_s, std::size_t packets,
                            std::uint32_t size_bytes, double period_s) {
  traffic::Trace trace;
  for (std::size_t i = 0; i < packets; ++i) {
    trace.push_back(at_s(start_s + static_cast<double>(i) * period_s),
                    size_bytes, mac::Direction::kUplink);
  }
  return trace;
}

// ------------------------------------------------------- station labels

TEST(PrivacyTest, StationLabelIsTwelveLowercaseHexDigits) {
  EXPECT_EQ(obs::station_label(0), "000000000000");
  EXPECT_EQ(obs::station_label(0x020000000001ULL), "020000000001");
  EXPECT_EQ(obs::station_label(0xABCDEF123456ULL), "abcdef123456");
}

// ------------------------------------------------- nearest-centroid probe

ml::Dataset two_blob_profile() {
  ml::Dataset profile;
  profile.set_num_classes(2);
  profile.add({0.0, 0.0}, 0);
  profile.add({0.2, 0.0}, 0);
  profile.add({10.0, 10.0}, 1);
  profile.add({10.2, 10.0}, 1);
  return profile;
}

TEST(NearestCentroidProbeTest, MarginIsHighOnCentroidsLowBetween) {
  const NearestCentroidProbe probe{two_blob_profile(), attack::AttackConfig{}};
  ASSERT_TRUE(probe.ready());

  // A row sitting exactly on one class's mean has near-distance ~0:
  // margin ~1 (fully fingerprintable).
  const std::vector<std::vector<double>> on_centroid{{0.1, 0.0}};
  EXPECT_GT(probe.mean_margin(on_centroid), 0.95);

  // The midpoint between the blobs is equidistant: margin ~0 (the probe
  // cannot tell the classes apart — what reshaping aims for).
  const std::vector<std::vector<double>> midpoint{{5.1, 5.0}};
  EXPECT_LT(probe.mean_margin(midpoint), 0.05);

  // The mean over both is in between, and empty input is defined as 0.
  const std::vector<std::vector<double>> both{{0.1, 0.0}, {5.1, 5.0}};
  const double mixed = probe.mean_margin(both);
  EXPECT_GT(mixed, 0.3);
  EXPECT_LT(mixed, 0.7);
  EXPECT_DOUBLE_EQ(probe.mean_margin({}), 0.0);
}

TEST(NearestCentroidProbeTest, SingleClassProfileIsNotReady) {
  ml::Dataset profile;
  profile.set_num_classes(2);
  profile.add({1.0, 2.0}, 0);
  profile.add({1.5, 2.5}, 0);
  const NearestCentroidProbe probe{profile, attack::AttackConfig{}};
  EXPECT_FALSE(probe.ready());  // a margin needs a runner-up centroid
  const std::vector<std::vector<double>> rows{{1.0, 2.0}};
  EXPECT_DOUBLE_EQ(probe.mean_margin(rows), 0.0);
  EXPECT_FALSE(NearestCentroidProbe{}.ready());
}

// --------------------------------------------------- auditor reduction

AuditConfig second_windows() {
  AuditConfig config;
  config.window = Duration::seconds(1.0);
  return config;
}

TEST(LeakageAuditorTest, IndistinguishableStreamsReduceToZeroLeakage) {
  // Two streams with identical size/IAT shape and equal byte share,
  // active in windows 0 and 2 (window 1 idle — sparse series).
  LeakageAuditor auditor{second_windows()};
  for (const double start : {0.0, 2.0}) {
    auditor.observe_flow(1, steady_trace(start, 8, 200, 0.1), -50.0);
    auditor.observe_flow(2, steady_trace(start + 0.01, 8, 200, 0.1), -58.0);
  }
  EXPECT_EQ(auditor.stream_count(), 2u);

  const std::vector<obs::WindowLeakage> leakage = auditor.reduce();
  ASSERT_EQ(leakage.size(), 2u);
  EXPECT_EQ(leakage[0].window, 0);
  EXPECT_EQ(leakage[1].window, 2);
  for (const obs::WindowLeakage& w : leakage) {
    EXPECT_EQ(w.active_streams, 2u);
    // Equal byte shares: perfectly balanced, effective set size 2 — the
    // log2(N) = privacy_entropy_bits ceiling reached.
    EXPECT_DOUBLE_EQ(w.partition_balance, 1.0);
    EXPECT_NEAR(w.anonymity_set, 2.0, 1e-9);
    // Identical histograms: zero divergence.
    EXPECT_DOUBLE_EQ(w.max_pairwise_jsd_bits, 0.0);
    EXPECT_DOUBLE_EQ(w.mean_pairwise_jsd_bits, 0.0);
    // 8 dB apart under a 2 dB single-linkage threshold: unlinkable.
    EXPECT_DOUBLE_EQ(w.rssi_linked_fraction, 0.0);
    EXPECT_FALSE(w.has_proxy);  // no probe attached
  }
}

TEST(LeakageAuditorTest, DistinguishableStreamsDiverge) {
  // Disjoint size histograms (100 B vs 1400 B) and near-identical RSSI.
  LeakageAuditor auditor{second_windows()};
  auditor.observe_flow(1, steady_trace(0.0, 8, 100, 0.1), -50.0);
  auditor.observe_flow(2, steady_trace(0.01, 8, 1400, 0.1), -50.5);

  const std::vector<obs::WindowLeakage> leakage = auditor.reduce();
  ASSERT_EQ(leakage.size(), 1u);
  const obs::WindowLeakage& w = leakage[0];
  EXPECT_EQ(w.active_streams, 2u);
  // Size JSD hits the 1-bit ceiling; the shared IAT cadence averages it
  // down to 0.5 — still far above the indistinguishable case.
  EXPECT_NEAR(w.max_pairwise_jsd_bits, 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(w.max_pairwise_jsd_bits, w.mean_pairwise_jsd_bits);
  // Unequal byte shares: balance strictly below 1, set size below 2.
  EXPECT_LT(w.partition_balance, 1.0);
  EXPECT_GT(w.partition_balance, 0.0);
  EXPECT_LT(w.anonymity_set, 2.0);
  // 0.5 dB apart under a 2 dB threshold: both streams linked (§V-A).
  EXPECT_DOUBLE_EQ(w.rssi_linked_fraction, 1.0);
}

TEST(LeakageAuditorTest, PacketFloorFiltersInactiveStreams) {
  // Station 2 has a single packet in window 0 — below the 2-packet
  // fingerprinting floor, so window 0 is a 1-stream window: balance is
  // trivially 1, the anonymity set collapses to 1, and no pairwise or
  // linkage series exist.
  LeakageAuditor auditor{second_windows()};
  auditor.observe_flow(1, steady_trace(0.0, 6, 300, 0.1), -50.0);
  auditor.observe(2, at_s(0.5), 300, mac::Direction::kUplink, -51.0);

  const std::vector<obs::WindowLeakage> leakage = auditor.reduce();
  ASSERT_EQ(leakage.size(), 1u);
  EXPECT_EQ(leakage[0].active_streams, 1u);
  EXPECT_DOUBLE_EQ(leakage[0].partition_balance, 1.0);
  EXPECT_NEAR(leakage[0].anonymity_set, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(leakage[0].max_pairwise_jsd_bits, 0.0);
  EXPECT_DOUBLE_EQ(leakage[0].rssi_linked_fraction, 0.0);

  // An empty auditor reduces to nothing.
  LeakageAuditor empty{second_windows()};
  EXPECT_TRUE(empty.empty());
  EXPECT_TRUE(empty.reduce().empty());
}

TEST(LeakageAuditorTest, LivePathMatchesFlowPath) {
  // The per-packet sniffer path and the engines' per-flow path must
  // reduce to the same leakage when they observe the same packets (flat
  // flow RSSI == every per-packet RSSI).
  const traffic::Trace a = steady_trace(0.0, 10, 120, 0.3);
  const traffic::Trace b = steady_trace(0.05, 10, 900, 0.3);

  LeakageAuditor flow_path{second_windows()};
  flow_path.observe_flow(7, a, -48.0);
  flow_path.observe_flow(9, b, -62.0);

  LeakageAuditor live_path{second_windows()};
  for (std::size_t i = 0; i < a.size(); ++i) {
    live_path.observe(7, a[i].time, a[i].size_bytes, a[i].direction, -48.0);
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    live_path.observe(9, b[i].time, b[i].size_bytes, b[i].direction, -62.0);
  }

  obs::WindowedRegistry flow_registry{Duration::seconds(1.0)};
  obs::WindowedRegistry live_registry{Duration::seconds(1.0)};
  flow_path.publish(flow_registry);
  live_path.publish(live_registry);
  const std::string flow_json = flow_registry.snapshot().to_json();
  EXPECT_EQ(flow_json, live_registry.snapshot().to_json());
  EXPECT_NE(flow_json.find("privacy_partition_balance"), std::string::npos);

  // The CaptureColumns bulk path is the live path in air order.
  attack::CaptureColumns columns;
  for (std::size_t i = 0; i < a.size(); ++i) {
    columns.time_us.push_back(a[i].time.count_us());
    columns.size_bytes.push_back(a[i].size_bytes);
    columns.station.push_back(7);
    columns.direction.push_back(a[i].direction);
    columns.rssi_dbm.push_back(-48.0);
    columns.time_us.push_back(b[i].time.count_us());
    columns.size_bytes.push_back(b[i].size_bytes);
    columns.station.push_back(9);
    columns.direction.push_back(b[i].direction);
    columns.rssi_dbm.push_back(-62.0);
  }
  LeakageAuditor column_path{second_windows()};
  column_path.observe(columns);
  obs::WindowedRegistry column_registry{Duration::seconds(1.0)};
  column_path.publish(column_registry);
  EXPECT_EQ(flow_json, column_registry.snapshot().to_json());

  // clear() resets the capture, not the config.
  column_path.clear();
  EXPECT_TRUE(column_path.empty());
  EXPECT_EQ(column_path.config().window.count_us(),
            Duration::seconds(1.0).count_us());
}

TEST(LeakageAuditorTest, PairSeriesAndStreamCapAreDeterministic) {
  AuditConfig config = second_windows();
  config.per_pair_series = true;
  LeakageAuditor auditor{config};
  auditor.observe_flow(3, steady_trace(0.0, 6, 100, 0.1), -50.0);
  auditor.observe_flow(1, steady_trace(0.01, 6, 700, 0.1), -55.0);
  auditor.observe_flow(2, steady_trace(0.02, 6, 1300, 0.1), -60.0);

  std::vector<obs::WindowLeakage> leakage = auditor.reduce();
  ASSERT_EQ(leakage.size(), 1u);
  ASSERT_EQ(leakage[0].pairs.size(), 3u);  // C(3, 2), lexicographic
  EXPECT_EQ(leakage[0].pairs[0].a, 1u);
  EXPECT_EQ(leakage[0].pairs[0].b, 2u);
  EXPECT_EQ(leakage[0].pairs[1].a, 1u);
  EXPECT_EQ(leakage[0].pairs[1].b, 3u);
  EXPECT_EQ(leakage[0].pairs[2].a, 2u);
  EXPECT_EQ(leakage[0].pairs[2].b, 3u);

  // Capping pairwise work to the top-2 streams by bytes keeps the
  // balance/anonymity computed over all 3 but reduces pairs to the
  // heaviest pair (stations 1 and 2 here: 700- and 1300-byte packets).
  config.max_streams_per_window = 2;
  LeakageAuditor capped{config};
  capped.observe_flow(3, steady_trace(0.0, 6, 100, 0.1), -50.0);
  capped.observe_flow(1, steady_trace(0.01, 6, 700, 0.1), -55.0);
  capped.observe_flow(2, steady_trace(0.02, 6, 1300, 0.1), -60.0);
  leakage = capped.reduce();
  ASSERT_EQ(leakage.size(), 1u);
  EXPECT_EQ(leakage[0].active_streams, 3u);
  ASSERT_EQ(leakage[0].pairs.size(), 1u);
  EXPECT_EQ(leakage[0].pairs[0].a, 1u);
  EXPECT_EQ(leakage[0].pairs[0].b, 2u);

  // The cap must still allow a pair.
  config.max_streams_per_window = 1;
  EXPECT_THROW((LeakageAuditor{config}), std::invalid_argument);
}

TEST(LeakageAuditorTest, ProxySeriesTracksSeparability) {
  // With a probe attached the auditor emits per-window proxy accuracy
  // from the same attack feature rows the adversary would extract.
  AuditConfig config;
  config.window = Duration::seconds(10.0);
  LeakageAuditor auditor{config};

  attack::AttackConfig attack;
  attack.window = Duration::seconds(5.0);
  // Two well-separated "apps": dense large packets vs sparse small ones.
  const traffic::Trace bulk = steady_trace(0.0, 400, 1400, 0.02);
  const traffic::Trace chat = steady_trace(0.0, 40, 100, 0.2);
  ml::Dataset profile;
  profile.set_num_classes(2);
  std::vector<std::vector<double>> rows;
  std::vector<features::WindowFeatures> windows;
  attack::feature_rows_into(rows, bulk.view(), attack, windows);
  for (auto& row : rows) {
    profile.add(std::move(row), 0);
  }
  attack::feature_rows_into(rows, chat.view(), attack, windows);
  for (auto& row : rows) {
    profile.add(std::move(row), 1);
  }
  const NearestCentroidProbe probe{profile, attack};
  ASSERT_TRUE(probe.ready());

  auditor.set_probe(&probe);
  EXPECT_EQ(auditor.probe(), &probe);
  auditor.observe_flow(1, steady_trace(0.0, 400, 1400, 0.02), -50.0);
  auditor.observe_flow(2, steady_trace(0.0, 40, 100, 0.2), -60.0);
  const std::vector<obs::WindowLeakage> leakage = auditor.reduce();
  ASSERT_FALSE(leakage.empty());
  ASSERT_TRUE(leakage[0].has_proxy);
  // The audited flows are drawn from the profile classes themselves:
  // the probe should be confident, not coin-flipping.
  EXPECT_GT(leakage[0].proxy_accuracy_percent, 50.0);
  EXPECT_LE(leakage[0].proxy_accuracy_percent, 100.0);

  // Detaching the probe removes the series (and nothing else changes).
  auditor.set_probe(nullptr);
  EXPECT_FALSE(auditor.reduce()[0].has_proxy);
}

// ---------------------------------------------------- publish_leakage

obs::WindowLeakage sample_leakage(std::int64_t window, double balance) {
  obs::WindowLeakage w;
  w.window = window;
  w.active_streams = 2;
  w.partition_balance = balance;
  w.anonymity_set = std::exp2(balance);
  w.max_pairwise_jsd_bits = 0.25;
  w.mean_pairwise_jsd_bits = 0.125;
  w.rssi_linked_fraction = 0.5;
  w.has_proxy = true;
  w.proxy_accuracy_percent = 40.0;
  return w;
}

TEST(PublishLeakageTest, GatesPairwiseAndProxySeries) {
  obs::WindowedRegistry registry{Duration::seconds(5.0)};
  obs::WindowLeakage lone;  // 1 active stream, no proxy
  lone.window = 0;
  lone.active_streams = 1;
  lone.partition_balance = 1.0;
  lone.anonymity_set = 1.0;
  std::vector<obs::WindowLeakage> leakage{lone, sample_leakage(1, 0.9)};
  leakage[1].pairs.push_back({0x0Au, 0x0Bu, 0.25});
  obs::publish_leakage(registry, leakage);

  const obs::WindowedSnapshot snapshot = registry.snapshot();
  const obs::SeriesWindows* balance =
      snapshot.find(std::string{obs::kPrivacyPartitionBalance});
  ASSERT_NE(balance, nullptr);
  ASSERT_EQ(balance->points.size(), 2u);  // both windows

  // Pairwise and proxy series only exist where they are defined.
  const obs::SeriesWindows* jsd =
      snapshot.find(std::string{obs::kPrivacyMaxPairwiseJsd});
  ASSERT_NE(jsd, nullptr);
  ASSERT_EQ(jsd->points.size(), 1u);
  EXPECT_EQ(jsd->points[0].window, 1);
  const obs::SeriesWindows* proxy =
      snapshot.find(std::string{obs::kPrivacyProxyAccuracy});
  ASSERT_NE(proxy, nullptr);
  ASSERT_EQ(proxy->points.size(), 1u);
  EXPECT_DOUBLE_EQ(proxy->points[0].value.sum, 40.0);

  // The per-pair series carries the station labels.
  const obs::SeriesWindows* pair = snapshot.find(
      std::string{obs::kPrivacyPairwiseJsd},
      obs::LabelSet{{"a", "00000000000a"}, {"b", "00000000000b"}});
  ASSERT_NE(pair, nullptr);
  EXPECT_DOUBLE_EQ(pair->points[0].value.max, 0.25);
}

TEST(PublishLeakageTest, SplitPublishMergesToSinglePublish) {
  // publish_leakage is a pure fold: publishing disjoint window subsets
  // into per-cell registries and merging the snapshots is byte-identical
  // to one combined publish — the thread-determinism contract.
  const obs::LabelSet labels{{"defense", "OR"}};
  std::vector<obs::WindowLeakage> all;
  for (std::int64_t w = 0; w < 6; ++w) {
    all.push_back(sample_leakage(w, 0.5 + 0.05 * static_cast<double>(w)));
  }

  obs::WindowedRegistry combined{Duration::seconds(5.0)};
  obs::publish_leakage(combined, all, labels);

  obs::WindowedRegistry left{Duration::seconds(5.0)};
  obs::WindowedRegistry right{Duration::seconds(5.0)};
  obs::publish_leakage(
      left, std::span<const obs::WindowLeakage>{all.data(), 3}, labels);
  obs::publish_leakage(
      right, std::span<const obs::WindowLeakage>{all.data() + 3, 3}, labels);
  obs::WindowedSnapshot merged = left.snapshot();
  merged.merge(right.snapshot());
  EXPECT_EQ(combined.snapshot().to_json(), merged.to_json());

  // Merge order is immaterial (commutative fold).
  obs::WindowedSnapshot reversed = right.snapshot();
  reversed.merge(left.snapshot());
  EXPECT_EQ(combined.snapshot().to_json(), reversed.to_json());
}

// ------------------------------------------------------- budget rules

TEST(PrivacyBudgetTest, SloRulesFireExactlyOnViolations) {
  obs::WindowedRegistry registry{Duration::seconds(5.0)};
  // Window 0 violates every budget; window 1 is comfortably inside.
  obs::WindowLeakage bad = sample_leakage(0, 0.2);  // balance below 0.5
  bad.max_pairwise_jsd_bits = 0.8;                  // above 0.5 bits
  bad.proxy_accuracy_percent = 75.0;                // above 60%
  const obs::WindowLeakage good = sample_leakage(1, 0.9);
  obs::publish_leakage(registry, std::vector<obs::WindowLeakage>{bad, good});

  const std::vector<obs::SloRule> rules =
      obs::privacy_slo_rules(obs::PrivacyBudgets{});
  ASSERT_EQ(rules.size(), 3u);
  const std::vector<obs::AlertRecord> alerts =
      evaluate_slo(rules, registry.snapshot());
  ASSERT_EQ(alerts.size(), 3u);
  EXPECT_EQ(alerts[0].rule, "privacy-partition-balance-budget");
  EXPECT_EQ(alerts[1].rule, "privacy-linkability-budget");
  EXPECT_EQ(alerts[2].rule, "privacy-proxy-accuracy-budget");
  for (const obs::AlertRecord& alert : alerts) {
    EXPECT_EQ(alert.kind, "slo");
    EXPECT_EQ(alert.window, 0);  // only the bad window fires
  }

  // A healthy registry raises nothing.
  obs::WindowedRegistry healthy{Duration::seconds(5.0)};
  obs::publish_leakage(healthy, std::vector<obs::WindowLeakage>{good});
  EXPECT_TRUE(evaluate_slo(rules, healthy.snapshot()).empty());
}

TEST(PrivacyBudgetTest, DriftRuleLatchesProxyLevelShift) {
  const obs::DriftRule rule = obs::privacy_drift_rule();
  EXPECT_EQ(rule.name, "privacy-proxy-drift");
  EXPECT_EQ(rule.series, obs::kPrivacyProxyAccuracy);
  EXPECT_EQ(rule.kind, obs::DriftDetectorKind::kPageHinkley);

  // A stable proxy level then a +40-point jump: Page–Hinkley fires after
  // the jump; the stationary control never does.
  obs::WindowedRegistry shifted{Duration::seconds(5.0)};
  obs::WindowedRegistry stationary{Duration::seconds(5.0)};
  std::vector<obs::WindowLeakage> shift_leakage;
  std::vector<obs::WindowLeakage> flat_leakage;
  for (std::int64_t w = 0; w < 12; ++w) {
    obs::WindowLeakage leak = sample_leakage(w, 0.9);
    leak.proxy_accuracy_percent = w < 6 ? 20.0 : 60.0;
    shift_leakage.push_back(leak);
    leak.proxy_accuracy_percent = 20.0;
    flat_leakage.push_back(leak);
  }
  obs::publish_leakage(shifted, shift_leakage);
  obs::publish_leakage(stationary, flat_leakage);

  const std::vector<obs::DriftRule> rules{rule};
  const std::vector<obs::AlertRecord> alerts =
      evaluate_drift(rules, shifted.snapshot());
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, "drift");
  EXPECT_EQ(alerts[0].detail, "page-hinkley");
  EXPECT_GE(alerts[0].window, 6);
  EXPECT_TRUE(evaluate_drift(rules, stationary.snapshot()).empty());
}

// ----------------------------------------- observation-only on an engine

runtime::CampaignSpec small_campaign() {
  runtime::CampaignSpec spec;
  spec.seed = 0x9C1;
  spec.training.seed = 777;
  spec.training.window = Duration::seconds(5.0);
  spec.training.train_sessions_per_app = 2;
  spec.training.train_session_duration = Duration::seconds(30.0);
  spec.training.test_sessions_per_app = 1;
  spec.training.test_session_duration = Duration::seconds(30.0);
  spec.defenses.push_back({"Original", eval::no_defense_factory()});
  spec.defenses.push_back(
      {"OR", eval::reshaping_factory(core::SchedulerKind::kOrthogonal, 3)});
  spec.scenarios.push_back(
      runtime::multi_app_station(1, Duration::seconds(30.0)));
  spec.shards = 2;
  return spec;
}

TEST(CampaignPrivacyTest, AuditIsObservationOnlyAndDeterministic) {
  runtime::CampaignEngine engine{small_campaign()};
  const std::string baseline = engine.run(1).to_json();
  EXPECT_TRUE(engine.windowed().empty());

  // Privacy-only telemetry: the report must not move by a byte, and the
  // windowed snapshot carries privacy_* series (and nothing needs the
  // general windowed flag).
  obs::TelemetryConfig telemetry;
  telemetry.privacy = true;
  engine.set_telemetry(telemetry);
  EXPECT_EQ(baseline, engine.run(1).to_json());
  ASSERT_FALSE(engine.windowed().empty());
  const std::string privacy_windows = engine.windowed().to_json();
  EXPECT_NE(privacy_windows.find("privacy_partition_balance"),
            std::string::npos);
  EXPECT_NE(privacy_windows.find("privacy_proxy_accuracy_percent"),
            std::string::npos);
  // The general offered-load series stays off without `windowed`.
  EXPECT_EQ(privacy_windows.find("campaign_offered_bytes"),
            std::string::npos);

  // Thread-count byte-identity of the privacy series (per-cell audits
  // folded in cell order on the main thread).
  EXPECT_EQ(baseline, engine.run(2).to_json());
  EXPECT_EQ(privacy_windows, engine.windowed().to_json());
  EXPECT_EQ(baseline, engine.run(8).to_json());
  EXPECT_EQ(privacy_windows, engine.windowed().to_json());

  // The per-cell series exist under the campaign's cell labels.
  EXPECT_NE(engine.windowed().find(
                "privacy_active_streams",
                obs::LabelSet{{"defense", "OR"},
                              {"scenario", "multi-app-station"},
                              {"shard", "0"}}),
            nullptr);

  // Full telemetry additionally carries the general windowed series and
  // still leaves the report untouched.
  engine.set_telemetry(obs::TelemetryConfig::enabled());
  EXPECT_EQ(baseline, engine.run(2).to_json());
  EXPECT_NE(engine.windowed().to_json().find("campaign_offered_bytes"),
            std::string::npos);
}

}  // namespace
}  // namespace reshape
