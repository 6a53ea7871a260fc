// Slow privacy-telemetry acceptance tests (ctest label: slow — skipped
// by `scripts/check.sh --quick`): the label-free leakage series must
// rank defenses the way the oracle-labeled adaptive adversary does, stay
// byte-identical across worker-thread counts and with auditing on/off
// (adaptive campaign and tuner), and the privacy drift rule must fire at
// the monitored-drift mix shift while the stationary control stays
// silent.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/tuning/tuner.h"
#include "eval/defense_factory.h"
#include "obs/privacy.h"
#include "obs/slo.h"
#include "runtime/adaptive_campaign.h"
#include "runtime/scenario.h"

namespace reshape::runtime {
namespace {

using util::Duration;

/// Count-weighted mean of every matching (name, label-subset) series over
/// all windows — the whole-run level of one leakage quantity.
double series_mean(const obs::WindowedSnapshot& snapshot,
                   std::string_view name, const obs::LabelSet& subset) {
  double sum = 0.0;
  std::uint64_t count = 0;
  for (const obs::SeriesWindows& series : snapshot.series) {
    if (series.name != name || !series.labels.contains(subset)) {
      continue;
    }
    for (const obs::WindowPoint& point : series.points) {
      sum += point.value.sum;
      count += point.value.count;
    }
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

AdaptiveCampaignSpec proxy_vs_oracle_spec() {
  AdaptiveCampaignSpec spec;
  spec.seed = 0xAD17;
  spec.bootstrap.seed = 777;
  spec.bootstrap.train_sessions_per_app = 2;
  spec.bootstrap.train_session_duration = Duration::seconds(30.0);
  spec.attacker.cadence = Duration::seconds(10.0);
  spec.defenses.push_back({"Original", eval::no_defense_factory()});
  spec.defenses.push_back(
      {"OR", eval::reshaping_factory(core::SchedulerKind::kOrthogonal, 3)});
  spec.scenarios.push_back(
      adaptive_contended_cell(4, Duration::seconds(60.0)));
  spec.shards = 2;
  return spec;
}

TEST(PrivacySlowTest, ProxyRanksDefensesLikeTheOracleAdversary) {
  // Acceptance: without labels, refits, or access to the report, the
  // privacy_proxy_accuracy_percent series must order the defended grid
  // the same way the oracle-labeled adaptive attacker's accuracy does —
  // undefended traffic above OR — and every report byte must be unmoved
  // by the audit across 1/2/8 worker threads.
  AdaptiveCampaignEngine engine{proxy_vs_oracle_spec()};
  const std::string baseline = engine.run(1).to_json();
  EXPECT_TRUE(engine.windowed().empty());

  obs::TelemetryConfig telemetry;
  telemetry.privacy = true;
  telemetry.window = Duration::seconds(10.0);  // = attacker cadence
  engine.set_telemetry(telemetry);

  const AdaptiveCampaignReport report = engine.run(1);
  EXPECT_EQ(baseline, report.to_json());
  ASSERT_FALSE(engine.windowed().empty());
  const std::string windows_json = engine.windowed().to_json();

  // Thread-count byte-identity of the leakage series.
  EXPECT_EQ(baseline, engine.run(2).to_json());
  EXPECT_EQ(windows_json, engine.windowed().to_json());
  EXPECT_EQ(baseline, engine.run(8).to_json());
  EXPECT_EQ(windows_json, engine.windowed().to_json());

  // The oracle ordering (ground truth): the adaptive adversary ends more
  // accurate on undefended traffic than under OR.
  const double oracle_original =
      report.aggregate("Original", "adaptive-contended-cell")
          .epochs.back()
          .accuracy_percent();
  const double oracle_or = report.aggregate("OR", "adaptive-contended-cell")
                               .epochs.back()
                               .accuracy_percent();
  EXPECT_GT(oracle_original, oracle_or);

  // The label-free proxy must agree, with a real gap.
  const obs::WindowedSnapshot& windows = engine.windowed();
  const double proxy_original =
      series_mean(windows, obs::kPrivacyProxyAccuracy,
                  obs::LabelSet{{"defense", "Original"}});
  const double proxy_or = series_mean(windows, obs::kPrivacyProxyAccuracy,
                                      obs::LabelSet{{"defense", "OR"}});
  EXPECT_GT(proxy_original, proxy_or)
      << "oracle: Original=" << oracle_original << " OR=" << oracle_or;
  EXPECT_GT(proxy_original - proxy_or, 5.0);

  // The structural leakage series agree with the defense's construction:
  // OR splits each station's traffic across sibling vMACs, so its
  // per-window anonymity set exceeds the undefended single-stream view.
  const double anon_or = series_mean(windows, obs::kPrivacyAnonymitySet,
                                     obs::LabelSet{{"defense", "OR"}});
  const double anon_original =
      series_mean(windows, obs::kPrivacyAnonymitySet,
                  obs::LabelSet{{"defense", "Original"}});
  EXPECT_GT(anon_or, anon_original);
}

core::tuning::TunerSpec small_tuner_spec() {
  core::tuning::TunerSpec spec;
  spec.seed = 0x7C7E9;
  spec.bootstrap.seed = 20110620;
  spec.bootstrap.train_sessions_per_app = 2;
  spec.bootstrap.train_session_duration = Duration::seconds(30.0);
  spec.attacker.cadence = Duration::seconds(10.0);
  spec.scenario = tuned_vs_table5(3, Duration::seconds(45.0));
  spec.streaming.bitrate_mbps = 24.0;
  spec.shards = 1;
  spec.space.interleaved_fine_partitions = false;
  spec.space.padded_compositions = false;
  return spec;
}

TEST(PrivacySlowTest, TunerReportIsUntouchedByAuditing) {
  // The tuner's selection must not move by a byte when the label-free
  // audit runs alongside each candidate cell, and the privacy series
  // carry the (candidate, shard) labels of the grid.
  core::tuning::TunerSpec spec = small_tuner_spec();
  core::tuning::ParameterTuner tuner{spec};
  const std::string baseline = tuner.run(2).to_json();
  EXPECT_TRUE(tuner.windowed().empty());

  obs::TelemetryConfig telemetry;
  telemetry.privacy = true;
  tuner.set_telemetry(telemetry);
  EXPECT_EQ(baseline, tuner.run(2).to_json());
  ASSERT_FALSE(tuner.windowed().empty());
  const std::string windows_json = tuner.windowed().to_json();
  EXPECT_NE(windows_json.find("privacy_partition_balance"),
            std::string::npos);
  EXPECT_NE(windows_json.find("privacy_proxy_accuracy_percent"),
            std::string::npos);
  EXPECT_EQ(baseline, tuner.run(1).to_json());
  EXPECT_EQ(windows_json, tuner.windowed().to_json());

  // Every candidate's cells were audited (one labeled series set each).
  for (const core::tuning::TunedConfiguration& candidate :
       tuner.candidates()) {
    EXPECT_NE(tuner.windowed().find(
                  std::string{obs::kPrivacyActiveStreams},
                  obs::LabelSet{{"candidate", candidate.name}, {"shard", "0"}}),
              nullptr)
        << candidate.name;
  }
}

AdaptiveCampaignSpec monitored_spec() {
  AdaptiveCampaignSpec spec;
  spec.seed = 0xD21F8;
  spec.bootstrap.seed = 777;
  spec.bootstrap.train_sessions_per_app = 2;
  spec.bootstrap.train_session_duration = Duration::seconds(30.0);
  spec.attacker.cadence = Duration::seconds(15.0);
  spec.defenses.push_back({"Original", eval::no_defense_factory()});
  spec.scenarios.push_back(
      monitored_drift(4, Duration::seconds(90.0), /*shift=*/true));
  spec.scenarios.push_back(
      monitored_drift(4, Duration::seconds(90.0), /*shift=*/false));
  spec.shards = 2;
  return spec;
}

TEST(PrivacySlowTest, PrivacyDriftFiresOnMixShiftControlStaysSilent) {
  // The monitored-drift scenario swaps its traffic body from sparse
  // interactive apps to bulk apps at 45 s while keeping the labels. The
  // label-free proxy sees the same shift the oracle-labeled detectors
  // see: its per-window confidence level moves, and the Page–Hinkley
  // privacy drift rule must latch an alert at or after the shift window
  // (window 3 at a 15 s audit window) — while the stationary control
  // scenario never fires.
  AdaptiveCampaignEngine engine{monitored_spec()};
  obs::TelemetryConfig telemetry;
  telemetry.privacy = true;
  telemetry.window = Duration::seconds(15.0);
  engine.set_telemetry(telemetry);
  (void)engine.run(2);
  ASSERT_FALSE(engine.windowed().empty());

  obs::DriftParams params;
  params.warmup = 2;
  params.ph_delta = 1.0;
  params.ph_lambda = 10.0;
  const std::vector<obs::DriftRule> shifted{obs::privacy_drift_rule(
      params, obs::LabelSet{{"scenario", "monitored-drift"}})};
  const std::vector<obs::DriftRule> control{obs::privacy_drift_rule(
      params, obs::LabelSet{{"scenario", "monitored-drift-control"}})};

  const std::vector<obs::AlertRecord> alerts =
      evaluate_drift(shifted, engine.windowed());
  ASSERT_FALSE(alerts.empty());
  for (const obs::AlertRecord& alert : alerts) {
    EXPECT_EQ(alert.rule, "privacy-proxy-drift");
    EXPECT_EQ(alert.kind, "drift");
    EXPECT_EQ(alert.detail, "page-hinkley");
    EXPECT_GE(alert.window, 3);  // at or after the 45 s shift
  }
  EXPECT_TRUE(evaluate_drift(control, engine.windowed()).empty());
}

}  // namespace
}  // namespace reshape::runtime
