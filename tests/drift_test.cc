// Unit tests of the Page–Hinkley drift detector (obs/drift.h) and the
// SLO / alert layer (obs/slo.h): stationary series never fire, a collapse
// fires on its first window, rule evaluation latches and label-filters
// deterministically, and AlertRecord JSON is stable.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "eval/defense_factory.h"
#include "obs/drift.h"
#include "obs/slo.h"
#include "obs/windowed.h"
#include "runtime/adaptive_campaign.h"
#include "runtime/scenario.h"
#include "util/time.h"

namespace {

using namespace reshape;

util::TimePoint at_us(std::int64_t us) {
  return util::TimePoint::from_microseconds(us);
}

TEST(DriftDetectorTest, StationarySeriesNeverFires) {
  obs::PageHinkleyDetector detector{obs::DriftParams{}};
  for (int i = 0; i < 40; ++i) {
    // Small alternating jitter around a flat level.
    const double value = 80.0 + (i % 2 == 0 ? 0.5 : -0.5);
    EXPECT_FALSE(detector.update(value)) << "fired at update " << i;
  }
}

TEST(DriftDetectorTest, PageHinkleyFiresOnFirstCollapsedWindow) {
  // The adaptive-accuracy shape monitored-drift produces: a stable high
  // plateau, then a collapse. Two-sided PH (delta 2, lambda 25) must fire
  // on the very first collapsed value.
  obs::PageHinkleyDetector detector{obs::DriftParams{}};
  for (int i = 0; i < 6; ++i) {
    EXPECT_FALSE(detector.update(85.0)) << "fired on the plateau at " << i;
  }
  EXPECT_TRUE(detector.update(40.0));
  EXPECT_GT(detector.statistic(), detector.threshold());
  EXPECT_DOUBLE_EQ(detector.threshold(), 25.0);
}

TEST(DriftRuleTest, EvaluateDriftLatchesFirstCrossingPerSeries) {
  // Two runs of the same series name: "shifted" collapses at window 3,
  // "control" stays flat. A rule with no label filter must alert exactly
  // once — on the shifted series' first collapsed window — and a rule
  // pinned to the control labels must stay silent.
  obs::WindowedRegistry registry{util::Duration::microseconds(1000)};
  obs::WindowedSeries& shifted = registry.series(
      "adaptive_accuracy_percent", obs::LabelSet{{"run", "shifted"}});
  obs::WindowedSeries& control = registry.series(
      "adaptive_accuracy_percent", obs::LabelSet{{"run", "control"}});
  for (std::int64_t w = 0; w < 8; ++w) {
    shifted.observe(at_us(w * 1000), w < 3 ? 90.0 : 20.0);
    control.observe(at_us(w * 1000), 90.0);
  }

  std::vector<obs::DriftRule> rules(1);
  rules[0].name = "accuracy-drift";
  rules[0].series = "adaptive_accuracy_percent";
  rules[0].params.warmup = 2;
  const std::vector<obs::AlertRecord> alerts =
      evaluate_drift(rules, registry.snapshot());
  ASSERT_EQ(alerts.size(), 1u);  // latched: not one alert per bad window
  EXPECT_EQ(alerts[0].rule, "accuracy-drift");
  EXPECT_EQ(alerts[0].kind, "drift");
  EXPECT_EQ(alerts[0].detail, "page-hinkley");
  EXPECT_EQ(alerts[0].window, 3);
  EXPECT_EQ(alerts[0].window_start_us, 3000);
  EXPECT_EQ(alerts[0].window_end_us, 4000);
  EXPECT_EQ(alerts[0].labels.entries().size(), 1u);
  EXPECT_GT(alerts[0].observed, alerts[0].threshold);

  rules[0].labels = obs::LabelSet{{"run", "control"}};
  EXPECT_TRUE(evaluate_drift(rules, registry.snapshot()).empty());
}

TEST(SloRuleTest, MeanBudgetFiresPerWindowWithBounds) {
  obs::WindowedRegistry registry{util::Duration::microseconds(1000)};
  obs::WindowedSeries& miss =
      registry.series("streaming_deadline_miss", obs::LabelSet{{"cell", "0"}});
  miss.observe(at_us(100), 0.0);
  miss.observe(at_us(200), 0.0);
  miss.observe(at_us(1100), 0.0);
  miss.observe(at_us(2100), 40.0);
  miss.observe(at_us(2200), 40.0);
  miss.observe(at_us(3100), 50.0);

  std::vector<obs::SloRule> rules(1);
  rules[0].name = "deadline-miss-budget";
  rules[0].series = "streaming_deadline_miss";
  rules[0].threshold = 25.0;
  const std::vector<obs::AlertRecord> alerts =
      evaluate_slo(rules, registry.snapshot());
  ASSERT_EQ(alerts.size(), 2u);
  EXPECT_EQ(alerts[0].window, 2);
  EXPECT_DOUBLE_EQ(alerts[0].observed, 40.0);
  EXPECT_EQ(alerts[0].detail, "mean>25");
  EXPECT_EQ(alerts[0].window_start_us, 2000);
  EXPECT_EQ(alerts[0].window_end_us, 3000);
  EXPECT_EQ(alerts[1].window, 3);
  EXPECT_DOUBLE_EQ(alerts[1].observed, 50.0);

  // min_count: a one-sample window is not budget evidence.
  rules[0].min_count = 2;
  const std::vector<obs::AlertRecord> filtered =
      evaluate_slo(rules, registry.snapshot());
  ASSERT_EQ(filtered.size(), 1u);
  EXPECT_EQ(filtered[0].window, 2);

  // kBelow flips the comparison: quiet windows violate a floor budget.
  rules[0].min_count = 1;
  rules[0].comparison = obs::SloComparison::kBelow;
  rules[0].threshold = 10.0;
  EXPECT_EQ(evaluate_slo(rules, registry.snapshot()).size(), 2u);
}

TEST(AlertRecordTest, JsonIsStableWithFixedKeyOrder) {
  obs::AlertRecord alert;
  alert.rule = "r";
  alert.kind = "slo";
  alert.detail = "mean>1";
  alert.series = "s";
  alert.labels = obs::LabelSet{{"a", "b"}};
  alert.window = 2;
  alert.window_start_us = 10;
  alert.window_end_us = 20;
  alert.threshold = 1.5;
  alert.observed = 2.5;
  const std::vector<obs::AlertRecord> alerts{alert};
  const std::string json = obs::alerts_to_json(alerts);
  EXPECT_EQ(json,
            "[{\"rule\":\"r\",\"kind\":\"slo\",\"detail\":\"mean>1\","
            "\"series\":\"s\",\"labels\":{\"a\":\"b\"},\"window\":2,"
            "\"window_start_us\":10,\"window_end_us\":20,"
            "\"threshold\":1.5,\"observed\":2.5}]");
  EXPECT_EQ(obs::alerts_to_json(alerts), json);
  EXPECT_EQ(obs::alerts_to_json(std::vector<obs::AlertRecord>{}), "[]");
}

// --------------------------------------------------------- end to end

runtime::AdaptiveCampaignSpec monitored_spec() {
  runtime::AdaptiveCampaignSpec spec;
  spec.seed = 0xD21F7;
  spec.bootstrap.seed = 777;
  spec.bootstrap.train_sessions_per_app = 2;
  spec.bootstrap.train_session_duration = util::Duration::seconds(30.0);
  spec.attacker.cadence = util::Duration::seconds(15.0);
  spec.defenses.push_back({"Original", eval::no_defense_factory()});
  spec.scenarios.push_back(runtime::monitored_drift(
      4, util::Duration::seconds(90.0), /*shift=*/true));
  spec.scenarios.push_back(runtime::monitored_drift(
      4, util::Duration::seconds(90.0), /*shift=*/false));
  spec.shards = 2;
  return spec;
}

TEST(MonitoredDriftTest, PageHinkleyFiresOnShiftControlStaysSilent) {
  // Acceptance for the whole observability chain: the monitored-drift
  // scenario swaps its traffic body from sparse interactive apps to bulk
  // apps at 45 s while keeping the nominal labels, so the adaptive
  // attacker's accuracy collapses at epoch/window 3 (cadence 15 s). The
  // Page–Hinkley rule over the windowed accuracy series must fire within
  // two windows of the shift; the stationary control must never fire —
  // and every byte of it (report, windows, alerts) must be identical
  // across 1/2/8 worker threads and with windowing on vs off.
  runtime::AdaptiveCampaignEngine engine{monitored_spec()};
  const std::string baseline = engine.run(1).to_json();  // telemetry off
  EXPECT_TRUE(engine.windowed().empty());

  obs::TelemetryConfig telemetry = obs::TelemetryConfig::enabled();
  telemetry.window = util::Duration::seconds(15.0);  // = attacker cadence
  engine.set_telemetry(telemetry);

  std::vector<obs::DriftRule> rules(1);
  rules[0].name = "adaptive-accuracy-drift";
  rules[0].series = "adaptive_accuracy_percent";
  rules[0].labels = obs::LabelSet{{"scenario", "monitored-drift"}};
  rules[0].params.warmup = 2;
  std::vector<obs::DriftRule> control_rules = rules;
  control_rules[0].labels =
      obs::LabelSet{{"scenario", "monitored-drift-control"}};

  std::vector<std::string> windows_json;
  std::vector<std::string> alerts_json;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    EXPECT_EQ(baseline, engine.run(threads).to_json())
        << "windowing perturbed the report at " << threads << " threads";
    ASSERT_FALSE(engine.windowed().empty());
    windows_json.push_back(engine.windowed().to_json());

    const std::vector<obs::AlertRecord> alerts =
        evaluate_drift(rules, engine.windowed());
    alerts_json.push_back(obs::alerts_to_json(alerts));

    // One latched alert per shard series, each within two windows of the
    // shift (shift at 45 s = window 3).
    ASSERT_FALSE(alerts.empty());
    EXPECT_EQ(alerts.size(), monitored_spec().shards);
    for (const obs::AlertRecord& alert : alerts) {
      EXPECT_EQ(alert.kind, "drift");
      EXPECT_EQ(alert.detail, "page-hinkley");
      EXPECT_GE(alert.window, 3);
      EXPECT_LE(alert.window, 4);
      EXPECT_GT(alert.observed, alert.threshold);
    }
    // The stationary control never fires.
    EXPECT_TRUE(evaluate_drift(control_rules, engine.windowed()).empty());
  }
  EXPECT_EQ(windows_json[0], windows_json[1]);
  EXPECT_EQ(windows_json[0], windows_json[2]);
  EXPECT_EQ(alerts_json[0], alerts_json[1]);
  EXPECT_EQ(alerts_json[0], alerts_json[2]);
}

}  // namespace
