// Tests for src/runtime: scenario registry coverage, workload determinism,
// the campaign engine's bit-identical-across-thread-counts guarantee, and
// the adaptive engine's one generation per workload slot.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

#include "eval/defense_factory.h"
#include "runtime/adaptive_campaign.h"
#include "runtime/campaign.h"
#include "runtime/scenario.h"

namespace reshape::runtime {
namespace {

eval::ExperimentConfig tiny_training() {
  eval::ExperimentConfig cfg;
  cfg.seed = 777;
  cfg.window = util::Duration::seconds(5.0);
  cfg.train_sessions_per_app = 2;
  cfg.train_session_duration = util::Duration::seconds(30.0);
  cfg.test_sessions_per_app = 1;
  cfg.test_session_duration = util::Duration::seconds(30.0);
  return cfg;
}

CampaignSpec tiny_campaign() {
  CampaignSpec spec;
  spec.seed = 4242;
  spec.training = tiny_training();
  spec.defenses.push_back({"Original", eval::no_defense_factory()});
  spec.defenses.push_back(
      {"OR", eval::reshaping_factory(core::SchedulerKind::kOrthogonal, 3)});
  spec.scenarios.push_back(
      multi_app_station(1, util::Duration::seconds(30.0)));
  spec.scenarios.push_back(iot_telemetry(3, util::Duration::seconds(30.0)));
  spec.shards = 2;
  return spec;
}

// ------------------------------------------------------------- scenarios ---

TEST(ScenarioRegistryTest, BuiltinsArePresent) {
  const ScenarioRegistry& registry = ScenarioRegistry::global();
  EXPECT_GE(registry.size(), 9u);
  for (const char* name :
       {"paper-single-app", "multi-app-station", "iot-telemetry",
        "voip-browsing-mix", "dense-wlan", "bulk-transfer-heavy",
        "live-reshaping", "contended-cell", "saturated-ap-downlink"}) {
    EXPECT_NE(registry.find(name), nullptr) << name;
  }
  EXPECT_EQ(registry.find("no-such-workload"), nullptr);
  EXPECT_THROW((void)registry.at("no-such-workload"), std::out_of_range);
}

TEST(ScenarioRegistryTest, AddReplacesByName) {
  ScenarioRegistry registry;
  registry.add(dense_wlan(2, util::Duration::seconds(10.0)));
  registry.add(dense_wlan(5, util::Duration::seconds(10.0)));
  EXPECT_EQ(registry.size(), 1u);
  util::Rng rng{1};
  EXPECT_EQ(registry.at("dense-wlan").generate(rng).size(), 5u);
}

TEST(ScenarioTest, EveryBuiltinGeneratesLabeledTraffic) {
  for (const std::string& name : ScenarioRegistry::global().names()) {
    const Scenario& scenario = ScenarioRegistry::global().at(name);
    util::Rng rng{2024};
    const std::vector<traffic::Trace> sessions = scenario.generate(rng);
    ASSERT_FALSE(sessions.empty()) << name;
    std::size_t packets = 0;
    for (const traffic::Trace& session : sessions) {
      EXPECT_LT(traffic::app_index(session.app()), traffic::kAppCount);
      packets += session.size();
    }
    EXPECT_GT(packets, 0u) << name;
  }
}

TEST(ScenarioTest, GenerationIsSeedDeterministic) {
  const Scenario scenario = dense_wlan(6, util::Duration::seconds(20.0));
  util::Rng a{99};
  util::Rng b{99};
  const auto sa = scenario.generate(a);
  const auto sb = scenario.generate(b);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].app(), sb[i].app());
    ASSERT_EQ(sa[i].size(), sb[i].size());
    for (std::size_t p = 0; p < sa[i].size(); ++p) {
      EXPECT_EQ(sa[i][p], sb[i][p]);
    }
  }
}

TEST(ScenarioTest, StationStreamsAreKeyedNotSequential) {
  // Station i's session must not depend on how many stations the scenario
  // has — the keyed-fork property sharding relies on.
  const std::vector<StationSpec> two{
      {traffic::AppType::kBrowsing, util::Duration::seconds(10.0), {}},
      {traffic::AppType::kVideo, util::Duration::seconds(10.0), {}},
  };
  std::vector<StationSpec> three = two;
  three.push_back(
      {traffic::AppType::kGaming, util::Duration::seconds(10.0), {}});
  util::Rng ra{5};
  util::Rng rb{5};
  const auto a = generate_stations(two, ra);
  const auto b = generate_stations(three, rb);
  for (std::size_t i = 0; i < two.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size());
    for (std::size_t p = 0; p < a[i].size(); ++p) {
      EXPECT_EQ(a[i][p], b[i][p]);
    }
  }
}

// -------------------------------------------------------------- campaign ---

TEST(CampaignEngineTest, ValidatesSpec) {
  CampaignSpec no_defense = tiny_campaign();
  no_defense.defenses.clear();
  EXPECT_THROW(CampaignEngine{no_defense}, std::invalid_argument);

  CampaignSpec no_scenario = tiny_campaign();
  no_scenario.scenarios.clear();
  EXPECT_THROW(CampaignEngine{no_scenario}, std::invalid_argument);

  CampaignSpec no_shard = tiny_campaign();
  no_shard.shards = 0;
  EXPECT_THROW(CampaignEngine{no_shard}, std::invalid_argument);
}

TEST(CampaignEngineTest, GridShape) {
  CampaignEngine engine{tiny_campaign()};
  EXPECT_EQ(engine.cell_count(), 2u * 2u * 2u);
}

TEST(CampaignEngineTest, ReportIsBitIdenticalAcrossThreadCounts) {
  CampaignEngine engine{tiny_campaign()};
  const std::string serial = engine.run(1).to_json();
  const std::string four = engine.run(4).to_json();
  EXPECT_EQ(serial, four);
  std::size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) {
    hw = 1;
  }
  EXPECT_EQ(serial, engine.run(hw).to_json());
}

TEST(CampaignEngineTest, LiveReshapingScenarioRunsBitIdentically) {
  // The batch-vs-online sweep: the same defenses over the batch-timed
  // workload and the online-pipeline-timed one, in one campaign grid,
  // still bit-identical for every thread count.
  CampaignSpec spec = tiny_campaign();
  spec.scenarios.push_back(live_reshaping(3, util::Duration::seconds(30.0)));
  CampaignEngine engine{spec};
  const CampaignReport serial_report = engine.run(1);
  const std::string serial = serial_report.to_json();
  EXPECT_EQ(serial, engine.run(4).to_json());
  EXPECT_EQ(serial_report.aggregate("OR", "live-reshaping").scenario,
            "live-reshaping");
}

TEST(CampaignEngineTest, CellsCoverTheGridInOrder) {
  CampaignEngine engine{tiny_campaign()};
  const CampaignReport report = engine.run(2);
  ASSERT_EQ(report.cells.size(), engine.cell_count());
  std::size_t expected = 0;
  for (std::size_t d = 0; d < 2; ++d) {
    for (std::size_t s = 0; s < 2; ++s) {
      for (std::size_t shard = 0; shard < 2; ++shard) {
        const CellResult& cell = report.cells[expected++];
        EXPECT_EQ(cell.defense_index, d);
        EXPECT_EQ(cell.scenario_index, s);
        EXPECT_EQ(cell.shard, shard);
        EXPECT_GT(cell.session_count, 0u);
      }
    }
  }
}

TEST(CampaignEngineTest, AggregatesMergeShardWindows) {
  CampaignEngine engine{tiny_campaign()};
  const CampaignReport report = engine.run(2);
  ASSERT_EQ(report.aggregates.size(), 2u * 2u);
  for (const CellAggregate& agg : report.aggregates) {
    std::uint64_t windows = 0;
    for (const CellResult& cell : report.cells) {
      if (report.aggregates[cell.defense_index * 2 + cell.scenario_index]
              .defense == agg.defense &&
          report.aggregates[cell.defense_index * 2 + cell.scenario_index]
              .scenario == agg.scenario) {
        windows += cell.evaluation.confusion.total();
      }
    }
    EXPECT_EQ(agg.evaluation.confusion.total(), windows);
    EXPECT_EQ(agg.shards, 2u);
  }
}

TEST(CampaignEngineTest, AggregateLookupByName) {
  CampaignEngine engine{tiny_campaign()};
  const CampaignReport report = engine.run(2);
  const CellAggregate& agg = report.aggregate("OR", "iot-telemetry");
  EXPECT_EQ(agg.defense, "OR");
  EXPECT_EQ(agg.scenario, "iot-telemetry");
  EXPECT_THROW((void)report.aggregate("OR", "nope"), std::out_of_range);
}

TEST(CampaignEngineTest, ReshapingKeepsZeroOverheadEverywhere) {
  CampaignEngine engine{tiny_campaign()};
  const CampaignReport report = engine.run(2);
  EXPECT_DOUBLE_EQ(
      report.aggregate("OR", "multi-app-station").evaluation.mean_overhead,
      0.0);
  EXPECT_DOUBLE_EQ(
      report.aggregate("Original", "iot-telemetry").evaluation.mean_overhead,
      0.0);
}

TEST(CampaignEngineTest, JsonCarriesTheGrid) {
  CampaignEngine engine{tiny_campaign()};
  const std::string json = engine.run(2).to_json();
  EXPECT_NE(json.find("\"seed\":4242"), std::string::npos);
  EXPECT_NE(json.find("\"aggregates\":["), std::string::npos);
  EXPECT_NE(json.find("\"scenario\":\"iot-telemetry\""), std::string::npos);
  EXPECT_NE(json.find("\"mean_accuracy\":"), std::string::npos);
}

// ------------------------------------------------------ adaptive campaign ---

/// A 3-defense x 1-scenario x 2-shard adaptive grid whose scenario
/// counts its generate() calls in `calls`.
AdaptiveCampaignSpec counted_adaptive_spec(
    const std::shared_ptr<std::atomic<int>>& calls) {
  const Scenario station = multi_app_station(1, util::Duration::seconds(30.0));
  AdaptiveCampaignSpec spec;
  spec.seed = 0xADA;
  spec.bootstrap = tiny_training();
  spec.attacker.cadence = util::Duration::seconds(10.0);
  spec.defenses.push_back({"Original", eval::no_defense_factory()});
  spec.defenses.push_back(
      {"RA", eval::reshaping_factory(core::SchedulerKind::kRandom, 3)});
  spec.defenses.push_back(
      {"OR", eval::reshaping_factory(core::SchedulerKind::kOrthogonal, 3)});
  spec.scenarios.push_back(Scenario{
      "counted-station", "multi_app_station(1, 30 s), counted",
      [calls, station](util::Rng& rng) {
        ++*calls;
        return station.generate(rng);
      }});
  spec.shards = 2;
  return spec;
}

TEST(AdaptiveCampaignEngineTest, GeneratesEachWorkloadSlotOnce) {
  // Workload streams are keyed by (scenario, shard) only, so the three
  // defense rows of a 3 x 1 x 2 grid share two workloads: generated
  // twice, by whichever cells reach the slots first, and never again.
  const auto calls = std::make_shared<std::atomic<int>>(0);
  AdaptiveCampaignEngine engine{counted_adaptive_spec(calls)};
  const std::string report = engine.run(3).to_json();
  EXPECT_EQ(calls->load(), 2);
  EXPECT_EQ(engine.run(1).to_json(), report);
  EXPECT_EQ(calls->load(), 2);
}

TEST(AdaptiveCampaignEngineTest, PrepareWarmsEveryWorkloadSlot) {
  // prepare() runs before a shard server forks: like CampaignEngine's, it
  // must generate every (scenario, shard) slot so worker processes
  // inherit the sessions, and the run after it generates nothing more.
  const auto calls = std::make_shared<std::atomic<int>>(0);
  AdaptiveCampaignEngine engine{counted_adaptive_spec(calls)};
  engine.prepare();
  EXPECT_EQ(calls->load(), 2);
  (void)engine.run(2);
  EXPECT_EQ(calls->load(), 2);
}

}  // namespace
}  // namespace reshape::runtime
