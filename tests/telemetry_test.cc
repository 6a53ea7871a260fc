// End-to-end telemetry guarantees (fast — runs in check.sh --quick):
//
//  * Determinism: a campaign report is byte-identical with telemetry off
//    and with full collection on, across 1/2/8 worker threads — and the
//    merged telemetry snapshot itself is thread-count-independent.
//  * The packet-trace golden property: for every frame that completes the
//    reshaper -> arbiter -> sniffer chain, the per-hop spans sum EXACTLY
//    (integer microseconds) to the end-to-end latency, and an uncontended
//    channel shows zero backoff.
//  * Byte pins: FNV-1a digests of the telemetry documents of a small
//    campaign and a small adaptive campaign, of a cross-run fold of two
//    campaigns' snapshots, and of the alerts the drift/SLO/privacy rules
//    raise over the adaptive run's windows.
#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "attack/sniffer.h"
#include "core/scheduler.h"
#include "core/tuning/tuned_configuration.h"
#include "eval/defense_factory.h"
#include "eval/session_eval.h"
#include "net/access_point.h"
#include "net/client.h"
#include "obs/export.h"
#include "obs/packet_trace.h"
#include "obs/privacy.h"
#include "obs/slo.h"
#include "runtime/adaptive_campaign.h"
#include "runtime/campaign.h"
#include "runtime/scenario.h"
#include "sim/channel/channel_arbiter.h"
#include "sim/medium.h"
#include "sim/simulator.h"

namespace {

using namespace reshape;
using util::Duration;

runtime::CampaignSpec tiny_campaign() {
  runtime::CampaignSpec spec;
  spec.seed = 0x0B5;
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

TEST(TelemetryDeterminismTest, CampaignReportUnmovedAndSnapshotStable) {
  runtime::CampaignEngine engine{tiny_campaign()};

  // Baseline: telemetry fully off (the default).
  const std::string baseline = engine.run(1).to_json();
  EXPECT_TRUE(engine.telemetry().empty());
  EXPECT_TRUE(engine.windowed().empty());

  // Full collection on: the report must not move by a byte at any worker
  // count, and the merged telemetry (flat metrics AND windowed series)
  // must be identical across counts.
  engine.set_telemetry(obs::TelemetryConfig::enabled());
  std::vector<std::string> snapshots;
  std::vector<std::string> windows;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    EXPECT_EQ(baseline, engine.run(threads).to_json())
        << "telemetry perturbed the report at " << threads << " threads";
    ASSERT_FALSE(engine.telemetry().empty());
    ASSERT_FALSE(engine.windowed().empty());
    snapshots.push_back(engine.telemetry().to_json());
    windows.push_back(engine.windowed().to_json());
  }
  EXPECT_EQ(snapshots[0], snapshots[1]);
  EXPECT_EQ(snapshots[0], snapshots[2]);
  EXPECT_EQ(windows[0], windows[1]);
  EXPECT_EQ(windows[0], windows[2]);

  // The windowed section carries the offered-load series per cell.
  EXPECT_NE(engine.windowed().find(
                "campaign_offered_bytes",
                obs::LabelSet{{"defense", "Original"},
                              {"scenario", "multi-app-station"},
                              {"shard", "0"}}),
            nullptr);

  // The merged series carry the campaign's evidence: per-cell session
  // counters labeled (defense, scenario, shard), summed over the grid.
  const obs::MetricsSnapshot& telemetry = engine.telemetry();
  double sessions = 0.0;
  for (const obs::SeriesSnapshot& series : telemetry.series) {
    if (series.name == "campaign_sessions_total") {
      sessions += static_cast<double>(series.counter);
    }
  }
  EXPECT_GT(sessions, 0.0);

  // Profiling ran one lap per cell plus the pooled total — host timings
  // live in the profiler only, never in the report.
  const auto phases = engine.profiler().snapshot();
  ASSERT_EQ(phases.count("cells"), 1u);
  EXPECT_EQ(phases.at("cells").calls, engine.cell_count());

  // The telemetry document has all sections; the report JSON has none.
  const std::string doc = engine.telemetry_to_json();
  EXPECT_NE(doc.find("\"metrics\":"), std::string::npos);
  EXPECT_NE(doc.find("\"windows\":"), std::string::npos);
  EXPECT_NE(doc.find("\"profile\":"), std::string::npos);
  EXPECT_EQ(baseline.find("\"profile\":"), std::string::npos);
}

// ---------------------------------------------------------------- byte pins
//
// The determinism tests above compare runs with each other, so a change
// that moves every run alike passes them. These digests pin the bytes:
// the telemetry document of one campaign and one adaptive campaign with
// metrics, windowed, privacy and per-pair series on (profiling off: host
// timings are not deterministic), a fold of two campaigns' snapshots whose
// series keys coincide (so counters, gauges, histograms and window
// accumulators all take their merge branch), and the alerts of a
// Page–Hinkley rule, a mean-floor SloRule and the privacy rule set over
// the adaptive run's windows. A digest changes only when a telemetry or
// alert byte does.

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    hash = (hash ^ static_cast<std::uint8_t>(c)) * 0x100000001B3ULL;
  }
  return hash;
}

void expect_pinned(std::string_view bytes, std::uint64_t expected,
                   std::string_view what) {
  const std::uint64_t digest = fnv1a(bytes);
  EXPECT_EQ(digest, expected)
      << what << ": digest 0x" << std::hex << digest << std::dec << " over "
      << bytes.size() << " bytes";
}

obs::TelemetryConfig pinned_telemetry(util::Duration window) {
  obs::TelemetryConfig config;
  config.metrics = true;
  config.windowed = true;
  config.privacy = true;
  config.privacy_pairs = true;
  config.window = window;
  return config;
}

runtime::AdaptiveCampaignSpec pinned_adaptive() {
  runtime::AdaptiveCampaignSpec spec;
  spec.seed = 0xD21F7;
  spec.bootstrap.seed = 777;
  spec.bootstrap.train_sessions_per_app = 2;
  spec.bootstrap.train_session_duration = Duration::seconds(30.0);
  spec.attacker.cadence = Duration::seconds(15.0);
  spec.defenses.push_back({"Original", eval::no_defense_factory()});
  spec.defenses.push_back(
      {"OR", eval::reshaping_factory(core::SchedulerKind::kOrthogonal, 3)});
  spec.scenarios.push_back(
      runtime::monitored_drift(3, Duration::seconds(90.0), /*shift=*/true));
  spec.shards = 1;
  return spec;
}

TEST(TelemetryPinTest, CampaignTelemetryBytes) {
  runtime::CampaignEngine engine{tiny_campaign()};
  engine.set_telemetry(pinned_telemetry(Duration::seconds(5.0)));
  (void)engine.run(2);
  expect_pinned(engine.telemetry_to_json(), 0x1a91b1f8f075dabfULL,
                "campaign telemetry");
}

TEST(TelemetryPinTest, CrossRunFoldBytes) {
  // Two seeds of the same grid share every series key, so the fold walks
  // the equal-key branch of both merges for every series kind.
  runtime::CampaignSpec other_spec = tiny_campaign();
  other_spec.seed = 0x0B6;
  runtime::CampaignEngine first{tiny_campaign()};
  runtime::CampaignEngine second{other_spec};
  for (runtime::CampaignEngine* engine : {&first, &second}) {
    engine->set_telemetry(pinned_telemetry(Duration::seconds(5.0)));
    (void)engine->run(2);
  }
  obs::MetricsSnapshot metrics = first.telemetry();
  metrics.merge(second.telemetry());
  obs::WindowedSnapshot windows = first.windowed();
  windows.merge(second.windowed());
  expect_pinned(metrics.to_json(), 0xd40e4318889d3428ULL, "folded metrics");
  expect_pinned(windows.to_json(), 0x6f91d2a72c6bd851ULL, "folded windows");
}

TEST(TelemetryPinTest, AdaptiveTelemetryAndAlertBytes) {
  runtime::AdaptiveCampaignEngine engine{pinned_adaptive()};
  engine.set_telemetry(pinned_telemetry(Duration::seconds(15.0)));
  (void)engine.run(2);
  expect_pinned(engine.telemetry_to_json(), 0x3335dd98be383ed6ULL,
                "adaptive telemetry");

  const obs::WindowedSnapshot& windows = engine.windowed();
  std::vector<obs::DriftRule> drift_rules(1);
  drift_rules[0].name = "adaptive-accuracy-drift";
  drift_rules[0].series = "adaptive_accuracy_percent";
  drift_rules[0].params.warmup = 2;
  drift_rules.push_back(obs::privacy_drift_rule());

  std::vector<obs::SloRule> slo_rules(1);
  slo_rules[0].name = "adaptive-accuracy-floor";
  slo_rules[0].series = "adaptive_accuracy_percent";
  slo_rules[0].comparison = obs::SloComparison::kBelow;
  slo_rules[0].threshold = 50.0;
  for (obs::SloRule& rule : obs::privacy_slo_rules(obs::PrivacyBudgets{})) {
    slo_rules.push_back(std::move(rule));
  }

  const std::vector<obs::AlertRecord> drift =
      obs::evaluate_drift(drift_rules, windows);
  const std::vector<obs::AlertRecord> slo =
      obs::evaluate_slo(slo_rules, windows);
  EXPECT_FALSE(drift.empty());
  EXPECT_FALSE(slo.empty());
  expect_pinned(obs::alerts_to_json(drift), 0x4b97abbbf2ee7d1bULL,
                "drift alerts");
  expect_pinned(obs::alerts_to_json(slo), 0xe4eecd1d4decd220ULL, "slo alerts");
}

// ------------------------------------------------------------ host profile
//
// Each cell's laps fold into "cells", "cell/<grid cell id>" and one entry
// per phase with laps. The names and call counts are deterministic even
// though the timings are not.

/// Asserts "cells" and exactly one "cell/<id>" lap per id in [begin, end).
void expect_cell_laps(const std::map<std::string, obs::PhaseSample>& phases,
                      std::size_t begin, std::size_t end) {
  ASSERT_EQ(phases.count("cells"), 1u);
  EXPECT_EQ(phases.at("cells").calls, end - begin);
  std::size_t named = 0;
  for (const auto& [name, sample] : phases) {
    if (name.starts_with("cell/")) {
      ++named;
      EXPECT_EQ(sample.calls, 1u) << name;
    }
  }
  EXPECT_EQ(named, end - begin);
  for (std::size_t id = begin; id < end; ++id) {
    EXPECT_EQ(phases.count("cell/" + std::to_string(id)), 1u) << id;
  }
}

/// The phase names of a profile other than the per-cell laps.
std::vector<std::string> phase_names(
    const std::map<std::string, obs::PhaseSample>& phases) {
  std::vector<std::string> names;
  for (const auto& [name, sample] : phases) {
    if (!name.starts_with("cell/")) {
      names.push_back(name);
    }
  }
  return names;
}

/// Every flow the campaign's cells score: the defended flows of each
/// cell's workload, rebuilt from the cell streams.
std::uint64_t scored_flows(const runtime::CampaignSpec& spec) {
  const runtime::CellGrid grid{spec.defenses.size(), spec.scenarios.size(),
                               spec.shards};
  std::uint64_t flows = 0;
  for (std::size_t c = 0; c < grid.cell_count(); ++c) {
    const runtime::CellGrid::Cell cell = grid.decompose(c);
    runtime::CellStreams streams = runtime::cell_streams(spec.seed, grid, c);
    const std::vector<traffic::Trace> sessions =
        spec.scenarios[cell.scenario].generate(streams.workload);
    for (const eval::DefendedSession& session :
         eval::apply_defense(spec.defenses[cell.defense].factory, sessions,
                             streams.defense_seed)) {
      flows += session.flows.size();
    }
  }
  return flows;
}

obs::TelemetryConfig profiling_only() {
  obs::TelemetryConfig config;
  config.profiling = true;
  return config;
}

TEST(ProfileTest, RangeLapsNameTheGridCell) {
  runtime::CampaignEngine engine{tiny_campaign()};
  engine.set_telemetry(profiling_only());
  (void)engine.run_range(2, 3, 1);
  const auto phases = engine.profiler().snapshot();
  EXPECT_EQ(phases.count("cell/2"), 1u);
  EXPECT_EQ(phases.count("cell/0"), 0u);
  expect_cell_laps(phases, 2, 3);
}

TEST(ProfileTest, CampaignLapsEveryCellAndScoredFlow) {
  const runtime::CampaignSpec spec = tiny_campaign();
  runtime::CampaignEngine engine{spec};
  engine.set_telemetry(profiling_only());
  (void)engine.run(2);
  const auto phases = engine.profiler().snapshot();
  expect_cell_laps(phases, 0, engine.cell_count());
  EXPECT_EQ(phase_names(phases),
            (std::vector<std::string>{"cells", "features"}));
  const std::uint64_t flows = scored_flows(spec);
  EXPECT_GT(flows, 0u);
  EXPECT_EQ(phases.at("features").calls, flows);
}

TEST(ProfileTest, AdaptiveLapsEveryCell) {
  runtime::AdaptiveCampaignEngine engine{pinned_adaptive()};
  engine.set_telemetry(profiling_only());
  (void)engine.run(2);
  const auto phases = engine.profiler().snapshot();
  expect_cell_laps(phases, 0, engine.cell_count());
  EXPECT_EQ(phase_names(phases), std::vector<std::string>{"cells"});
}

TEST(PacketTraceGoldenTest, SpansSumExactlyToEndToEndOnLiveStack) {
  sim::Simulator simulator;
  sim::Medium medium{sim::PathLossModel{}, util::Rng{5}};
  // Uncontended DCF: zero backoff slots, so a lone station's frames go
  // on air the instant the channel is idle.
  sim::channel::ChannelArbiter arbiter{simulator, medium, /*channel=*/6,
                                       sim::channel::DcfParams::uncontended(),
                                       util::Rng{7}};

  const auto bssid = mac::MacAddress::parse("02:00:00:00:aa:01");
  const auto client_mac = mac::MacAddress::parse("02:00:00:00:bb:02");
  const mac::SymmetricKey key{0x1234, 0x5678};
  const auto make_or = [] {
    return std::make_unique<core::OrthogonalScheduler>(
        core::OrthogonalScheduler::identity(
            core::SizeRanges::paper_default()));
  };
  net::AccessPoint ap{simulator, medium, sim::Position{0, 0}, bssid,
                      /*channel=*/6, net::ApConfig{}, util::Rng{1}, make_or};
  net::WirelessClient client{simulator, medium, sim::Position{7, 2},
                             client_mac, bssid, 6, key, util::Rng{2},
                             make_or()};
  ap.associate(client_mac, key);
  attack::Sniffer sniffer{bssid};
  medium.attach(sniffer, sim::Position{-5, 10}, 6);

  obs::PacketTrace trace;
  client.set_packet_trace(&trace);
  ap.set_packet_trace(&trace);
  arbiter.set_packet_trace(&trace);
  sniffer.set_packet_trace(&trace);

  client.request_virtual_interfaces(3);
  simulator.run();  // handshake (ciphertext — not data, not traced hops)

  // Well-spaced uplink data: every frame finds the channel idle.
  constexpr std::size_t kPackets = 20;
  for (std::size_t i = 0; i < kPackets; ++i) {
    const auto at = util::TimePoint::from_microseconds(
        1'000'000 + static_cast<std::int64_t>(i) * 50'000);
    simulator.schedule_at(at, [&client, i] {
      client.send_packet(mac::payload_of(400 + 16 * i));
    });
  }
  simulator.run();

  const std::vector<obs::FrameSpans> frames = trace.complete_frames();
  ASSERT_GE(frames.size(), kPackets);
  for (const obs::FrameSpans& frame : frames) {
    // The golden invariant, exact in integer microseconds: the reshaper's
    // queueing span plus the DCF access span IS the end-to-end latency
    // (release == channel enqueue and sniff == on-air by construction).
    EXPECT_EQ(frame.queueing.count_us() + frame.backoff.count_us(),
              frame.end_to_end.count_us())
        << "frame " << frame.frame_id;
    // Uncontended, spaced: the channel never delays a frame.
    EXPECT_EQ(frame.backoff.count_us(), 0) << "frame " << frame.frame_id;
    EXPECT_GT(frame.airtime.count_us(), 0) << "frame " << frame.frame_id;
    EXPECT_FALSE(frame.dropped);
  }

  medium.detach(sniffer);
}

TEST(PacketTraceGoldenTest, TracerSurvivesTunedReconfiguration) {
  // The AP-pushed reconfiguration rebuilds the client's reshaper
  // wholesale; the attached tracer must ride along, so frames after the
  // push keep completing span chains.
  sim::Simulator simulator;
  sim::Medium medium{sim::PathLossModel{}, util::Rng{5}};
  sim::channel::ChannelArbiter arbiter{simulator, medium, /*channel=*/6,
                                       sim::channel::DcfParams::uncontended(),
                                       util::Rng{7}};
  const auto bssid = mac::MacAddress::parse("02:00:00:00:aa:01");
  const auto client_mac = mac::MacAddress::parse("02:00:00:00:bb:02");
  const mac::SymmetricKey key{0x1234, 0x5678};
  const auto make_or = [] {
    return std::make_unique<core::OrthogonalScheduler>(
        core::OrthogonalScheduler::identity(
            core::SizeRanges::paper_default()));
  };
  net::AccessPoint ap{simulator, medium, sim::Position{0, 0}, bssid,
                      /*channel=*/6, net::ApConfig{}, util::Rng{1}, make_or};
  net::WirelessClient client{simulator, medium, sim::Position{7, 2},
                             client_mac, bssid, 6, key, util::Rng{2},
                             make_or()};
  ap.associate(client_mac, key);
  attack::Sniffer sniffer{bssid};
  medium.attach(sniffer, sim::Position{-5, 10}, 6);

  obs::PacketTrace trace;
  client.set_packet_trace(&trace);
  ap.set_packet_trace(&trace);
  arbiter.set_packet_trace(&trace);
  sniffer.set_packet_trace(&trace);

  client.request_virtual_interfaces(3);
  simulator.run();

  const core::tuning::TunedConfiguration tuned =
      core::tuning::TunedConfiguration::identity(
          "retuned", core::SizeRanges::paper_default());
  ASSERT_TRUE(ap.push_tuned_configuration(client_mac, tuned));
  simulator.run();

  const std::uint64_t before = trace.last_frame_id();
  simulator.schedule_at(util::TimePoint::from_microseconds(2'000'000),
                        [&client] {
                          client.send_packet(mac::payload_of(512));
                        });
  simulator.run();

  EXPECT_GT(trace.last_frame_id(), before);
  bool completed_after_push = false;
  for (const obs::FrameSpans& frame : trace.complete_frames()) {
    completed_after_push |= frame.frame_id > before;
  }
  EXPECT_TRUE(completed_after_push);

  medium.detach(sniffer);
}

}  // namespace
