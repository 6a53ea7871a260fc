// Bit-for-bit pins of everything DCF arbitration produces. Every
// arbitrated registry scenario and a small tuning sweep (its report, and
// its whole range with every per-cell access-delay sample) run through
// ArbitratedCell's plain loop; the live session (LivePathPinTest) runs
// through sim::Simulator and a ChannelArbiter. These digests (FNV-1a 64)
// change only when an on-air timestamp, a delay sample, a drop count, an
// RSSI or a report byte does — not when the event queue or the cell
// changes how it holds pending releases.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "attack/audit/leakage_audit.h"
#include "attack/sniffer.h"
#include "core/scheduler.h"
#include "core/tpc.h"
#include "core/tuning/tuned_configuration.h"
#include "core/tuning/tuner.h"
#include "net/access_point.h"
#include "net/client.h"
#include "obs/export.h"
#include "obs/packet_trace.h"
#include "runtime/scenario.h"
#include "runtime/wire.h"
#include "sim/channel/channel_arbiter.h"
#include "sim/medium.h"
#include "sim/simulator.h"
#include "traffic/generator.h"
#include "util/rng.h"

namespace reshape {
namespace {

class Fnv1a {
 public:
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xFFU;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  void add_bytes(const std::string& bytes) {
    for (const char c : bytes) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001B3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

std::string hex(std::uint64_t value) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

void add_traces(Fnv1a& fnv, std::span<const traffic::Trace> traces) {
  fnv.add(std::uint64_t{traces.size()});
  for (const traffic::Trace& trace : traces) {
    fnv.add(std::uint64_t{traffic::app_index(trace.app())});
    fnv.add(std::uint64_t{trace.size()});
    for (const std::int64_t t : trace.times_us()) {
      fnv.add(static_cast<std::uint64_t>(t));
    }
    for (const std::uint32_t size : trace.sizes_bytes()) {
      fnv.add(std::uint64_t{size});
    }
    for (const mac::Direction dir : trace.directions()) {
      fnv.add(static_cast<std::uint64_t>(dir));
    }
  }
}

std::uint64_t scenario_digest(const runtime::Scenario& scenario) {
  util::Rng rng{0xA2B17E};
  Fnv1a fnv;
  add_traces(fnv, scenario.generate(rng));
  return fnv.value();
}

TEST(ArbitrationGoldenTest, ArbitratedScenariosPinnedBitForBit) {
  struct ScenarioGolden {
    runtime::Scenario scenario;
    std::uint64_t digest;
  };
  const runtime::ScenarioRegistry& registry =
      runtime::ScenarioRegistry::global();
  const std::vector<ScenarioGolden> goldens = {
      {registry.at("contended-cell"), 0xb6355ec891534c24ULL},
      {registry.at("saturated-ap-downlink"), 0xf08e1f10861733a7ULL},
      {registry.at("adaptive-contended-cell"), 0x3b54bf9e407cb02fULL},
      {registry.at("adaptive-roaming-retrain"), 0x1dbfafcf149e0d50ULL},
      {registry.at("tuned-vs-table5"), 0x0eb9cf4ff1a3265eULL},
      {runtime::dense_wlan_10k(200), 0xcbe9fdefcd1bcda8ULL},
  };
  for (const ScenarioGolden& golden : goldens) {
    EXPECT_EQ(hex(scenario_digest(golden.scenario)), hex(golden.digest))
        << golden.scenario.name();
  }
}

/// A tuning run small enough for the fast suite.
core::tuning::TunerSpec small_spec() {
  core::tuning::TunerSpec spec;
  spec.seed = 0x601DA2B;
  spec.bootstrap.seed = 20110620;
  spec.bootstrap.train_sessions_per_app = 2;
  spec.bootstrap.train_session_duration = util::Duration::seconds(30.0);
  spec.attacker.cadence = util::Duration::seconds(10.0);
  spec.scenario = runtime::tuned_vs_table5(3, util::Duration::seconds(30.0));
  spec.shards = 1;
  spec.space.interleaved_fine_partitions = false;
  spec.space.padded_compositions = false;
  return spec;
}

TEST(ArbitrationGoldenTest, TuningReportPinnedBitForBit) {
  core::tuning::ParameterTuner tuner{small_spec()};
  Fnv1a fnv;
  fnv.add_bytes(tuner.run(2).to_json());
  EXPECT_EQ(hex(fnv.value()), hex(0x27604b5aec9de669ULL));
}

// The raw cells behind a report, as the shard server ships them: every
// CandidateShardOutcome field (epoch scores, pooled streaming stats, the
// sorted access-delay samples, drops) plus the range's metrics, windowed
// and privacy telemetry. The padded compositions put OR-paper-I3 and
// OR-paper-I3+pad, the unpadded and padded paper point, in the space.
TEST(ArbitrationGoldenTest, TuningRangePinnedBitForBit) {
  core::tuning::TunerSpec spec = small_spec();
  spec.space.padded_compositions = true;
  core::tuning::ParameterTuner tuner{spec};
  obs::TelemetryConfig telemetry;
  telemetry.metrics = true;
  telemetry.windowed = true;
  telemetry.privacy = true;
  telemetry.privacy_pairs = true;
  tuner.set_telemetry(telemetry);
  const std::vector<std::uint8_t> bytes = runtime::wire::encode_range(
      tuner.run_range(0, tuner.cell_count(), 1));
  Fnv1a fnv;
  fnv.add_bytes(std::string{bytes.begin(), bytes.end()});
  EXPECT_EQ(hex(fnv.value()), hex(0x80f5466978c2b4aeULL));
}

void add_stats(Fnv1a& fnv, const sim::channel::ChannelStats& stats) {
  fnv.add(stats.frames_sent);
  fnv.add(stats.frames_dropped);
  fnv.add(stats.collisions);
  fnv.add(stats.retries);
  fnv.add(static_cast<std::uint64_t>(stats.total_access_delay.count_us()));
  fnv.add(static_cast<std::uint64_t>(stats.max_access_delay.count_us()));
  fnv.add(static_cast<std::uint64_t>(stats.airtime.count_us()));
  fnv.add(std::uint64_t{stats.max_queue_depth});
}

void add_stats(Fnv1a& fnv, const core::online::StreamingStats& stats) {
  fnv.add(stats.packets);
  fnv.add(stats.original_bytes);
  fnv.add(stats.added_bytes);
  fnv.add(stats.deadline_misses);
  fnv.add(static_cast<std::uint64_t>(stats.total_queueing_delay.count_us()));
  fnv.add(static_cast<std::uint64_t>(stats.max_queueing_delay.count_us()));
  fnv.add(static_cast<std::uint64_t>(stats.airtime_busy.count_us()));
  fnv.add(std::uint64_t{stats.max_queue_depth});
}

// The live path: an AP and two reshaping clients under OR on one
// ChannelArbiter channel, driven event by event through sim::Simulator.
// Client 0 transmits each virtual interface at its own random power
// (§V-A), client 1 and the AP at a per-packet random power, and the AP
// pushes client 0 a padded configuration mid-session. The digests cover
// what the sniffer, the arbiter, the reshapers, the packet trace and the
// leakage auditor saw, and the number of events dispatched.
TEST(LivePathPinTest, LiveSessionPinnedBitForBit) {
  sim::Simulator simulator;
  sim::Medium medium{sim::PathLossModel{}, util::Rng{0x5EED}};
  // A slow PHY and a narrow contention window, so the three stations
  // collide and retry.
  sim::channel::DcfParams params;
  params.bitrate_mbps = 6.0;
  params.cw_min = 3;
  sim::channel::ChannelArbiter arbiter{simulator, medium, /*channel=*/6,
                                       params, util::Rng{0xA4B}};
  const auto bssid = mac::MacAddress::parse("02:00:00:00:aa:01");
  const auto make_or = [] {
    return std::make_unique<core::OrthogonalScheduler>(
        core::OrthogonalScheduler::identity(core::SizeRanges::paper_default()));
  };
  net::AccessPoint ap{simulator, medium, sim::Position{0, 0}, bssid,
                      /*channel=*/6, net::ApConfig{}, util::Rng{1}, make_or};
  ap.set_power_control(
      core::TransmitPowerControl::uniform(14.0, 20.0, util::Rng{2}));

  const mac::MacAddress client_macs[] = {
      mac::MacAddress::parse("02:00:00:00:bb:02"),
      mac::MacAddress::parse("02:00:00:00:bb:03")};
  const sim::Position positions[] = {sim::Position{7, 2},
                                     sim::Position{-3, 9}};
  std::vector<std::unique_ptr<net::WirelessClient>> clients;
  for (std::size_t c = 0; c < 2; ++c) {
    const mac::SymmetricKey key{0x1234 + c, 0x5678 + c};
    clients.push_back(std::make_unique<net::WirelessClient>(
        simulator, medium, positions[c], client_macs[c], bssid, 6, key,
        util::Rng{10 + c}, make_or()));
    ap.associate(client_macs[c], key);
  }

  attack::Sniffer sniffer{bssid};
  medium.attach(sniffer, sim::Position{-5, 10}, 6);
  obs::PacketTrace trace;
  attack::audit::AuditConfig audit_config;
  audit_config.window = util::Duration::seconds(1.0);
  attack::audit::LeakageAuditor auditor{audit_config};
  sniffer.set_packet_trace(&trace);
  sniffer.set_leakage_auditor(&auditor);
  arbiter.set_packet_trace(&trace);
  ap.set_packet_trace(&trace);
  for (const auto& client : clients) {
    client->set_packet_trace(&trace);
    client->request_virtual_interfaces(3);
  }
  simulator.run();

  std::vector<core::TransmitPowerControl> controls;
  for (std::uint64_t i = 0; i < 3; ++i) {
    const double low = 6.0 + 6.0 * static_cast<double>(i);
    controls.push_back(
        core::TransmitPowerControl::uniform(low, low + 4.0, util::Rng{20 + i}));
  }
  clients[0]->set_interface_power_controls(std::move(controls));
  clients[1]->set_power_control(
      core::TransmitPowerControl::uniform(8.0, 18.0, util::Rng{30}));

  const traffic::AppType apps[] = {traffic::AppType::kDownloading,
                                   traffic::AppType::kVideo};
  const util::TimePoint start = simulator.now();
  for (std::size_t c = 0; c < 2; ++c) {
    const traffic::Trace session = traffic::generate_trace(
        apps[c], util::Duration::seconds(3.0), 40 + c);
    for (const traffic::PacketRecord& r : session.records()) {
      net::WirelessClient* client = clients[c].get();
      const mac::MacAddress& peer = client_macs[c];
      if (r.direction == mac::Direction::kUplink) {
        simulator.schedule_at(start + (r.time - util::TimePoint{}),
                              [client, s = r.size_bytes] {
                                client->send_packet(mac::payload_of(s));
                              });
      } else {
        simulator.schedule_at(start + (r.time - util::TimePoint{}),
                              [&ap, &peer, s = r.size_bytes] {
                                ap.send_to_client(peer, mac::payload_of(s));
                              });
      }
    }
  }
  auto padded = core::tuning::TunedConfiguration::identity(
      "pin-padded", core::SizeRanges::paper_default());
  padded.pad_to[0] = padded.range_bounds[0];
  simulator.schedule_at(start + util::Duration::seconds(1.5), [&] {
    EXPECT_TRUE(ap.push_tuned_configuration(client_macs[0], padded));
  });
  simulator.run();

  // The session exercises what it pins: contention, the push, the audit.
  EXPECT_GT(arbiter.totals().collisions, 0u);
  EXPECT_EQ(trace.evicted_events(), 0u);
  EXPECT_EQ(ap.tuned_pushes(), 1u);
  EXPECT_EQ(clients[0]->interfaces().size(), 3u);
  EXPECT_GT(sniffer.frames_captured(), 0u);

  Fnv1a capture;
  const attack::CaptureColumns& columns = sniffer.captures();
  capture.add(std::uint64_t{columns.size()});
  for (std::size_t i = 0; i < columns.size(); ++i) {
    capture.add(static_cast<std::uint64_t>(columns.time_us[i]));
    capture.add(std::uint64_t{columns.size_bytes[i]});
    capture.add(columns.station[i]);
    capture.add(static_cast<std::uint64_t>(columns.direction[i]));
    capture.add(columns.rssi_dbm[i]);
  }

  Fnv1a channel;
  add_stats(channel, arbiter.totals());
  channel.add(arbiter.frames_on_air());
  channel.add(arbiter.collision_events());
  channel.add(static_cast<std::uint64_t>(arbiter.busy_time().count_us()));
  channel.add(std::uint64_t{arbiter.station_count()});
  ASSERT_NE(ap.observed_channel_stats(), nullptr);
  add_stats(channel, *ap.observed_channel_stats());
  for (const auto& client : clients) {
    ASSERT_NE(client->observed_channel_stats(), nullptr);
    add_stats(channel, *client->observed_channel_stats());
  }

  Fnv1a modeled;
  for (std::size_t c = 0; c < 2; ++c) {
    add_stats(modeled, clients[c]->modeled_reshaping_stats());
    ASSERT_NE(ap.modeled_reshaping_stats_of(client_macs[c]), nullptr);
    add_stats(modeled, *ap.modeled_reshaping_stats_of(client_macs[c]));
  }

  Fnv1a spans;
  spans.add(std::uint64_t{trace.events().size()});
  for (const obs::SpanEvent& event : trace.events()) {
    spans.add(event.frame_id);
    spans.add(static_cast<std::uint64_t>(event.hop));
    spans.add(static_cast<std::uint64_t>(event.at.count_us()));
    spans.add(static_cast<std::uint64_t>(event.aux));
  }

  Fnv1a leakage;
  const std::vector<obs::WindowLeakage> windows = auditor.reduce();
  EXPECT_GE(windows.size(), 3u);
  for (const obs::WindowLeakage& window : windows) {
    leakage.add(static_cast<std::uint64_t>(window.window));
    leakage.add(window.active_streams);
    leakage.add(window.partition_balance);
    leakage.add(window.anonymity_set);
    leakage.add(window.max_pairwise_jsd_bits);
    leakage.add(window.mean_pairwise_jsd_bits);
    leakage.add(window.rssi_linked_fraction);
    leakage.add(std::uint64_t{window.has_proxy});
    leakage.add(window.proxy_accuracy_percent);
    for (const obs::WindowLeakage::PairDivergence& pair : window.pairs) {
      leakage.add(pair.a);
      leakage.add(pair.b);
      leakage.add(pair.jsd_bits);
    }
  }

  EXPECT_EQ(hex(capture.value()), hex(0x2ce27dc59721218bULL)) << "sniffer capture";
  EXPECT_EQ(hex(channel.value()), hex(0x60f0bacc592a18ccULL)) << "arbiter stats";
  EXPECT_EQ(hex(modeled.value()), hex(0x9810cfeebf874bf4ULL)) << "modeled stats";
  EXPECT_EQ(hex(spans.value()), hex(0x136f786eba4246b6ULL)) << "packet trace";
  EXPECT_EQ(hex(leakage.value()), hex(0xa3b2b233fb577416ULL)) << "leakage audit";
  EXPECT_EQ(simulator.events_processed(), 11075u);

  sniffer.set_leakage_auditor(nullptr);
  medium.detach(sniffer);
}

}  // namespace
}  // namespace reshape
