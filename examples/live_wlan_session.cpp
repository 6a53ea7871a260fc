// A live WLAN session: the full protocol stack of the paper running inside
// the discrete-event simulator.
//
// One AP, one reshaping client, and a passive sniffer share an
// *arbitrated* channel (sim::channel::ChannelArbiter, simplified DCF).
// The client performs the encrypted 4-step configuration handshake
// (paper Fig. 2), brings up three virtual MAC interfaces, and exchanges a
// browsing session with the AP. The sniffer shows what the air interface
// reveals: three apparently-independent stations, none of them the
// client's real MAC address — at true on-air timestamps, after the
// reshaper's release delay and channel arbitration.
//
// Telemetry: packet-lifecycle tracing is on by default (OBS_TRACE=off
// disables it); set OBS_TELEMETRY=<path> to write the telemetry JSON
// (metrics + trace) for scripts/trace_dump.py.
//
//   $ ./examples/live_wlan_session
#include <cstdlib>
#include <iostream>
#include <map>

#include "attack/adaptive/adaptive_attacker.h"
#include "attack/audit/leakage_audit.h"
#include "attack/sniffer.h"
#include "core/scheduler.h"
#include "net/access_point.h"
#include "net/client.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/packet_trace.h"
#include "obs/privacy.h"
#include "obs/stat_views.h"
#include "obs/windowed.h"
#include "sim/channel/channel_arbiter.h"
#include "sim/medium.h"
#include "sim/simulator.h"
#include "traffic/generator.h"
#include "util/table.h"

int main() {
  using namespace reshape;

  const obs::TelemetryConfig telemetry =
      obs::TelemetryConfig::from_env(obs::TelemetryConfig::enabled());

  sim::Simulator simulator;
  sim::Medium medium{sim::PathLossModel{}, util::Rng{99}};
  // Real airtime arbitration on channel 6: transmissions are enqueued,
  // contend under the DCF, and reach the sniffer at arbitrated instants.
  sim::channel::ChannelArbiter arbiter{simulator, medium, /*channel=*/6,
                                       sim::channel::DcfParams{},
                                       util::Rng{6}};

  const auto bssid = mac::MacAddress::parse("02:00:00:00:aa:01");
  const auto client_mac = mac::MacAddress::parse("02:00:00:00:bb:02");
  const mac::SymmetricKey key{0x1234, 0x5678};

  const auto make_or = [] {
    return std::make_unique<core::OrthogonalScheduler>(
        core::OrthogonalScheduler::identity(core::SizeRanges::paper_default()));
  };

  net::AccessPoint ap{simulator, medium, sim::Position{0, 0}, bssid,
                      /*channel=*/6, net::ApConfig{}, util::Rng{1}, make_or};
  net::WirelessClient client{simulator, medium, sim::Position{7, 2},
                             client_mac, bssid, 6, key, util::Rng{2},
                             make_or()};
  ap.associate(client_mac, key);

  attack::Sniffer sniffer{bssid};
  medium.attach(sniffer, sim::Position{-5, 10}, 6);

  // The defender auditing its own air (OBS_PRIVACY=off disables it): the
  // sniffer forwards every captured frame to the label-free leakage
  // auditor, which reduces them per 5 s window into privacy_* series.
  attack::audit::AuditConfig audit_config;
  audit_config.window = util::Duration::seconds(5.0);
  attack::audit::LeakageAuditor auditor{audit_config};
  if (telemetry.privacy) {
    sniffer.set_leakage_auditor(&auditor);
  }

  // One shared tracer across the whole path — reshaper (client and AP),
  // arbiter, sniffer — so each data frame's span chain lines up under one
  // frame id. Observation-only: attaching it changes no report numbers.
  obs::PacketTrace trace;
  if (telemetry.tracing) {
    client.set_packet_trace(&trace);
    ap.set_packet_trace(&trace);
    arbiter.set_packet_trace(&trace);
    sniffer.set_packet_trace(&trace);
  }

  // --- Step 1-4: the encrypted configuration handshake (Fig. 2). ---
  client.request_virtual_interfaces(3);
  simulator.run();
  std::cout << "Handshake complete. Virtual interfaces:\n";
  for (const net::VirtualInterface& vif : client.interfaces()) {
    std::cout << "  " << vif.address().to_string() << "\n";
  }
  std::cout << "(the sniffer saw only ciphertext; the mapping to "
            << client_mac.to_string() << " stays secret)\n\n";

  // Snapshot the channel stats before data flows: the modeled stats
  // count reshaped data packets only, so subtracting the handshake-era
  // baseline makes the observed column cover the same frame set.
  const auto snapshot = [](const sim::channel::ChannelStats* stats) {
    return stats != nullptr ? *stats : sim::channel::ChannelStats{};
  };
  const sim::channel::ChannelStats client_baseline =
      snapshot(client.observed_channel_stats());
  const sim::channel::ChannelStats ap_baseline =
      snapshot(ap.observed_channel_stats());

  // --- Data: a 30-second browsing session through the live stack. ---
  const traffic::Trace session = traffic::generate_trace(
      traffic::AppType::kBrowsing, util::Duration::seconds(30.0), 7);
  std::size_t delivered_down = 0;
  std::size_t delivered_up = 0;
  client.set_upper_layer_sink([&](std::uint32_t) { ++delivered_down; });
  ap.set_upper_layer_sink(
      [&](const mac::MacAddress&, std::uint32_t) { ++delivered_up; });
  for (const traffic::PacketRecord& r : session.records()) {
    if (r.direction == mac::Direction::kUplink) {
      simulator.schedule_at(r.time, [&client, s = r.size_bytes] {
        client.send_packet(mac::payload_of(s));
      });
    } else {
      simulator.schedule_at(r.time, [&ap, &client_mac, s = r.size_bytes] {
        ap.send_to_client(client_mac, mac::payload_of(s));
      });
    }
  }
  simulator.run();

  std::cout << "Session done: " << delivered_up << " uplink / "
            << delivered_down
            << " downlink packets delivered above the MAC layer\n"
            << "(reshaping is transparent: the upper layers saw one "
               "identity, one flow).\n\n";

  // --- The adversary's ledger. ---
  util::TablePrinter table{{"Station on the air", "Frames", "Is real MAC?"}};
  for (const mac::MacAddress& station : sniffer.observed_stations()) {
    const auto flow = sniffer.flow_of(station, traffic::AppType::kBrowsing);
    table.add_row({station.to_string(), std::to_string(flow.size()),
                   station == client_mac ? "YES (leak!)" : "no"});
  }
  table.print(std::cout);
  std::cout << "\nThe sniffer captured " << sniffer.frames_captured()
            << " data frames and sees three unrelated-looking stations.\n";

  // --- What running the defense live cost this session: the *modeled*
  // latency (StreamingReshaper's private radio) next to the *observed*
  // channel-access delay the arbitrated air actually exhibited. The
  // observed on-air latency of a packet is the modeled release delay
  // plus its channel-access delay; any residual gap is contention cost
  // the per-flow model cannot see.
  util::TablePrinter cost{{"Side", "Packets", "Modeled mean (us)",
                           "Observed access mean (us)", "On-air mean (us)",
                           "Collisions", "Deadline misses"}};
  const auto add_cost_row =
      [&cost, &snapshot](const char* side,
                         const core::online::StreamingStats& model,
                         const sim::channel::ChannelStats* air,
                         const sim::channel::ChannelStats& baseline) {
        // Data frames only: subtract the pre-data (handshake) snapshot.
        const sim::channel::ChannelStats total = snapshot(air);
        const std::uint64_t frames = total.frames_sent - baseline.frames_sent;
        const double access =
            frames == 0
                ? 0.0
                : static_cast<double>((total.total_access_delay -
                                       baseline.total_access_delay)
                                          .count_us()) /
                      static_cast<double>(frames);
        cost.add_row(
            {side, std::to_string(model.packets),
             util::TablePrinter::fmt(model.mean_queueing_delay_us()),
             util::TablePrinter::fmt(access),
             util::TablePrinter::fmt(model.mean_queueing_delay_us() + access),
             std::to_string(total.collisions - baseline.collisions),
             std::to_string(model.deadline_misses)});
      };
  std::cout << "\nOnline reshaping cost — modeled (per-flow radio model) vs "
               "observed (arbitrated channel), data frames only:\n";
  add_cost_row("uplink (client)", client.modeled_reshaping_stats(),
               client.observed_channel_stats(), client_baseline);
  if (const auto* ap_stats = ap.modeled_reshaping_stats_of(client_mac)) {
    add_cost_row("downlink (AP)", *ap_stats, ap.observed_channel_stats(),
                 ap_baseline);
  }
  cost.print(std::cout);
  std::cout << "\nChannel: " << arbiter.frames_on_air()
            << " frames on air, utilization "
            << util::TablePrinter::fmt(arbiter.utilization())
            << ", busy " << arbiter.busy_time().to_seconds() << " s\n";

  // --- Per-station latency decomposition, sourced solely from the
  // telemetry registry: the trace's complete span chains are published as
  // trace_* counters per on-air station, and the table below reads the
  // frozen snapshot — nothing else. Queueing is the reshaper's release
  // delay, backoff the DCF access delay, airtime the transmission itself.
  obs::MetricsRegistry registry;
  obs::publish(registry, client.modeled_reshaping_stats(),
               obs::LabelSet{{"side", "uplink"}});
  if (const auto* ap_stats = ap.modeled_reshaping_stats_of(client_mac)) {
    obs::publish(registry, *ap_stats, obs::LabelSet{{"side", "downlink"}});
  }
  std::map<std::uint64_t, std::uint64_t> station_of;
  for (const obs::SpanEvent& event : trace.events()) {
    if (event.hop == obs::Hop::kSniffed) {
      station_of[event.frame_id] = static_cast<std::uint64_t>(event.aux);
    }
  }
  for (const obs::FrameSpans& frame : trace.complete_frames()) {
    const auto it = station_of.find(frame.frame_id);
    if (it == station_of.end()) {
      continue;
    }
    const obs::LabelSet labels{
        {"station", mac::MacAddress::from_u64(it->second).to_string()}};
    registry.counter("trace_frames_total", labels).add(1);
    registry.counter("trace_queueing_us_total", labels)
        .add(static_cast<std::uint64_t>(frame.queueing.count_us()));
    registry.counter("trace_backoff_us_total", labels)
        .add(static_cast<std::uint64_t>(frame.backoff.count_us()));
    registry.counter("trace_airtime_us_total", labels)
        .add(static_cast<std::uint64_t>(frame.airtime.count_us()));
  }
  const obs::MetricsSnapshot metrics = registry.snapshot();
  if (telemetry.tracing) {
    util::TablePrinter decomp{{"Station on the air", "Frames",
                               "Queueing mean (us)", "Backoff mean (us)",
                               "Airtime mean (us)"}};
    for (const obs::SeriesSnapshot& series : metrics.series) {
      if (series.name != "trace_frames_total") {
        continue;
      }
      const double frames = static_cast<double>(series.counter);
      const auto mean = [&](const char* name) {
        return util::TablePrinter::fmt(metrics.value(name, series.labels) /
                                       frames);
      };
      decomp.add_row({series.labels.entries().front().second,
                      std::to_string(series.counter),
                      mean("trace_queueing_us_total"),
                      mean("trace_backoff_us_total"),
                      mean("trace_airtime_us_total")});
    }
    std::cout << "\nPer-station latency decomposition (telemetry registry; "
                 "queueing = reshaper, backoff = DCF):\n";
    decomp.print(std::cout);
  }

  // --- The adaptive adversary: capture -> window -> refit -> score. ---
  // An attacker that re-trains on the defended capture every 10 s. Each
  // epoch is scored *before* its windows enter training, so epoch 0 is
  // the static §IV adversary and later epochs show how fast re-training
  // claws accuracy back against the live defense.
  attack::adaptive::AdaptiveConfig adaptive_config;
  adaptive_config.cadence = util::Duration::seconds(10.0);
  std::vector<traffic::Trace> clean_profile;
  for (const traffic::AppType app : traffic::kAllApps) {
    clean_profile.push_back(traffic::generate_trace(
        app, util::Duration::seconds(30.0),
        1000 + traffic::app_index(app)));
  }
  const attack::adaptive::AdaptiveAttacker adaptive{
      adaptive_config,
      attack::profile_rows(clean_profile, adaptive_config.attack)};
  const auto flows =
      attack::adaptive::observe(sniffer, traffic::AppType::kBrowsing);
  util::TablePrinter epochs{{"Epoch", "Windows", "Static (%)",
                             "Adaptive (%)", "Training rows"}};
  for (const attack::adaptive::EpochScore& epoch :
       adaptive.run_session(flows)) {
    epochs.add_row({std::to_string(epoch.epoch),
                    std::to_string(epoch.windows),
                    util::TablePrinter::fmt(epoch.static_accuracy_percent()),
                    util::TablePrinter::fmt(epoch.accuracy_percent()),
                    std::to_string(epoch.training_rows)});
  }
  std::cout << "\nAdaptive attacker-in-the-loop (oracle labels, 10 s "
               "re-training cadence) over the captured session:\n";
  epochs.print(std::cout);
  std::cout << "\nEpoch 0 is the frozen static profile; later epochs "
               "re-fit on the defended capture itself.\n";

  // --- The defender's own leakage ledger, sourced solely from the
  // windowed telemetry registry: the auditor publishes its per-window
  // reduction, and the table below reads the frozen snapshot — no side
  // channel back to the capture. The attacker proxy shares the adaptive
  // adversary's clean profile rows but never sees a label afterwards.
  if (telemetry.privacy) {
    const attack::audit::NearestCentroidProbe probe{adaptive.base(),
                                                    adaptive_config.attack};
    auditor.set_probe(&probe);

    obs::WindowedRegistry windows{audit_config.window};
    auditor.publish(windows);
    const obs::WindowedSnapshot leak = windows.snapshot();
    const auto value_at = [&leak](std::string_view name,
                                  std::int64_t window) -> const double* {
      const obs::SeriesWindows* series = leak.find(name);
      if (series == nullptr) {
        return nullptr;
      }
      for (const obs::WindowPoint& point : series->points) {
        if (point.window == window) {
          return &point.value.sum;  // one observation per window
        }
      }
      return nullptr;
    };
    const auto fmt_at = [&value_at](std::string_view name,
                                    std::int64_t window, int digits) {
      const double* v = value_at(name, window);
      return v != nullptr ? util::TablePrinter::fmt(*v, digits)
                          : std::string{"-"};
    };

    util::TablePrinter leakage{{"Window", "Time (s)", "Streams", "Balance",
                                "Anonymity", "Max JSD (bits)", "RSSI linked",
                                "Proxy (%)"}};
    const double window_s = audit_config.window.to_seconds();
    if (const obs::SeriesWindows* active =
            leak.find(obs::kPrivacyActiveStreams)) {
      for (const obs::WindowPoint& point : active->points) {
        const double start = static_cast<double>(point.window) * window_s;
        leakage.add_row(
            {std::to_string(point.window),
             util::TablePrinter::fmt(start, 0) + "-" +
                 util::TablePrinter::fmt(start + window_s, 0),
             util::TablePrinter::fmt(point.value.sum, 0),
             fmt_at(obs::kPrivacyPartitionBalance, point.window, 2),
             fmt_at(obs::kPrivacyAnonymitySet, point.window, 2),
             fmt_at(obs::kPrivacyMaxPairwiseJsd, point.window, 3),
             fmt_at(obs::kPrivacyRssiLinkedFraction, point.window, 2),
             fmt_at(obs::kPrivacyProxyAccuracy, point.window, 1)});
      }
    }
    std::cout << "\nLabel-free leakage audit (live sniffer feed, windowed "
                 "registry only; '-' = series absent in that window):\n";
    leakage.print(std::cout);
    std::cout << "\nThree balanced sibling vMACs with low divergence mean "
                 "the partition holds;\nthe proxy column is the label-free "
                 "stand-in for the adaptive curve above.\n";
    sniffer.set_leakage_auditor(nullptr);
  }

  if (const char* path = std::getenv("OBS_TELEMETRY")) {
    obs::TelemetryExport doc;
    doc.metrics = &metrics;
    if (telemetry.tracing) {
      doc.trace = &trace;
    }
    if (!obs::write_file(path, doc.to_json())) {
      std::cerr << "failed to write telemetry to " << path << "\n";
      return 1;
    }
    std::cout << "\nTelemetry written to " << path << "\n";
  }

  medium.detach(sniffer);
  return 0;
}
