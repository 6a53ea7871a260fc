#include "runtime/scenario.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

#include "core/online/streaming_reshaper.h"
#include "core/scheduler.h"
#include "sim/channel/arbitrated_cell.h"
#include "traffic/generator.h"
#include "util/check.h"

namespace reshape::runtime {

namespace {

/// The contended-cell scenarios' hook on sim::channel::ArbitratedCell:
/// every scheduled record is observed, restamped to its on-air instant,
/// into the flow of its output stream; dropped records are never observed.
class ArbitratedAir {
 public:
  /// One output flow per trace of `originals`, labeled like it. Each is
  /// reserved for its original's records up front: allocated in stream
  /// order rather than grown frame by frame, the flows of a 10k-station
  /// cell stay contiguous for the passes that read them. The release
  /// list is reserved for every original record too.
  ArbitratedAir(double bitrate_mbps, util::Rng arbiter_rng,
                const std::vector<traffic::Trace>& originals)
      : cell_{sim::channel::DcfParams{.bitrate_mbps = bitrate_mbps},
              arbiter_rng} {
    std::size_t records = 0;
    for (const traffic::Trace& original : originals) {
      flows_.emplace_back(original.app()).reserve(original.size());
      records += original.size();
    }
    cell_.reserve(records);
    observed_.reserve(records);
  }

  /// Schedules `record` for transmission by station `transmitter` at its
  /// original timestamp, observed into `stream`.
  void schedule(std::size_t transmitter, std::size_t stream,
                const traffic::PacketRecord& record) {
    cell_.release(transmitter, record.time, record.size_bytes);
    observed_.emplace_back(stream, record.direction);
  }

  /// Runs the cell and returns the observed flows. Frames go on the air in
  /// simulated-time order, so every flow is time-sorted, however many
  /// transmitters feed it.
  std::vector<traffic::Trace> run() {
    cell_.run([this](std::size_t release, util::TimePoint on_air,
                     std::uint32_t size_bytes, util::Duration) {
      const auto [stream, direction] = observed_[release];
      flows_[stream].push_back(on_air, size_bytes, direction);
    });
    return std::move(flows_);
  }

 private:
  sim::channel::ArbitratedCell cell_;
  // Output stream and direction of every release, in release order.
  std::vector<std::pair<std::size_t, mac::Direction>> observed_;
  std::vector<traffic::Trace> flows_;
};

/// Per-station source traces from keyed substreams, each with a uniformly
/// random application (dense_wlan style: independent of station count and
/// call interleaving).
std::vector<traffic::Trace> random_app_sessions(std::size_t stations,
                                                util::Duration duration,
                                                util::Rng& rng) {
  std::vector<traffic::Trace> originals;
  originals.reserve(stations);
  for (std::size_t s = 0; s < stations; ++s) {
    util::Rng station_rng = rng.fork(s);
    const auto pick = static_cast<std::size_t>(station_rng.uniform_int(
        0, static_cast<std::int64_t>(traffic::kAppCount) - 1));
    originals.push_back(traffic::generate_trace(traffic::app_from_index(pick),
                                                duration, station_rng));
  }
  return originals;
}

}  // namespace

Scenario::Scenario(std::string name, std::string description,
                   Generator generate)
    : name_{std::move(name)},
      description_{std::move(description)},
      generate_{std::move(generate)} {
  util::require(!name_.empty(), "Scenario: name must be non-empty");
  util::require(generate_ != nullptr, "Scenario: generator must be non-null");
}

std::vector<traffic::Trace> Scenario::generate(util::Rng& rng) const {
  return generate_(rng);
}

std::vector<traffic::Trace> generate_stations(
    std::span<const StationSpec> stations, util::Rng& rng) {
  std::vector<traffic::Trace> sessions;
  sessions.reserve(stations.size());
  for (std::size_t i = 0; i < stations.size(); ++i) {
    const StationSpec& station = stations[i];
    // Keyed substream per station: station i's session is identical no
    // matter how many stations precede it or which thread generates it.
    util::Rng station_rng = rng.fork(i);
    sessions.push_back(traffic::generate_trace(
        station.app, station.duration, station_rng, station.jitter));
  }
  return sessions;
}

Scenario paper_single_app(std::size_t sessions_per_app,
                          util::Duration session_duration,
                          traffic::SessionJitter jitter) {
  util::require(sessions_per_app > 0,
                "paper_single_app: need at least one session per app");
  return Scenario{
      "paper-single-app",
      "the paper's §IV workload: every application alone on one station",
      [=](util::Rng& rng) {
        std::vector<StationSpec> stations;
        stations.reserve(traffic::kAppCount * sessions_per_app);
        for (const traffic::AppType app : traffic::kAllApps) {
          for (std::size_t s = 0; s < sessions_per_app; ++s) {
            stations.push_back({app, session_duration, jitter});
          }
        }
        return generate_stations(stations, rng);
      }};
}

Scenario multi_app_station(std::size_t households, util::Duration duration) {
  util::require(households > 0, "multi_app_station: need >= 1 household");
  return Scenario{
      "multi-app-station",
      "households running browsing + video + chatting concurrently",
      [=](util::Rng& rng) {
        std::vector<StationSpec> stations;
        stations.reserve(households * 3);
        for (std::size_t h = 0; h < households; ++h) {
          stations.push_back({traffic::AppType::kBrowsing, duration, {}});
          stations.push_back({traffic::AppType::kVideo, duration, {}});
          stations.push_back({traffic::AppType::kChatting, duration, {}});
        }
        return generate_stations(stations, rng);
      }};
}

Scenario iot_telemetry(std::size_t devices, util::Duration duration) {
  util::require(devices > 0, "iot_telemetry: need >= 1 device");
  return Scenario{
      "iot-telemetry",
      "bursty low-rate telemetry devices (small packets, wild rate spread)",
      [=](util::Rng& rng) {
        std::vector<StationSpec> stations;
        stations.reserve(devices);
        // Telemetry reports look like chatting/gaming on the air: small
        // frames on a sparse cadence. Device duty cycles differ by orders
        // of magnitude, hence the large rate sigma.
        const traffic::SessionJitter bursty{2.0, 0.25};
        for (std::size_t d = 0; d < devices; ++d) {
          const traffic::AppType app = (d % 2 == 0)
                                           ? traffic::AppType::kChatting
                                           : traffic::AppType::kGaming;
          stations.push_back({app, duration, bursty});
        }
        return generate_stations(stations, rng);
      }};
}

Scenario voip_browsing_mix(std::size_t calls, std::size_t browsers,
                           util::Duration duration) {
  util::require(calls > 0 && browsers > 0,
                "voip_browsing_mix: need >= 1 call and >= 1 browser");
  return Scenario{
      "voip-browsing-mix",
      "long-lived steady-cadence calls sharing the air with browsing",
      [=](util::Rng& rng) {
        std::vector<StationSpec> stations;
        stations.reserve(calls + browsers);
        // A call holds its cadence for the whole session (low rate
        // jitter); browsing keeps the calibrated heavy-tailed burstiness.
        const traffic::SessionJitter steady{0.15, 0.05};
        for (std::size_t c = 0; c < calls; ++c) {
          stations.push_back({traffic::AppType::kChatting, duration, steady});
        }
        for (std::size_t b = 0; b < browsers; ++b) {
          stations.push_back({traffic::AppType::kBrowsing, duration, {}});
        }
        return generate_stations(stations, rng);
      }};
}

Scenario dense_wlan(std::size_t stations, util::Duration duration) {
  util::require(stations > 0, "dense_wlan: need >= 1 station");
  return Scenario{
      "dense-wlan",
      "a crowded cell: each station draws its application at random",
      [=](util::Rng& rng) {
        std::vector<StationSpec> specs;
        specs.reserve(stations);
        for (std::size_t s = 0; s < stations; ++s) {
          // App choice comes from a keyed substream so the station list is
          // independent of how the caller interleaves generate() calls.
          const auto pick = static_cast<std::size_t>(
              rng.fork(0xA9900ULL + s).uniform_int(
                  0, static_cast<std::int64_t>(traffic::kAppCount) - 1));
          specs.push_back({traffic::app_from_index(pick), duration, {}});
        }
        return generate_stations(specs, rng);
      }};
}

Scenario bulk_transfer_heavy(std::size_t stations, util::Duration duration) {
  util::require(stations > 0, "bulk_transfer_heavy: need >= 1 station");
  return Scenario{
      "bulk-transfer-heavy",
      "downloading/uploading/BitTorrent/video stations, wide rate spread",
      [=](util::Rng& rng) {
        constexpr std::array<traffic::AppType, 4> kBulk{
            traffic::AppType::kDownloading, traffic::AppType::kUploading,
            traffic::AppType::kBitTorrent, traffic::AppType::kVideo};
        const traffic::SessionJitter wide{1.4, 0.18};
        std::vector<StationSpec> specs;
        specs.reserve(stations);
        for (std::size_t s = 0; s < stations; ++s) {
          specs.push_back({kBulk[s % kBulk.size()], duration, wide});
        }
        return generate_stations(specs, rng);
      }};
}

Scenario live_reshaping(std::size_t stations, util::Duration duration,
                        double bitrate_mbps) {
  util::require(stations > 0, "live_reshaping: need >= 1 station");
  util::require(bitrate_mbps > 0.0, "live_reshaping: bitrate must be > 0");
  return Scenario{
      "live-reshaping",
      "stations re-timestamped by the online reshaping pipeline (OR behind "
      "one shared radio) — the air as captured when the defense runs live",
      [=](util::Rng& rng) {
        std::vector<traffic::Trace> sessions =
            random_app_sessions(stations, duration, rng);
        for (traffic::Trace& original : sessions) {
          core::online::StreamingConfig config;
          config.bitrate_mbps = bitrate_mbps;
          config.record_streams = false;
          core::online::StreamingReshaper pipeline{
              core::ReshapingDefense{
                  std::make_unique<core::OrthogonalScheduler>(
                      core::OrthogonalScheduler::identity(
                          core::SizeRanges::paper_default()))},
              config};

          traffic::Trace live{original.app()};
          live.reserve(original.size());
          for (const traffic::PacketRecord& record : original.records()) {
            core::online::ShapedPacket shaped = pipeline.push(record);
            shaped.record.time = shaped.tx_start;  // queueing delay applied
            live.push_back(shaped.record);
          }
          original = std::move(live);
        }
        return sessions;
      }};
}

namespace {

/// Pushes every session through one arbitrated cell (one transmitter per
/// station) and returns the on-air-restamped flows.
std::vector<traffic::Trace> arbitrate_one_cell(
    const std::vector<traffic::Trace>& originals, double bitrate_mbps,
    util::Rng& rng) {
  ArbitratedAir air{bitrate_mbps, rng.fork(0xDCFDCFULL), originals};
  for (std::size_t s = 0; s < originals.size(); ++s) {
    for (const traffic::PacketRecord& r : originals[s].records()) {
      air.schedule(s, s, r);
    }
  }
  return air.run();
}

/// The one contended-cell generator behind contended_cell,
/// adaptive_contended_cell, and tuned_vs_table5 — identical arbitration
/// and stream keying, so the three arenas differ only in name and
/// default sizing.
Scenario contended_cell_arena(std::string name, std::string description,
                              std::size_t stations, util::Duration duration,
                              double bitrate_mbps) {
  util::require(stations > 0, name + ": need >= 1 station");
  util::require(bitrate_mbps > 0.0, name + ": bitrate must be > 0");
  return Scenario{
      std::move(name), std::move(description),
      [stations, duration, bitrate_mbps](util::Rng& rng) {
        const std::vector<traffic::Trace> originals =
            random_app_sessions(stations, duration, rng);
        return arbitrate_one_cell(originals, bitrate_mbps, rng);
      }};
}

}  // namespace

Scenario dense_wlan_10k(std::size_t stations, util::Duration horizon) {
  util::require(stations > 0, "dense_wlan_10k: need >= 1 station");
  util::require(horizon > util::Duration{},
                "dense_wlan_10k: horizon must be positive");
  return Scenario{
      "dense-wlan-10k",
      "the scale exercise: thousands of stations each awake for one short "
      "sparse burst at a staggered offset, all arbitrated through one cell",
      [=](util::Rng& rng) {
        // Each station wakes once for a short chatting/gaming burst at a
        // staggered offset inside the horizon. Sparse apps only: the
        // scenario scales the *station count* (contender heap, flow
        // isolation, per-station streams), not raw packet volume, so a
        // 10k-station cell stays a handful of frames per station.
        std::vector<traffic::Trace> originals;
        originals.reserve(stations);
        for (std::size_t s = 0; s < stations; ++s) {
          util::Rng station_rng = rng.fork(s);
          const traffic::AppType app = station_rng.uniform_int(0, 1) == 0
                                           ? traffic::AppType::kChatting
                                           : traffic::AppType::kGaming;
          const double burst_s = station_rng.uniform_real(1.2, 2.6);
          const double latest = std::max(0.0, horizon.to_seconds() - burst_s);
          const util::Duration offset =
              util::Duration::seconds(station_rng.uniform_real(0.0, latest));
          const traffic::Trace burst = traffic::generate_trace(
              app, util::Duration::seconds(burst_s), station_rng);
          traffic::Trace shifted{burst.app()};
          shifted.reserve(burst.size());
          for (const traffic::PacketRecord& r : burst.records()) {
            shifted.push_back(r.time + offset, r.size_bytes, r.direction);
          }
          originals.push_back(std::move(shifted));
        }
        // Default DcfParams bitrate: the cell arbitrates at 54 Mbit/s.
        return arbitrate_one_cell(originals, 54.0, rng);
      }};
}

Scenario contended_cell(std::size_t stations, util::Duration duration,
                        double bitrate_mbps) {
  return contended_cell_arena(
      "contended-cell",
      "co-channel stations under DCF arbitration: on-air timestamps after "
      "carrier sense, backoff, and collision retries",
      stations, duration, bitrate_mbps);
}

Scenario adaptive_contended_cell(std::size_t stations, util::Duration duration,
                                 double bitrate_mbps) {
  return contended_cell_arena(
      "adaptive-contended-cell",
      "a contended cell held long enough for an adversary that re-trains "
      "mid-session: DCF-arbitrated on-air flows, multi-epoch sessions",
      stations, duration, bitrate_mbps);
}

Scenario tuned_vs_table5(std::size_t stations, util::Duration duration,
                         double bitrate_mbps) {
  return contended_cell_arena(
      "tuned-vs-table5",
      "the parameter-tuning arena: a contended multi-epoch cell where the "
      "tuner's point is compared against the paper's Table V preset",
      stations, duration, bitrate_mbps);
}

Scenario adaptive_roaming_retrain(std::size_t stations,
                                  util::Duration duration,
                                  double bitrate_mbps) {
  util::require(stations > 0, "adaptive_roaming_retrain: need >= 1 station");
  util::require(bitrate_mbps > 0.0,
                "adaptive_roaming_retrain: bitrate must be > 0");
  return Scenario{
      "adaptive-roaming-retrain",
      "stations roam between two arbitrated cells mid-session; each flow's "
      "contention regime shifts when the cell populations swap",
      [=](util::Rng& rng) {
        const std::vector<traffic::Trace> originals =
            random_app_sessions(stations, duration, rng);

        // Each station roams from its home cell (even index -> A, odd ->
        // B) at an instant drawn from the middle third of the session —
        // a keyed substream per station, so the roam plan is independent
        // of station count.
        std::vector<util::TimePoint> roam_at(stations);
        for (std::size_t s = 0; s < stations; ++s) {
          util::Rng roam_rng = rng.fork(0x70A30000ULL + s);
          roam_at[s] = util::TimePoint{} +
                       util::Duration::seconds(roam_rng.uniform_real(
                           duration.to_seconds() / 3.0,
                           2.0 * duration.to_seconds() / 3.0));
        }

        ArbitratedAir cell_a{bitrate_mbps, rng.fork(0xCE11A1ULL), originals};
        ArbitratedAir cell_b{bitrate_mbps, rng.fork(0xCE11B1ULL), originals};
        for (std::size_t s = 0; s < stations; ++s) {
          const bool home_is_a = s % 2 == 0;
          for (const traffic::PacketRecord& r : originals[s].records()) {
            const bool in_home = r.time < roam_at[s];
            const bool in_a = in_home == home_is_a;
            (in_a ? cell_a : cell_b).schedule(s, s, r);
          }
        }

        // Each station's observable flow is the time-merge of what it put
        // on the air in either cell (the roam is seamless to the flow key:
        // same virtual MACs, new cell).
        // On equal times cell A's record goes first.
        std::vector<traffic::Trace> in_a = cell_a.run();
        const std::vector<traffic::Trace> in_b = cell_b.run();
        for (std::size_t s = 0; s < stations; ++s) {
          const traffic::Trace& a = in_a[s];
          const traffic::Trace& b = in_b[s];
          traffic::Trace flow{a.app()};
          flow.reserve(a.size() + b.size());
          for (std::size_t i = 0, j = 0; i < a.size() || j < b.size();) {
            const bool take_a =
                j == b.size() || (i < a.size() && !(b[j].time < a[i].time));
            flow.push_back(take_a ? a[i++] : b[j++]);
          }
          in_a[s] = std::move(flow);
        }
        return in_a;
      }};
}

Scenario monitored_drift(std::size_t stations, util::Duration duration,
                         bool shift) {
  util::require(stations > 0, "monitored_drift: need >= 1 station");
  const char* name = shift ? "monitored-drift" : "monitored-drift-control";
  const char* description =
      shift ? "traffic mix shifts mid-campaign: sparse interactive sessions "
              "whose body switches to a bulk app's model at half time while "
              "keeping the original label — the drift-detector arena"
            : "the stationary control of monitored-drift: the same sparse "
              "interactive sessions end to end, no shift, no alert";
  return Scenario{
      name, description, [stations, duration, shift](util::Rng& rng) {
        const util::TimePoint shift_at =
            util::TimePoint{} +
            util::Duration::microseconds(duration.count_us() / 2);
        std::vector<traffic::Trace> sessions;
        sessions.reserve(stations);
        for (std::size_t s = 0; s < stations; ++s) {
          // Sparse, human-paced nominal app per station; the shifted half
          // draws from a bulk app so the *shape* changes while the
          // session keeps its nominal label.
          util::Rng station_rng = rng.fork(s);
          const traffic::AppType nominal = station_rng.uniform_int(0, 1) == 0
                                               ? traffic::AppType::kChatting
                                               : traffic::AppType::kGaming;
          const traffic::AppType bulk = station_rng.uniform_int(0, 1) == 0
                                            ? traffic::AppType::kDownloading
                                            : traffic::AppType::kVideo;
          const traffic::Trace first =
              traffic::generate_trace(nominal, duration, station_rng);
          if (!shift) {
            sessions.push_back(first);
            continue;
          }
          // The bulk half comes from its own keyed substream over the
          // full duration; splicing at shift_at keeps record times
          // non-decreasing (both traces are time-ordered from t=0).
          util::Rng bulk_rng = rng.fork(0xD21F7000ULL + s);
          const traffic::Trace second =
              traffic::generate_trace(bulk, duration, bulk_rng);
          traffic::Trace spliced{nominal};
          for (const traffic::PacketRecord& r : first.records()) {
            if (r.time < shift_at) {
              spliced.push_back(r);
            }
          }
          for (const traffic::PacketRecord& r : second.records()) {
            if (r.time >= shift_at) {
              spliced.push_back(r);
            }
          }
          sessions.push_back(std::move(spliced));
        }
        return sessions;
      }};
}

Scenario saturated_ap_downlink(std::size_t clients, util::Duration duration,
                               double bitrate_mbps) {
  util::require(clients > 0, "saturated_ap_downlink: need >= 1 client");
  util::require(bitrate_mbps > 0.0,
                "saturated_ap_downlink: bitrate must be > 0");
  return Scenario{
      "saturated-ap-downlink",
      "one AP serializes every bulk downlink flow on the arbitrated "
      "channel while clients contend for their uplink",
      [=](util::Rng& rng) {
        constexpr std::array<traffic::AppType, 4> kBulk{
            traffic::AppType::kDownloading, traffic::AppType::kVideo,
            traffic::AppType::kBitTorrent, traffic::AppType::kBrowsing};
        std::vector<traffic::Trace> originals;
        originals.reserve(clients);
        for (std::size_t c = 0; c < clients; ++c) {
          util::Rng client_rng = rng.fork(c);
          originals.push_back(traffic::generate_trace(
              kBulk[c % kBulk.size()], duration, client_rng));
        }

        // One AP transmitter serializes every downlink record; each
        // client contends for its own uplink. Both halves of a client's
        // flow observe into the same stream.
        ArbitratedAir air{bitrate_mbps, rng.fork(0xA9D1ULL), originals};
        // Station 0 is the AP, station c + 1 client c's uplink.
        for (std::size_t c = 0; c < clients; ++c) {
          for (const traffic::PacketRecord& r : originals[c].records()) {
            air.schedule(r.direction == mac::Direction::kDownlink ? 0 : c + 1,
                         c, r);
          }
        }
        return air.run();
      }};
}

ScenarioRegistry& ScenarioRegistry::global() {
  static ScenarioRegistry registry = [] {
    ScenarioRegistry r;
    const util::Duration minute = util::Duration::seconds(60.0);
    r.add(paper_single_app(6, util::Duration::seconds(90.0)));
    r.add(multi_app_station(4, minute));
    r.add(iot_telemetry(12, minute));
    r.add(voip_browsing_mix(3, 3, util::Duration::seconds(120.0)));
    r.add(dense_wlan(10, minute));
    r.add(dense_wlan_10k());
    r.add(bulk_transfer_heavy(8, minute));
    r.add(live_reshaping(6, minute));
    r.add(contended_cell(8, minute));
    r.add(saturated_ap_downlink(5, minute));
    r.add(adaptive_contended_cell(5, util::Duration::seconds(90.0)));
    r.add(adaptive_roaming_retrain(4, util::Duration::seconds(90.0)));
    r.add(tuned_vs_table5(4, util::Duration::seconds(60.0)));
    r.add(monitored_drift(4, minute, true));
    r.add(monitored_drift(4, minute, false));
    return r;
  }();
  return registry;
}

void ScenarioRegistry::add(Scenario scenario) {
  for (Scenario& existing : scenarios_) {
    if (existing.name() == scenario.name()) {
      existing = std::move(scenario);
      return;
    }
  }
  scenarios_.push_back(std::move(scenario));
}

const Scenario* ScenarioRegistry::find(std::string_view name) const {
  for (const Scenario& scenario : scenarios_) {
    if (scenario.name() == name) {
      return &scenario;
    }
  }
  return nullptr;
}

const Scenario& ScenarioRegistry::at(std::string_view name) const {
  const Scenario* scenario = find(name);
  if (scenario == nullptr) {
    throw std::out_of_range{"ScenarioRegistry: unknown scenario '" +
                            std::string{name} + "'"};
  }
  return *scenario;
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(scenarios_.size());
  for (const Scenario& scenario : scenarios_) {
    out.push_back(scenario.name());
  }
  return out;
}

}  // namespace reshape::runtime
