#include "runtime/scenario.h"

#include <algorithm>
#include <array>
#include <deque>
#include <iterator>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/online/streaming_reshaper.h"
#include "core/scheduler.h"
#include "sim/channel/channel_arbiter.h"
#include "sim/medium.h"
#include "sim/simulator.h"
#include "traffic/generator.h"
#include "util/check.h"

namespace reshape::runtime {

namespace {

/// Inert transmitter identity for driving a ChannelArbiter directly —
/// contention scenarios need station identities, not full protocol stacks.
struct StationIdentity final : sim::RadioListener {
  void on_frame(const mac::Frame&, double) override {}
};

sim::PathLossModel quiet_path_loss() {
  sim::PathLossModel model;
  model.shadowing_sigma_db = 0.0;
  return model;
}

/// Shared scaffolding of the arbitrated-channel scenarios: owns the
/// simulator/medium/arbiter stack, registers transmitter identities,
/// schedules per-record enqueues at their original times (one typed
/// event per record), mirrors the arbiter's per-station FIFO against the
/// on-air and drop hooks, and collects the observed (restamped) records
/// per output stream.
class ArbitratedAir final : public sim::EventHandler {
 public:
  ArbitratedAir(double bitrate_mbps, util::Rng medium_rng,
                util::Rng arbiter_rng, std::size_t output_streams)
      : medium_{quiet_path_loss(), medium_rng},
        arbiter_{simulator_, medium_, kChannel,
                 contended_params(bitrate_mbps), arbiter_rng},
        collected_(output_streams) {
    // Per-station FIFO order is preserved by the arbiter, so the k-th
    // on-air (or dropped) frame of a transmitter is its k-th scheduled
    // record.
    arbiter_.set_on_air_hook([this](const mac::Frame& frame, util::Duration,
                                    const sim::RadioListener* tx) {
      Transmitter& t = transmitter_of(tx);
      const auto& [stream, original] = scheduled_[t.fifo.front()];
      t.fifo.pop_front();
      collected_[stream].push_back(
          {frame.timestamp, frame.size_bytes, original.direction});
    });
    arbiter_.set_drop_hook(
        [this](const mac::Frame&, const sim::RadioListener* tx) {
          transmitter_of(tx).fifo.pop_front();  // never reached the air
        });
  }

  /// Registers a transmitter at `position`; returns its handle.
  std::size_t add_transmitter(sim::Position position) {
    transmitters_.push_back(Transmitter{{}, position, {}});
    index_.emplace(&transmitters_.back().identity, transmitters_.size() - 1);
    return transmitters_.size() - 1;
  }

  /// Schedules `record` (copied — trace views hand out per-iteration
  /// temporaries) for transmission by `transmitter` at its original
  /// timestamp, observed into `stream`.
  void schedule(std::size_t transmitter, std::size_t stream,
                const traffic::PacketRecord& record) {
    simulator_.schedule_event(record.time, *this, transmitter,
                              scheduled_.size());
    scheduled_.emplace_back(stream, record);
  }

  /// Fires a scheduled record: enqueues its frame on the arbiter.
  void on_event(std::uint64_t transmitter, std::uint64_t index) override {
    Transmitter& t = transmitters_[transmitter];
    t.fifo.push_back(index);
    mac::Frame frame;
    frame.size_bytes = scheduled_[index].second.size_bytes;
    frame.channel = kChannel;
    arbiter_.enqueue(std::move(frame), t.position, &t.identity);
  }

  /// Drains the simulator and returns each stream's observed records,
  /// time-sorted (streams fed by several transmitters interleave).
  std::vector<std::vector<traffic::PacketRecord>> run() {
    simulator_.run();
    for (std::vector<traffic::PacketRecord>& stream : collected_) {
      std::stable_sort(stream.begin(), stream.end(),
                       [](const traffic::PacketRecord& a,
                          const traffic::PacketRecord& b) {
                         return a.time < b.time;
                       });
    }
    return std::move(collected_);
  }

 private:
  struct Transmitter {
    StationIdentity identity;
    sim::Position position;
    std::deque<std::size_t> fifo;  // indices into scheduled_
  };

  [[nodiscard]] Transmitter& transmitter_of(const sim::RadioListener* id) {
    // Hook-path lookup: O(1) via the identity index — a linear scan here
    // is O(frames x stations) and dominates 10k-station cells.
    const auto it = index_.find(id);
    if (it == index_.end()) {
      throw std::logic_error{"ArbitratedAir: unknown transmitter identity"};
    }
    return transmitters_[it->second];
  }

  [[nodiscard]] static sim::channel::DcfParams contended_params(
      double bitrate_mbps) {
    sim::channel::DcfParams params;
    params.bitrate_mbps = bitrate_mbps;
    return params;
  }

  static constexpr int kChannel = 1;
  sim::Simulator simulator_;
  sim::Medium medium_;
  sim::channel::ChannelArbiter arbiter_;
  std::deque<Transmitter> transmitters_;  // deque: stable identity addresses
  std::unordered_map<const sim::RadioListener*, std::size_t> index_;
  // Every scheduled record with its output stream, in scheduling order.
  std::vector<std::pair<std::size_t, traffic::PacketRecord>> scheduled_;
  std::vector<std::vector<traffic::PacketRecord>> collected_;
};

/// Packages observed per-stream records as traces labeled like
/// `originals` (index-aligned).
std::vector<traffic::Trace> label_streams(
    std::vector<std::vector<traffic::PacketRecord>> collected,
    const std::vector<traffic::Trace>& originals) {
  std::vector<traffic::Trace> observed;
  observed.reserve(collected.size());
  for (std::size_t i = 0; i < collected.size(); ++i) {
    traffic::Trace flow{originals[i].app()};
    flow.reserve(collected[i].size());
    for (const traffic::PacketRecord& r : collected[i]) {
      flow.push_back(r);
    }
    observed.push_back(std::move(flow));
  }
  return observed;
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
        std::vector<traffic::Trace> sessions;
        sessions.reserve(stations);
        for (std::size_t s = 0; s < stations; ++s) {
          util::Rng station_rng = rng.fork(s);
          const auto pick = static_cast<std::size_t>(
              station_rng.uniform_int(
                  0, static_cast<std::int64_t>(traffic::kAppCount) - 1));
          const traffic::Trace original = traffic::generate_trace(
              traffic::app_from_index(pick), duration, station_rng);

          core::online::StreamingConfig config;
          config.bitrate_mbps = bitrate_mbps;
          config.record_streams = false;
          core::online::StreamingReshaper pipeline{
              std::make_unique<core::OrthogonalScheduler>(
                  core::OrthogonalScheduler::identity(
                      core::SizeRanges::paper_default())),
              nullptr, config};

          traffic::Trace live{original.app()};
          live.reserve(original.size());
          for (const traffic::PacketRecord& record : original.records()) {
            core::online::ShapedPacket shaped = pipeline.push(record);
            shaped.record.time = shaped.tx_start;  // queueing delay applied
            live.push_back(shaped.record);
          }
          sessions.push_back(std::move(live));
        }
        return sessions;
      }};
}

namespace {

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

/// Pushes every session through one arbitrated cell (one transmitter per
/// station) and returns the on-air-restamped flows.
std::vector<traffic::Trace> arbitrate_one_cell(
    const std::vector<traffic::Trace>& originals, double bitrate_mbps,
    util::Rng& rng) {
  ArbitratedAir air{bitrate_mbps, rng.fork(0xA12B17E5ULL),
                    rng.fork(0xDCFDCFULL), originals.size()};
  for (std::size_t s = 0; s < originals.size(); ++s) {
    const std::size_t tx =
        air.add_transmitter(sim::Position{static_cast<double>(s), 0.0});
    for (const traffic::PacketRecord& r : originals[s].records()) {
      air.schedule(tx, s, r);
    }
  }
  return label_streams(air.run(), originals);
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

        util::Rng cell_a_medium = rng.fork(0xCE11AAULL);
        util::Rng cell_a_arbiter = rng.fork(0xCE11A1ULL);
        util::Rng cell_b_medium = rng.fork(0xCE11BBULL);
        util::Rng cell_b_arbiter = rng.fork(0xCE11B1ULL);
        ArbitratedAir cell_a{bitrate_mbps, cell_a_medium, cell_a_arbiter,
                             stations};
        ArbitratedAir cell_b{bitrate_mbps, cell_b_medium, cell_b_arbiter,
                             stations};
        for (std::size_t s = 0; s < stations; ++s) {
          const sim::Position pos{static_cast<double>(s), 0.0};
          const std::size_t tx_a = cell_a.add_transmitter(pos);
          const std::size_t tx_b = cell_b.add_transmitter(pos);
          const bool home_is_a = s % 2 == 0;
          for (const traffic::PacketRecord& r : originals[s].records()) {
            const bool in_home = r.time < roam_at[s];
            const bool in_a = in_home == home_is_a;
            if (in_a) {
              cell_a.schedule(tx_a, s, r);
            } else {
              cell_b.schedule(tx_b, s, r);
            }
          }
        }

        // Each station's observable flow is the time-merge of what it put
        // on the air in either cell (the roam is seamless to the flow key:
        // same virtual MACs, new cell).
        std::vector<std::vector<traffic::PacketRecord>> in_a = cell_a.run();
        std::vector<std::vector<traffic::PacketRecord>> in_b = cell_b.run();
        std::vector<std::vector<traffic::PacketRecord>> merged(stations);
        for (std::size_t s = 0; s < stations; ++s) {
          merged[s].reserve(in_a[s].size() + in_b[s].size());
          std::merge(in_a[s].begin(), in_a[s].end(), in_b[s].begin(),
                     in_b[s].end(), std::back_inserter(merged[s]),
                     [](const traffic::PacketRecord& x,
                        const traffic::PacketRecord& y) {
                       return x.time < y.time;
                     });
        }
        return label_streams(std::move(merged), originals);
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
        ArbitratedAir air{bitrate_mbps, rng.fork(0x5A7DBEEFULL),
                          rng.fork(0xA9D1ULL), clients};
        const std::size_t ap = air.add_transmitter(sim::Position{0.0, 0.0});
        for (std::size_t c = 0; c < clients; ++c) {
          const std::size_t uplink = air.add_transmitter(
              sim::Position{static_cast<double>(c + 1), 0.0});
          for (const traffic::PacketRecord& r : originals[c].records()) {
            air.schedule(
                r.direction == mac::Direction::kDownlink ? ap : uplink, c, r);
          }
        }
        return label_streams(air.run(), originals);
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
