// Unit tests for src/sim/channel: the DCF arbiter's golden parity with
// the StreamingReshaper radio model (uncontended), deterministic
// collision resolution, non-overlapping serialization under contention,
// and the observed-vs-modeled stats accessors on client and AP.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "attack/sniffer.h"
#include "core/online/streaming_reshaper.h"
#include "core/scheduler.h"
#include "core/tuning/tuned_configuration.h"
#include "net/access_point.h"
#include "net/client.h"
#include "sim/channel/arbitrated_cell.h"
#include "sim/channel/channel_arbiter.h"
#include "sim/medium.h"
#include "sim/simulator.h"
#include "traffic/generator.h"
#include "util/rng.h"

namespace reshape::sim::channel {
namespace {

using util::Duration;
using util::TimePoint;

std::unique_ptr<core::Scheduler> make_or() {
  return std::make_unique<core::OrthogonalScheduler>(
      core::OrthogonalScheduler::identity(core::SizeRanges::paper_default()));
}

PathLossModel quiet_model() {
  PathLossModel m;
  m.shadowing_sigma_db = 0.0;
  return m;
}

struct Identity final : RadioListener {
  void on_frame(const mac::Frame&, double) override {}
};

mac::Frame data_frame(std::uint32_t size_bytes, int channel = 1) {
  mac::Frame f;
  f.type = mac::FrameType::kData;
  f.subtype = mac::FrameSubtype::kQosData;
  f.size_bytes = size_bytes;
  f.channel = channel;
  return f;
}

/// An arbitrated AP + reshaping-client cell; the streaming pipeline and
/// the arbiter run at the same (configurable) bitrate so the modeled and
/// arbitrated radio timelines are directly comparable.
struct NetStackCell {
  sim::Simulator simulator;
  sim::Medium medium{quiet_model(), util::Rng{1}};
  ChannelArbiter arbiter;
  mac::MacAddress bssid = mac::MacAddress::parse("02:00:00:00:00:01");
  mac::MacAddress client_mac = mac::MacAddress::parse("02:00:00:00:00:02");
  mac::SymmetricKey key{42, 43};
  std::unique_ptr<net::AccessPoint> ap;
  std::unique_ptr<net::WirelessClient> client;
  attack::Sniffer sniffer{bssid};

  explicit NetStackCell(DcfParams params)
      : arbiter{simulator, medium, 1, params, util::Rng{5}} {
    const double bitrate_mbps = params.bitrate_mbps;
    net::ApConfig config;
    config.streaming.bitrate_mbps = bitrate_mbps;
    ap = std::make_unique<net::AccessPoint>(
        simulator, medium, Position{0, 0}, bssid, 1, config, util::Rng{7},
        [] { return make_or(); });
    core::online::StreamingConfig streaming;
    streaming.bitrate_mbps = bitrate_mbps;
    client = std::make_unique<net::WirelessClient>(
        simulator, medium, Position{5, 5}, client_mac, bssid, 1, key,
        util::Rng{8}, make_or(), streaming);
    ap->associate(client_mac, key);
    medium.attach(sniffer, Position{2, -2}, 1);
  }
  ~NetStackCell() { medium.detach(sniffer); }

  void configure_interfaces() {
    client->request_virtual_interfaces(3);
    simulator.run();
    ASSERT_EQ(client->state(), net::ClientState::kConfigured);
    sniffer.clear();  // drop handshake-era frames
  }

  /// Schedules the uplink half of a trace through the client, offset so
  /// the channel is idle when data begins.
  void drive_uplink(const traffic::Trace& trace, Duration offset) {
    for (const traffic::PacketRecord& r : trace.records()) {
      if (r.direction != mac::Direction::kUplink) {
        continue;
      }
      simulator.schedule_at(r.time + offset, [this, size = r.size_bytes] {
        client->send_packet(mac::payload_of(size));
      });
    }
    simulator.run();
  }

  /// On-air timestamps of every captured uplink data frame, in air order.
  [[nodiscard]] std::vector<TimePoint> observed_uplink_times() const {
    std::vector<TimePoint> times;
    const attack::CaptureColumns& captures = sniffer.captures();
    for (std::size_t i = 0; i < captures.size(); ++i) {
      if (captures.direction[i] == mac::Direction::kUplink) {
        times.push_back(TimePoint::from_microseconds(captures.time_us[i]));
      }
    }
    return times;
  }
};

// -------------------------------------------------------------- DcfParams ---

TEST(DcfParamsTest, ValidationGuards) {
  Simulator simulator;
  Medium medium{quiet_model(), util::Rng{1}};
  DcfParams bad;
  bad.bitrate_mbps = 0.0;
  EXPECT_THROW(
      (ChannelArbiter{simulator, medium, 1, bad, util::Rng{1}}),
      std::invalid_argument);
  DcfParams inverted;
  inverted.cw_min = 8;
  inverted.cw_max = 3;
  EXPECT_THROW(
      (ChannelArbiter{simulator, medium, 1, inverted, util::Rng{1}}),
      std::invalid_argument);
}

TEST(ChannelArbiterTest, OneArbiterPerChannel) {
  Simulator simulator;
  Medium medium{quiet_model(), util::Rng{1}};
  ChannelArbiter first{simulator, medium, 1, DcfParams{}, util::Rng{1}};
  EXPECT_THROW(
      (ChannelArbiter{simulator, medium, 1, DcfParams{}, util::Rng{2}}),
      std::invalid_argument);
  // A different channel coexists.
  ChannelArbiter other{simulator, medium, 6, DcfParams{}, util::Rng{3}};
  EXPECT_EQ(medium.arbiter_for(1), &first);
  EXPECT_EQ(medium.arbiter_for(6), &other);
  EXPECT_EQ(medium.arbiter_for(11), nullptr);
}

TEST(ChannelArbiterTest, UnarbitratedChannelStaysInstant) {
  Simulator simulator;
  Medium medium{quiet_model(), util::Rng{1}};
  ChannelArbiter arbiter{simulator, medium, 1, DcfParams{}, util::Rng{1}};

  struct Recorder final : RadioListener {
    std::vector<TimePoint> times;
    void on_frame(const mac::Frame& f, double) override {
      times.push_back(f.timestamp);
    }
  } rx;
  medium.attach(rx, Position{1, 0}, 6);
  // Channel 6 has no arbiter: delivery happens inside transmit().
  medium.transmit(data_frame(500, 6), Position{});
  EXPECT_EQ(rx.times.size(), 1u);
  medium.detach(rx);
}

TEST(ChannelArbiterTest, RejectsFrameOnWrongChannel) {
  Simulator simulator;
  Medium medium{quiet_model(), util::Rng{1}};
  ChannelArbiter arbiter{simulator, medium, 1, DcfParams{}, util::Rng{1}};
  Identity station;
  EXPECT_THROW(arbiter.enqueue(data_frame(500, 6), Position{}, &station),
               std::invalid_argument);
}

// ------------------------------------------------- uncontended baseline ---

TEST(ChannelArbiterTest, UncontendedSingleStationTransmitsAtEnqueueTime) {
  Simulator simulator;
  Medium medium{quiet_model(), util::Rng{1}};
  ChannelArbiter arbiter{simulator, medium, 1, DcfParams::uncontended(54.0),
                         util::Rng{1}};
  Identity station;
  std::vector<TimePoint> on_air;
  arbiter.set_on_air_hook([&](const mac::Frame& f, Duration delay,
                              const RadioListener* tx) {
    EXPECT_EQ(tx, &station);
    EXPECT_EQ(f.timestamp, simulator.now());
    on_air.push_back(f.timestamp);
    (void)delay;
  });

  // Idle channel: the frame goes on the air at its enqueue instant.
  simulator.schedule_at(TimePoint::from_seconds(1.0), [&] {
    arbiter.enqueue(data_frame(1500), Position{}, &station);
  });
  // Busy channel: the next frame waits exactly until the radio idles —
  // the StreamingReshaper's max(arrival, radio_free) rule.
  const Duration airtime_1500 = mac::airtime(1500, 54.0);
  simulator.schedule_at(TimePoint::from_seconds(1.0) +
                            Duration::microseconds(10),
                        [&] {
                          arbiter.enqueue(data_frame(500), Position{},
                                          &station);
                        });
  simulator.run();

  ASSERT_EQ(on_air.size(), 2u);
  EXPECT_EQ(on_air[0], TimePoint::from_seconds(1.0));
  EXPECT_EQ(on_air[1], TimePoint::from_seconds(1.0) + airtime_1500);

  const ChannelStats* stats = arbiter.stats_of(&station);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->frames_sent, 2u);
  EXPECT_EQ(stats->collisions, 0u);
  EXPECT_EQ(stats->frames_dropped, 0u);
  EXPECT_EQ(stats->max_access_delay,
            airtime_1500 - Duration::microseconds(10));
  EXPECT_EQ(arbiter.busy_time(), airtime_1500 + mac::airtime(500, 54.0));
}

// --------------------------------------------------- golden parity (§V) ---

TEST(GoldenParityTest, OnAirTimestampsEqualReshaperReleaseTimesExactly) {
  // Acceptance criterion: contention disabled (single transmitting
  // station, zero backoff) => the sniffer's captured on-air timestamps
  // equal the StreamingReshaper's scheduled release times bit-exactly.
  // 2 Mbit/s makes the radio a real bottleneck so the release times are
  // genuinely deferred, not just the arrival times echoed back.
  constexpr double kBitrate = 2.0;
  NetStackCell cell{DcfParams::uncontended(kBitrate)};
  cell.configure_interfaces();

  const traffic::Trace trace = traffic::generate_trace(
      traffic::AppType::kBrowsing, Duration::seconds(10.0), 0xBEEF,
      traffic::SessionJitter::none());
  const Duration offset = Duration::milliseconds(50);
  cell.drive_uplink(trace, offset);

  // Shadow pipeline: identical scheduler, identical config, identical
  // arrival stream — its tx_start values are the expected release times.
  core::online::StreamingConfig config;
  config.bitrate_mbps = kBitrate;
  config.record_streams = false;
  core::online::StreamingReshaper shadow{core::ReshapingDefense{make_or()},
                                         config};
  std::vector<TimePoint> expected;
  for (const traffic::PacketRecord& r : trace.records()) {
    if (r.direction != mac::Direction::kUplink) {
      continue;
    }
    traffic::PacketRecord arrival;
    arrival.time = r.time + offset;
    arrival.size_bytes = mac::on_air_size(mac::payload_of(r.size_bytes));
    arrival.direction = mac::Direction::kUplink;
    expected.push_back(shadow.push(arrival).tx_start);
  }

  const std::vector<TimePoint> observed = cell.observed_uplink_times();
  ASSERT_EQ(observed.size(), expected.size());
  for (std::size_t i = 0; i < observed.size(); ++i) {
    EXPECT_EQ(observed[i], expected[i]) << "frame " << i;
  }
  // The parity is only meaningful if the defense actually delayed
  // something: the modeled pipeline must have queued...
  EXPECT_GT(cell.client->modeled_reshaping_stats()
                .total_queueing_delay.count_us(),
            0);
  // ...and the air must show it: observed timestamps differ from the
  // arrival schedule for the queued packets.
  std::size_t delayed = 0;
  std::size_t i = 0;
  for (const traffic::PacketRecord& r : trace.records()) {
    if (r.direction != mac::Direction::kUplink) {
      continue;
    }
    if (observed[i++] != r.time + offset) {
      ++delayed;
    }
  }
  EXPECT_GT(delayed, 0u);
}

TEST(GoldenParityTest, SnifferSeesDefendedNotUndefendedTiming) {
  // Acceptance criterion: with an active size-shaping defense (live
  // padding through the streaming pipeline), the inter-arrival times the
  // sniffer observes differ from the undefended run of the *same*
  // arrival schedule — the air now shows defended, arbitrated timing.
  constexpr double kBitrate = 1.0;
  const traffic::Trace trace = traffic::generate_trace(
      traffic::AppType::kBrowsing, Duration::seconds(10.0), 0xFEED,
      traffic::SessionJitter::none());
  const Duration offset = Duration::milliseconds(50);

  const auto observed_times = [&](bool defended) {
    NetStackCell cell{DcfParams::uncontended(kBitrate)};
    cell.configure_interfaces();
    if (defended) {
      // The AP pushes the same OR point with every interface padded to
      // the maximum frame; the client rebuilds its uplink pipeline on it.
      auto padded = core::tuning::TunedConfiguration::identity(
          "padded", core::SizeRanges::paper_default());
      padded.pad_to.assign(padded.interfaces, mac::kMaxFrameBytes);
      EXPECT_TRUE(cell.ap->push_tuned_configuration(cell.client_mac, padded));
      cell.simulator.run();
    }
    cell.drive_uplink(trace, offset);
    return cell.observed_uplink_times();
  };
  const std::vector<TimePoint> defended = observed_times(true);
  const std::vector<TimePoint> undefended = observed_times(false);

  ASSERT_EQ(defended.size(), undefended.size());
  ASSERT_GE(defended.size(), 2u);
  std::size_t differing_gaps = 0;
  for (std::size_t i = 1; i < defended.size(); ++i) {
    if (defended[i] - defended[i - 1] !=
        undefended[i] - undefended[i - 1]) {
      ++differing_gaps;
    }
  }
  // Padding to 1576 bytes at 1 Mbit/s stretches every queued burst;
  // a meaningful share of the observed gaps must shift, and the padded
  // session must end strictly later.
  EXPECT_GT(differing_gaps, defended.size() / 10);
  EXPECT_GT(defended.back(), undefended.back());
}

// ------------------------------------------------------------ contention ---

TEST(ContentionTest, DeterministicCollisionRetryAndDrop) {
  // cw_min == cw_max == 0 forces both stations to draw zero backoff every
  // round: a guaranteed collision chain ending in a drop on both sides.
  Simulator simulator;
  Medium medium{quiet_model(), util::Rng{1}};
  DcfParams params;
  params.cw_min = 0;
  params.cw_max = 0;
  ChannelArbiter arbiter{simulator, medium, 1, params, util::Rng{9}};
  Identity a;
  Identity b;
  std::size_t drops_seen = 0;
  arbiter.set_drop_hook(
      [&](const mac::Frame&, const RadioListener*) { ++drops_seen; });

  simulator.schedule_at(TimePoint{}, [&] {
    arbiter.enqueue(data_frame(1000), Position{}, &a);
    arbiter.enqueue(data_frame(1000), Position{}, &b);
  });
  simulator.run();

  for (const Identity* station : {&a, &b}) {
    const ChannelStats* stats = arbiter.stats_of(station);
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->frames_sent, 0u);
    EXPECT_EQ(stats->frames_dropped, 1u);
    EXPECT_EQ(stats->collisions, params.retry_limit + 1);
    EXPECT_EQ(stats->retries, params.retry_limit);
  }
  EXPECT_EQ(drops_seen, 2u);
  EXPECT_EQ(arbiter.frames_on_air(), 0u);
  EXPECT_EQ(medium.frames_transmitted(), 0u);
  EXPECT_EQ(arbiter.pending(), 0u);
}

TEST(ContentionTest, ContendingStationsSerializeWithoutOverlap) {
  const auto run_timeline = [](std::uint64_t seed) {
    Simulator simulator;
    Medium medium{quiet_model(), util::Rng{1}};
    DcfParams params;  // contended defaults
    ChannelArbiter arbiter{simulator, medium, 1, params, util::Rng{seed}};
    Identity a;
    Identity b;
    std::vector<std::pair<TimePoint, Duration>> on_air;
    arbiter.set_on_air_hook([&](const mac::Frame& f, Duration,
                                const RadioListener*) {
      on_air.emplace_back(f.timestamp,
                          mac::airtime(f.size_bytes, params.bitrate_mbps));
    });
    // Both stations offer a frame at the same instants — contention on
    // every access.
    for (int k = 0; k < 50; ++k) {
      const TimePoint t = TimePoint::from_microseconds(k * 100);
      simulator.schedule_at(t, [&arbiter, &a] {
        arbiter.enqueue(data_frame(1200), Position{}, &a);
      });
      simulator.schedule_at(t, [&arbiter, &b] {
        arbiter.enqueue(data_frame(800), Position{}, &b);
      });
    }
    simulator.run();
    const ChannelStats totals = arbiter.totals();
    EXPECT_EQ(totals.frames_sent + totals.frames_dropped, 100u);
    EXPECT_GT(arbiter.stats_of(&a)->frames_sent, 0u);
    EXPECT_GT(arbiter.stats_of(&b)->frames_sent, 0u);
    EXPECT_GT(totals.total_access_delay.count_us(), 0);
    EXPECT_GT(arbiter.utilization(), 0.0);
    EXPECT_LE(arbiter.utilization(), 1.0);
    return on_air;
  };

  const auto timeline = run_timeline(2024);
  ASSERT_GE(timeline.size(), 2u);
  for (std::size_t i = 1; i < timeline.size(); ++i) {
    EXPECT_GE(timeline[i].first, timeline[i - 1].first + timeline[i - 1].second)
        << "on-air frames " << i - 1 << " and " << i << " overlap";
  }
  // Same seed => bit-identical timeline; different seed => different
  // backoff draws somewhere in 100 contended accesses.
  EXPECT_EQ(timeline, run_timeline(2024));
  EXPECT_NE(timeline, run_timeline(2025));
}

TEST(ContentionTest, SubSlotArrivalsDoNotStarveTheCountdown) {
  // Regression: interrupting enqueues used to restart the countdown
  // origin at `now`, so arrivals spaced closer than one backoff slot
  // froze every peer's countdown for as long as the arrivals continued.
  // The countdown must keep its progress across interruptions: frames go
  // on air *during* the dense arrival window, not only after it ends.
  Simulator simulator;
  Medium medium{quiet_model(), util::Rng{1}};
  DcfParams params;
  params.cw_min = 63;
  params.cw_max = 63;  // backoff <= 63 slots = 567 us
  ChannelArbiter arbiter{simulator, medium, 1, params, util::Rng{11}};
  Identity a;
  Identity b;
  std::vector<TimePoint> on_air;
  arbiter.set_on_air_hook(
      [&](const mac::Frame& f, Duration, const RadioListener*) {
        on_air.push_back(f.timestamp);
      });

  simulator.schedule_at(TimePoint{}, [&] {
    arbiter.enqueue(data_frame(400), Position{}, &a);
  });
  // 1250 arrivals spaced 4 us apart (under the 9 us slot) — a 5 ms
  // window of continuous countdown interruptions.
  for (int k = 0; k < 1250; ++k) {
    simulator.schedule_at(TimePoint::from_microseconds(1 + k * 4), [&] {
      arbiter.enqueue(data_frame(400), Position{}, &b);
    });
  }
  simulator.run();

  ASSERT_FALSE(on_air.empty());
  EXPECT_LT(on_air.front(), TimePoint::from_microseconds(2000))
      << "countdown made no progress during the dense arrival window";
  EXPECT_EQ(arbiter.totals().frames_sent + arbiter.totals().frames_dropped,
            1251u);
  EXPECT_EQ(arbiter.pending(), 0u);
}

// ----------------------------------------- observed vs modeled accessors ---

/// A release list: (station, when µs, size bytes) per release.
using Releases =
    std::vector<std::tuple<std::size_t, std::int64_t, std::uint32_t>>;

/// What became of one release: (release, on-air µs, access delay µs), or
/// (release, kDropped, kDropped) for a frame dropped at the retry limit.
using Fate = std::tuple<std::size_t, std::int64_t, std::int64_t>;
constexpr std::int64_t kDropped = -1;

struct ArbitrationRun {
  std::vector<Fate> fates;  // channel order
  ChannelStats totals;
};

/// The reference: a ChannelArbiter on a Simulator with every release
/// preloaded as an event before the run.
ArbitrationRun preloaded_arbiter(const Releases& releases, DcfParams params,
                                 std::uint64_t seed) {
  ArbitrationRun run;
  Simulator sim;
  Medium medium{quiet_model(), util::Rng{0}};
  ChannelArbiter arbiter{sim, medium, 1, params, util::Rng{seed}};
  std::size_t stations = 0;
  for (const auto& [s, t, size] : releases) {
    stations = std::max(stations, s + 1);
  }
  std::vector<Identity> ids(stations);
  std::vector<std::deque<std::size_t>> fifo(stations);
  const auto station_of = [&ids](const RadioListener* tx) {
    return static_cast<std::size_t>(static_cast<const Identity*>(tx) -
                                    ids.data());
  };
  arbiter.set_on_air_hook([&](const mac::Frame& frame, Duration delay,
                              const RadioListener* tx) {
    auto& queue = fifo[station_of(tx)];
    EXPECT_EQ(frame.timestamp, sim.now());
    run.fates.emplace_back(queue.front(), frame.timestamp.count_us(),
                           delay.count_us());
    queue.pop_front();
  });
  arbiter.set_drop_hook([&](const mac::Frame&, const RadioListener* tx) {
    auto& queue = fifo[station_of(tx)];
    run.fates.emplace_back(queue.front(), kDropped, kDropped);
    queue.pop_front();
  });
  for (std::size_t i = 0; i < releases.size(); ++i) {
    const auto& [s, t, size] = releases[i];
    sim.schedule_at(TimePoint::from_microseconds(t), [&, i, s, size] {
      fifo[s].push_back(i);
      arbiter.enqueue(data_frame(size), Position{}, &ids[s]);
    });
  }
  sim.run();
  EXPECT_EQ(arbiter.pending(), 0u);
  // The decision is a re-armable timer: besides the releases, every event
  // dispatched transmitted or collided, none was a superseded no-op.
  EXPECT_EQ(sim.events_processed(), releases.size() + arbiter.frames_on_air() +
                                        arbiter.collision_events());
  run.totals = arbiter.totals();
  return run;
}

/// The same releases through an ArbitratedCell. Drops are not reported
/// by the cell: they are the releases it never put on the air.
ArbitrationRun arbitrated_cell(const Releases& releases, DcfParams params,
                               std::uint64_t seed) {
  ArbitrationRun run;
  ArbitratedCell cell{params, util::Rng{seed}};
  cell.reserve(releases.size());
  for (std::size_t i = 0; i < releases.size(); ++i) {
    const auto& [s, t, size] = releases[i];
    EXPECT_EQ(cell.release(s, TimePoint::from_microseconds(t), size), i);
  }
  EXPECT_EQ(cell.releases(), releases.size());
  cell.run([&](std::size_t release, TimePoint on_air, std::uint32_t size,
               Duration delay) {
    EXPECT_EQ(size, std::get<2>(releases[release]));
    run.fates.emplace_back(release, on_air.count_us(), delay.count_us());
  });
  EXPECT_THROW(cell.release(0, TimePoint{}, 100), std::invalid_argument);
  run.totals = cell.totals();
  return run;
}

/// Every (release, on-air µs, delay), the drops and the totals, bit for
/// bit.
void expect_same_run(const ArbitrationRun& expected,
                     const ArbitrationRun& actual, const std::string& what) {
  std::vector<Fate> on_air;
  std::vector<std::size_t> dropped;
  for (const Fate& fate : expected.fates) {
    if (std::get<1>(fate) == kDropped) {
      dropped.push_back(std::get<0>(fate));
    } else {
      on_air.push_back(fate);
    }
  }
  EXPECT_TRUE(actual.fates == on_air) << what;
  std::vector<bool> aired(expected.fates.size(), false);
  for (const Fate& fate : actual.fates) {
    aired.at(std::get<0>(fate)) = true;
  }
  std::vector<std::size_t> not_aired;
  for (std::size_t i = 0; i < aired.size(); ++i) {
    if (!aired[i]) {
      not_aired.push_back(i);
    }
  }
  std::sort(dropped.begin(), dropped.end());
  EXPECT_EQ(not_aired, dropped) << what;
  const ChannelStats& e = expected.totals;
  const ChannelStats& a = actual.totals;
  EXPECT_EQ(a.frames_sent, e.frames_sent) << what;
  EXPECT_EQ(a.frames_dropped, e.frames_dropped) << what;
  EXPECT_EQ(a.collisions, e.collisions) << what;
  EXPECT_EQ(a.retries, e.retries) << what;
  EXPECT_EQ(a.total_access_delay, e.total_access_delay) << what;
  EXPECT_EQ(a.max_access_delay, e.max_access_delay) << what;
  EXPECT_EQ(a.airtime, e.airtime) << what;
  EXPECT_EQ(a.max_queue_depth, e.max_queue_depth) << what;
  EXPECT_EQ(a.frames_sent, actual.fates.size()) << what;
  EXPECT_EQ(a.frames_sent + a.frames_dropped, expected.fates.size()) << what;
}

TEST(ArbitratedCellTest, MatchesAPreloadedArbiterReleaseForRelease) {
  // Station 0 plays an AP: its releases step back in time, as when one
  // transmitter serves several clients' records. A tight window and a
  // low retry limit force collisions and drops. The cell must report
  // every release that reaches the air exactly once, at the instant and
  // delay an arbiter fed by preloaded per-release events gives it.
  DcfParams params;
  params.bitrate_mbps = 6.0;
  params.cw_min = 1;
  params.cw_max = 3;
  params.retry_limit = 1;
  constexpr std::size_t kStations = 6;
  util::Rng rng{0xCE11};
  Releases releases;
  for (std::size_t s = 0; s < kStations; ++s) {
    std::int64_t t = s == 0 ? 0 : rng.uniform_int(0, 2000);
    for (int i = 0; i < 300; ++i) {
      t = s == 0 && i % 50 == 0 ? rng.uniform_int(0, 1000) : t;
      t += rng.uniform_int(0, 3) * 400;
      releases.emplace_back(
          s, t, static_cast<std::uint32_t>(rng.uniform_int(60, 1576)));
    }
  }
  const ArbitrationRun expected = preloaded_arbiter(releases, params, 99);
  EXPECT_LT(expected.totals.frames_sent, releases.size());  // some dropped
  expect_same_run(expected, arbitrated_cell(releases, params, 99), "AP cell");
}

TEST(ArbitratedCellTest, SeededSweepMatchesThePreloadedArbiter) {
  // Random cells of 2-135 stations, each station's records released in
  // time order, but some stations step back in time mid-list (an AP
  // serving several clients) and the station order interleaves. Every
  // DIFS, window cap and retry limit of the sweep goes through both
  // drivers of the one DCF core; the loop must replay the preloaded
  // simulator exactly.
  util::Rng rng{0x0DCFCE11};
  std::uint64_t collisions = 0;
  std::uint64_t drops = 0;
  for (int round = 0; round < 48; ++round) {
    DcfParams params;
    params.bitrate_mbps = rng.bernoulli(0.5) ? 12.0 : 54.0;
    params.difs = Duration::microseconds(10 * rng.uniform_int(0, 2));
    params.cw_min = static_cast<std::uint32_t>(rng.uniform_int(0, 15));
    params.cw_max = rng.bernoulli(0.5) ? 63 : 1023;
    params.retry_limit = static_cast<std::uint32_t>(rng.uniform_int(0, 3));
    const auto stations = static_cast<std::size_t>(
        round % 6 == 0 ? 135 : rng.uniform_int(2, 40));
    const std::int64_t per_station =
        std::max<std::int64_t>(3, 3000 / static_cast<std::int64_t>(stations));
    const std::int64_t gap_us = rng.uniform_int(1, 6) * 200;
    Releases releases;
    for (std::size_t k = 0; k < stations; ++k) {
      // Stations add their lists in a shuffled order, so first releases
      // (which register stations) do not follow the station numbers.
      const std::size_t s = (k * 7 + static_cast<std::size_t>(round)) %
                            stations;
      const bool steps_back = rng.bernoulli(0.3);
      std::int64_t t = rng.uniform_int(0, 4000);
      for (std::int64_t i = 0; i < per_station; ++i) {
        if (steps_back && i % 10 == 9) {
          t = std::max<std::int64_t>(0, t - rng.uniform_int(1, 8) * gap_us);
        }
        t += rng.uniform_int(0, 3) * gap_us / 2;
        releases.emplace_back(
            s, t, static_cast<std::uint32_t>(rng.uniform_int(40, 1576)));
      }
    }
    const auto seed = static_cast<std::uint64_t>(round) * 7919 + 1;
    const ArbitrationRun expected = preloaded_arbiter(releases, params, seed);
    collisions += expected.totals.collisions;
    drops += expected.totals.frames_dropped;
    expect_same_run(expected, arbitrated_cell(releases, params, seed),
                    "round " + std::to_string(round));
  }
  EXPECT_GT(collisions, 0u);  // the sweep reaches contention
  EXPECT_GT(drops, 0u);       // and the retry limit
}

TEST(ReleaseChainsTest, DispatchOrderMatchesThePreload) {
  // Random release lists: chains of non-decreasing times on a coarse grid
  // (dense equal-time ties across chains), each chain starting earlier
  // than its predecessor ended, spread over three stations so one station
  // owns several chains. With no DIFS and a small window, decisions fall
  // at the very instants releases do. The merged chains must fire what
  // preloading every release fires, in the same order, so the cell's
  // timeline equals the preloaded arbiter's.
  util::Rng rng{0xC4A1};
  for (int round = 0; round < 30; ++round) {
    DcfParams params;
    params.difs = Duration::microseconds(round % 3 == 0 ? 0 : 10);
    params.cw_min = static_cast<std::uint32_t>(rng.uniform_int(0, 3));
    params.retry_limit = static_cast<std::uint32_t>(rng.uniform_int(0, 2));
    Releases releases;
    std::size_t chains = 0;
    std::int64_t last = 0;
    const auto chain_count = rng.uniform_int(1, 8);
    for (std::int64_t c = 0; c < chain_count; ++c) {
      std::int64_t t = rng.uniform_int(0, 5) * 1000;
      if (!releases.empty() && t >= last) {
        t = std::max<std::int64_t>(0, last - 1000);
      }
      if (releases.empty() || t < last) {
        ++chains;
      }
      const auto station = static_cast<std::size_t>(c % 3);
      const auto length = rng.uniform_int(1, 40);
      for (std::int64_t i = 0; i < length; ++i) {
        releases.emplace_back(
            station, t, static_cast<std::uint32_t>(rng.uniform_int(40, 600)));
        last = t;
        t += rng.uniform_int(0, 2) * 500;
      }
    }
    const auto seed = static_cast<std::uint64_t>(round) + 1;
    const ArbitrationRun expected = preloaded_arbiter(releases, params, seed);

    ArbitratedCell cell{params, util::Rng{seed}};
    for (const auto& [s, t, size] : releases) {
      cell.release(s, TimePoint::from_microseconds(t), size);
    }
    ArbitrationRun actual;
    std::size_t peak_chains = 0;
    cell.run([&](std::size_t release, TimePoint on_air, std::uint32_t,
                 Duration delay) {
      peak_chains = std::max(peak_chains, cell.pending_chains());
      actual.fates.emplace_back(release, on_air.count_us(), delay.count_us());
    });
    actual.totals = cell.totals();
    expect_same_run(expected, actual, "round " + std::to_string(round));
    EXPECT_LE(peak_chains, chains) << "round " << round;
    EXPECT_EQ(cell.pending_chains(), 0u);
  }
}

TEST(ReleaseChainsTest, ArbitratedCellKeepsTheQueueSmall) {
  // A 4-station DCF cell of 50k frames, released station-major (four
  // chains). The cell must reproduce the preloaded on-air timeline
  // exactly while its merge heap holds one entry per chain, never the
  // run's frames.
  constexpr std::size_t kStations = 4;
  constexpr std::size_t kFramesPerStation = 12'500;
  util::Rng rng{0x50CE11};
  Releases releases;
  for (std::size_t s = 0; s < kStations; ++s) {
    std::int64_t t = 0;
    for (std::size_t i = 0; i < kFramesPerStation; ++i) {
      t += rng.uniform_int(0, 4000);
      releases.emplace_back(
          s, t, static_cast<std::uint32_t>(rng.uniform_int(60, 1500)));
    }
  }
  const ArbitrationRun expected = preloaded_arbiter(releases, DcfParams{}, 11);

  ArbitratedCell cell{DcfParams{}, util::Rng{11}};
  cell.reserve(releases.size());
  for (const auto& [s, t, size] : releases) {
    cell.release(s, TimePoint::from_microseconds(t), size);
  }
  ArbitrationRun actual;
  std::size_t peak_chains = 0;
  cell.run([&](std::size_t release, TimePoint on_air, std::uint32_t,
               Duration delay) {
    peak_chains = std::max(peak_chains, cell.pending_chains());
    actual.fates.emplace_back(release, on_air.count_us(), delay.count_us());
  });
  actual.totals = cell.totals();

  expect_same_run(expected, actual, "station-major cell");
  EXPECT_GT(expected.totals.collisions, 0u);  // real contention
  EXPECT_EQ(peak_chains, kStations);
}

TEST(ObservedStatsTest, ClientAndApExposeChannelStatsUnderArbitration) {
  NetStackCell cell{DcfParams{}};  // contended defaults at 54 Mbit/s
  cell.configure_interfaces();
  for (const std::uint32_t payload : {50u, 800u, 1500u}) {
    cell.client->send_packet(payload);
    cell.ap->send_to_client(cell.client_mac, payload);
  }
  cell.simulator.run();

  const ChannelStats* client_stats = cell.client->observed_channel_stats();
  ASSERT_NE(client_stats, nullptr);
  EXPECT_EQ(client_stats, cell.arbiter.stats_of(cell.client.get()));
  // Handshake request + 3 data frames.
  EXPECT_EQ(client_stats->frames_sent, 4u);

  const ChannelStats* ap_stats = cell.ap->observed_channel_stats();
  ASSERT_NE(ap_stats, nullptr);
  EXPECT_EQ(ap_stats->frames_sent, 4u);  // handshake response + 3 data
}

TEST(ObservedStatsTest, NullWithoutArbiterOrTraffic) {
  Simulator simulator;
  Medium medium{quiet_model(), util::Rng{1}};
  net::AccessPoint ap{simulator, medium, Position{0, 0},
                      mac::MacAddress::parse("02:00:00:00:00:01"), 1,
                      net::ApConfig{}, util::Rng{7},
                      [] { return make_or(); }};
  EXPECT_EQ(ap.observed_channel_stats(), nullptr);  // no arbiter installed

  ChannelArbiter arbiter{simulator, medium, 1, DcfParams{}, util::Rng{2}};
  EXPECT_EQ(ap.observed_channel_stats(), nullptr);  // no traffic yet
}

// --------------------------------------------- sniffer under arbitration ---

TEST(SnifferUnderArbitrationTest, CapturesSerializedAirMatchingChannelStats) {
  // Contending stations, a passive sniffer on the cell: the captured
  // ledger must agree with the arbiter's accounting frame-for-frame —
  // strictly increasing non-overlapping on-air timestamps, total and
  // per-station frame counts, and airtime to the microsecond.
  Simulator simulator;
  Medium medium{quiet_model(), util::Rng{3}};
  DcfParams params;
  params.bitrate_mbps = 12.0;
  ChannelArbiter arbiter{simulator, medium, 1, params, util::Rng{99}};

  const auto bssid = mac::MacAddress::parse("02:00:00:00:00:01");
  attack::Sniffer sniffer{bssid};
  medium.attach(sniffer, Position{0, 10}, 1);

  constexpr std::size_t kStations = 4;
  constexpr int kFramesPerStation = 25;
  std::vector<Identity> stations(kStations);
  std::vector<mac::MacAddress> addresses;
  for (std::size_t s = 0; s < kStations; ++s) {
    addresses.push_back(mac::MacAddress::from_u64(0x020000000100ULL + s));
  }
  for (std::size_t s = 0; s < kStations; ++s) {
    for (int k = 0; k < kFramesPerStation; ++k) {
      simulator.schedule_at(
          TimePoint::from_microseconds(k * 800), [&, s] {
            mac::Frame frame = data_frame(600);
            frame.source = addresses[s];
            frame.destination = bssid;
            arbiter.enqueue(std::move(frame),
                            Position{static_cast<double>(s), 0.0},
                            &stations[s]);
          });
    }
  }
  simulator.run();
  medium.detach(sniffer);

  const ChannelStats totals = arbiter.totals();
  EXPECT_GT(totals.collisions, 0u);  // the cell actually contended
  EXPECT_EQ(sniffer.frames_captured(), totals.frames_sent);
  EXPECT_EQ(sniffer.frames_captured(), arbiter.frames_on_air());

  const attack::CaptureColumns& captures = sniffer.captures();
  Duration captured_airtime;
  for (std::size_t i = 0; i < captures.size(); ++i) {
    const TimePoint at = TimePoint::from_microseconds(captures.time_us[i]);
    const Duration on_air =
        mac::airtime(captures.size_bytes[i], params.bitrate_mbps);
    if (i > 0) {
      const TimePoint prev =
          TimePoint::from_microseconds(captures.time_us[i - 1]);
      // Strictly increasing and non-overlapping: the previous frame's
      // occupancy ends before (or exactly when) this one starts.
      EXPECT_GT(at, prev);
      EXPECT_GE(at, prev + mac::airtime(captures.size_bytes[i - 1],
                                        params.bitrate_mbps));
    }
    captured_airtime += on_air;
  }
  EXPECT_EQ(captured_airtime, totals.airtime);

  // Per-station: the flow the sniffer isolates for a MAC is exactly the
  // frame set the arbiter accounted to that station.
  for (std::size_t s = 0; s < kStations; ++s) {
    const ChannelStats* station = arbiter.stats_of(&stations[s]);
    ASSERT_NE(station, nullptr);
    EXPECT_EQ(
        sniffer.flow_of(addresses[s], traffic::AppType::kBrowsing).size(),
        station->frames_sent);
  }
}

}  // namespace
}  // namespace reshape::sim::channel
