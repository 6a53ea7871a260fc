// Unit tests for src/sim: event ordering, clock semantics, and the
// broadcast medium with its RSSI model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/channel/channel_arbiter.h"
#include "sim/event_queue.h"
#include "sim/medium.h"
#include "sim/release_chains.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/stats.h"

namespace reshape::sim {
namespace {

using util::Duration;
using util::TimePoint;

// ---------------------------------------------------------- EventQueue ---

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(TimePoint::from_seconds(3.0), [&] { order.push_back(3); });
  q.push(TimePoint::from_seconds(1.0), [&] { order.push_back(1); });
  q.push(TimePoint::from_seconds(2.0), [&] { order.push_back(2); });
  while (!q.empty()) {
    q.pop()();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  const auto t = TimePoint::from_seconds(1.0);
  for (int i = 0; i < 10; ++i) {
    q.push(t, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) {
    q.pop()();
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(EventQueueTest, MixedTypedAndCallbackEventsMatchReferenceOrder) {
  // Property test for the arena-backed queue: a random schedule of typed
  // (EventHandler) and callback events — with deliberate timestamp ties —
  // must fire in exactly the order of a reference model (stable sort by
  // time, insertion order breaking ties). The arena slots, free-list
  // reuse, and typed/callback mixing must never leak into ordering.
  struct Recorder final : EventHandler {
    std::vector<std::uint64_t>* fired;
    void on_event(std::uint64_t a, std::uint64_t) override {
      fired->push_back(a);
    }
  };

  util::Rng rng{20110703};
  for (int round = 0; round < 20; ++round) {
    EventQueue q;
    std::vector<std::uint64_t> fired;
    Recorder recorder;
    recorder.fired = &fired;

    constexpr std::uint64_t kEvents = 200;
    std::vector<std::pair<std::int64_t, std::uint64_t>> reference;
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      // Few distinct timestamps -> dense ties across event kinds.
      const std::int64_t when_us = rng.uniform_int(0, 9) * 1000;
      const TimePoint when = TimePoint::from_microseconds(when_us);
      if (rng.uniform_int(0, 1) == 0) {
        q.push_event(when, recorder, i);
      } else {
        q.push(when, [&fired, i] { fired.push_back(i); });
      }
      reference.emplace_back(when_us, i);
    }
    std::stable_sort(reference.begin(), reference.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });

    // Alternate both drain paths; dispatch_next and pop must agree.
    while (!q.empty()) {
      if (fired.size() % 2 == 0) {
        q.dispatch_next();
      } else {
        q.pop()();
      }
    }

    ASSERT_EQ(fired.size(), kEvents);
    for (std::size_t i = 0; i < kEvents; ++i) {
      EXPECT_EQ(fired[i], reference[i].second) << "round " << round
                                               << " position " << i;
    }
  }
}

TEST(EventQueueTest, EmptyQueueThrows) {
  EventQueue q;
  EXPECT_THROW((void)q.pop(), std::invalid_argument);
  EXPECT_THROW((void)q.next_time(), std::invalid_argument);
}

TEST(EventQueueTest, RejectsNullCallback) {
  EventQueue q;
  EXPECT_THROW(q.push(TimePoint{}, EventQueue::Callback{}),
               std::invalid_argument);
}

// ----------------------------------------------------------- Simulator ---

TEST(SimulatorTest, ClockAdvancesToEventTime) {
  Simulator sim;
  TimePoint seen;
  sim.schedule_at(TimePoint::from_seconds(2.5), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, TimePoint::from_seconds(2.5));
  EXPECT_EQ(sim.events_processed(), 1u);
}

TEST(SimulatorTest, ScheduleAfterIsRelative) {
  Simulator sim;
  std::vector<double> times;
  sim.schedule_at(TimePoint::from_seconds(1.0), [&] {
    times.push_back(sim.now().to_seconds());
    sim.schedule_after(Duration::seconds(0.5),
                       [&] { times.push_back(sim.now().to_seconds()); });
  });
  sim.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 1.5);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(TimePoint::from_seconds(1.0), [&] { ++fired; });
  sim.schedule_at(TimePoint::from_seconds(5.0), [&] { ++fired; });
  sim.run_until(TimePoint::from_seconds(2.0));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), TimePoint::from_seconds(2.0));
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, SchedulingInThePastThrows) {
  Simulator sim;
  sim.schedule_at(TimePoint::from_seconds(2.0), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(TimePoint::from_seconds(1.0), [] {}),
               std::invalid_argument);
}

TEST(SimulatorTest, RecursiveSchedulingRunsToCompletion) {
  Simulator sim;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 100) {
      sim.schedule_after(Duration::milliseconds(10), tick);
    }
  };
  sim.schedule_at(TimePoint{}, tick);
  sim.run();
  EXPECT_EQ(count, 100);
  EXPECT_DOUBLE_EQ(sim.now().to_seconds(), 0.99);
}

// ------------------------------------------------------------- Medium ---

class RecordingListener : public RadioListener {
 public:
  void on_frame(const mac::Frame& frame, double rssi_dbm) override {
    frames.push_back(frame);
    rssi.push_back(rssi_dbm);
  }
  std::vector<mac::Frame> frames;
  std::vector<double> rssi;
};

PathLossModel deterministic_model() {
  PathLossModel m;
  m.shadowing_sigma_db = 0.0;
  return m;
}

mac::Frame frame_on_channel(int channel) {
  mac::Frame f;
  f.channel = channel;
  f.size_bytes = 500;
  return f;
}

TEST(MediumTest, DeliversOnlyOnMatchingChannel) {
  Medium medium{deterministic_model(), util::Rng{1}};
  RecordingListener on_ch1;
  RecordingListener on_ch6;
  medium.attach(on_ch1, Position{1.0, 0.0}, 1);
  medium.attach(on_ch6, Position{1.0, 0.0}, 6);
  medium.transmit(frame_on_channel(1), Position{0.0, 0.0});
  EXPECT_EQ(on_ch1.frames.size(), 1u);
  EXPECT_TRUE(on_ch6.frames.empty());
}

TEST(MediumTest, ExcludesTransmitter) {
  Medium medium{deterministic_model(), util::Rng{1}};
  RecordingListener tx;
  RecordingListener rx;
  medium.attach(tx, Position{0.0, 0.0}, 1);
  medium.attach(rx, Position{1.0, 0.0}, 1);
  medium.transmit(frame_on_channel(1), Position{0.0, 0.0}, &tx);
  EXPECT_TRUE(tx.frames.empty());
  EXPECT_EQ(rx.frames.size(), 1u);
}

TEST(MediumTest, RssiFallsWithDistance) {
  Medium medium{deterministic_model(), util::Rng{1}};
  RecordingListener near;
  RecordingListener far;
  medium.attach(near, Position{1.0, 0.0}, 1);
  medium.attach(far, Position{100.0, 0.0}, 1);
  medium.transmit(frame_on_channel(1), Position{0.0, 0.0});
  ASSERT_EQ(near.rssi.size(), 1u);
  ASSERT_EQ(far.rssi.size(), 1u);
  EXPECT_GT(near.rssi[0], far.rssi[0]);
  // 15 dBm - 40 dB at 1 m, exponent 3 => -25 dBm at 1 m, -85 dBm at 100 m.
  EXPECT_NEAR(near.rssi[0], -25.0, 1e-9);
  EXPECT_NEAR(far.rssi[0], -85.0, 1e-9);
}

TEST(MediumTest, ShadowingAddsZeroMeanNoise) {
  PathLossModel m;
  m.shadowing_sigma_db = 4.0;
  Medium medium{m, util::Rng{7}};
  RecordingListener rx;
  medium.attach(rx, Position{10.0, 0.0}, 1);
  for (int i = 0; i < 2000; ++i) {
    medium.transmit(frame_on_channel(1), Position{0.0, 0.0});
  }
  util::RunningStats stats;
  for (const double r : rx.rssi) {
    stats.add(r);
  }
  EXPECT_NEAR(stats.mean(), 15.0 - 40.0 - 30.0, 0.5);  // exponent 3, 10 m
  EXPECT_NEAR(stats.stddev(), 4.0, 0.5);
}

TEST(MediumTest, SetChannelRetunes) {
  Medium medium{deterministic_model(), util::Rng{1}};
  RecordingListener rx;
  medium.attach(rx, Position{1.0, 0.0}, 1);
  EXPECT_EQ(medium.channel_of(rx), 1);
  medium.set_channel(rx, 11);
  medium.transmit(frame_on_channel(1), Position{0.0, 0.0});
  EXPECT_TRUE(rx.frames.empty());
  medium.transmit(frame_on_channel(11), Position{0.0, 0.0});
  EXPECT_EQ(rx.frames.size(), 1u);
}

TEST(MediumTest, DetachStopsDelivery) {
  Medium medium{deterministic_model(), util::Rng{1}};
  RecordingListener rx;
  medium.attach(rx, Position{1.0, 0.0}, 1);
  medium.detach(rx);
  medium.transmit(frame_on_channel(1), Position{0.0, 0.0});
  EXPECT_TRUE(rx.frames.empty());
  EXPECT_EQ(medium.listener_count(), 0u);
}

TEST(MediumTest, ListenerMayDetachFromInsideOnFrame) {
  // Regression: Medium used to iterate entries_ directly while
  // delivering, so a listener detaching from inside on_frame()
  // invalidated the iterator mid-walk.
  Medium medium{deterministic_model(), util::Rng{1}};

  struct SelfDetacher : RadioListener {
    Medium* medium = nullptr;
    int frames = 0;
    void on_frame(const mac::Frame&, double) override {
      ++frames;
      medium->detach(*this);
    }
  };
  RecordingListener before;
  SelfDetacher detacher;
  detacher.medium = &medium;
  RecordingListener after;
  medium.attach(before, Position{1.0, 0.0}, 1);
  medium.attach(detacher, Position{2.0, 0.0}, 1);
  medium.attach(after, Position{3.0, 0.0}, 1);

  medium.transmit(frame_on_channel(1), Position{});
  // Everyone attached at transmit time got the frame; the walk survived
  // the mid-delivery detach.
  EXPECT_EQ(before.frames.size(), 1u);
  EXPECT_EQ(detacher.frames, 1);
  EXPECT_EQ(after.frames.size(), 1u);
  EXPECT_EQ(medium.listener_count(), 2u);

  medium.transmit(frame_on_channel(1), Position{});
  EXPECT_EQ(detacher.frames, 1);  // no longer attached
  EXPECT_EQ(before.frames.size(), 2u);
  EXPECT_EQ(after.frames.size(), 2u);
}

TEST(MediumTest, ListenerMayDetachAPeerFromInsideOnFrame) {
  // The detaching listener and the detached one need not be the same:
  // delivery is re-validated per target by attachment identity.
  Medium medium{deterministic_model(), util::Rng{1}};

  struct PeerDetacher : RadioListener {
    Medium* medium = nullptr;
    RadioListener* victim = nullptr;
    void on_frame(const mac::Frame&, double) override {
      if (victim != nullptr) {
        medium->detach(*victim);
        victim = nullptr;
      }
    }
  };
  PeerDetacher detacher;
  RecordingListener victim;
  detacher.medium = &medium;
  detacher.victim = &victim;
  medium.attach(detacher, Position{1.0, 0.0}, 1);
  medium.attach(victim, Position{2.0, 0.0}, 1);

  medium.transmit(frame_on_channel(1), Position{});
  // The victim was detached before its delivery slot: it never hears the
  // in-flight frame.
  EXPECT_TRUE(victim.frames.empty());
  EXPECT_EQ(medium.listener_count(), 1u);
}

TEST(MediumTest, ExcludeOfUnattachedTransmitterExcludesNobody) {
  // Exclusion resolves against attachment identity: a pointer that is
  // not attached (e.g. a raw scenario identity) silences no one.
  Medium medium{deterministic_model(), util::Rng{1}};
  RecordingListener rx;
  RecordingListener unattached;
  medium.attach(rx, Position{1.0, 0.0}, 1);
  medium.transmit(frame_on_channel(1), Position{}, &unattached);
  EXPECT_EQ(rx.frames.size(), 1u);
}

TEST(MediumTest, DoubleAttachThrows) {
  Medium medium{deterministic_model(), util::Rng{1}};
  RecordingListener rx;
  medium.attach(rx, Position{}, 1);
  EXPECT_THROW(medium.attach(rx, Position{}, 6), std::invalid_argument);
}

TEST(MediumTest, FrameCounterCounts) {
  Medium medium{deterministic_model(), util::Rng{1}};
  medium.transmit(frame_on_channel(1), Position{});
  medium.transmit(frame_on_channel(6), Position{});
  EXPECT_EQ(medium.frames_transmitted(), 2u);
}

TEST(PathLossTest, ClampsBelowReferenceDistance) {
  PathLossModel m = deterministic_model();
  util::Rng rng{1};
  EXPECT_DOUBLE_EQ(m.rssi_dbm(15.0, 0.001, rng), m.rssi_dbm(15.0, 1.0, rng));
}

// ------------------------------------------------------- ReleaseChains ---

/// Records every dispatch as (id, now) and, for every third release,
/// schedules a plain follow-up event at the current instant or shortly
/// after — the live decision events an arbiter pushes mid-run.
class ChainProbe final : public EventHandler {
 public:
  explicit ChainProbe(Simulator& sim) : sim_{sim} {}

  void on_event(std::uint64_t id, std::uint64_t) override {
    fired.emplace_back(id, sim_.now().count_us());
    peak_pending = std::max(peak_pending, sim_.pending());
    if (id < kFollowUp && id % 3 == 0) {
      const std::int64_t delay_us = id % 2 == 0 ? 0 : 500;
      sim_.schedule_event(sim_.now() + Duration::microseconds(delay_us), *this,
                          kFollowUp + id);
    }
  }

  static constexpr std::uint64_t kFollowUp = 1'000'000;
  std::vector<std::pair<std::uint64_t, std::int64_t>> fired;
  std::size_t peak_pending = 0;

 private:
  Simulator& sim_;
};

TEST(ReleaseChainsTest, DispatchOrderMatchesThePreload) {
  // Random release lists: chains of non-decreasing times on a coarse grid
  // (dense equal-time ties across chains), each chain starting earlier
  // than its predecessor ended, plus follow-up events pushed at the
  // current instant during dispatch. Lazy chains must fire exactly what
  // preloading every release fires, in the same order at the same times.
  util::Rng rng{0xC4A1};
  for (int round = 0; round < 30; ++round) {
    std::vector<std::int64_t> times;
    std::size_t chains = 0;
    const auto chain_count = rng.uniform_int(1, 8);
    for (std::int64_t c = 0; c < chain_count; ++c) {
      std::int64_t t = rng.uniform_int(0, 5) * 1000;
      if (!times.empty() && t >= times.back()) {
        t = std::max<std::int64_t>(0, times.back() - 1000);
      }
      if (times.empty() || t < times.back()) {
        ++chains;
      }
      const auto length = rng.uniform_int(1, 40);
      for (std::int64_t i = 0; i < length; ++i) {
        times.push_back(t);
        t += rng.uniform_int(0, 2) * 500;
      }
    }

    Simulator preload;
    ChainProbe expected{preload};
    for (std::size_t i = 0; i < times.size(); ++i) {
      preload.schedule_event(TimePoint::from_microseconds(times[i]), expected,
                             i);
    }
    preload.run();

    Simulator lazy;
    ChainProbe actual{lazy};
    ReleaseChains releases{lazy, actual};
    for (std::size_t i = 0; i < times.size(); ++i) {
      releases.add(TimePoint::from_microseconds(times[i]), i);
    }
    releases.start();
    EXPECT_EQ(lazy.pending(), chains) << "round " << round;
    lazy.run();

    EXPECT_EQ(actual.fired, expected.fired) << "round " << round;
    EXPECT_EQ(lazy.events_processed(), preload.events_processed());
    // Each chain holds one pending entry; follow-ups come on top.
    EXPECT_LE(actual.peak_pending, chains + times.size() / 3 + 1);
  }
}

TEST(ReleaseChainsTest, ArbitratedCellKeepsTheQueueSmall) {
  // A 4-station DCF cell of 50k frames, released station-major (four
  // chains). The lazy feed must reproduce the preloaded on-air timeline
  // exactly while the event queue holds a handful of entries, never the
  // run's frames.
  using Frames =
      std::vector<std::vector<std::pair<std::int64_t, std::uint32_t>>>;
  struct Identity final : RadioListener {
    void on_frame(const mac::Frame&, double) override {}
  };
  struct Cell final : EventHandler {
    explicit Cell(const Frames& frames)
        : frames{frames},
          medium{deterministic_model(), util::Rng{7}},
          arbiter{sim, medium, 1, channel::DcfParams{}, util::Rng{11}},
          stations(frames.size()) {
      arbiter.set_on_air_hook([this](const mac::Frame& frame, Duration,
                                     const RadioListener* tx) {
        const auto* station = static_cast<const Identity*>(tx);
        on_air.emplace_back(frame.timestamp.count_us(),
                            station - stations.data());
        peak_pending = std::max(peak_pending, sim.pending());
      });
    }
    void on_event(std::uint64_t station, std::uint64_t index) override {
      mac::Frame frame;
      frame.channel = 1;
      frame.size_bytes = frames[station][index].second;
      arbiter.enqueue(std::move(frame), Position{}, &stations[station]);
      peak_pending = std::max(peak_pending, sim.pending());
    }
    const Frames& frames;
    Simulator sim;
    Medium medium;
    channel::ChannelArbiter arbiter;
    std::vector<Identity> stations;
    std::vector<std::pair<std::int64_t, std::ptrdiff_t>> on_air;
    std::size_t peak_pending = 0;
  };

  constexpr std::size_t kStations = 4;
  constexpr std::size_t kFramesPerStation = 12'500;
  util::Rng rng{0x50CE11};
  Frames frames(kStations);
  for (auto& station : frames) {
    std::int64_t t = 0;
    for (std::size_t i = 0; i < kFramesPerStation; ++i) {
      t += rng.uniform_int(0, 4000);
      station.emplace_back(
          t, static_cast<std::uint32_t>(rng.uniform_int(60, 1500)));
    }
  }

  Cell preload{frames};
  for (std::size_t s = 0; s < kStations; ++s) {
    for (std::size_t i = 0; i < kFramesPerStation; ++i) {
      preload.sim.schedule_event(
          TimePoint::from_microseconds(frames[s][i].first), preload, s, i);
    }
  }
  preload.sim.run();

  Cell lazy{frames};
  ReleaseChains releases{lazy.sim, lazy};
  for (std::size_t s = 0; s < kStations; ++s) {
    for (std::size_t i = 0; i < kFramesPerStation; ++i) {
      releases.add(TimePoint::from_microseconds(frames[s][i].first), s, i);
    }
  }
  releases.start();
  lazy.sim.run();

  ASSERT_EQ(lazy.on_air.size(), preload.on_air.size());
  EXPECT_TRUE(lazy.on_air == preload.on_air);
  EXPECT_GT(preload.arbiter.totals().collisions, 0u);  // real contention
  EXPECT_EQ(lazy.arbiter.totals().collisions,
            preload.arbiter.totals().collisions);
  EXPECT_GT(preload.peak_pending, kStations * kFramesPerStation / 2);
  EXPECT_LT(lazy.peak_pending, kStations + 8);
}

TEST(ReleaseChainsTest, SequencedPushesAreChecked) {
  Simulator sim;
  ChainProbe probe{sim};
  // A sequence nobody reserved, or one a plain push already took.
  EXPECT_THROW(sim.schedule_event(TimePoint{}, 0, probe),
               std::invalid_argument);
  sim.schedule_event(TimePoint{}, probe, 1);
  const std::uint64_t first = sim.reserve_sequences(2);
  EXPECT_EQ(first, 1u);
  EXPECT_THROW(sim.schedule_event(TimePoint{}, 0, probe),
               std::invalid_argument);
  EXPECT_THROW(sim.schedule_event(TimePoint{}, first + 2, probe),
               std::invalid_argument);
  sim.schedule_event(TimePoint::from_microseconds(10), first + 1, probe, 2);
  sim.run();
  // A reserved sequence cannot reach into the simulated past.
  EXPECT_THROW(sim.schedule_event(TimePoint::from_microseconds(5), first,
                                  probe),
               std::invalid_argument);

  ReleaseChains releases{sim, probe};
  releases.add(TimePoint::from_microseconds(20), 4);
  releases.start();
  EXPECT_THROW(releases.add(TimePoint::from_microseconds(30), 5),
               std::invalid_argument);
  EXPECT_THROW(releases.start(), std::invalid_argument);
}

}  // namespace
}  // namespace reshape::sim
