// Golden-equivalence guards for the hot-path data-layout refactor.
//
// The feature pipeline replaced a slice-per-window loop with a
// single-pass batch extractor and a streaming per-arrival accumulator.
// These tests pin the refactor's core promise: on every registry
// scenario, all three paths produce bit-for-bit identical doubles — the
// same util::RunningStats add sequence, the same values, no "close
// enough" tolerance. A drift of one ULP anywhere in the window math
// would change classifier inputs and silently fork every report golden.
//
// Also here: a ChannelArbiter attribution regression (per-station
// ChannelStats must match an on-air-hook tally keyed by transmitter
// identity — the dense station index must never cross wires between
// stations).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "features/features.h"
#include "mac/frame.h"
#include "runtime/scenario.h"
#include "sim/channel/channel_arbiter.h"
#include "sim/medium.h"
#include "sim/simulator.h"
#include "traffic/trace.h"
#include "util/rng.h"
#include "util/time.h"

namespace reshape {
namespace {

using util::Duration;
using util::TimePoint;

// ------------------------------------------- feature-path equivalence ---

/// The seed's original implementation, verbatim: cut consecutive windows
/// by repeated time slicing and extract each window independently. This
/// is the reference every optimised path must reproduce exactly.
std::vector<features::WindowFeatures> reference_windows(
    const traffic::Trace& trace, Duration w, std::size_t min_packets) {
  std::vector<features::WindowFeatures> out;
  if (trace.empty()) {
    return out;
  }
  const TimePoint start = trace.start_time();
  const TimePoint end = trace.end_time();
  for (TimePoint t0 = start; t0 <= end; t0 += w) {
    const traffic::TraceView window = trace.slice(t0, t0 + w);
    if (window.size() < min_packets) {
      continue;
    }
    if (auto f = features::extract_window(window)) {
      out.push_back(*f);
    }
  }
  return out;
}

/// The streaming path: one push per record, boundary emissions collected
/// in arrival order, finish() flushing the tail window.
std::vector<features::WindowFeatures> incremental_windows(
    traffic::TraceView records, Duration w, std::size_t min_packets) {
  features::IncrementalWindowExtractor extractor{w, min_packets};
  std::vector<features::WindowFeatures> out;
  for (const traffic::PacketRecord& r : records) {
    if (auto f = extractor.push(r)) {
      out.push_back(*f);
    }
  }
  if (auto f = extractor.finish()) {
    out.push_back(*f);
  }
  return out;
}
std::vector<features::WindowFeatures> incremental_windows(
    const traffic::Trace& trace, Duration w, std::size_t min_packets) {
  return incremental_windows(trace.records(), w, min_packets);
}

void expect_bit_identical(const std::vector<features::WindowFeatures>& got,
                          const std::vector<features::WindowFeatures>& want,
                          const char* path, const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << path << ": " << context;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const std::vector<double> g = got[i].to_vector();
    const std::vector<double> e = want[i].to_vector();
    ASSERT_EQ(g.size(), e.size());
    for (std::size_t k = 0; k < g.size(); ++k) {
      // EXPECT_EQ, not EXPECT_DOUBLE_EQ: the contract is the same double,
      // not a nearby one.
      EXPECT_EQ(g[k], e[k]) << path << ": " << context << " window " << i
                            << " feature " << k << " ("
                            << features::WindowFeatures::names()[k] << ")";
    }
  }
}

TEST(FeaturePathEquivalenceTest, AllRegistryScenariosBitIdentical) {
  runtime::ScenarioRegistry& registry = runtime::ScenarioRegistry::global();
  const Duration w = Duration::seconds(5.0);
  constexpr std::size_t kMinPackets = 2;

  util::Rng root{20110621};
  std::size_t scenario_index = 0;
  std::size_t flows_checked = 0;
  for (const std::string& name : registry.names()) {
    util::Rng cell_rng = root.fork(scenario_index++);
    const std::vector<traffic::Trace> sessions =
        registry.at(name).generate(cell_rng);
    ASSERT_FALSE(sessions.empty()) << name;
    for (std::size_t s = 0; s < sessions.size(); ++s) {
      const traffic::Trace& trace = sessions[s];
      const std::string context =
          name + " session " + std::to_string(s);
      const std::vector<features::WindowFeatures> want =
          reference_windows(trace, w, kMinPackets);
      expect_bit_identical(
          features::extract_all_windows(trace, w, kMinPackets), want,
          "extract_all_windows", context);
      expect_bit_identical(incremental_windows(trace, w, kMinPackets), want,
                           "IncrementalWindowExtractor", context);
      ++flows_checked;
      if (::testing::Test::HasFailure()) {
        return;  // one broken flow is enough diagnosis; don't spam 10k more
      }
    }
  }
  // The registry holds the 10k-station scenario, so this is not a toy
  // corpus: the sweep must actually have covered thousands of flows.
  EXPECT_GT(flows_checked, 10000u);
}

TEST(FeaturePathEquivalenceTest, WindowBoundaryRecordsAgree) {
  // Records landing exactly on window boundaries are where an off-by-one
  // between "slice [t0, t0+w)" and "boundary crossing" would hide.
  const Duration w = Duration::seconds(1.0);
  traffic::Trace trace{traffic::AppType::kBrowsing};
  for (int i = 0; i < 12; ++i) {
    // Two records per second: one exactly on the boundary, one inside.
    trace.push_back(TimePoint::from_seconds(i * 0.5), 400 + i,
                    i % 2 == 0 ? mac::Direction::kUplink
                               : mac::Direction::kDownlink);
  }
  const std::vector<features::WindowFeatures> want =
      reference_windows(trace, w, 1);
  expect_bit_identical(features::extract_all_windows(trace, w, 1), want,
                       "extract_all_windows", "boundary trace");
  expect_bit_identical(incremental_windows(trace, w, 1), want,
                       "IncrementalWindowExtractor", "boundary trace");
}

// ------------------------------------------ batched window scan edges ---
// extract_all_windows cuts windows with one division per window and a
// compare-only scan; the per-record IncrementalWindowExtractor is its
// oracle. Every case runs at min_packets 0..3.

traffic::Trace trace_at(const std::vector<double>& seconds) {
  traffic::Trace trace{traffic::AppType::kGaming};
  for (std::size_t i = 0; i < seconds.size(); ++i) {
    trace.push_back(TimePoint::from_seconds(seconds[i]),
                    static_cast<std::uint32_t>(60 + 37 * i % 1400),
                    i % 3 == 0 ? mac::Direction::kUplink
                               : mac::Direction::kDownlink);
  }
  return trace;
}

void expect_batched_matches_incremental(traffic::TraceView records,
                                        Duration w,
                                        const std::string& context) {
  for (std::size_t min_packets = 0; min_packets <= 3; ++min_packets) {
    expect_bit_identical(
        features::extract_all_windows(records, w, min_packets),
        incremental_windows(records, w, min_packets), "extract_all_windows",
        context + " min_packets " + std::to_string(min_packets));
  }
}

TEST(BatchedWindowScanTest, GapsSkippingSeveralEmptyWindows) {
  const traffic::Trace trace =
      trace_at({0.1, 0.2, 0.9, 3.7, 3.9, 9.0, 9.05, 9.5, 9.999999, 10.0,
                25.0, 41.3, 41.4});
  expect_batched_matches_incremental(trace.view(), Duration::seconds(1.0),
                                     "multi-window gaps");
  // A window that opens exactly one window length after a skipped run.
  expect_batched_matches_incremental(trace.view(), Duration::seconds(0.5),
                                     "half-second windows");
}

TEST(BatchedWindowScanTest, IdleGapInsideOneWindow) {
  // A 7 s silence (longer than kIdleGapFilter) inside a 20 s window: the
  // gap is dropped from the interarrival statistics, not the window.
  ASSERT_GT(Duration::seconds(7.0), features::kIdleGapFilter);
  const traffic::Trace trace =
      trace_at({0.0, 0.4, 1.0, 8.0, 8.2, 8.3, 15.5, 19.9, 20.0, 26.0});
  expect_batched_matches_incremental(trace.view(), Duration::seconds(20.0),
                                     "idle gap");
}

TEST(BatchedWindowScanTest, SingleRecordTrace) {
  const traffic::Trace trace = trace_at({3.25});
  expect_batched_matches_incremental(trace.view(), Duration::seconds(5.0),
                                     "single record");
  EXPECT_EQ(features::extract_all_windows(trace, Duration::seconds(5.0), 1)
                .size(),
            1u);
  EXPECT_TRUE(
      features::extract_all_windows(trace, Duration::seconds(5.0), 2)
          .empty());
}

TEST(BatchedWindowScanTest, TraceNotStartingAtZero) {
  // Windows align to the first record, not to t = 0.
  const traffic::Trace trace =
      trace_at({1234.567, 1234.9, 1235.566999, 1235.567, 1235.6, 1240.0,
                1240.1, 1249.567, 1249.568});
  expect_batched_matches_incremental(trace.view(), Duration::seconds(1.0),
                                     "offset start");
  expect_batched_matches_incremental(trace.view(), Duration::seconds(5.0),
                                     "offset start, W=5");
}

TEST(BatchedWindowScanTest, EpochSubSlicesOfARandomTrace) {
  // Bursty trace with duplicate timestamps, records on window boundaries
  // and long idle stretches; cut into epochs that do not align with the
  // windows (as the adaptive loop's epoch slices do).
  util::Rng rng{20111108};
  traffic::Trace trace{traffic::AppType::kVideo};
  double t = 17.0;
  for (int i = 0; i < 4000; ++i) {
    const double u = rng.uniform01();
    if (u < 0.05) {
      t += 0.0;  // duplicate timestamp
    } else if (u < 0.1) {
      t = std::floor(t) + 1.0;  // lands on a whole second
    } else if (u < 0.12) {
      t += rng.uniform_real(6.0, 40.0);  // idle stretch, skips windows
    } else {
      t += rng.uniform_real(0.0, 0.2);
    }
    trace.push_back(TimePoint::from_seconds(t),
                    static_cast<std::uint32_t>(rng.uniform_int(40, 1500)),
                    rng.bernoulli(0.6) ? mac::Direction::kDownlink
                                       : mac::Direction::kUplink);
  }
  for (const double w : {0.25, 1.0, 5.0, 60.0}) {
    const Duration window = Duration::seconds(w);
    const std::string tag = "W=" + std::to_string(w);
    expect_batched_matches_incremental(trace.view(), window, tag);
    for (double e0 = 17.0; e0 < t; e0 += 37.3) {
      const traffic::TraceView epoch = trace.slice(
          TimePoint::from_seconds(e0), TimePoint::from_seconds(e0 + 37.3));
      expect_batched_matches_incremental(
          epoch, window, tag + " epoch at " + std::to_string(e0));
    }
    for (std::size_t offset = 0; offset < trace.size(); offset += 613) {
      expect_batched_matches_incremental(
          trace.view().subview(offset, std::min<std::size_t>(
                                           500, trace.size() - offset)),
          window, tag + " subview at " + std::to_string(offset));
    }
    if (::testing::Test::HasFailure()) {
      return;
    }
  }
}

// --------------------------------------------- add_span equivalence ---

TEST(AddSpanEquivalenceTest, RunningStatsBatchedAddIsBitIdentical) {
  // add_span keeps the Welford state in registers and unrolls the loop,
  // but its contract is the exact sequential add order — every accessor
  // must return the same double, not a nearby one. Exercise awkward
  // lengths (0, 1, partial unroll tails, large) and adversarial values.
  util::Rng rng{20110623};
  for (const std::size_t n : {0u, 1u, 2u, 3u, 7u, 8u, 9u, 63u, 1000u}) {
    std::vector<double> values;
    values.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Mix magnitudes so Welford's cancellation behaviour is exercised:
      // tiny deltas against a large running mean.
      const double v = rng.uniform_real(-1.0, 1.0) * (i % 3 == 0 ? 1e9 : 1e-3);
      values.push_back(v);
    }
    util::RunningStats scalar;
    for (const double v : values) {
      scalar.add(v);
    }
    util::RunningStats batched;
    batched.add_span(values);

    EXPECT_EQ(batched.count(), scalar.count()) << "n=" << n;
    EXPECT_EQ(batched.mean(), scalar.mean()) << "n=" << n;
    EXPECT_EQ(batched.variance(), scalar.variance()) << "n=" << n;
    EXPECT_EQ(batched.sample_variance(), scalar.sample_variance())
        << "n=" << n;
    EXPECT_EQ(batched.min(), scalar.min()) << "n=" << n;
    EXPECT_EQ(batched.max(), scalar.max()) << "n=" << n;
    EXPECT_EQ(batched.sum(), scalar.sum()) << "n=" << n;

    // Split at every point: add_span must also compose with a warm
    // accumulator (the column sweep feeds it in small batches).
    for (std::size_t split = 0; split <= n; split += (n > 16 ? 7 : 1)) {
      util::RunningStats pieces;
      pieces.add_span(std::span{values}.first(split));
      pieces.add_span(std::span{values}.subspan(split));
      EXPECT_EQ(pieces.mean(), scalar.mean()) << "n=" << n << " @" << split;
      EXPECT_EQ(pieces.variance(), scalar.variance())
          << "n=" << n << " @" << split;
    }
  }
}

TEST(AddSpanEquivalenceTest, DirectionAccumulatorColumnSweepIsBitIdentical) {
  // The batched column sweep filters by direction and idle-gap inside
  // add_span; it must land on the same accumulator state as the scalar
  // per-record add() path, including the previous-timestamp carry.
  using Accumulator = features::IncrementalWindowExtractor::DirectionAccumulator;
  util::Rng rng{20110624};
  std::vector<std::int64_t> times_us;
  std::vector<std::uint32_t> sizes_bytes;
  std::vector<mac::Direction> directions;
  std::int64_t t = 0;
  for (std::size_t i = 0; i < 4096; ++i) {
    // Gaps spanning the idle-filter threshold in both directions, sizes
    // across the frame range, direction mix biased so runs of one
    // direction occur (the carry crosses non-matching records).
    t += static_cast<std::int64_t>(rng.uniform_real(0.0, 3e6));
    times_us.push_back(t);
    sizes_bytes.push_back(
        static_cast<std::uint32_t>(rng.uniform_real(40.0, 1576.0)));
    directions.push_back(rng.uniform_real(0.0, 1.0) < 0.7
                             ? mac::Direction::kDownlink
                             : mac::Direction::kUplink);
  }

  for (const mac::Direction dir :
       {mac::Direction::kDownlink, mac::Direction::kUplink}) {
    Accumulator scalar;
    for (std::size_t i = 0; i < times_us.size(); ++i) {
      if (directions[i] == dir) {
        scalar.add(times_us[i], sizes_bytes[i]);
      }
    }
    Accumulator batched;
    batched.add_span(times_us, sizes_bytes, directions, dir);

    const auto scalar_features = scalar.features().to_array();
    const auto batched_features = batched.features().to_array();
    for (std::size_t k = 0; k < scalar_features.size(); ++k) {
      EXPECT_EQ(batched_features[k], scalar_features[k])
          << "direction " << static_cast<int>(dir) << " feature " << k;
    }
    EXPECT_EQ(batched.sizes.count(), scalar.sizes.count());
    EXPECT_EQ(batched.gaps.count(), scalar.gaps.count());
  }
}

// ------------------------------------------ arbiter stats attribution ---

TEST(ChannelStatsRegressionTest, PerStationStatsMatchOnAirTally) {
  // Many stations, heavy contention, distinct per-station frame sizes.
  // Every on-air notification is tallied by transmitter identity; the
  // arbiter's per-station ChannelStats must agree with that independent
  // ledger exactly. A dense-index mix-up (stats credited to the wrong
  // station slot) cannot survive this.
  sim::Simulator simulator;
  sim::PathLossModel quiet;
  quiet.shadowing_sigma_db = 0.0;
  sim::Medium medium{quiet, util::Rng{1}};
  sim::channel::DcfParams params;
  params.bitrate_mbps = 12.0;
  sim::channel::ChannelArbiter arbiter{simulator, medium, 1, params,
                                       util::Rng{20110622}};

  struct Identity final : sim::RadioListener {
    void on_frame(const mac::Frame&, double) override {}
  };
  constexpr std::size_t kStations = 12;
  std::vector<Identity> stations(kStations);

  struct Tally {
    std::uint64_t frames = 0;
    Duration airtime;
    Duration access_delay;
  };
  std::map<const sim::RadioListener*, Tally> on_air;
  std::uint64_t dropped = 0;
  arbiter.set_on_air_hook([&](const mac::Frame& f, Duration delay,
                              const sim::RadioListener* tx) {
    Tally& t = on_air[tx];
    ++t.frames;
    t.airtime += mac::airtime(f.size_bytes, params.bitrate_mbps);
    t.access_delay += delay;
  });
  arbiter.set_drop_hook(
      [&](const mac::Frame&, const sim::RadioListener*) { ++dropped; });

  constexpr int kRounds = 30;
  std::uint64_t enqueued = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t s = 0; s < kStations; ++s) {
      // All stations offer in the same slot every round: contention on
      // every access. Size encodes the station, so a frame credited to
      // the wrong slot also carries the wrong airtime.
      mac::Frame f;
      f.type = mac::FrameType::kData;
      f.subtype = mac::FrameSubtype::kQosData;
      f.size_bytes = static_cast<std::uint32_t>(200 + 100 * s);
      f.channel = 1;
      simulator.schedule_at(TimePoint::from_microseconds(round * 500),
                            [&arbiter, f, &stations, s] {
                              arbiter.enqueue(f, sim::Position{}, &stations[s]);
                            });
      ++enqueued;
    }
  }
  simulator.run();

  ASSERT_EQ(arbiter.station_count(), kStations);
  ASSERT_EQ(arbiter.pending(), 0u);
  std::uint64_t sent_total = 0;
  for (std::size_t s = 0; s < kStations; ++s) {
    const sim::channel::ChannelStats* stats = arbiter.stats_of(&stations[s]);
    ASSERT_NE(stats, nullptr) << "station " << s;
    const Tally& tally = on_air[&stations[s]];
    EXPECT_EQ(stats->frames_sent, tally.frames) << "station " << s;
    EXPECT_EQ(stats->airtime, tally.airtime) << "station " << s;
    EXPECT_EQ(stats->total_access_delay, tally.access_delay)
        << "station " << s;
    sent_total += stats->frames_sent;
  }
  const sim::channel::ChannelStats totals = arbiter.totals();
  EXPECT_EQ(totals.frames_sent, sent_total);
  EXPECT_EQ(totals.frames_sent, arbiter.frames_on_air());
  EXPECT_EQ(totals.frames_sent + totals.frames_dropped, enqueued);
  EXPECT_EQ(totals.frames_dropped, dropped);
}

}  // namespace
}  // namespace reshape
