// Seeded mutation fuzzer for every decoder that reads bytes from another
// process: the shard server's frame header, work order and the three
// engines' range outcomes (runtime/wire.h), and the three sealed
// handshake bodies (net/config_protocol.h).
//
// Each case starts from valid encodings and applies one to three
// mutations — bit flips, byte overwrites, a u64 field forced to an edge
// value, truncations, duplicated slices — then checks:
//   * a wire decoder returns a value or throws util::ByteError, nothing
//     else (no other exception, no crash under the sanitizers);
//   * a net decoder never throws;
//   * every campaign reply that decodes and passes wire::check_reply
//     folds, with an honest neighbour range, into a small campaign engine
//     without throwing — for byte mutants and for mutants edited at the
//     struct level, which reach shapes random bytes rarely keep well
//     formed.
// Deterministic: fixed seeds, fixed iteration counts, no dependencies.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <exception>
#include <limits>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "core/scheduler.h"
#include "core/tuning/tuner.h"
#include "eval/defense_factory.h"
#include "mac/crypto.h"
#include "mac/mac_address.h"
#include "net/config_protocol.h"
#include "runtime/adaptive_campaign.h"
#include "runtime/campaign.h"
#include "runtime/scenario.h"
#include "runtime/wire.h"
#include "util/bytes.h"
#include "util/rng.h"
#include "util/time.h"

namespace {

using namespace reshape;
using Bytes = std::vector<std::uint8_t>;

constexpr std::array<std::uint64_t, 6> kEdgeValues = {
    0,
    1,
    std::uint64_t{1} << 32,
    std::uint64_t{1} << 61,
    static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()),
    std::numeric_limits<std::uint64_t>::max()};

std::size_t pick(util::Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

/// One to three random mutations of `bytes`.
Bytes mutate(Bytes bytes, util::Rng& rng) {
  const std::size_t rounds = 1 + pick(rng, 3);
  for (std::size_t round = 0; round < rounds && !bytes.empty(); ++round) {
    switch (pick(rng, 5)) {
      case 0:  // bit flip
        bytes[pick(rng, bytes.size())] ^=
            static_cast<std::uint8_t>(1u << pick(rng, 8));
        break;
      case 1:  // byte overwrite
        bytes[pick(rng, bytes.size())] =
            static_cast<std::uint8_t>(pick(rng, 256));
        break;
      case 2: {  // a u64 field forced to an edge value
        if (bytes.size() < 8) {
          break;
        }
        const std::size_t at = pick(rng, bytes.size() - 7);
        const std::uint64_t v = kEdgeValues[pick(rng, kEdgeValues.size())];
        for (std::size_t i = 0; i < 8; ++i) {
          bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
        }
        break;
      }
      case 3:  // truncation
        bytes.resize(pick(rng, bytes.size()));
        break;
      default: {  // a duplicated slice
        const std::size_t begin = pick(rng, bytes.size());
        const std::size_t end =
            begin + 1 + pick(rng, std::min<std::size_t>(64, bytes.size() -
                                                               begin));
        const Bytes slice(bytes.begin() + static_cast<std::ptrdiff_t>(begin),
                          bytes.begin() + static_cast<std::ptrdiff_t>(end));
        const std::size_t at = pick(rng, bytes.size() + 1);
        bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                     slice.begin(), slice.end());
        break;
      }
    }
  }
  return bytes;
}

/// Outcome tally of one fuzzed decoder.
struct Tally {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
};

/// Runs `decode` over `iterations` mutants of `seeds`; any exception but
/// util::ByteError fails the test.
template <typename Decode>
Tally fuzz_wire(const std::vector<Bytes>& seeds, std::uint64_t seed,
                std::size_t iterations, const char* what,
                const Decode& decode) {
  util::Rng rng{seed};
  Tally tally;
  for (std::size_t i = 0; i < iterations; ++i) {
    const Bytes input = mutate(seeds[i % seeds.size()], rng);
    try {
      decode(std::span<const std::uint8_t>{input});
      ++tally.accepted;
    } catch (const util::ByteError&) {
      ++tally.rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << " iteration " << i
                    << " threw a non-codec error: " << e.what();
      return tally;
    }
  }
  return tally;
}

obs::TelemetryConfig telemetry() {
  obs::TelemetryConfig config;
  config.metrics = true;
  config.windowed = true;
  config.privacy = true;
  return config;
}

runtime::CampaignSpec campaign_spec() {
  runtime::CampaignSpec spec;
  spec.seed = 4242;
  spec.training.seed = 777;
  spec.training.train_sessions_per_app = 2;
  spec.training.train_session_duration = util::Duration::seconds(30.0);
  spec.training.test_sessions_per_app = 1;
  spec.training.test_session_duration = util::Duration::seconds(30.0);
  spec.defenses.push_back(
      {"OR", eval::reshaping_factory(core::SchedulerKind::kOrthogonal, 3)});
  spec.scenarios.push_back(
      runtime::multi_app_station(1, util::Duration::seconds(30.0)));
  spec.shards = 2;
  return spec;
}

TEST(WireFuzzTest, FrameHeader) {
  std::vector<Bytes> seeds;
  for (const runtime::wire::FrameType type :
       {runtime::wire::FrameType::kWorkOrder, runtime::wire::FrameType::kRange,
        runtime::wire::FrameType::kShutdown,
        runtime::wire::FrameType::kError}) {
    seeds.push_back(runtime::wire::encode_frame(type, Bytes{1, 2, 3}));
  }
  const Tally tally = fuzz_wire(
      seeds, 0xF4A3E, 20000, "frame header",
      [](std::span<const std::uint8_t> b) {
        (void)runtime::wire::decode_frame_header(b);
      });
  EXPECT_GT(tally.accepted, 0u);
  EXPECT_GT(tally.rejected, 0u);
}

TEST(WireFuzzTest, WorkOrder) {
  runtime::wire::WorkOrder order;
  order.job = "campaign";
  order.begin = 3;
  order.end = 9;
  order.threads = 2;
  order.telemetry = obs::TelemetryConfig::enabled();
  const Tally tally = fuzz_wire(
      {runtime::wire::encode_work_order(order),
       runtime::wire::encode_work_order(runtime::wire::WorkOrder{})},
      0x0D3E, 20000, "work order", [](std::span<const std::uint8_t> b) {
        (void)runtime::wire::decode_work_order(b);
      });
  EXPECT_GT(tally.accepted, 0u);
  EXPECT_GT(tally.rejected, 0u);
}

TEST(WireFuzzTest, AdaptiveAndTuningRanges) {
  runtime::AdaptiveCampaignSpec adaptive_spec;
  adaptive_spec.seed = 0xADA;
  adaptive_spec.bootstrap.seed = 777;
  adaptive_spec.bootstrap.train_sessions_per_app = 2;
  adaptive_spec.bootstrap.train_session_duration =
      util::Duration::seconds(30.0);
  adaptive_spec.attacker.cadence = util::Duration::seconds(10.0);
  adaptive_spec.defenses.push_back(
      {"OR", eval::reshaping_factory(core::SchedulerKind::kOrthogonal, 3)});
  adaptive_spec.scenarios.push_back(
      runtime::multi_app_station(1, util::Duration::seconds(30.0)));
  runtime::AdaptiveCampaignEngine adaptive{adaptive_spec};
  adaptive.set_telemetry(telemetry());
  const Tally adaptive_tally = fuzz_wire(
      {runtime::wire::encode_range(adaptive.run_range(0, 1, 1)),
       runtime::wire::encode_range(runtime::AdaptiveRangeOutcome{})},
      0xADA7, 3000, "adaptive range", [](std::span<const std::uint8_t> b) {
        (void)runtime::wire::decode_range<runtime::AdaptiveRangeOutcome>(b);
      });
  EXPECT_GT(adaptive_tally.accepted, 0u);

  core::tuning::TunerSpec tuning_spec;
  tuning_spec.seed = 0x7C7E5;
  tuning_spec.bootstrap.seed = 20110620;
  tuning_spec.bootstrap.train_sessions_per_app = 2;
  tuning_spec.bootstrap.train_session_duration = util::Duration::seconds(30.0);
  tuning_spec.attacker.cadence = util::Duration::seconds(10.0);
  tuning_spec.scenario =
      runtime::tuned_vs_table5(2, util::Duration::seconds(30.0));
  tuning_spec.streaming.bitrate_mbps = 24.0;
  tuning_spec.shards = 1;
  tuning_spec.space.interleaved_fine_partitions = false;
  tuning_spec.space.padded_compositions = false;
  core::tuning::ParameterTuner tuner{tuning_spec};
  tuner.set_telemetry(telemetry());
  const Tally tuning_tally = fuzz_wire(
      {runtime::wire::encode_range(tuner.run_range(0, 1, 1)),
       runtime::wire::encode_range(core::tuning::TuningRangeOutcome{})},
      0x7C7E, 1500, "tuning range", [](std::span<const std::uint8_t> b) {
        (void)runtime::wire::decode_range<core::tuning::TuningRangeOutcome>(
            b);
      });
  EXPECT_GT(tuning_tally.accepted, 0u);
}

/// A two-cell campaign engine and its two honest range replies: the
/// reply check's property is that every reply it accepts folds.
class CampaignFoldTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_.set_telemetry(telemetry());
    ASSERT_EQ(engine_.cell_count(), 2u);
    for (std::size_t r = 0; r < 2; ++r) {
      honest_[r] = engine_.run_range(r, r + 1, 1);
      orders_[r].begin = r;
      orders_[r].end = r + 1;
      orders_[r].telemetry = engine_.telemetry_config();
    }
  }

  /// Offers `bytes` as the reply to range `r`. Returns false when decode
  /// or the reply check rejects it; an accepted reply must fold with the
  /// honest other range. Any other exception fails the test.
  bool offer(std::size_t r, const Bytes& bytes, std::size_t iteration) {
    runtime::CampaignRangeOutcome reply;
    try {
      reply = runtime::wire::decode_campaign_range(bytes);
      runtime::wire::check_reply(reply, orders_[r]);
    } catch (const util::ByteError&) {
      return false;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "iteration " << iteration
                    << " threw a non-codec error: " << e.what();
      return false;
    }
    std::vector<runtime::CampaignRangeOutcome> ranges(2);
    ranges[r] = std::move(reply);
    ranges[1 - r] = honest_[1 - r];
    try {
      (void)engine_.fold(std::move(ranges)).to_json();
      (void)engine_.telemetry_to_json();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "iteration " << iteration
                    << ": an accepted reply did not fold: " << e.what();
    }
    return true;
  }

  runtime::CampaignEngine engine_{campaign_spec()};
  std::array<runtime::CampaignRangeOutcome, 2> honest_;
  std::array<runtime::wire::WorkOrder, 2> orders_;
};

TEST_F(CampaignFoldTest, ByteMutantsThatDecodeFold) {
  const std::array<Bytes, 2> seeds = {
      runtime::wire::encode_campaign_range(honest_[0]),
      runtime::wire::encode_campaign_range(honest_[1])};
  util::Rng rng{0xF01D};
  std::size_t accepted = 0;
  constexpr std::size_t kIterations = 6000;
  for (std::size_t i = 0; i < kIterations && !HasFailure(); ++i) {
    const std::size_t r = i % 2;  // which range the mutant answers
    accepted += offer(r, mutate(seeds[r], rng), i) ? 1 : 0;
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, kIterations);
}

TEST_F(CampaignFoldTest, StructuralMutantsThatPassTheCheckFold) {
  // Random bytes rarely keep a payload well formed while changing its
  // shape, so these mutants edit the decoded reply instead: confusion
  // class counts, histogram buckets, series order, window points and
  // the window length — each legal or not at random.
  util::Rng rng{0x5EED};
  std::size_t accepted = 0;
  constexpr std::size_t kIterations = 1500;
  for (std::size_t i = 0; i < kIterations && !HasFailure(); ++i) {
    const std::size_t r = i % 2;
    runtime::CampaignRangeOutcome reply = honest_[r];
    std::vector<obs::SeriesSnapshot>& metrics = reply.metrics.series;
    std::vector<obs::SeriesWindows>& windows = reply.windows.series;
    switch (pick(rng, 5)) {
      case 0:
        reply.cells.front().evaluation.confusion =
            ml::ConfusionMatrix{static_cast<int>(1 + pick(rng, 9))};
        break;
      case 1: {
        obs::SeriesSnapshot& series = metrics[pick(rng, metrics.size())];
        series.kind = obs::MetricKind::kHistogram;
        series.histogram.upper_bounds.assign(pick(rng, 3), 1.0);
        std::iota(series.histogram.upper_bounds.begin(),
                  series.histogram.upper_bounds.end(), 1.0);
        series.histogram.counts.assign(pick(rng, 4), 1);
        break;
      }
      case 2:
        std::swap(metrics[pick(rng, metrics.size())],
                  metrics[pick(rng, metrics.size())]);
        std::swap(windows[pick(rng, windows.size())],
                  windows[pick(rng, windows.size())]);
        break;
      case 3: {
        std::vector<obs::WindowPoint>& points =
            windows[pick(rng, windows.size())].points;
        points[pick(rng, points.size())].window =
            points[pick(rng, points.size())].window;
        break;
      }
      default:
        reply.windows.window_us += static_cast<std::int64_t>(pick(rng, 2));
        break;
    }
    accepted +=
        offer(r, runtime::wire::encode_campaign_range(reply), i) ? 1 : 0;
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, kIterations);
}

/// The plaintext body inside a sealed handshake payload.
Bytes body_of(const Bytes& payload, const mac::StreamCipher& cipher) {
  util::ByteReader r{payload};
  const std::uint64_t nonce = r.u64();
  const std::span<const std::uint8_t> ct = r.bytes(r.remaining());
  return cipher.decrypt(Bytes(ct.begin(), ct.end()), nonce).value();
}

Bytes seal(const Bytes& body, const mac::StreamCipher& cipher,
           std::uint64_t nonce) {
  util::ByteWriter payload;
  payload.u64(nonce);
  payload.bytes(cipher.encrypt(body, nonce));
  return payload.take();
}

TEST(WireFuzzTest, HandshakeDecodersNeverThrow) {
  const mac::StreamCipher cipher{mac::SymmetricKey{0xC0FFEE, 0xFACADE}};
  constexpr std::uint64_t kNonce = 77;

  net::ConfigRequest request;
  request.physical_address = mac::MacAddress::from_u64(0x02AABBCCDDEEULL);
  request.nonce = 5;
  request.requested_interfaces = 3;
  net::ConfigResponse response;
  response.nonce = 5;
  net::TunedConfigUpdate update;
  update.nonce = 9;
  update.config = core::tuning::TunedConfiguration::identity(
      "fuzz", core::SizeRanges::paper_l5());
  update.config.pad_to[1] = update.config.range_bounds[1];
  for (std::size_t i = 0; i < update.config.interfaces; ++i) {
    response.virtual_addresses.push_back(
        mac::MacAddress::from_u64(0x020000000000ULL + i));
    update.virtual_addresses.push_back(
        mac::MacAddress::from_u64(0x020000000100ULL + i));
  }
  const std::vector<Bytes> payloads = {
      net::encode_request(request, cipher, kNonce),
      net::encode_response(response, cipher, kNonce),
      net::encode_tuned_config(update, cipher, kNonce)};

  util::Rng rng{0x4A5D};
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < 30000; ++i) {
    const Bytes& payload = payloads[i % payloads.size()];
    // Mostly mutate the plaintext and re-seal it with the right key, so
    // the mutant reaches the parser; sometimes mutate the sealed bytes.
    const Bytes input = i % 4 == 3
                            ? mutate(payload, rng)
                            : seal(mutate(body_of(payload, cipher), rng),
                                   cipher, kNonce);
    try {
      accepted += net::decode_request(input, cipher).has_value() ? 1 : 0;
      accepted += net::decode_response(input, cipher).has_value() ? 1 : 0;
      accepted += net::decode_tuned_config(input, cipher).has_value() ? 1 : 0;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "iteration " << i << ": a handshake decoder threw "
                    << e.what();
      return;
    }
  }
  EXPECT_GT(accepted, 0u);
}

}  // namespace
