// Cross-cutting property sweeps over the substrate modules: randomized
// inputs checked against reference implementations or algebraic
// invariants. These complement the per-module unit tests with breadth.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "mac/crypto.h"
#include "sim/event_queue.h"
#include "util/distribution.h"
#include "util/rng.h"
#include "util/stats.h"

namespace reshape {
namespace {

// ----------------------------------------------------- crypto sweep ---

class CipherSweepTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CipherSweepTest, RoundTripsAtEverySize) {
  const std::size_t size = GetParam();
  util::Rng rng{size * 7919 + 1};
  const mac::SymmetricKey key{rng.next_u64(), rng.next_u64()};
  const mac::StreamCipher cipher{key};
  std::vector<std::uint8_t> message(size);
  for (auto& b : message) {
    b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  const std::uint64_t nonce = rng.next_u64();
  const auto ct = cipher.encrypt(message, nonce);
  EXPECT_EQ(ct.size(), size + 8);
  const auto pt = cipher.decrypt(ct, nonce);
  ASSERT_TRUE(pt.has_value());
  EXPECT_EQ(*pt, message);
}

TEST_P(CipherSweepTest, EveryBitFlipIsDetected) {
  // Exhaustive over every bit for small ciphertexts; a seeded random
  // sample of bit positions for large ones, so big frames get the same
  // tamper-detection coverage without a quadratic test bill. (size == 0
  // exercises tag-only ciphertexts: all 64 tag bits are checked.)
  const std::size_t size = GetParam();
  util::Rng rng{size * 104729 + 3};
  const mac::SymmetricKey key{rng.next_u64(), rng.next_u64()};
  const mac::StreamCipher cipher{key};
  std::vector<std::uint8_t> message(size, 0xA5);
  const auto ct = cipher.encrypt(message, 9);

  const std::size_t total_bits = ct.size() * 8;
  std::vector<std::size_t> positions;
  if (total_bits <= 1024) {
    positions.resize(total_bits);
    std::iota(positions.begin(), positions.end(), std::size_t{0});
  } else {
    util::Rng sampler{size * 7 + 1};
    positions.reserve(256);
    for (int i = 0; i < 256; ++i) {
      positions.push_back(static_cast<std::size_t>(sampler.uniform_int(
          0, static_cast<std::int64_t>(total_bits) - 1)));
    }
    // The tag bytes are the smallest target — always cover them too.
    for (std::size_t bit = 0; bit < 64; ++bit) {
      positions.push_back(total_bits - 64 + bit);
    }
  }
  for (const std::size_t pos : positions) {
    auto tampered = ct;
    tampered[pos / 8] ^= static_cast<std::uint8_t>(1u << (pos % 8));
    EXPECT_FALSE(cipher.decrypt(tampered, 9).has_value())
        << "undetected flip at bit " << pos;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CipherSweepTest,
                         ::testing::Values(0, 1, 7, 8, 9, 16, 33, 64, 255,
                                           1024, 4096));

// ------------------------------------------------- event-queue sweep ---

TEST(EventQueueStressTest, MatchesStableSortReference) {
  util::Rng rng{0xE0E0};
  sim::EventQueue queue;
  struct Ref {
    std::int64_t time_us;
    std::size_t sequence;
  };
  std::vector<Ref> reference;
  std::vector<std::size_t> popped;
  for (std::size_t i = 0; i < 5000; ++i) {
    const std::int64_t t = rng.uniform_int(0, 50);  // many ties
    queue.push(util::TimePoint::from_microseconds(t),
               [&popped, i] { popped.push_back(i); });
    reference.push_back(Ref{t, i});
  }
  std::stable_sort(reference.begin(), reference.end(),
                   [](const Ref& a, const Ref& b) {
                     return a.time_us < b.time_us;
                   });
  while (!queue.empty()) {
    queue.dispatch_next();
  }
  ASSERT_EQ(popped.size(), reference.size());
  for (std::size_t i = 0; i < popped.size(); ++i) {
    EXPECT_EQ(popped[i], reference[i].sequence) << "at index " << i;
  }
}

TEST(EventQueueStressTest, InterleavedPushPop) {
  util::Rng rng{0xE0E1};
  sim::EventQueue queue;
  util::TimePoint last_popped;
  int executed = 0;
  // Pops must be monotone even with pushes interleaved, as long as pushes
  // are never in the popped past (the simulator's contract).
  for (int round = 0; round < 200; ++round) {
    const int pushes = static_cast<int>(rng.uniform_int(1, 5));
    for (int p = 0; p < pushes; ++p) {
      const auto t = last_popped +
                     util::Duration::microseconds(rng.uniform_int(0, 100));
      queue.push(t, [] {});
    }
    const int pops = static_cast<int>(
        rng.uniform_int(1, std::min<std::int64_t>(
                               3, static_cast<std::int64_t>(queue.size()))));
    for (int p = 0; p < pops && !queue.empty(); ++p) {
      const auto t = queue.next_time();
      EXPECT_GE(t, last_popped);
      last_popped = t;
      queue.dispatch_next();
      ++executed;
    }
  }
  EXPECT_GT(executed, 0);
}

// ----------------------------------------------- distribution sweep ---

class DistributionSweepTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(DistributionSweepTest, CdfIsMonotoneAndQuantileInverts) {
  util::Rng rng{GetParam()};
  std::vector<double> samples;
  for (int i = 0; i < 500; ++i) {
    samples.push_back(rng.lognormal(2.0, 1.0));
  }
  const util::EmpiricalDistribution dist{samples};
  double previous = -1.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double x = dist.quantile(q);
    EXPECT_GE(x, previous);
    previous = x;
    // quantile/cdf consistency: at least q of the mass lies at or below
    // the q-quantile.
    EXPECT_GE(dist.cdf(x) + 1e-9, q);
  }
  EXPECT_DOUBLE_EQ(dist.cdf(dist.max()), 1.0);
  EXPECT_GT(dist.cdf(dist.min()), 0.0);
}

TEST_P(DistributionSweepTest, HistogramMassMatchesCdf) {
  util::Rng rng{GetParam() ^ 0xDEAD};
  util::Histogram hist{0.0, 100.0, 20};
  std::vector<double> samples;
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.uniform_real(0.0, 100.0);
    hist.add(x);
    samples.push_back(x);
  }
  const util::EmpiricalDistribution dist{samples};
  const auto cdf = hist.cdf();
  for (std::size_t b = 0; b < hist.bin_count(); ++b) {
    EXPECT_NEAR(cdf[b], dist.cdf(hist.bin_hi(b) - 1e-12), 0.001);
  }
}

TEST_P(DistributionSweepTest, RunningStatsMatchesTwoPassReference) {
  util::Rng rng{GetParam() ^ 0xBEEF};
  std::vector<double> xs;
  util::RunningStats stats;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(5.0, 37.0);
    xs.push_back(x);
    stats.add(x);
  }
  double mean = 0.0;
  for (const double x : xs) {
    mean += x;
  }
  mean /= static_cast<double>(xs.size());
  double var = 0.0;
  for (const double x : xs) {
    var += (x - mean) * (x - mean);
  }
  var /= static_cast<double>(xs.size());
  EXPECT_NEAR(stats.mean(), mean, 1e-9);
  EXPECT_NEAR(stats.variance(), var, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistributionSweepTest,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace reshape
