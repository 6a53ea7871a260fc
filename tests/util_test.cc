// Unit tests for src/util: RNG determinism, statistics, histograms,
// empirical distributions, time arithmetic, the table printer, and the
// byte codec.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "util/bytes.h"
#include "util/check.h"
#include "util/distribution.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/time.h"

namespace reshape::util {
namespace {

// ---------------------------------------------------------------- time ---

TEST(TimeTest, DurationConversionsRoundTrip) {
  const Duration d = Duration::seconds(1.5);
  EXPECT_EQ(d.count_us(), 1'500'000);
  EXPECT_DOUBLE_EQ(d.to_seconds(), 1.5);
  EXPECT_EQ(Duration::milliseconds(500).count_us(), 500'000);
  EXPECT_EQ(Duration::microseconds(42).count_us(), 42);
}

TEST(TimeTest, DurationArithmetic) {
  const Duration a = Duration::seconds(2.0);
  const Duration b = Duration::seconds(0.5);
  EXPECT_EQ((a + b).to_seconds(), 2.5);
  EXPECT_EQ((a - b).to_seconds(), 1.5);
  EXPECT_EQ((a * 3).to_seconds(), 6.0);
  EXPECT_EQ(a / b, 4);
  EXPECT_EQ((a % b).count_us(), 0);
}

TEST(TimeTest, TimePointOrderingAndDifference) {
  const TimePoint t0 = TimePoint::from_seconds(1.0);
  const TimePoint t1 = TimePoint::from_seconds(3.0);
  EXPECT_LT(t0, t1);
  EXPECT_EQ((t1 - t0).to_seconds(), 2.0);
  EXPECT_EQ((t0 + Duration::seconds(2.0)), t1);
  EXPECT_EQ((t1 - Duration::seconds(2.0)), t0);
}

TEST(TimeTest, DefaultIsZero) {
  EXPECT_EQ(TimePoint{}.count_us(), 0);
  EXPECT_EQ(Duration{}.count_us(), 0);
}

// --------------------------------------------------------------- check ---

TEST(CheckTest, RequireThrowsInvalidArgument) {
  EXPECT_NO_THROW(require(true, "ok"));
  EXPECT_THROW(require(false, "bad"), std::invalid_argument);
}

TEST(CheckTest, InternalCheckThrowsLogicError) {
  EXPECT_NO_THROW(internal_check(true, "ok"));
  EXPECT_THROW(internal_check(false, "bug"), std::logic_error);
}

TEST(CheckTest, RequireIndexThrowsOutOfRange) {
  EXPECT_THROW(require_index(false, "oob"), std::out_of_range);
}

// ----------------------------------------------------------------- rng ---

TEST(RngTest, SameSeedSameStream) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a{1};
  Rng b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (a.next_u64() == b.next_u64()) ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, KeyedForkIgnoresParentState) {
  // fork(stream_id) derives from the construction seed only: draining the
  // parent first must not change any child stream.
  Rng fresh{42};
  Rng drained{42};
  for (int i = 0; i < 1000; ++i) {
    (void)drained.next_u64();
  }
  for (std::uint64_t stream = 0; stream < 8; ++stream) {
    Rng a = fresh.fork(stream);
    Rng b = drained.fork(stream);
    for (int i = 0; i < 64; ++i) {
      EXPECT_EQ(a.next_u64(), b.next_u64());
    }
  }
}

TEST(RngTest, KeyedForkStreamsAreDecorrelated) {
  Rng parent{42};
  Rng s0 = parent.fork(0);
  Rng s1 = parent.fork(1);
  Rng raw{42};
  int same01 = 0;
  int same0p = 0;
  for (int i = 0; i < 64; ++i) {
    const auto a = s0.next_u64();
    same01 += (a == s1.next_u64()) ? 1 : 0;
    same0p += (a == raw.next_u64()) ? 1 : 0;
  }
  EXPECT_LT(same01, 2);
  EXPECT_LT(same0p, 2);
}

TEST(RngTest, KeyedForkIsShardOrderIndependent) {
  // A sharded experiment draws cell streams in whatever order threads
  // reach them; every order must see identical per-cell streams.
  const Rng parent{2011};
  std::vector<std::uint64_t> forward;
  for (std::uint64_t cell = 0; cell < 16; ++cell) {
    forward.push_back(parent.fork(cell).next_u64());
  }
  for (std::uint64_t cell = 16; cell-- > 0;) {
    EXPECT_EQ(parent.fork(cell).next_u64(), forward[cell]);
  }
}

TEST(RngTest, UniformIntStaysInRange) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, UniformIntDegenerateRange) {
  Rng rng{7};
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(RngTest, UniformIntRejectsInvertedRange) {
  Rng rng{7};
  EXPECT_THROW((void)rng.uniform_int(2, 1), std::invalid_argument);
}

TEST(RngTest, UniformRealMeanIsCentred) {
  Rng rng{11};
  double acc = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    acc += rng.uniform_real(0.0, 2.0);
  }
  EXPECT_NEAR(acc / kN, 1.0, 0.02);
}

TEST(RngTest, NormalMatchesMoments) {
  Rng rng{13};
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) {
    stats.add(rng.normal(5.0, 2.0));
  }
  EXPECT_NEAR(stats.mean(), 5.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(RngTest, NormalZeroSigmaIsDeterministic) {
  Rng rng{13};
  EXPECT_DOUBLE_EQ(rng.normal(3.5, 0.0), 3.5);
}

TEST(RngTest, ExponentialMeanIsOneOverLambda) {
  Rng rng{17};
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) {
    stats.add(rng.exponential(4.0));
  }
  EXPECT_NEAR(stats.mean(), 0.25, 0.01);
}

TEST(RngTest, ParetoRespectsScale) {
  Rng rng{19};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng{23};
  int hits = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    hits += rng.bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.02);
}

TEST(RngTest, DiscreteFollowsWeights) {
  Rng rng{29};
  const std::vector<double> weights{1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    ++counts[rng.discrete(weights)];
  }
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(kN), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(kN), 0.3, 0.02);
  EXPECT_NEAR(counts[3] / static_cast<double>(kN), 0.6, 0.02);
}

TEST(RngTest, DiscreteRejectsAllZeroWeights) {
  Rng rng{29};
  const std::vector<double> weights{0.0, 0.0};
  EXPECT_THROW((void)rng.discrete(weights), std::invalid_argument);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent{31};
  Rng child = parent.fork();
  // Child must not replay the parent's stream.
  Rng parent_copy{31};
  (void)parent_copy.next_u64();  // account for the fork draw
  EXPECT_NE(child.next_u64(), parent_copy.next_u64());
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng{37};
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto sorted = v;
  rng.shuffle(v);
  EXPECT_FALSE(std::is_sorted(v.begin(), v.end()));  // astronomically unlikely
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, SplitMix64KnownValue) {
  // Reference value from the SplitMix64 definition (seed 0 first output).
  EXPECT_EQ(splitmix64(0), 0xE220A8397B1DCDAFULL);
}

// --------------------------------------------------------------- stats ---

TEST(RunningStatsTest, EmptyDefaults) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, SingleValue) {
  RunningStats s;
  s.add(4.0);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 4.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(RunningStatsTest, MatchesClosedForm) {
  RunningStats s;
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  for (const double x : xs) {
    s.add(x);
  }
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, MergeEqualsSequential) {
  RunningStats whole;
  RunningStats left;
  RunningStats right;
  Rng rng{41};
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(0.0, 3.0);
    whole.add(x);
    (i < 500 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningStatsTest, MergeWithEmptyIsIdentity) {
  RunningStats a;
  a.add(1.0);
  a.add(2.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  RunningStats b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.5);
}

TEST(HistogramTest, BinningAndEdges) {
  Histogram h{0.0, 10.0, 5};
  EXPECT_EQ(h.bin_count(), 5u);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_mid(2), 5.0);
  h.add(0.5);
  h.add(1.999);
  h.add(2.0);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(1), 1u);
}

TEST(HistogramTest, OutOfRangeClamps) {
  Histogram h{0.0, 10.0, 5};
  h.add(-100.0);
  h.add(10.0);
  h.add(1e9);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(4), 2u);
}

TEST(HistogramTest, PmfSumsToOneAndCdfEndsAtOne) {
  Histogram h{0.0, 4.0, 4};
  h.add_n(0.5, 10);
  h.add_n(1.5, 30);
  h.add_n(3.5, 60);
  const auto pmf = h.pmf();
  EXPECT_NEAR(std::accumulate(pmf.begin(), pmf.end(), 0.0), 1.0, 1e-12);
  const auto cdf = h.cdf();
  EXPECT_NEAR(cdf.back(), 1.0, 1e-12);
  EXPECT_NEAR(cdf[1], 0.4, 1e-12);
}

TEST(HistogramTest, EmptyPmfIsZero) {
  Histogram h{0.0, 1.0, 3};
  for (const double p : h.pmf()) {
    EXPECT_DOUBLE_EQ(p, 0.0);
  }
  EXPECT_DOUBLE_EQ(h.fraction(0), 0.0);
}

TEST(HistogramTest, RejectsBadConstruction) {
  EXPECT_THROW((Histogram{1.0, 1.0, 3}), std::invalid_argument);
  EXPECT_THROW((Histogram{0.0, 1.0, 0}), std::invalid_argument);
}

TEST(StatsFreeFunctionTest, TotalVariation) {
  const std::vector<double> p{0.5, 0.5, 0.0};
  const std::vector<double> q{0.0, 0.5, 0.5};
  EXPECT_DOUBLE_EQ(total_variation(p, q), 0.5);
  EXPECT_DOUBLE_EQ(total_variation(p, p), 0.0);
}

TEST(StatsFreeFunctionTest, TotalVariationSizeMismatchThrows) {
  const std::vector<double> p{1.0};
  const std::vector<double> q{0.5, 0.5};
  EXPECT_THROW((void)total_variation(p, q), std::invalid_argument);
}

TEST(StatsFreeFunctionTest, EntropyBits) {
  const std::vector<double> uniform4{0.25, 0.25, 0.25, 0.25};
  EXPECT_DOUBLE_EQ(entropy_bits(uniform4), 2.0);
  const std::vector<double> point{1.0, 0.0};
  EXPECT_DOUBLE_EQ(entropy_bits(point), 0.0);
}

TEST(StatsFreeFunctionTest, NormalizedEntropy) {
  // Uniform mass normalizes to the ceiling regardless of support size.
  const std::vector<double> uniform4{0.25, 0.25, 0.25, 0.25};
  EXPECT_DOUBLE_EQ(normalized_entropy(uniform4), 1.0);
  const std::vector<double> uniform3{1.0, 1.0, 1.0};  // unnormalized is fine
  EXPECT_DOUBLE_EQ(normalized_entropy(uniform3), 1.0);
  // A point mass collapses to 0; skew lands strictly between.
  const std::vector<double> point{1.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(normalized_entropy(point), 0.0);
  const std::vector<double> skew{0.7, 0.2, 0.1};
  EXPECT_GT(normalized_entropy(skew), 0.0);
  EXPECT_LT(normalized_entropy(skew), 1.0);
  // Degenerate supports: empty and zero-mass are 0 by convention, a
  // single bucket is trivially balanced.
  EXPECT_DOUBLE_EQ(normalized_entropy(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(normalized_entropy(std::vector<double>{0.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(normalized_entropy(std::vector<double>{3.0}), 1.0);
}

TEST(StatsFreeFunctionTest, JensenShannonDivergenceProperties) {
  const std::vector<double> p{0.5, 0.5, 0.0, 0.0};
  const std::vector<double> q{0.0, 0.0, 0.5, 0.5};
  const std::vector<double> r{0.25, 0.25, 0.25, 0.25};
  // Identity of indiscernibles and symmetry.
  EXPECT_DOUBLE_EQ(jensen_shannon_divergence_bits(p, p), 0.0);
  EXPECT_DOUBLE_EQ(jensen_shannon_divergence_bits(p, q),
                   jensen_shannon_divergence_bits(q, p));
  // Disjoint supports reach the 1-bit ceiling exactly.
  EXPECT_DOUBLE_EQ(jensen_shannon_divergence_bits(p, q), 1.0);
  // Overlapping distributions land strictly inside (0, 1).
  const double mid = jensen_shannon_divergence_bits(p, r);
  EXPECT_GT(mid, 0.0);
  EXPECT_LT(mid, 1.0);
}

TEST(StatsFreeFunctionTest, JensenShannonDivergenceNormalizesAndGuards) {
  // Inputs need not be normalized: counts give the same answer as pmfs.
  const std::vector<double> counts_p{6.0, 2.0};
  const std::vector<double> counts_q{1.0, 3.0};
  const std::vector<double> pmf_p{0.75, 0.25};
  const std::vector<double> pmf_q{0.25, 0.75};
  EXPECT_DOUBLE_EQ(jensen_shannon_divergence_bits(counts_p, counts_q),
                   jensen_shannon_divergence_bits(pmf_p, pmf_q));
  // An empty side (no mass) compares as indistinguishable, not divergent.
  const std::vector<double> zero{0.0, 0.0};
  EXPECT_DOUBLE_EQ(jensen_shannon_divergence_bits(zero, pmf_q), 0.0);
  EXPECT_DOUBLE_EQ(jensen_shannon_divergence_bits(pmf_p, zero), 0.0);
  const std::vector<double> longer{0.5, 0.5, 0.0};
  EXPECT_THROW((void)jensen_shannon_divergence_bits(pmf_p, longer),
               std::invalid_argument);
}

TEST(StatsFreeFunctionTest, DotProduct) {
  const std::vector<double> a{1.0, 0.0, 2.0};
  const std::vector<double> b{3.0, 5.0, 0.5};
  EXPECT_DOUBLE_EQ(dot(a, b), 4.0);
}

// -------------------------------------------------------- distribution ---

TEST(RadixSortTest, EqualsStdSort) {
  // Random keys of every width, all-equal, zero-heavy, and keys above
  // 2^32 (µs delays past 71 minutes) whose top digits decide the order.
  Rng rng{0x5AD1};
  std::vector<std::vector<std::uint64_t>> inputs;
  inputs.emplace_back();  // empty
  inputs.push_back({42});
  for (const int bits : {8, 17, 31, 63}) {
    std::vector<std::uint64_t> keys(5000);
    for (std::uint64_t& key : keys) {
      key = static_cast<std::uint64_t>(rng.uniform_int(
          0, static_cast<std::int64_t>((std::uint64_t{1} << bits) - 1)));
    }
    inputs.push_back(std::move(keys));
  }
  inputs.emplace_back(3000, std::uint64_t{777});
  inputs.emplace_back(3000, std::uint64_t{0});
  std::vector<std::uint64_t> zero_heavy(4000, 0);
  for (std::size_t i = 0; i < zero_heavy.size(); i += 7) {
    zero_heavy[i] = static_cast<std::uint64_t>(rng.uniform_int(1, 900));
  }
  inputs.push_back(std::move(zero_heavy));
  std::vector<std::uint64_t> wide(4000);
  for (std::uint64_t& key : wide) {
    // Equal low 32 bits in runs, so only the top digits separate keys.
    key = (static_cast<std::uint64_t>(rng.uniform_int(1, 5000)) << 32) |
          static_cast<std::uint64_t>(rng.uniform_int(0, 3));
  }
  inputs.push_back(std::move(wide));
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  inputs.push_back({kMax, 0, std::uint64_t{1} << 63, kMax - 1, 7, kMax});

  for (std::size_t i = 0; i < inputs.size(); ++i) {
    std::vector<std::uint64_t> expected = inputs[i];
    std::sort(expected.begin(), expected.end());
    radix_sort(inputs[i]);
    EXPECT_EQ(inputs[i], expected) << "input " << i;
  }
}

TEST(EmpiricalDistributionTest, RejectsEmpty) {
  EXPECT_THROW(EmpiricalDistribution{std::vector<double>{}},
               std::invalid_argument);
}

TEST(EmpiricalDistributionTest, CdfIsStepFunction) {
  EmpiricalDistribution d{{1.0, 2.0, 3.0, 4.0}};
  EXPECT_DOUBLE_EQ(d.cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(d.cdf(1.0), 0.25);
  EXPECT_DOUBLE_EQ(d.cdf(2.5), 0.5);
  EXPECT_DOUBLE_EQ(d.cdf(4.0), 1.0);
  EXPECT_DOUBLE_EQ(d.cdf(99.0), 1.0);
}

TEST(EmpiricalDistributionTest, QuantileNearestRank) {
  EmpiricalDistribution d{{10.0, 20.0, 30.0, 40.0}};
  EXPECT_DOUBLE_EQ(d.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(d.quantile(0.5), 30.0);
  EXPECT_DOUBLE_EQ(d.quantile(1.0), 40.0);
}

TEST(EmpiricalDistributionTest, MomentsMatch) {
  EmpiricalDistribution d{{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}};
  EXPECT_DOUBLE_EQ(d.mean(), 5.0);
  EXPECT_DOUBLE_EQ(d.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(d.min(), 2.0);
  EXPECT_DOUBLE_EQ(d.max(), 9.0);
}

TEST(EmpiricalDistributionTest, SampleDrawsFromSupport) {
  EmpiricalDistribution d{{1.0, 5.0, 9.0}};
  Rng rng{43};
  for (int i = 0; i < 200; ++i) {
    const double s = d.sample(rng);
    EXPECT_TRUE(s == 1.0 || s == 5.0 || s == 9.0);
  }
}

TEST(EmpiricalDistributionTest, SampleAtLeastRespectsFloor) {
  EmpiricalDistribution d{{1.0, 5.0, 9.0}};
  Rng rng{47};
  for (int i = 0; i < 200; ++i) {
    EXPECT_GE(d.sample_at_least(rng, 4.0), 5.0);
  }
  // Floor above the maximum falls back to the maximum.
  EXPECT_DOUBLE_EQ(d.sample_at_least(rng, 100.0), 9.0);
}

TEST(EmpiricalDistributionTest, KsDistanceZeroForIdentical) {
  EmpiricalDistribution a{{1.0, 2.0, 3.0}};
  EmpiricalDistribution b{{1.0, 2.0, 3.0}};
  EXPECT_DOUBLE_EQ(a.ks_distance(b), 0.0);
}

TEST(EmpiricalDistributionTest, KsDistanceOneForDisjoint) {
  EmpiricalDistribution a{{1.0, 2.0}};
  EmpiricalDistribution b{{10.0, 20.0}};
  EXPECT_DOUBLE_EQ(a.ks_distance(b), 1.0);
}

// --------------------------------------------------------------- table ---

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t{{"App", "Accuracy"}};
  t.add_row({"browsing", "1.90"});
  t.add_row({"bt", "2.35"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("| App      |"), std::string::npos);
  EXPECT_NE(out.find("| browsing |"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TablePrinterTest, RejectsMismatchedRow) {
  TablePrinter t{{"a", "b"}};
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(TablePrinterTest, FmtPrecision) {
  EXPECT_EQ(TablePrinter::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::fmt(83.238, 1), "83.2");
  EXPECT_EQ(TablePrinter::fmt(1.0, 0), "1");
}

// --------------------------------------------------------------- bytes ---

TEST(BytesTest, LittleEndianRoundTripAndBoundsChecked) {
  ByteWriter writer;
  writer.u64(0x1122334455667788ULL);
  ASSERT_EQ(writer.buffer().size(), 8u);
  EXPECT_EQ(writer.buffer().front(), 0x88);  // least significant byte first
  EXPECT_EQ(writer.buffer().back(), 0x11);
  writer.u8(0xAB);
  writer.u16(0xBEEF);
  writer.u32(0xDEADBEEFu);
  writer.i64(-5);
  writer.f64(-std::numeric_limits<double>::infinity());
  writer.str("hi");

  ByteReader reader{writer.buffer()};
  EXPECT_EQ(reader.u64(), 0x1122334455667788ULL);
  EXPECT_EQ(reader.u8(), 0xAB);
  EXPECT_EQ(reader.u16(), 0xBEEF);
  EXPECT_EQ(reader.u32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.i64(), -5);
  EXPECT_EQ(reader.f64(), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(reader.str(), "hi");
  reader.require_exhausted();
  EXPECT_THROW((void)reader.u8(), ByteError);

  // A read past the end throws instead of returning a partial value.
  ByteReader short_reader{std::span{writer.buffer()}.first(7)};
  EXPECT_THROW((void)short_reader.u64(), ByteError);
  ByteReader unfinished{writer.buffer()};
  (void)unfinished.u64();
  EXPECT_THROW(unfinished.require_exhausted(), ByteError);
}

}  // namespace
}  // namespace reshape::util
