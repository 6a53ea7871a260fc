// Single-pass summary statistics (Welford) and histogramming.
//
// The feature extractor (src/features) and the experiment harness consume
// packet streams that may be millions of packets long; everything here is
// O(1) memory per statistic so traces never need to be materialised twice.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

namespace reshape::util {

/// Running mean / variance / extrema over a stream of doubles.
///
/// Uses Welford's algorithm: numerically stable, one pass, O(1) space.
class RunningStats {
 public:
  void add(double x);

  /// Batched add over a span, bit-identical to calling add() once per
  /// element in order: the state lives in registers across the whole span
  /// and the loop is unrolled, but every element still runs the exact
  /// sequential Welford update (report goldens depend on the add order).
  void add_span(std::span<const double> values);

  /// Merges another accumulator into this one (parallel reduction).
  void merge(const RunningStats& other);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }

  /// Mean of the observed values; 0 when empty.
  [[nodiscard]] double mean() const;

  /// Population variance (divide by n); 0 when fewer than two samples.
  [[nodiscard]] double variance() const;

  /// Sample variance (divide by n-1); 0 when fewer than two samples.
  [[nodiscard]] double sample_variance() const;

  /// Population standard deviation.
  [[nodiscard]] double stddev() const;

  /// Smallest observed value; +inf when empty.
  [[nodiscard]] double min() const { return min_; }

  /// Largest observed value; -inf when empty.
  [[nodiscard]] double max() const { return max_; }

  /// Sum of all observed values.
  [[nodiscard]] double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// A fixed-width-bin histogram over [lo, hi).
///
/// Values below `lo` clamp into the first bin and values at or above `hi`
/// into the last — packet sizes are bounded, so clamping only absorbs
/// boundary values (e.g. the 1576-byte maximum frame).
class Histogram {
 public:
  /// Requires hi > lo and bins >= 1.
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  void add_n(double x, std::uint64_t n);

  [[nodiscard]] std::size_t bin_count() const { return counts_.size(); }
  [[nodiscard]] std::uint64_t count(std::size_t bin) const;
  [[nodiscard]] std::uint64_t total() const { return total_; }

  /// Left edge of the given bin.
  [[nodiscard]] double bin_lo(std::size_t bin) const;
  /// Right edge of the given bin.
  [[nodiscard]] double bin_hi(std::size_t bin) const;
  /// Midpoint of the given bin.
  [[nodiscard]] double bin_mid(std::size_t bin) const;

  /// Fraction of mass in the given bin (0 when the histogram is empty).
  [[nodiscard]] double fraction(std::size_t bin) const;

  /// Probability vector across bins (sums to 1 when non-empty).
  [[nodiscard]] std::vector<double> pmf() const;

  /// Cumulative distribution evaluated at the right edge of each bin.
  [[nodiscard]] std::vector<double> cdf() const;

  /// Index of the bin a value falls into (after clamping).
  [[nodiscard]] std::size_t bin_index(double x) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Total-variation distance between two probability vectors of equal
/// length: 0.5 * sum |p_i - q_i|. Returns a value in [0, 1].
[[nodiscard]] double total_variation(std::span<const double> p,
                                     std::span<const double> q);

/// Shannon entropy (bits) of a probability vector; zero-probability
/// entries contribute nothing.
[[nodiscard]] double entropy_bits(std::span<const double> p);

/// Entropy of `p` normalized by the log2(n) ceiling of an n-outcome
/// distribution — 1.0 means perfectly balanced, 0.0 means all mass on one
/// outcome. `p` need not sum to 1 (raw counts or byte tallies work; the
/// vector is normalized by its own total first). Edge cases: an empty or
/// all-zero vector yields 0.0 and a single-outcome vector 1.0 (one
/// outcome is trivially "balanced").
[[nodiscard]] double normalized_entropy(std::span<const double> p);

/// Jensen–Shannon divergence (bits, base-2 logs) between two equal-length
/// weight vectors: JSD(p,q) = H(m) - (H(p)+H(q))/2 with m = (p+q)/2 after
/// normalizing each side to sum 1. Symmetric, 0 iff p == q, and bounded by
/// 1 bit. Zero buckets are safe (they contribute nothing) and a side whose
/// weights sum to zero — an empty histogram — yields 0.0.
[[nodiscard]] double jensen_shannon_divergence_bits(std::span<const double> p,
                                                    std::span<const double> q);

/// The half of jensen_shannon_divergence_bits that depends on one side
/// alone, for a side compared with many others: writes p / sum(p) into
/// `normalized` (p's length) and returns H(p) in bits, or nullopt —
/// writing nothing — when p sums to zero or less.
[[nodiscard]] std::optional<double> jsd_normalize(std::span<const double> p,
                                                  std::span<double> normalized);

/// The pairwise half: the divergence of two sides prepared by
/// jsd_normalize (normalized weights and entropy), bit-identical to
/// jensen_shannon_divergence_bits on the raw weights. Only H(m) is left
/// to compute.
[[nodiscard]] double jensen_shannon_divergence_bits(
    std::span<const double> p_normalized, double p_entropy_bits,
    std::span<const double> q_normalized, double q_entropy_bits);

/// Dot product of two equally-sized vectors (used by the orthogonality
/// check of Eq. (2) in the paper).
[[nodiscard]] double dot(std::span<const double> a, std::span<const double> b);

/// Sorts `keys` ascending with an LSD radix sort over 11-bit digits,
/// taking only as many passes as the largest key has digits. Exact: the
/// result equals std::sort's.
void radix_sort(std::vector<std::uint64_t>& keys);

}  // namespace reshape::util
