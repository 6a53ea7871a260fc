#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.h"

namespace reshape::util {

void RunningStats::add(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::add_span(std::span<const double> values) {
  // Hoist the accumulator into locals so the unrolled loop keeps it in
  // registers; each element still runs add()'s exact operation sequence,
  // so the resulting state is bit-identical to per-element add() calls.
  std::size_t count = count_;
  double mean = mean_;
  double m2 = m2_;
  double lo = min_;
  double hi = max_;
  const auto step = [&](double x) {
    ++count;
    const double delta = x - mean;
    mean += delta / static_cast<double>(count);
    m2 += delta * (x - mean);
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  };
  const double* v = values.data();
  const std::size_t n = values.size();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    step(v[i]);
    step(v[i + 1]);
    step(v[i + 2]);
    step(v[i + 3]);
  }
  for (; i < n; ++i) {
    step(v[i]);
  }
  count_ = count;
  mean_ = mean;
  m2_ = m2;
  min_ = lo;
  max_ = hi;
}

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::mean() const { return count_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_);
}

double RunningStats::sample_variance() const {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_{lo}, hi_{hi}, width_{(hi - lo) / static_cast<double>(bins)} {
  require(hi > lo, "Histogram: hi must be > lo");
  require(bins >= 1, "Histogram: need at least one bin");
  counts_.assign(bins, 0);
}

std::size_t Histogram::bin_index(double x) const {
  if (x < lo_) {
    return 0;
  }
  if (x >= hi_) {
    return counts_.size() - 1;
  }
  const auto idx = static_cast<std::size_t>((x - lo_) / width_);
  return std::min(idx, counts_.size() - 1);
}

void Histogram::add(double x) { add_n(x, 1); }

void Histogram::add_n(double x, std::uint64_t n) {
  counts_[bin_index(x)] += n;
  total_ += n;
}

std::uint64_t Histogram::count(std::size_t bin) const {
  require_index(bin < counts_.size(), "Histogram::count: bin out of range");
  return counts_[bin];
}

double Histogram::bin_lo(std::size_t bin) const {
  require_index(bin < counts_.size(), "Histogram::bin_lo: bin out of range");
  return lo_ + static_cast<double>(bin) * width_;
}

double Histogram::bin_hi(std::size_t bin) const { return bin_lo(bin) + width_; }

double Histogram::bin_mid(std::size_t bin) const {
  return bin_lo(bin) + width_ / 2.0;
}

double Histogram::fraction(std::size_t bin) const {
  require_index(bin < counts_.size(), "Histogram::fraction: bin out of range");
  if (total_ == 0) {
    return 0.0;
  }
  return static_cast<double>(counts_[bin]) / static_cast<double>(total_);
}

std::vector<double> Histogram::pmf() const {
  std::vector<double> out(counts_.size(), 0.0);
  if (total_ == 0) {
    return out;
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    out[i] = static_cast<double>(counts_[i]) / static_cast<double>(total_);
  }
  return out;
}

std::vector<double> Histogram::cdf() const {
  std::vector<double> out = pmf();
  double acc = 0.0;
  for (double& v : out) {
    acc += v;
    v = acc;
  }
  return out;
}

double total_variation(std::span<const double> p, std::span<const double> q) {
  require(p.size() == q.size(), "total_variation: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    acc += std::abs(p[i] - q[i]);
  }
  return acc / 2.0;
}

double entropy_bits(std::span<const double> p) {
  double h = 0.0;
  for (const double v : p) {
    if (v > 0.0) {
      h -= v * std::log2(v);
    }
  }
  return h;
}

double normalized_entropy(std::span<const double> p) {
  if (p.empty()) {
    return 0.0;
  }
  if (p.size() == 1) {
    return 1.0;
  }
  double total = 0.0;
  for (const double v : p) {
    total += v;
  }
  if (total <= 0.0) {
    return 0.0;
  }
  double h = 0.0;
  for (const double v : p) {
    if (v > 0.0) {
      const double share = v / total;
      h -= share * std::log2(share);
    }
  }
  return h / std::log2(static_cast<double>(p.size()));
}

double jensen_shannon_divergence_bits(std::span<const double> p,
                                      std::span<const double> q) {
  require(p.size() == q.size(),
          "jensen_shannon_divergence_bits: size mismatch");
  double p_total = 0.0;
  double q_total = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    p_total += p[i];
    q_total += q[i];
  }
  if (p_total <= 0.0 || q_total <= 0.0) {
    return 0.0;
  }
  // JSD = H(m) - (H(p) + H(q)) / 2 over the normalized distributions,
  // computed bucket-wise so no normalized vectors are materialised.
  double h_m = 0.0;
  double h_p = 0.0;
  double h_q = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const double pi = p[i] / p_total;
    const double qi = q[i] / q_total;
    const double mi = (pi + qi) / 2.0;
    if (pi > 0.0) {
      h_p -= pi * std::log2(pi);
    }
    if (qi > 0.0) {
      h_q -= qi * std::log2(qi);
    }
    if (mi > 0.0) {
      h_m -= mi * std::log2(mi);
    }
  }
  // Clamp tiny negative float residue so identical inputs report exactly 0.
  return std::max(0.0, h_m - (h_p + h_q) / 2.0);
}

double dot(std::span<const double> a, std::span<const double> b) {
  require(a.size() == b.size(), "dot: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += a[i] * b[i];
  }
  return acc;
}

void radix_sort(std::vector<std::uint64_t>& keys) {
  constexpr unsigned kDigitBits = 11;
  constexpr std::uint64_t kMask = (std::uint64_t{1} << kDigitBits) - 1;
  const std::uint64_t largest =
      keys.empty() ? 0 : *std::max_element(keys.begin(), keys.end());
  std::vector<std::uint64_t> sorted(keys.size());
  for (unsigned shift = 0; shift < 64 && (largest >> shift) != 0;
       shift += kDigitBits) {
    // start[d + 1] counts digit d; its prefix sum is where digit d begins.
    std::vector<std::size_t> start(kMask + 2);
    for (const std::uint64_t key : keys) {
      ++start[((key >> shift) & kMask) + 1];
    }
    std::partial_sum(start.begin(), start.end(), start.begin());
    for (const std::uint64_t key : keys) {
      sorted[start[(key >> shift) & kMask]++] = key;
    }
    keys.swap(sorted);
  }
}

}  // namespace reshape::util
