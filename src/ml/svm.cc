#include "ml/svm.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace reshape::ml {

namespace {

/// Slot marker for training rows that support no machine.
constexpr std::uint32_t kUnpooled = std::numeric_limits<std::uint32_t>::max();

}  // namespace

SvmClassifier::SvmClassifier(SvmConfig config) : config_{config} {
  util::require(config_.c > 0.0, "SvmClassifier: C must be > 0");
  util::require(config_.gamma > 0.0, "SvmClassifier: gamma must be > 0");
}

std::string_view SvmClassifier::name() const {
  return config_.kernel == KernelKind::kRbf ? "svm-rbf" : "svm-linear";
}

double SvmClassifier::kernel(std::span<const double> a,
                             std::span<const double> b) const {
  if (config_.kernel == KernelKind::kLinear) {
    double acc = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      acc += a[i] * b[i];
    }
    return acc;
  }
  double dist2 = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    dist2 += d * d;
  }
  return std::exp(-config_.gamma * dist2);
}

SvmClassifier::BinaryMachine SvmClassifier::train_pair(const Dataset& data,
                                                       int class_a,
                                                       int class_b,
                                                       util::Rng& rng) const {
  // Collect the two classes; y = +1 for class_a, -1 for class_b.
  std::vector<std::uint32_t> source;  // training-row index per sample
  std::vector<double> y;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (data.label(i) == class_a) {
      source.push_back(static_cast<std::uint32_t>(i));
      y.push_back(1.0);
    } else if (data.label(i) == class_b) {
      source.push_back(static_cast<std::uint32_t>(i));
      y.push_back(-1.0);
    }
  }
  const std::size_t n = source.size();
  util::internal_check(n >= 2, "SVM train_pair: need samples of both classes");

  // Precompute the kernel matrix (pairwise training sets are small: the
  // harness trains on hundreds of windows per class).
  std::vector<std::vector<double>> k(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double v = kernel(data.row(source[i]), data.row(source[j]));
      k[i][j] = v;
      k[j][i] = v;
    }
  }

  std::vector<double> alpha(n, 0.0);
  double bias = 0.0;

  const auto decision = [&](std::size_t i) {
    double acc = bias;
    for (std::size_t j = 0; j < n; ++j) {
      if (alpha[j] > 0.0) {
        acc += alpha[j] * y[j] * k[j][i];
      }
    }
    return acc;
  };

  // Simplified SMO (Platt's algorithm, random second index).
  int passes = 0;
  int iterations = 0;
  while (passes < config_.max_passes && iterations < config_.max_iterations) {
    ++iterations;
    int changed = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double e_i = decision(i) - y[i];
      const bool violates =
          (y[i] * e_i < -config_.tolerance && alpha[i] < config_.c) ||
          (y[i] * e_i > config_.tolerance && alpha[i] > 0.0);
      if (!violates) {
        continue;
      }
      std::size_t j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 2));
      if (j >= i) {
        ++j;
      }
      const double e_j = decision(j) - y[j];

      const double alpha_i_old = alpha[i];
      const double alpha_j_old = alpha[j];
      double lo = 0.0;
      double hi = 0.0;
      if (y[i] != y[j]) {
        lo = std::max(0.0, alpha[j] - alpha[i]);
        hi = std::min(config_.c, config_.c + alpha[j] - alpha[i]);
      } else {
        lo = std::max(0.0, alpha[i] + alpha[j] - config_.c);
        hi = std::min(config_.c, alpha[i] + alpha[j]);
      }
      if (lo >= hi) {
        continue;
      }
      const double eta = 2.0 * k[i][j] - k[i][i] - k[j][j];
      if (eta >= 0.0) {
        continue;
      }
      double alpha_j_new = alpha_j_old - y[j] * (e_i - e_j) / eta;
      alpha_j_new = std::clamp(alpha_j_new, lo, hi);
      if (std::abs(alpha_j_new - alpha_j_old) < 1e-5) {
        continue;
      }
      const double alpha_i_new =
          alpha_i_old + y[i] * y[j] * (alpha_j_old - alpha_j_new);
      alpha[i] = alpha_i_new;
      alpha[j] = alpha_j_new;

      const double b1 = bias - e_i - y[i] * (alpha_i_new - alpha_i_old) * k[i][i] -
                        y[j] * (alpha_j_new - alpha_j_old) * k[i][j];
      const double b2 = bias - e_j - y[i] * (alpha_i_new - alpha_i_old) * k[i][j] -
                        y[j] * (alpha_j_new - alpha_j_old) * k[j][j];
      if (alpha_i_new > 0.0 && alpha_i_new < config_.c) {
        bias = b1;
      } else if (alpha_j_new > 0.0 && alpha_j_new < config_.c) {
        bias = b2;
      } else {
        bias = (b1 + b2) / 2.0;
      }
      ++changed;
    }
    passes = changed == 0 ? passes + 1 : 0;
  }

  // pool_index holds training-row indices here; fit() remaps them to
  // pool slots once every machine is trained.
  BinaryMachine m;
  m.class_a = class_a;
  m.class_b = class_b;
  m.bias = bias;
  for (std::size_t i = 0; i < n; ++i) {
    if (alpha[i] > 1e-9) {
      m.pool_index.push_back(source[i]);
      m.alpha_y.push_back(alpha[i] * y[i]);
    }
  }
  return m;
}

void SvmClassifier::fit(const Dataset& data) {
  util::require(!data.empty(), "SvmClassifier::fit: empty dataset");
  util::require(data.num_classes() >= 2,
                "SvmClassifier::fit: need at least two classes");
  util::require(data.dimensions() > 0,
                "SvmClassifier::fit: zero-dimensional rows");
  util::require(data.size() < kUnpooled,
                "SvmClassifier::fit: too many training rows");
  num_classes_ = data.num_classes();
  dim_ = data.dimensions();
  machines_.clear();
  pool_.clear();
  util::Rng rng{config_.seed};
  for (int a = 0; a < num_classes_; ++a) {
    for (int b = a + 1; b < num_classes_; ++b) {
      if (data.class_count(a) == 0 || data.class_count(b) == 0) {
        continue;  // pair absent from training data
      }
      machines_.push_back(train_pair(data, a, b, rng));
    }
  }
  util::require(!machines_.empty(),
                "SvmClassifier::fit: no trainable class pairs");

  // Pool every training row that supports some machine, in row order,
  // then point each machine's support vectors at their pool slots.
  std::vector<std::uint32_t> slot(data.size(), kUnpooled);
  for (const BinaryMachine& m : machines_) {
    for (const std::uint32_t r : m.pool_index) {
      slot[r] = 0;
    }
  }
  std::uint32_t pooled = 0;
  for (std::size_t r = 0; r < data.size(); ++r) {
    if (slot[r] != kUnpooled) {
      slot[r] = pooled++;
      pool_.insert(pool_.end(), data.row(r).begin(), data.row(r).end());
    }
  }
  for (BinaryMachine& m : machines_) {
    for (std::uint32_t& r : m.pool_index) {
      r = slot[r];
    }
  }
}

std::span<const double> SvmClassifier::kernel_row(
    std::span<const double> row) const {
  // Thread-local, not member, scratch: predict runs concurrently on pool
  // threads against one trained model. Once grown it never reallocates.
  thread_local std::vector<double> kernels;
  const std::size_t pooled = pool_.size() / dim_;
  kernels.resize(pooled);
  const std::span<const double> pool{pool_};
  for (std::size_t s = 0; s < pooled; ++s) {
    kernels[s] = kernel(pool.subspan(s * dim_, dim_), row);
  }
  return {kernels.data(), pooled};
}

double SvmClassifier::evaluate(const BinaryMachine& m,
                               std::span<const double> kernels) {
  double acc = m.bias;
  for (std::size_t i = 0; i < m.alpha_y.size(); ++i) {
    acc += m.alpha_y[i] * kernels[m.pool_index[i]];
  }
  return acc;
}

int SvmClassifier::predict(std::span<const double> row) const {
  util::require(trained(), "SvmClassifier::predict: not trained");
  util::require(row.size() == dim_,
                "SvmClassifier::predict: dimensionality mismatch");
  // One-vs-one tallies are tiny; keep them off the heap (predict runs
  // once per window on the campaign hot path and must stay thread-safe,
  // so no member scratch either).
  constexpr int kStackClasses = 32;
  std::array<int, kStackClasses> stack_votes{};
  std::array<double, kStackClasses> stack_margins{};
  std::vector<int> heap_votes;
  std::vector<double> heap_margins;
  int* votes = stack_votes.data();
  double* margins = stack_margins.data();
  if (num_classes_ > kStackClasses) {
    heap_votes.assign(static_cast<std::size_t>(num_classes_), 0);
    heap_margins.assign(static_cast<std::size_t>(num_classes_), 0.0);
    votes = heap_votes.data();
    margins = heap_margins.data();
  }
  const std::span<const double> kernels = kernel_row(row);
  for (const BinaryMachine& m : machines_) {
    const double v = evaluate(m, kernels);
    const int winner = v >= 0.0 ? m.class_a : m.class_b;
    ++votes[static_cast<std::size_t>(winner)];
    margins[static_cast<std::size_t>(winner)] += std::abs(v);
  }
  int best = 0;
  for (int c = 1; c < num_classes_; ++c) {
    const auto ci = static_cast<std::size_t>(c);
    const auto bi = static_cast<std::size_t>(best);
    if (votes[ci] > votes[bi] ||
        (votes[ci] == votes[bi] && margins[ci] > margins[bi])) {
      best = c;
    }
  }
  return best;
}

double SvmClassifier::decision_value(int a, int b,
                                     std::span<const double> row) const {
  util::require(a < b, "SvmClassifier::decision_value: requires a < b");
  util::require(row.size() == dim_,
                "SvmClassifier::decision_value: dimensionality mismatch");
  for (const BinaryMachine& m : machines_) {
    if (m.class_a == a && m.class_b == b) {
      return evaluate(m, kernel_row(row));
    }
  }
  util::require(false, "SvmClassifier::decision_value: pair not trained");
  return 0.0;
}

std::size_t SvmClassifier::support_vector_count() const {
  std::size_t acc = 0;
  for (const BinaryMachine& m : machines_) {
    acc += m.alpha_y.size();
  }
  return acc;
}

}  // namespace reshape::ml
