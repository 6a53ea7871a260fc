// Support Vector Machine classifier (one of the two attack classifiers in
// the paper's evaluation, via ref. [6]).
//
// Binary soft-margin SVMs are trained with a simplified Sequential Minimal
// Optimization (SMO) solver; multiclass decisions use one-vs-one majority
// voting (ties break toward the pair winner with the larger margin sum).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "ml/dataset.h"

namespace reshape::ml {

/// Kernel family for the SVM.
enum class KernelKind : std::uint8_t {
  kLinear,
  kRbf,
};

/// SVM hyperparameters.
struct SvmConfig {
  KernelKind kernel = KernelKind::kRbf;
  double c = 10.0;          // soft-margin penalty
  // RBF width (ignored for linear). Tuned for min-max-scaled features in
  // [0,1]^14, where squared inter-class distances sit around 0.5-3:
  // graded similarity survives even for the out-of-distribution inputs
  // reshaped flows produce.
  double gamma = 1.5;
  double tolerance = 1e-3;  // KKT tolerance
  int max_passes = 5;       // SMO passes without change before stopping
  int max_iterations = 200; // hard cap on full sweeps
  std::uint64_t seed = 1;   // SMO partner selection
};

/// One-vs-one multiclass SVM.
class SvmClassifier final : public Classifier {
 public:
  explicit SvmClassifier(SvmConfig config = {});

  void fit(const Dataset& data) override;
  [[nodiscard]] int predict(std::span<const double> row) const override;
  [[nodiscard]] std::string_view name() const override;

  /// Decision value of the binary machine separating classes (a, b);
  /// positive means "a". Exposed for tests. Requires a trained model,
  /// a < b and a row of the training dimensionality.
  [[nodiscard]] double decision_value(int a, int b,
                                      std::span<const double> row) const;

  [[nodiscard]] bool trained() const { return !machines_.empty(); }

  /// Total support vectors across all pairwise machines (a training row
  /// that supports k machines counts k times).
  [[nodiscard]] std::size_t support_vector_count() const;

 private:
  // LIBSVM's layout (Chang & Lin, ACM TIST 2011): every training row that
  // supports at least one pairwise machine is stored once in a shared
  // pool, and each machine refers to its support vectors by pool index.
  // predict() evaluates the kernel once per pooled vector per window
  // instead of once per (machine, support vector) copy.
  struct BinaryMachine {
    int class_a = 0;  // positive label
    int class_b = 0;  // negative label
    std::vector<std::uint32_t> pool_index;  // per support vector, SV order
    std::vector<double> alpha_y;  // alpha_i * y_i per support vector
    double bias = 0.0;
  };

  [[nodiscard]] double kernel(std::span<const double> a,
                              std::span<const double> b) const;
  [[nodiscard]] BinaryMachine train_pair(const Dataset& data, int class_a,
                                         int class_b, util::Rng& rng) const;
  /// Fills thread-local scratch with kernel(pool vector, row) for every
  /// pooled vector and returns it (valid until the thread's next call).
  [[nodiscard]] std::span<const double> kernel_row(
      std::span<const double> row) const;
  [[nodiscard]] static double evaluate(const BinaryMachine& m,
                                       std::span<const double> kernels);

  SvmConfig config_;
  int num_classes_ = 0;
  std::size_t dim_ = 0;
  // Pooled support vectors flattened row-major (dim_ doubles each), in
  // training-row order.
  std::vector<double> pool_;
  std::vector<BinaryMachine> machines_;
};

}  // namespace reshape::ml
