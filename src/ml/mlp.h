// Multi-layer perceptron classifier (the "NN" attacker of the paper's
// classification system, ref. [6]).
//
// One ReLU hidden layer, softmax output, cross-entropy loss, mini-batch
// SGD with momentum. Written from scratch on std::vector math — the
// feature space is 14-dimensional and training sets are a few thousand
// windows, so no BLAS is needed.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "ml/dataset.h"
#include "util/rng.h"

namespace reshape::ml {

/// MLP hyperparameters.
struct MlpConfig {
  std::size_t hidden_units = 32;
  double learning_rate = 0.05;
  double momentum = 0.9;
  double weight_decay = 1e-4;
  std::size_t epochs = 150;
  std::size_t batch_size = 32;
  std::uint64_t seed = 7;
};

/// Feed-forward network: input -> ReLU(hidden) -> softmax(classes).
class MlpClassifier final : public Classifier {
 public:
  explicit MlpClassifier(MlpConfig config = {});

  void fit(const Dataset& data) override;
  [[nodiscard]] int predict(std::span<const double> row) const override;
  [[nodiscard]] std::string_view name() const override { return "mlp"; }

  /// Class-probability vector (softmax outputs) for one row.
  [[nodiscard]] std::vector<double> predict_proba(
      std::span<const double> row) const;

  [[nodiscard]] bool trained() const { return !w1_.empty(); }

  /// Mean cross-entropy of the final training epoch (for convergence
  /// tests).
  [[nodiscard]] double final_training_loss() const { return final_loss_; }

 private:
  /// Forward pass into caller-provided buffers: `hidden` (hidden_units
  /// post-ReLU activations) and `probs` (one softmax output per class).
  void forward(std::span<const double> row, std::span<double> hidden,
               std::span<double> probs) const;

  /// Validates `row`, runs forward() into thread-local scratch and returns
  /// the class probabilities (valid until the thread's next call). Keeps
  /// per-window prediction off the heap; predict runs concurrently on
  /// pool threads, so the scratch cannot be a member.
  [[nodiscard]] std::span<const double> forward_scratch(
      std::span<const double> row) const;

  MlpConfig config_;
  std::size_t inputs_ = 0;
  std::size_t outputs_ = 0;
  // w1_[h][i]: input->hidden; w2_[o][h]: hidden->output.
  std::vector<std::vector<double>> w1_;
  std::vector<double> b1_;
  std::vector<std::vector<double>> w2_;
  std::vector<double> b2_;
  double final_loss_ = 0.0;
};

}  // namespace reshape::ml
