#include "ml/mlp.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.h"

namespace reshape::ml {

MlpClassifier::MlpClassifier(MlpConfig config) : config_{config} {
  util::require(config_.hidden_units > 0, "MlpClassifier: hidden_units > 0");
  util::require(config_.learning_rate > 0.0,
                "MlpClassifier: learning_rate > 0");
  util::require(config_.batch_size > 0, "MlpClassifier: batch_size > 0");
}

void MlpClassifier::forward(std::span<const double> row,
                            std::span<double> hidden,
                            std::span<double> probs) const {
  for (std::size_t h = 0; h < config_.hidden_units; ++h) {
    double z = b1_[h];
    const auto& wrow = w1_[h];
    for (std::size_t i = 0; i < inputs_; ++i) {
      z += wrow[i] * row[i];
    }
    hidden[h] = z > 0.0 ? z : 0.0;  // ReLU
  }
  double max_z = -1e300;
  for (std::size_t o = 0; o < outputs_; ++o) {
    double z = b2_[o];
    const auto& wrow = w2_[o];
    for (std::size_t h = 0; h < config_.hidden_units; ++h) {
      z += wrow[h] * hidden[h];
    }
    probs[o] = z;
    max_z = std::max(max_z, z);
  }
  double denom = 0.0;
  for (double& p : probs) {
    p = std::exp(p - max_z);  // stable softmax
    denom += p;
  }
  for (double& p : probs) {
    p /= denom;
  }
}

void MlpClassifier::fit(const Dataset& data) {
  util::require(!data.empty(), "MlpClassifier::fit: empty dataset");
  util::require(data.num_classes() >= 2,
                "MlpClassifier::fit: need at least two classes");
  inputs_ = data.dimensions();
  outputs_ = static_cast<std::size_t>(data.num_classes());
  util::require(inputs_ > 0, "MlpClassifier::fit: zero-dimensional rows");

  util::Rng rng{config_.seed};
  const double init1 = std::sqrt(2.0 / static_cast<double>(inputs_));
  const double init2 =
      std::sqrt(2.0 / static_cast<double>(config_.hidden_units));

  w1_.assign(config_.hidden_units, std::vector<double>(inputs_, 0.0));
  b1_.assign(config_.hidden_units, 0.0);
  w2_.assign(outputs_, std::vector<double>(config_.hidden_units, 0.0));
  b2_.assign(outputs_, 0.0);
  for (auto& row : w1_) {
    for (double& w : row) {
      w = rng.normal(0.0, init1);
    }
  }
  for (auto& row : w2_) {
    for (double& w : row) {
      w = rng.normal(0.0, init2);
    }
  }

  // Momentum buffers mirror the weight shapes.
  auto v_w1 = w1_;
  auto v_w2 = w2_;
  for (auto& row : v_w1) {
    std::fill(row.begin(), row.end(), 0.0);
  }
  for (auto& row : v_w2) {
    std::fill(row.begin(), row.end(), 0.0);
  }
  std::vector<double> v_b1(config_.hidden_units, 0.0);
  std::vector<double> v_b2(outputs_, 0.0);

  std::vector<double> hidden(config_.hidden_units);
  std::vector<double> probs(outputs_);
  std::vector<double> dz2(outputs_);

  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);

  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.shuffle(order);
    double epoch_loss = 0.0;

    for (std::size_t start = 0; start < order.size();
         start += config_.batch_size) {
      const std::size_t stop =
          std::min(start + config_.batch_size, order.size());
      const double batch_n = static_cast<double>(stop - start);

      // Gradient accumulators.
      std::vector<std::vector<double>> g_w1(
          config_.hidden_units, std::vector<double>(inputs_, 0.0));
      std::vector<double> g_b1(config_.hidden_units, 0.0);
      std::vector<std::vector<double>> g_w2(
          outputs_, std::vector<double>(config_.hidden_units, 0.0));
      std::vector<double> g_b2(outputs_, 0.0);

      for (std::size_t k = start; k < stop; ++k) {
        const auto& row = data.row(order[k]);
        const int label = data.label(order[k]);
        forward(row, hidden, probs);
        epoch_loss -=
            std::log(std::max(probs[static_cast<std::size_t>(label)], 1e-12));

        // dL/dz2 = p - onehot(label)
        dz2 = probs;
        dz2[static_cast<std::size_t>(label)] -= 1.0;
        for (std::size_t o = 0; o < outputs_; ++o) {
          g_b2[o] += dz2[o];
          for (std::size_t h = 0; h < config_.hidden_units; ++h) {
            g_w2[o][h] += dz2[o] * hidden[h];
          }
        }
        // Backprop through ReLU.
        for (std::size_t h = 0; h < config_.hidden_units; ++h) {
          if (hidden[h] <= 0.0) {
            continue;
          }
          double dh = 0.0;
          for (std::size_t o = 0; o < outputs_; ++o) {
            dh += dz2[o] * w2_[o][h];
          }
          g_b1[h] += dh;
          for (std::size_t i = 0; i < inputs_; ++i) {
            g_w1[h][i] += dh * row[i];
          }
        }
      }

      const double lr = config_.learning_rate;
      const auto step = [&](double& w, double& v, double g) {
        v = config_.momentum * v -
            lr * (g / batch_n + config_.weight_decay * w);
        w += v;
      };
      for (std::size_t h = 0; h < config_.hidden_units; ++h) {
        step(b1_[h], v_b1[h], g_b1[h]);
        for (std::size_t i = 0; i < inputs_; ++i) {
          step(w1_[h][i], v_w1[h][i], g_w1[h][i]);
        }
      }
      for (std::size_t o = 0; o < outputs_; ++o) {
        step(b2_[o], v_b2[o], g_b2[o]);
        for (std::size_t h = 0; h < config_.hidden_units; ++h) {
          step(w2_[o][h], v_w2[o][h], g_w2[o][h]);
        }
      }
    }
    final_loss_ = epoch_loss / static_cast<double>(data.size());
  }
}

std::span<const double> MlpClassifier::forward_scratch(
    std::span<const double> row) const {
  util::require(trained(), "MlpClassifier::predict_proba: not trained");
  util::require(row.size() == inputs_,
                "MlpClassifier::predict_proba: dimensionality mismatch");
  thread_local std::vector<double> scratch;
  scratch.resize(config_.hidden_units + outputs_);
  const std::span<double> all{scratch};
  const std::span<double> probs = all.subspan(config_.hidden_units, outputs_);
  forward(row, all.first(config_.hidden_units), probs);
  return probs;
}

std::vector<double> MlpClassifier::predict_proba(
    std::span<const double> row) const {
  const std::span<const double> probs = forward_scratch(row);
  return {probs.begin(), probs.end()};
}

int MlpClassifier::predict(std::span<const double> row) const {
  const std::span<const double> probs = forward_scratch(row);
  return static_cast<int>(std::max_element(probs.begin(), probs.end()) -
                          probs.begin());
}

}  // namespace reshape::ml
