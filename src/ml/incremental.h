// Warm-started online training over a growing dataset.
//
// The static attack pipeline (attack::ClassifierAttack) fits its scaler
// and classifier exactly once, on clean profile traffic, and never looks
// back — the paper's §IV adversary. An adaptive adversary instead keeps
// capturing while the defense runs and periodically *re-fits* on what the
// defended air actually looks like. IncrementalTrainer is that refit
// engine: it pins an immutable base dataset (the clean bootstrap corpus),
// keeps a sliding window of freshly captured rows, and on every refit()
// re-fits scaler + classifier over base + window. Rows are stored raw
// (unscaled) so each refit re-learns the feature extremes too — a defense
// that shifts the feature range (padding pushes size_min to the MTU) is
// absorbed instead of clipping forever against the bootstrap-era scale.
#pragma once

#include <cstddef>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "features/scaler.h"
#include "ml/dataset.h"

namespace reshape::ml {

/// Knobs of the incremental trainer.
struct IncrementalTrainerConfig {
  /// Sliding-window cap on adaptive rows: add() beyond this evicts the
  /// oldest captured row first. 0 means unbounded.
  std::size_t max_adaptive_rows = 4096;
};

/// Scaler + classifier behind a warm-started refit loop.
///
/// Invariant: after a successful refit(), the scaler is fitted and the
/// classifier is trained over every row the trainer currently holds
/// (base + adaptive window); predict() scales with the *current* fit.
class IncrementalTrainer {
 public:
  /// `classifier` must be non-null; ownership transfers. `num_classes`
  /// bounds every label the trainer will ever see.
  IncrementalTrainer(std::unique_ptr<Classifier> classifier, int num_classes,
                     IncrementalTrainerConfig config = {});

  /// Pins the immutable bootstrap rows (raw, unscaled). Replaces any
  /// previous base; does not refit.
  void set_base(Dataset base);

  /// Appends one captured row (raw, unscaled) to the sliding window,
  /// evicting the oldest row beyond the configured cap.
  void add(std::vector<double> row, int label);

  /// Re-fits scaler + classifier over base + adaptive window. Returns
  /// false (and leaves any previous fit untouched) when the trainer holds
  /// no rows at all.
  bool refit();

  /// Scales `raw` with the current fit and classifies it. Requires a
  /// successful refit().
  [[nodiscard]] int predict(std::span<const double> raw) const;

  [[nodiscard]] bool fitted() const { return scaler_.fitted(); }
  [[nodiscard]] const Dataset& base() const { return base_; }
  [[nodiscard]] std::size_t base_rows() const { return base_.size(); }
  [[nodiscard]] std::size_t adaptive_rows() const { return window_.size(); }
  [[nodiscard]] std::size_t total_rows() const {
    return base_.size() + window_.size();
  }
  [[nodiscard]] std::size_t refits() const { return refits_; }

 private:
  struct Row {
    std::vector<double> values;
    int label = 0;
  };

  std::unique_ptr<Classifier> classifier_;
  int num_classes_;
  IncrementalTrainerConfig config_;
  Dataset base_;
  std::deque<Row> window_;  // oldest first; deque: O(1) front eviction
  features::MinMaxScaler scaler_;
  std::size_t refits_ = 0;
};

}  // namespace reshape::ml
