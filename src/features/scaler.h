// Feature scaling for the attack classifiers.
//
// Both classifiers (SVM with an RBF kernel, MLP) need features on
// comparable scales; packet counts and interarrival seconds differ by four
// orders of magnitude. The scaler is fit on training data only and then
// applied to test data — fitting on test data would leak the answer.
#pragma once

#include <span>
#include <vector>

namespace reshape::features {

/// Per-dimension min-max scaling: x' = (x - min) / (max - min).
///
/// This is the scaling the attack pipeline uses. Unlike z-scoring, its
/// output is bounded by the *physical* extremes the training data spans
/// (packet sizes 0..1576, counts 0..max observed), so a defended flow
/// whose features sit at an extreme — e.g. an OR interface whose minimum
/// packet size is 1576 — lands exactly on the training windows that share
/// that extreme instead of becoming a many-sigma outlier. Constant
/// columns map to 0.
class MinMaxScaler {
 public:
  /// Learns per-dimension min/max. Requires a non-empty, rectangular
  /// sample matrix.
  void fit(std::span<const std::vector<double>> rows);

  [[nodiscard]] bool fitted() const { return !mins_.empty(); }

  /// Scales one row (dimensionality must match fit()).
  [[nodiscard]] std::vector<double> transform(
      std::span<const double> row) const;

  /// Scales one row into a caller-owned buffer (resized to fit) so
  /// per-window classification loops reuse one allocation.
  void transform_into(std::span<const double> row,
                      std::vector<double>& out) const;

  /// Scales many rows.
  [[nodiscard]] std::vector<std::vector<double>> transform_all(
      std::span<const std::vector<double>> rows) const;

  [[nodiscard]] std::span<const double> mins() const { return mins_; }
  [[nodiscard]] std::span<const double> maxs() const { return maxs_; }

 private:
  std::vector<double> mins_;
  std::vector<double> maxs_;
};

}  // namespace reshape::features
