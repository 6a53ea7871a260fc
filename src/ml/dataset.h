// Labelled feature datasets for the traffic-analysis classifiers.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/rng.h"

namespace reshape::ml {

/// A labelled sample matrix.
///
/// Invariant: rows() == labels().size(), all rows share one
/// dimensionality, and labels lie in [0, num_classes).
class Dataset {
 public:
  Dataset() = default;

  /// Builds a dataset; validates shape and label range.
  Dataset(std::vector<std::vector<double>> rows, std::vector<int> labels,
          int num_classes);

  void add(std::vector<double> row, int label);

  [[nodiscard]] std::size_t size() const { return rows_.size(); }
  [[nodiscard]] bool empty() const { return rows_.empty(); }
  [[nodiscard]] std::size_t dimensions() const {
    return rows_.empty() ? 0 : rows_.front().size();
  }
  [[nodiscard]] int num_classes() const { return num_classes_; }
  void set_num_classes(int n);

  [[nodiscard]] std::span<const std::vector<double>> rows() const {
    return rows_;
  }
  [[nodiscard]] std::span<const int> labels() const { return labels_; }
  [[nodiscard]] const std::vector<double>& row(std::size_t i) const {
    return rows_[i];
  }
  [[nodiscard]] int label(std::size_t i) const { return labels_[i]; }

  /// Samples with the given label.
  [[nodiscard]] std::size_t class_count(int label) const;

  /// Deterministically shuffles rows and labels together.
  void shuffle(util::Rng& rng);

  /// Stratified split: `train_fraction` of every class goes into the first
  /// dataset, the rest into the second. Preserves class balance.
  [[nodiscard]] std::pair<Dataset, Dataset> stratified_split(
      double train_fraction, util::Rng& rng) const;

 private:
  std::vector<std::vector<double>> rows_;
  std::vector<int> labels_;
  int num_classes_ = 0;
};

/// Interface all classifiers implement.
class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Trains on the dataset (replacing any previous model).
  virtual void fit(const Dataset& data) = 0;

  /// Predicts the class of one feature row.
  [[nodiscard]] virtual int predict(std::span<const double> row) const = 0;

  /// Short identifier for reports ("svm-rbf", "mlp", ...).
  [[nodiscard]] virtual std::string_view name() const = 0;
};

}  // namespace reshape::ml
