#include "ml/dataset.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"

namespace reshape::ml {

Dataset::Dataset(std::vector<std::vector<double>> rows,
                 std::vector<int> labels, int num_classes)
    : rows_{std::move(rows)}, labels_{std::move(labels)},
      num_classes_{num_classes} {
  util::require(rows_.size() == labels_.size(),
                "Dataset: rows/labels size mismatch");
  util::require(num_classes_ > 0, "Dataset: num_classes must be > 0");
  const std::size_t dims = rows_.empty() ? 0 : rows_.front().size();
  for (const auto& row : rows_) {
    util::require(row.size() == dims, "Dataset: ragged rows");
  }
  for (const int label : labels_) {
    util::require(label >= 0 && label < num_classes_,
                  "Dataset: label out of range");
  }
}

void Dataset::add(std::vector<double> row, int label) {
  util::require(rows_.empty() || row.size() == rows_.front().size(),
                "Dataset::add: dimensionality mismatch");
  util::require(label >= 0, "Dataset::add: negative label");
  num_classes_ = std::max(num_classes_, label + 1);
  rows_.push_back(std::move(row));
  labels_.push_back(label);
}

void Dataset::set_num_classes(int n) {
  for (const int label : labels_) {
    util::require(label < n, "Dataset::set_num_classes: existing label >= n");
  }
  num_classes_ = n;
}

std::size_t Dataset::class_count(int label) const {
  return static_cast<std::size_t>(
      std::count(labels_.begin(), labels_.end(), label));
}

void Dataset::shuffle(util::Rng& rng) {
  std::vector<std::size_t> order(rows_.size());
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  std::vector<std::vector<double>> new_rows;
  std::vector<int> new_labels;
  new_rows.reserve(rows_.size());
  new_labels.reserve(labels_.size());
  for (const std::size_t i : order) {
    new_rows.push_back(std::move(rows_[i]));
    new_labels.push_back(labels_[i]);
  }
  rows_ = std::move(new_rows);
  labels_ = std::move(new_labels);
}

std::pair<Dataset, Dataset> Dataset::stratified_split(double train_fraction,
                                                      util::Rng& rng) const {
  util::require(train_fraction > 0.0 && train_fraction < 1.0,
                "Dataset::stratified_split: fraction must be in (0,1)");
  Dataset train;
  Dataset test;
  for (int c = 0; c < num_classes_; ++c) {
    std::vector<std::size_t> members;
    for (std::size_t i = 0; i < labels_.size(); ++i) {
      if (labels_[i] == c) {
        members.push_back(i);
      }
    }
    rng.shuffle(members);
    const auto cut = static_cast<std::size_t>(
        train_fraction * static_cast<double>(members.size()));
    for (std::size_t k = 0; k < members.size(); ++k) {
      (k < cut ? train : test).add(rows_[members[k]], c);
    }
  }
  train.set_num_classes(num_classes_);
  test.set_num_classes(num_classes_);
  return {std::move(train), std::move(test)};
}

}  // namespace reshape::ml
