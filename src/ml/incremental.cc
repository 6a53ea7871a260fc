#include "ml/incremental.h"

#include <utility>

#include "util/check.h"

namespace reshape::ml {

IncrementalTrainer::IncrementalTrainer(std::unique_ptr<Classifier> classifier,
                                       int num_classes,
                                       IncrementalTrainerConfig config)
    : classifier_{std::move(classifier)},
      num_classes_{num_classes},
      config_{config} {
  util::require(classifier_ != nullptr,
                "IncrementalTrainer: classifier must not be null");
  util::require(num_classes_ > 0,
                "IncrementalTrainer: need at least one class");
}

void IncrementalTrainer::set_base(Dataset base) {
  util::require(base.num_classes() <= num_classes_,
                "IncrementalTrainer: base dataset exceeds class count");
  base_ = std::move(base);
}

void IncrementalTrainer::add(std::vector<double> row, int label) {
  util::require(label >= 0 && label < num_classes_,
                "IncrementalTrainer: label out of range");
  util::require(base_.empty() || row.size() == base_.dimensions(),
                "IncrementalTrainer: row dimensionality mismatch");
  util::require(window_.empty() || row.size() == window_.front().values.size(),
                "IncrementalTrainer: row dimensionality mismatch");
  while (config_.max_adaptive_rows > 0 &&
         window_.size() >= config_.max_adaptive_rows) {
    window_.pop_front();
  }
  window_.push_back(Row{std::move(row), label});
}

bool IncrementalTrainer::refit() {
  if (base_.empty() && window_.empty()) {
    return false;
  }
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  rows.reserve(total_rows());
  labels.reserve(total_rows());
  for (std::size_t i = 0; i < base_.size(); ++i) {
    rows.push_back(base_.row(i));
    labels.push_back(base_.label(i));
  }
  for (const Row& r : window_) {
    rows.push_back(r.values);
    labels.push_back(r.label);
  }
  scaler_.fit(rows);
  Dataset data{scaler_.transform_all(rows), std::move(labels), num_classes_};
  classifier_->fit(data);
  ++refits_;
  return true;
}

int IncrementalTrainer::predict(std::span<const double> raw) const {
  util::require(fitted(), "IncrementalTrainer::predict: refit() first");
  return classifier_->predict(scaler_.transform(raw));
}

}  // namespace reshape::ml
