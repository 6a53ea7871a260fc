#include "attack/classifier_attack.h"

#include <array>

#include "traffic/app_type.h"
#include "util/check.h"

namespace reshape::attack {

ClassifierAttack::ClassifierAttack(AttackConfig config,
                                   std::unique_ptr<ml::Classifier> classifier)
    : config_{config}, classifier_{std::move(classifier)} {
  util::require(classifier_ != nullptr,
                "ClassifierAttack: classifier must not be null");
  util::require(config_.window > util::Duration{},
                "ClassifierAttack: window must be positive");
}

void feature_rows_into(std::vector<std::vector<double>>& rows,
                       traffic::TraceView flow, const AttackConfig& config,
                       std::vector<features::WindowFeatures>& windows_scratch) {
  features::extract_all_windows_into(windows_scratch, flow, config.window,
                                     config.min_packets_per_window);
  rows.clear();
  rows.reserve(windows_scratch.size());
  for (const features::WindowFeatures& w : windows_scratch) {
    rows.push_back(
        features::project(features::log_compress(w), config.feature_set));
  }
}

std::vector<std::vector<double>> feature_rows_of(
    const traffic::Trace& flow, const AttackConfig& config,
    std::vector<features::WindowFeatures>& windows_scratch) {
  std::vector<std::vector<double>> rows;
  feature_rows_into(rows, flow.records(), config, windows_scratch);
  return rows;
}

namespace {

/// The feature block an empty direction produces after log compression —
/// masking must write exactly this signature or masked training rows
/// won't coincide with genuinely one-sided test flows.
std::array<double, features::DirectionFeatures::kCount> empty_block() {
  const features::WindowFeatures w;  // both directions empty
  return features::log_compress(w).downlink.to_array();
}

/// Overwrites one direction's block of a full feature row with the
/// empty-direction signature (the appearance of the window in a one-sided
/// capture). Row layout is the WindowFeatures order: downlink block then
/// uplink block.
std::vector<double> mask_direction(const std::vector<double>& row,
                                   bool keep_downlink) {
  constexpr std::size_t kHalf = features::DirectionFeatures::kCount;
  const auto blank = empty_block();
  std::vector<double> out = row;
  const std::size_t start = keep_downlink ? kHalf : 0;
  for (std::size_t d = 0; d < kHalf; ++d) {
    out[start + d] = blank[d];
  }
  return out;
}

/// True when the row has at least one packet in the given direction
/// (log2(1 + n) is positive exactly when n > 0).
bool has_direction(const std::vector<double>& row, bool downlink) {
  constexpr std::size_t kHalf = features::DirectionFeatures::kCount;
  return row[downlink ? 0 : kHalf] > 0.0;  // packet_count leads each block
}

}  // namespace

ml::Dataset profile_rows(std::span<const traffic::Trace> corpus,
                         const AttackConfig& config) {
  util::require(!corpus.empty(), "profile_rows: no traces");
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  const bool augment = config.augment_direction_masks &&
                       config.feature_set == features::FeatureSet::kAll;
  std::vector<std::vector<double>> trace_rows;
  std::vector<features::WindowFeatures> windows;
  for (const traffic::Trace& t : corpus) {
    const int label = static_cast<int>(traffic::app_index(t.app()));
    feature_rows_into(trace_rows, t.records(), config, windows);
    for (std::vector<double>& row : trace_rows) {
      if (augment) {
        if (has_direction(row, true)) {
          rows.push_back(mask_direction(row, /*keep_downlink=*/true));
          labels.push_back(label);
        }
        if (has_direction(row, false)) {
          rows.push_back(mask_direction(row, /*keep_downlink=*/false));
          labels.push_back(label);
        }
      }
      rows.push_back(std::move(row));
      labels.push_back(label);
    }
  }
  util::require(!rows.empty(),
                "profile_rows: traces yielded no usable windows");
  return ml::Dataset{std::move(rows), std::move(labels),
                     static_cast<int>(traffic::kAppCount)};
}

void ClassifierAttack::fit(const ml::Dataset& rows) {
  util::require(!rows.empty(), "ClassifierAttack::fit: no rows");
  scaler_.fit(rows.rows());
  const std::span<const int> labels = rows.labels();
  classifier_->fit(ml::Dataset{scaler_.transform_all(rows.rows()),
                               {labels.begin(), labels.end()},
                               rows.num_classes()});
  trained_ = true;
}

void ClassifierAttack::train(std::span<const traffic::Trace> clean_traces) {
  fit(profile_rows(clean_traces, config_));
}

std::vector<int> ClassifierAttack::classify_flow(
    const traffic::Trace& flow) const {
  std::vector<features::WindowFeatures> windows;
  return classify_rows(feature_rows_of(flow, config_, windows));
}

std::vector<int> ClassifierAttack::classify_rows(
    std::span<const std::vector<double>> rows) const {
  util::require(trained_, "ClassifierAttack::classify_rows: not trained");
  std::vector<int> out;
  out.reserve(rows.size());
  std::vector<double> scaled;  // reused across windows
  for (const auto& row : rows) {
    scaler_.transform_into(row, scaled);
    out.push_back(classifier_->predict(scaled));
  }
  return out;
}

ml::ConfusionMatrix ClassifierAttack::evaluate(
    std::span<const traffic::Trace> flows) const {
  ml::ConfusionMatrix confusion{static_cast<int>(traffic::kAppCount)};
  for (const traffic::Trace& flow : flows) {
    const int truth = static_cast<int>(traffic::app_index(flow.app()));
    for (const int predicted : classify_flow(flow)) {
      confusion.add(truth, predicted);
    }
  }
  return confusion;
}

}  // namespace reshape::attack
