// The end-to-end traffic-analysis attack pipeline (ref. [6], used by the
// paper as its adversary):
//
//   capture -> window by W -> extract features -> standardise -> classify
//
// The adversary trains on features of *undefended* traffic (it profiles
// the seven applications in advance) and then classifies every flow it
// can isolate on the air. Under reshaping, each virtual MAC address looks
// like an independent station, so every virtual interface's flow is
// classified separately; the ground truth of each is the original
// application.
//
// Rows come from one place. feature_rows_into is the only row function;
// feature_rows_of is its returning adapter for whole traces. The labeled
// clean-profile rows every adversary trains on come from profile_rows,
// and ClassifierAttack::fit takes those rows, so callers fitting several
// attackers on one corpus extract it once.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "features/features.h"
#include "features/scaler.h"
#include "ml/dataset.h"
#include "ml/metrics.h"
#include "traffic/trace.h"
#include "util/time.h"

namespace reshape::attack {

/// Attack configuration.
struct AttackConfig {
  util::Duration window = util::Duration::seconds(5.0);  // W
  features::FeatureSet feature_set = features::FeatureSet::kAll;
  std::size_t min_packets_per_window = 2;

  /// Train on single-direction views of every window in addition to the
  /// full view. Wireless captures are frequently one-sided — a sniffer in
  /// AP range but outside client range hears only downlink — so a robust
  /// adversary profiles each application's downlink-only and uplink-only
  /// appearance too. (Only meaningful for FeatureSet::kAll.)
  bool augment_direction_masks = true;

  /// Log-compress counts and interarrival features before scaling (see
  /// features::log_compress).
  bool log_compress = true;

  friend bool operator==(const AttackConfig&, const AttackConfig&) = default;
};

/// The one row function: the per-window feature rows of one flow under
/// the configured processing — W-windowing, optional log compression,
/// feature-set projection — written into a caller-owned row buffer
/// (cleared per call) through a caller-owned window buffer. Every
/// adversary (static, adaptive, the audit probe) extracts through it, so
/// all of them see byte-identical inputs, and callers that reuse both
/// buffers across flows amortize their allocation.
void feature_rows_into(std::vector<std::vector<double>>& rows,
                       traffic::TraceView flow, const AttackConfig& config,
                       std::vector<features::WindowFeatures>& windows_scratch);

/// Returning adapter over feature_rows_into for a whole trace.
[[nodiscard]] std::vector<std::vector<double>> feature_rows_of(
    const traffic::Trace& flow, const AttackConfig& config,
    std::vector<features::WindowFeatures>& windows_scratch);

/// The labeled training rows of a clean profile corpus (one trace per
/// session, labeled by Trace::app()): every trace's feature_rows_into
/// rows, in corpus order. With augment_direction_masks (FeatureSet::kAll
/// only), each window contributes its downlink-kept masked row (when the
/// window has downlink packets), then its uplink-kept masked row (when it
/// has uplink packets), then the full row. Raw, unscaled rows; throws
/// when the corpus is empty or yields no usable window.
[[nodiscard]] ml::Dataset profile_rows(std::span<const traffic::Trace> corpus,
                                       const AttackConfig& config);

/// A trained attacker: scaler + classifier behind one interface.
class ClassifierAttack {
 public:
  /// `classifier` must be non-null; ownership transfers.
  ClassifierAttack(AttackConfig config,
                   std::unique_ptr<ml::Classifier> classifier);

  /// Fits scaler + classifier on raw labeled rows (profile_rows output
  /// under this attack's config). Callers fitting several attackers on
  /// one corpus extract its rows once and fit each from them.
  void fit(const ml::Dataset& rows);

  /// fit(profile_rows(clean_traces, config())).
  void train(std::span<const traffic::Trace> clean_traces);

  /// Classifies every W-window of a flow; returns one predicted label per
  /// usable window (empty when the flow never has enough packets).
  [[nodiscard]] std::vector<int> classify_flow(
      const traffic::Trace& flow) const;

  /// Classifies precomputed (unscaled) feature rows — the output of
  /// feature_rows_into under this attack's config. Lets callers scoring the
  /// same flows with several attackers extract each flow's windows once.
  [[nodiscard]] std::vector<int> classify_rows(
      std::span<const std::vector<double>> rows) const;

  /// Scores a set of observed flows against their ground-truth labels,
  /// accumulating one confusion entry per window.
  [[nodiscard]] ml::ConfusionMatrix evaluate(
      std::span<const traffic::Trace> flows) const;

  [[nodiscard]] bool trained() const { return trained_; }
  [[nodiscard]] const AttackConfig& config() const { return config_; }
  [[nodiscard]] const ml::Classifier& classifier() const {
    return *classifier_;
  }

 private:
  AttackConfig config_;
  std::unique_ptr<ml::Classifier> classifier_;
  features::MinMaxScaler scaler_;
  bool trained_ = false;
};

}  // namespace reshape::attack
