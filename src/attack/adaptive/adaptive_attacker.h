// The adaptive attacker-in-the-loop: an adversary that re-trains on the
// *defended* air while the session runs.
//
// The paper's §IV adversary is static — it profiles the seven
// applications on clean traffic once and never adapts, which is exactly
// where related work says defenses get overestimated: an eavesdropper
// with full observation of shaped traffic can re-fit its pipeline on what
// the defense actually emits. AdaptiveAttacker closes that gap. It starts
// from the same clean bootstrap corpus as attack::ClassifierAttack, then
// runs a prequential (test-then-train) loop over a live session:
//
//   capture ── window ──> score epoch e with the current model
//      │                     │
//      │                     ▼
//      └────────> self-label epoch e's windows ──> IncrementalTrainer
//                   (oracle | RSSI-cluster)          add + warm refit
//                                                       │
//                              model for epoch e+1 <────┘
//
// Every epoch is scored *before* its windows enter the training window,
// so epoch 0 is the static baseline and the per-epoch accuracy curve is
// an honest measure of how fast the adversary adapts — the
// accuracy-over-time signal campaigns sweep to see how long each defense
// survives.
//
// Self-labeling strategies:
//   * kOracle — ground-truth labels (the simulation knows each flow's
//     application); the adversary's upper bound.
//   * kRssiCluster — the realistic §V-A adversary: virtual MACs are
//     linked to physical transmitters by clustering mean RSSI
//     (attack::RssiLinker), each cluster is pseudo-labeled by the current
//     model's majority vote over the cluster's windows, and training
//     proceeds on those (possibly wrong) labels.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "attack/classifier_attack.h"
#include "attack/sniffer.h"
#include "features/features.h"
#include "ml/incremental.h"
#include "ml/metrics.h"
#include "traffic/trace.h"
#include "util/time.h"

namespace reshape::attack::adaptive {

/// How the adversary labels captured windows for re-training.
enum class Labeling : std::uint8_t {
  kOracle,       // ground truth (upper bound)
  kRssiCluster,  // RSSI linkage + current-model majority vote (§V-A)
};

/// The adaptive adversary's AttackConfig defaults: the static pipeline's
/// processing with direction-mask augmentation off — the adaptive corpus
/// is the defended capture itself, which already has whatever sidedness
/// the air shows, so synthetic one-sided views would only dilute it.
[[nodiscard]] AttackConfig adaptive_attack_defaults();

/// Knobs of the adaptive loop.
struct AdaptiveConfig {
  /// Feature processing — identical to the static attack pipeline so the
  /// two adversaries are directly comparable. The bootstrap profile
  /// honours augment_direction_masks (attack::profile_rows); the default
  /// leaves it off, and the captured epochs are never augmented.
  AttackConfig attack = adaptive_attack_defaults();

  /// Re-training cadence: one refit per epoch of this length.
  util::Duration cadence = util::Duration::seconds(15.0);

  /// Self-labeling strategy for captured windows.
  Labeling labeling = Labeling::kOracle;

  /// RSSI linkage threshold for kRssiCluster (dB).
  double rssi_link_threshold_db = 2.0;

  /// Sliding window over captured rows (ml::IncrementalTrainerConfig).
  std::size_t max_adaptive_rows = 4096;

  /// Also score every epoch with the frozen bootstrap-only model — the
  /// static-adversary curve the adaptive one is measured against.
  bool track_static_baseline = true;
};

/// One flow as the adversary isolated it on the air: the per-virtual-MAC
/// trace plus its power signature. `flow.app()` carries the ground truth
/// used for scoring (and for kOracle labeling). Addresses must be
/// distinct across the flows of one session — kRssiCluster keys its
/// linkage groups on them (campaigns mint synthetic ones per flow).
struct ObservedFlow {
  mac::MacAddress address;
  traffic::Trace flow;
  double mean_rssi = 0.0;
};

/// What one re-training epoch produced.
struct EpochScore {
  std::size_t epoch = 0;
  util::TimePoint start;
  util::TimePoint end;

  /// Scored windows this epoch (0 when the air was quiet).
  std::size_t windows = 0;

  /// Confusion of the *adaptive* model on this epoch, before it trains on
  /// the epoch's windows (prequential scoring).
  ml::ConfusionMatrix confusion{1};

  /// Confusion of the frozen bootstrap model on the same windows (empty
  /// unless track_static_baseline).
  ml::ConfusionMatrix static_confusion{1};

  /// Self-labels that matched ground truth / labels assigned. Equal under
  /// kOracle; under kRssiCluster the gap is the pseudo-label noise the
  /// adversary trains through.
  std::size_t labels_correct = 0;
  std::size_t labels_assigned = 0;

  /// Trainer state after this epoch's refit.
  std::size_t training_rows = 0;
  bool refitted = false;

  /// Mean per-class accuracy (%) of the adaptive / static model.
  [[nodiscard]] double accuracy_percent() const;
  [[nodiscard]] double static_accuracy_percent() const;
};

/// Builds a fresh classifier per trainer (the attacker needs independent
/// adaptive and frozen-baseline instances).
using ClassifierFactory = std::function<std::unique_ptr<ml::Classifier>()>;

/// The default adaptive classifier: kNN — refits over a growing dataset
/// are cheap (fit is storage) and prediction is deterministic.
[[nodiscard]] ClassifierFactory default_classifier_factory();

/// The online adversary.
class AdaptiveAttacker {
 public:
  /// `make_classifier` may be null (defaults to kNN).
  explicit AdaptiveAttacker(AdaptiveConfig config,
                            ClassifierFactory make_classifier = nullptr);

  /// Bootstraps from clean traces: profile_rows(clean_traces,
  /// config().attack), then fit.
  void bootstrap(std::span<const traffic::Trace> clean_traces);

  /// Bootstraps from pre-extracted profile rows — the base dataset every
  /// refit keeps pinned (the campaign fast path; rows must be
  /// raw/unscaled, as profile_rows returns them).
  void bootstrap(ml::Dataset base);

  /// Runs the prequential loop over one captured session: slices the
  /// flows into cadence-length epochs, scores each epoch with the current
  /// model, self-labels it, feeds it to the trainer, and refits. The
  /// adaptive window is cleared first, so every session starts its arms
  /// race from the bootstrap model. Requires bootstrap().
  [[nodiscard]] std::vector<EpochScore> run_session(
      std::span<const ObservedFlow> flows);

  [[nodiscard]] bool bootstrapped() const { return bootstrapped_; }
  [[nodiscard]] const AdaptiveConfig& config() const { return config_; }
  [[nodiscard]] const ml::IncrementalTrainer& trainer() const {
    return trainer_;
  }

 private:
  AdaptiveConfig config_;
  ml::IncrementalTrainer trainer_;         // the adapting pipeline
  ml::IncrementalTrainer static_trainer_;  // frozen bootstrap baseline
  bool bootstrapped_ = false;
};

/// Pulls every station flow + power signature out of a sniffer,
/// oracle-labeling all flows with `oracle_app` (a single-client cell,
/// as in the live_wlan_session example). Sorted by MAC — deterministic.
[[nodiscard]] std::vector<ObservedFlow> observe(const Sniffer& sniffer,
                                                traffic::AppType oracle_app);

}  // namespace reshape::attack::adaptive
