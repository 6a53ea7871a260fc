#include "attack/adaptive/adaptive_attacker.h"

#include <algorithm>
#include <array>
#include <memory>
#include <utility>

#include "attack/rssi_linker.h"
#include "ml/knn.h"
#include "traffic/app_type.h"
#include "util/check.h"

namespace reshape::attack::adaptive {

namespace {

constexpr int kClasses = static_cast<int>(traffic::kAppCount);

/// Majority label over predictions; ties break toward the smaller label
/// (deterministic, matching KnnClassifier's convention).
int majority_label(std::span<const int> predictions) {
  std::array<std::size_t, traffic::kAppCount> votes{};
  for (const int p : predictions) {
    ++votes[static_cast<std::size_t>(p)];
  }
  int best = 0;
  for (int label = 1; label < kClasses; ++label) {
    if (votes[static_cast<std::size_t>(label)] >
        votes[static_cast<std::size_t>(best)]) {
      best = label;
    }
  }
  return best;
}

}  // namespace

AttackConfig adaptive_attack_defaults() {
  AttackConfig config;
  config.augment_direction_masks = false;
  return config;
}

double EpochScore::accuracy_percent() const {
  return 100.0 * confusion.mean_accuracy();
}

double EpochScore::static_accuracy_percent() const {
  return 100.0 * static_confusion.mean_accuracy();
}

AdaptiveAttacker::AdaptiveAttacker(AdaptiveConfig config, ml::Dataset base)
    : config_{config},
      static_trainer_{std::make_unique<ml::KnnClassifier>(5), kClasses} {
  util::require(config_.cadence > util::Duration{},
                "AdaptiveAttacker: cadence must be positive");
  util::require(!base.empty(), "AdaptiveAttacker: empty base");
  static_trainer_.set_base(std::move(base));
  util::internal_check(static_trainer_.refit(),
                       "AdaptiveAttacker: baseline refit failed");
}

std::vector<EpochScore> AdaptiveAttacker::run_session(
    std::span<const ObservedFlow> flows) const {
  util::TimePoint t0;
  util::TimePoint t_end;
  bool any = false;
  for (const ObservedFlow& f : flows) {
    if (f.flow.empty()) {
      continue;
    }
    if (!any) {
      t0 = f.flow.start_time();
      t_end = f.flow.end_time();
      any = true;
    } else {
      t0 = std::min(t0, f.flow.start_time());
      t_end = std::max(t_end, f.flow.end_time());
    }
  }
  if (!any) {
    return {};
  }

  // The session's adaptive model starts from the bootstrap rows alone.
  ml::IncrementalTrainer trainer{
      std::make_unique<ml::KnnClassifier>(5), kClasses,
      ml::IncrementalTrainerConfig{config_.max_adaptive_rows}};
  trainer.set_base(base());
  util::internal_check(trainer.refit(),
                       "AdaptiveAttacker: session refit failed");

  // Session-level RSSI linkage: groups are stable across epochs (the
  // power signature of a transmitter does not drift in this model), so
  // linkage runs once. group_of[i] indexes each flow's cluster.
  std::vector<std::size_t> group_of(flows.size(), 0);
  std::size_t group_count = 1;
  if (config_.labeling == Labeling::kRssiCluster) {
    std::vector<std::pair<mac::MacAddress, double>> rssi;
    rssi.reserve(flows.size());
    for (const ObservedFlow& f : flows) {
      rssi.emplace_back(f.address, f.mean_rssi);
    }
    const RssiLinker linker{};
    const std::vector<LinkedGroup> groups = linker.link(rssi);
    group_count = groups.size();
    for (std::size_t i = 0; i < flows.size(); ++i) {
      for (std::size_t g = 0; g < groups.size(); ++g) {
        if (std::find(groups[g].begin(), groups[g].end(),
                      flows[i].address) != groups[g].end()) {
          group_of[i] = g;
          break;
        }
      }
    }
  }

  const std::int64_t epochs =
      ((t_end - t0).count_us() + config_.cadence.count_us()) /
      config_.cadence.count_us();  // end_time is inclusive -> +1 epoch

  std::vector<EpochScore> out;
  out.reserve(static_cast<std::size_t>(epochs));
  for (std::int64_t e = 0; e < epochs; ++e) {
    EpochScore score;
    score.epoch = static_cast<std::size_t>(e);
    score.start = t0 + config_.cadence * e;
    score.end = score.start + config_.cadence;
    score.confusion = ml::ConfusionMatrix{kClasses};
    score.static_confusion = ml::ConfusionMatrix{kClasses};

    // Score the epoch with the current model (prequential: test first).
    // end_time-coincident records land in the last epoch via the +1 above.
    struct FlowRows {
      std::size_t flow_index;
      std::vector<std::vector<double>> rows;
      std::vector<int> predictions;
    };
    std::vector<FlowRows> epoch_rows;
    for (std::size_t i = 0; i < flows.size(); ++i) {
      // Zero-copy epoch slice: a borrowed column view over [start, end).
      // Windowing aligns to the view's first record, exactly as it did
      // when the slice was materialised as a standalone trace.
      const traffic::TraceView sub =
          flows[i].flow.slice(score.start, score.end);
      if (sub.empty()) {
        continue;
      }
      FlowRows fr;
      fr.flow_index = i;
      // A fresh window buffer per slice. One buffer kept for the whole
      // session, regrown between slices, fragments the worker's heap and
      // left the tuning sweep's peak RSS spread several times wider from
      // run to run.
      std::vector<features::WindowFeatures> windows;
      feature_rows_into(fr.rows, sub, config_.attack, windows);
      if (fr.rows.empty()) {
        continue;
      }
      const int truth =
          static_cast<int>(traffic::app_index(flows[i].flow.app()));
      for (const std::vector<double>& row : fr.rows) {
        const int predicted = trainer.predict(row);
        fr.predictions.push_back(predicted);
        score.confusion.add(truth, predicted);
        score.static_confusion.add(truth, static_trainer_.predict(row));
        ++score.windows;
      }
      epoch_rows.push_back(std::move(fr));
    }

    // Self-label and train on what was just scored.
    if (!epoch_rows.empty()) {
      std::vector<int> group_label(group_count, 0);
      if (config_.labeling == Labeling::kRssiCluster) {
        // Majority vote per linkage group over the epoch's predictions.
        std::vector<std::vector<int>> group_votes(group_count);
        for (const FlowRows& fr : epoch_rows) {
          auto& votes = group_votes[group_of[fr.flow_index]];
          votes.insert(votes.end(), fr.predictions.begin(),
                       fr.predictions.end());
        }
        for (std::size_t g = 0; g < group_count; ++g) {
          group_label[g] =
              group_votes[g].empty() ? 0 : majority_label(group_votes[g]);
        }
      }
      for (FlowRows& fr : epoch_rows) {
        const int truth =
            static_cast<int>(traffic::app_index(flows[fr.flow_index].flow.app()));
        const int label = config_.labeling == Labeling::kOracle
                              ? truth
                              : group_label[group_of[fr.flow_index]];
        for (std::vector<double>& row : fr.rows) {
          trainer.add(std::move(row), label);
          ++score.labels_assigned;
          score.labels_correct += label == truth ? 1 : 0;
        }
      }
      score.refitted = trainer.refit();
    }
    score.training_rows = trainer.total_rows();
    out.push_back(std::move(score));
  }
  return out;
}

std::vector<ObservedFlow> observe(const Sniffer& sniffer,
                                  traffic::AppType oracle_app) {
  const std::vector<std::pair<mac::MacAddress, double>> rssi =
      sniffer.mean_rssi();
  std::vector<ObservedFlow> out;
  for (const mac::MacAddress& station : sniffer.observed_stations()) {
    ObservedFlow f;
    f.address = station;
    f.flow = sniffer.flow_of(station, oracle_app);
    const auto it =
        std::find_if(rssi.begin(), rssi.end(),
                     [&](const auto& entry) { return entry.first == station; });
    f.mean_rssi = it == rssi.end() ? 0.0 : it->second;
    out.push_back(std::move(f));
  }
  return out;
}

}  // namespace reshape::attack::adaptive
