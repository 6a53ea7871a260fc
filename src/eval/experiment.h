// The experiment harness behind every table in the reproduction.
//
// Methodology (mirroring the paper's §IV):
//   * The adversary profiles the seven applications on *undefended*
//     traffic: training sessions are generated per app, cut into
//     W-windows, and used to fit both attack classifiers (SVM and NN);
//     the stronger of the two (by mean accuracy on clean test traffic)
//     is "the" attacker whose numbers each table reports — matching the
//     paper's "we present the highest classification accuracy".
//   * A defense is evaluated by applying it to fresh test sessions and
//     letting the attacker classify every flow it can isolate (each
//     virtual MAC under reshaping, the monitored channel partition under
//     FH, the single morphed/padded flow otherwise). Every W-window of
//     every flow scores one confusion-matrix entry whose ground truth is
//     the originating application.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "attack/classifier_attack.h"
#include "core/defense.h"
#include "eval/session_eval.h"
#include "features/features.h"
#include "ml/metrics.h"
#include "obs/profiler.h"
#include "traffic/app_model.h"
#include "traffic/app_type.h"
#include "traffic/trace.h"
#include "util/distribution.h"
#include "util/time.h"

namespace reshape::eval {

/// Harness parameters.
struct ExperimentConfig {
  std::uint64_t seed = 2011;
  util::Duration window = util::Duration::seconds(5.0);  // W
  std::size_t train_sessions_per_app = 12;
  util::Duration train_session_duration = util::Duration::seconds(90.0);
  std::size_t test_sessions_per_app = 6;
  util::Duration test_session_duration = util::Duration::seconds(90.0);
  features::FeatureSet feature_set = features::FeatureSet::kAll;
  traffic::SessionJitter session_jitter{};
};

/// The §IV clean corpus, app-major: for every application, the
/// configured number of sessions of the role's length (train_* fields
/// when `training`, test_* otherwise), each generated from
/// ExperimentHarness::session_stream_seed(seed, app, s, training) ^
/// `seed_salt`. The one builder of the training corpus, the held-out
/// selection set and evaluate()'s test set, so every adversary that
/// profiles the same config profiles byte-identical sessions.
[[nodiscard]] std::vector<traffic::Trace> clean_corpus(
    const ExperimentConfig& config, bool training,
    std::uint64_t seed_salt = 0);

/// Reusable scratch one evaluation worker threads through repeated
/// evaluate_sessions() calls: the window-feature buffer grows to the
/// largest flow once and is reused for every later extraction instead of
/// reallocating per flow. Purely an allocation cache — results are
/// byte-identical with or without it. The optional profiler receives one
/// "features" lap per extracted flow (host timings, telemetry-only).
struct EvalScratch {
  std::vector<features::WindowFeatures> windows;
  obs::PhaseProfiler* profiler = nullptr;
};

/// Everything a table row needs about one defense.
struct DefenseEvaluation {
  std::string defense_name;
  std::string classifier_name;  // which attacker won (svm/mlp)
  ml::ConfusionMatrix confusion{static_cast<int>(traffic::kAppCount)};
  std::array<double, traffic::kAppCount> accuracy{};        // percent
  std::array<double, traffic::kAppCount> false_positive{};  // percent
  std::array<double, traffic::kAppCount> overhead{};        // percent
  double mean_accuracy = 0.0;        // percent
  double mean_false_positive = 0.0;  // percent
  double mean_overhead = 0.0;        // percent
};

/// Trains the attackers once, then evaluates any number of defenses.
///
/// The three phases are separable so that a campaign engine can run the
/// scoring phase for many cells in parallel: `train()` is the only
/// mutating phase (it also pre-warms the per-app size profiles); after it
/// returns, `evaluate_sessions()` is const and safe to call concurrently
/// from multiple threads.
class ExperimentHarness {
 public:
  explicit ExperimentHarness(ExperimentConfig config);

  /// Generates training sessions and fits SVM + MLP attackers, then
  /// pre-warms every app's size profile so later phases are read-only.
  /// Idempotent.
  void train();

  /// Applies the defense to fresh test sessions of every app and scores
  /// the attacker on the observable flows — a convenience wrapper that
  /// generates the §IV test corpus and hands it to evaluate_sessions().
  [[nodiscard]] DefenseEvaluation evaluate(const DefenseFactory& factory,
                                           std::string defense_name);

  /// Scoring phase over an explicit workload: applies the defense to each
  /// session (ground truth carried in Trace::app()) through the shared
  /// eval::apply_defense primitive and scores the trained attackers over
  /// every observable flow. Per-session defense seeds are derived from
  /// `defense_seed` via eval::session_defense_seed, so a cell's result
  /// depends only on its sessions and seed — any engine evaluating the
  /// same (factory, sessions, seed) triple gets this exact result.
  /// Requires trained(); const and thread-safe. `scratch` (optional) is
  /// a worker-owned allocation cache — pass the same one across calls on
  /// one thread; never share it between threads. A non-null `defended_out`
  /// receives the defended sessions (flows and overhead bookkeeping) after
  /// scoring — the leakage-audit path, which must see exactly the flows
  /// the attacker was scored on without applying the defense twice.
  [[nodiscard]] DefenseEvaluation evaluate_sessions(
      const DefenseFactory& factory, std::string defense_name,
      std::span<const traffic::Trace> sessions, std::uint64_t defense_seed,
      EvalScratch* scratch = nullptr,
      std::vector<DefendedSession>* defended_out = nullptr) const;

  [[nodiscard]] const ExperimentConfig& config() const { return config_; }
  [[nodiscard]] bool trained() const { return !attacks_.empty(); }

  /// The stable per-(experiment seed, app, session, role) stream seed
  /// clean_corpus derives every session from.
  [[nodiscard]] static std::uint64_t session_stream_seed(
      std::uint64_t experiment_seed, traffic::AppType app,
      std::size_t session, bool training);

  /// The empirical on-air size distribution of an application (pooled
  /// directions), generated from a profile session — what a defender
  /// deploying morphing would measure. Cached per app.
  [[nodiscard]] const util::EmpiricalDistribution& size_profile(
      traffic::AppType app);

 private:
  struct NamedAttack {
    std::string name;
    std::unique_ptr<attack::ClassifierAttack> attack;
    double clean_mean_accuracy = 0.0;
  };

  /// Every trained attacker's confusion over the flows, in attacks_
  /// order. All attackers share one AttackConfig (train() builds them
  /// that way), so each flow's W-windowing + feature extraction — the
  /// dominant scoring cost — runs once and every attacker scores the
  /// shared rows.
  [[nodiscard]] std::vector<ml::ConfusionMatrix> attack_confusions(
      std::span<const traffic::Trace> flows, EvalScratch* scratch) const;

  /// Fills the confusion / accuracy / FP fields of `out` with the
  /// strongest attacker's numbers over the flows.
  void score_flows(std::span<const traffic::Trace> flows,
                   DefenseEvaluation& out, EvalScratch* scratch) const;

  ExperimentConfig config_;
  std::vector<NamedAttack> attacks_;
  std::size_t best_attack_ = 0;
  std::vector<std::unique_ptr<util::EmpiricalDistribution>> profiles_;
};

}  // namespace reshape::eval
