#include "eval/experiment.h"

#include "ml/mlp.h"
#include "ml/svm.h"
#include "traffic/generator.h"
#include "util/check.h"
#include "util/rng.h"

namespace reshape::eval {

ExperimentHarness::ExperimentHarness(ExperimentConfig config)
    : config_{config}, profiles_(traffic::kAppCount) {
  util::require(config_.window > util::Duration{},
                "ExperimentHarness: window must be positive");
  util::require(config_.train_sessions_per_app > 0 &&
                    config_.test_sessions_per_app > 0,
                "ExperimentHarness: need sessions");
  util::require(config_.train_session_duration >= config_.window &&
                    config_.test_session_duration >= config_.window,
                "ExperimentHarness: sessions must cover >= one window");
}

std::uint64_t ExperimentHarness::session_stream_seed(
    std::uint64_t experiment_seed, traffic::AppType app, std::size_t session,
    bool training) {
  // Stable, collision-free derivation: independent streams per
  // (experiment, app, session, role).
  std::uint64_t x = experiment_seed;
  x = util::splitmix64(x ^ (0x9E37ULL + traffic::app_index(app)));
  x = util::splitmix64(x ^ (training ? 0x7261696E00ULL + session
                                     : 0x7465737400ULL + session));
  return x;
}

std::vector<traffic::Trace> clean_corpus(const ExperimentConfig& config,
                                         bool training) {
  const std::size_t per_app = training ? config.train_sessions_per_app
                                       : config.test_sessions_per_app;
  const util::Duration duration = training ? config.train_session_duration
                                           : config.test_session_duration;
  std::vector<traffic::Trace> corpus;
  corpus.reserve(traffic::kAppCount * per_app);
  for (const traffic::AppType app : traffic::kAllApps) {
    for (std::size_t s = 0; s < per_app; ++s) {
      corpus.push_back(traffic::generate_trace(
          app, duration,
          ExperimentHarness::session_stream_seed(config.seed, app, s,
                                                 training),
          config.session_jitter));
    }
  }
  return corpus;
}

void ExperimentHarness::train() {
  if (trained()) {
    return;
  }

  const attack::AttackConfig attack_config{config_.window,
                                           config_.feature_set, 2};

  {
    ml::SvmConfig svm;
    svm.seed = util::splitmix64(config_.seed ^ 0x5111ULL);
    NamedAttack named;
    named.name = "svm";
    named.attack = std::make_unique<attack::ClassifierAttack>(
        attack_config, std::make_unique<ml::SvmClassifier>(svm));
    attacks_.push_back(std::move(named));
  }
  {
    ml::MlpConfig mlp;
    mlp.seed = util::splitmix64(config_.seed ^ 0x3111ULL);
    NamedAttack named;
    named.name = "mlp";
    named.attack = std::make_unique<attack::ClassifierAttack>(
        attack_config, std::make_unique<ml::MlpClassifier>(mlp));
    attacks_.push_back(std::move(named));
  }

  // Training rows of the clean corpus, extracted once for both attackers.
  const ml::Dataset training_rows = attack::profile_rows(
      clean_corpus(config_, /*training=*/true), attack_config);
  for (NamedAttack& named : attacks_) {
    named.attack->fit(training_rows);
  }

  // Pre-warm every size profile: after train() returns, all scoring-phase
  // entry points (including morphing factories built over this harness)
  // only ever read harness state, so cells can score on many threads.
  for (const traffic::AppType app : traffic::kAllApps) {
    (void)size_profile(app);
  }
}

std::vector<ml::ConfusionMatrix> ExperimentHarness::attack_confusions(
    std::span<const traffic::Trace> flows, EvalScratch* scratch) const {
  std::vector<features::WindowFeatures> local_windows;
  std::vector<features::WindowFeatures>& windows =
      scratch != nullptr ? scratch->windows : local_windows;
  obs::CellLaps* laps = scratch != nullptr ? &scratch->laps : nullptr;
  std::vector<ml::ConfusionMatrix> confusions(
      attacks_.size(),
      ml::ConfusionMatrix{static_cast<int>(traffic::kAppCount)});
  for (const traffic::Trace& flow : flows) {
    const int truth = static_cast<int>(traffic::app_index(flow.app()));
    const std::vector<std::vector<double>> rows = [&] {
      const obs::PhaseLap lap{laps, obs::Phase::kFeatures};
      return attack::feature_rows_of(flow, attacks_.front().attack->config(),
                                     windows);
    }();
    for (std::size_t a = 0; a < attacks_.size(); ++a) {
      util::internal_check(
          attacks_[a].attack->config() == attacks_.front().attack->config(),
          "ExperimentHarness: attackers disagree on windowing");
      for (const int predicted : attacks_[a].attack->classify_rows(rows)) {
        confusions[a].add(truth, predicted);
      }
    }
  }
  return confusions;
}

void ExperimentHarness::score_flows(std::span<const traffic::Trace> flows,
                                    DefenseEvaluation& out,
                                    EvalScratch* scratch) const {
  // The paper reports "the highest classification accuracy" its attack
  // system (SVM + NN) achieves — the defender's worst case. Run every
  // attacker over the defended flows and keep the strongest.
  const std::vector<ml::ConfusionMatrix> confusions =
      attack_confusions(flows, scratch);
  bool first = true;
  for (std::size_t a = 0; a < attacks_.size(); ++a) {
    const ml::ConfusionMatrix& confusion = confusions[a];
    if (first || confusion.mean_accuracy() >
                     static_cast<double>(out.mean_accuracy) / 100.0) {
      out.classifier_name = attacks_[a].name;
      out.confusion = confusion;
      out.mean_accuracy = 100.0 * confusion.mean_accuracy();
      first = false;
    }
  }

  for (const traffic::AppType app : traffic::kAllApps) {
    const auto i = traffic::app_index(app);
    out.accuracy[i] = 100.0 * out.confusion.accuracy(static_cast<int>(i));
    out.false_positive[i] =
        100.0 * out.confusion.false_positive(static_cast<int>(i));
  }
  out.mean_false_positive = 100.0 * out.confusion.mean_false_positive();
}

DefenseEvaluation ExperimentHarness::evaluate(const DefenseFactory& factory,
                                              std::string defense_name) {
  train();

  // The paper's test corpus: fresh sessions of every app, app-major.
  const std::vector<traffic::Trace> sessions =
      clean_corpus(config_, /*training=*/false);
  return evaluate_sessions(factory, std::move(defense_name), sessions,
                           util::splitmix64(config_.seed ^ 0xDEFULL));
}

DefenseEvaluation ExperimentHarness::evaluate_sessions(
    const DefenseFactory& factory, std::string defense_name,
    std::span<const traffic::Trace> sessions, std::uint64_t defense_seed,
    EvalScratch* scratch, std::vector<DefendedSession>* defended_out) const {
  util::require(trained(),
                "ExperimentHarness::evaluate_sessions: call train() first");

  DefenseEvaluation out;
  out.defense_name = std::move(defense_name);

  std::vector<DefendedSession> defended =
      apply_defense(factory, sessions, defense_seed);

  std::array<std::uint64_t, traffic::kAppCount> original_bytes{};
  std::array<std::uint64_t, traffic::kAppCount> added_bytes{};
  std::vector<traffic::Trace> flows;
  for (DefendedSession& session : defended) {
    const auto i = traffic::app_index(session.app);
    original_bytes[i] += session.original_bytes;
    added_bytes[i] += session.added_bytes;
    for (traffic::Trace& flow : session.flows) {
      flows.push_back(std::move(flow));
    }
  }
  // Mean overhead averages over the apps the workload actually contains —
  // a chatting+browsing scenario must not be diluted by five absent apps.
  double overhead_sum = 0.0;
  std::size_t apps_present = 0;
  for (std::size_t i = 0; i < traffic::kAppCount; ++i) {
    out.overhead[i] = original_bytes[i] == 0
                          ? 0.0
                          : 100.0 * static_cast<double>(added_bytes[i]) /
                                static_cast<double>(original_bytes[i]);
    if (original_bytes[i] > 0) {
      overhead_sum += out.overhead[i];
      ++apps_present;
    }
  }
  score_flows(flows, out, scratch);
  out.mean_overhead =
      apps_present == 0 ? 0.0
                        : overhead_sum / static_cast<double>(apps_present);
  if (defended_out != nullptr) {
    // Hand the scored flows back in their per-session slots: scoring only
    // read them, so moving them back reconstructs apply_defense's output
    // without a second defense pass.
    std::size_t next = 0;
    for (DefendedSession& session : defended) {
      for (traffic::Trace& flow : session.flows) {
        flow = std::move(flows[next++]);
      }
    }
    *defended_out = std::move(defended);
  }
  return out;
}

const util::EmpiricalDistribution& ExperimentHarness::size_profile(
    traffic::AppType app) {
  auto& slot = profiles_[traffic::app_index(app)];
  if (!slot) {
    // The defender's own measurement pass: a clean profile session,
    // independent of both training and test seeds.
    const traffic::Trace profile = traffic::generate_trace(
        app, util::Duration::seconds(60.0),
        util::splitmix64(config_.seed ^
                         (0x70726F6600ULL + traffic::app_index(app))),
        config_.session_jitter);
    slot = std::make_unique<util::EmpiricalDistribution>(profile.sizes());
  }
  return *slot;
}

}  // namespace reshape::eval
