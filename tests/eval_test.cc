// Tests for src/eval: harness wiring, defense factories, and small-scale
// end-to-end sanity (full-scale numbers live in the bench binaries).
#include <gtest/gtest.h>

#include <algorithm>

#include "attack/classifier_attack.h"
#include "eval/defense_factory.h"
#include "eval/experiment.h"
#include "ml/mlp.h"
#include "ml/svm.h"
#include "traffic/generator.h"
#include "util/rng.h"

namespace reshape::eval {
namespace {

ExperimentConfig tiny_config() {
  ExperimentConfig cfg;
  cfg.seed = 777;
  cfg.window = util::Duration::seconds(5.0);
  cfg.train_sessions_per_app = 2;
  cfg.train_session_duration = util::Duration::seconds(30.0);
  cfg.test_sessions_per_app = 1;
  cfg.test_session_duration = util::Duration::seconds(30.0);
  return cfg;
}

TEST(ExperimentHarnessTest, ValidatesConfig) {
  ExperimentConfig bad = tiny_config();
  bad.window = util::Duration::seconds(0.0);
  EXPECT_THROW(ExperimentHarness{bad}, std::invalid_argument);
  bad = tiny_config();
  bad.train_sessions_per_app = 0;
  EXPECT_THROW(ExperimentHarness{bad}, std::invalid_argument);
  bad = tiny_config();
  bad.test_session_duration = util::Duration::seconds(1.0);
  EXPECT_THROW(ExperimentHarness{bad}, std::invalid_argument);
}

TEST(ExperimentHarnessTest, TrainIsIdempotent) {
  ExperimentHarness harness{tiny_config()};
  EXPECT_FALSE(harness.trained());
  harness.train();
  EXPECT_TRUE(harness.trained());
  harness.train();  // no-op
  EXPECT_TRUE(harness.trained());
}

TEST(ExperimentHarnessTest, EvaluateFillsEveryField) {
  ExperimentHarness harness{tiny_config()};
  const DefenseEvaluation e =
      harness.evaluate(no_defense_factory(), "Original");
  EXPECT_EQ(e.defense_name, "Original");
  EXPECT_FALSE(e.classifier_name.empty());
  EXPECT_GT(e.confusion.total(), 0u);
  EXPECT_GE(e.mean_accuracy, 0.0);
  EXPECT_LE(e.mean_accuracy, 100.0);
  for (const double o : e.overhead) {
    EXPECT_DOUBLE_EQ(o, 0.0);  // no defense adds nothing
  }
}

TEST(ExperimentHarnessTest, DeterministicAcrossRuns) {
  ExperimentHarness a{tiny_config()};
  ExperimentHarness b{tiny_config()};
  const auto ea = a.evaluate(no_defense_factory(), "Original");
  const auto eb = b.evaluate(no_defense_factory(), "Original");
  EXPECT_EQ(ea.mean_accuracy, eb.mean_accuracy);
  EXPECT_EQ(ea.classifier_name, eb.classifier_name);
  for (std::size_t i = 0; i < traffic::kAppCount; ++i) {
    EXPECT_EQ(ea.accuracy[i], eb.accuracy[i]);
  }
}

TEST(ExperimentHarnessTest, ScoresLikeStandaloneAttackersTrainedOnTheCorpus) {
  // The standalone path: SVM and MLP ClassifierAttacks with the harness's
  // seeds, each trained on a hand-built training corpus with train(). The
  // harness extracts the corpus rows once and fits both from them; its
  // defended-workload confusion must equal the standalone attacker's.
  const ExperimentConfig cfg = tiny_config();
  ExperimentHarness harness{cfg};
  harness.train();

  std::vector<traffic::Trace> corpus;
  for (const traffic::AppType app : traffic::kAllApps) {
    for (std::size_t s = 0; s < cfg.train_sessions_per_app; ++s) {
      corpus.push_back(traffic::generate_trace(
          app, cfg.train_session_duration,
          ExperimentHarness::session_stream_seed(cfg.seed, app, s, true),
          cfg.session_jitter));
    }
  }
  const attack::AttackConfig attack_config{cfg.window, cfg.feature_set, 2};
  ml::SvmConfig svm;
  svm.seed = util::splitmix64(cfg.seed ^ 0x5111ULL);
  ml::MlpConfig mlp;
  mlp.seed = util::splitmix64(cfg.seed ^ 0x3111ULL);
  attack::ClassifierAttack svm_attack{attack_config,
                                      std::make_unique<ml::SvmClassifier>(svm)};
  attack::ClassifierAttack mlp_attack{attack_config,
                                      std::make_unique<ml::MlpClassifier>(mlp)};
  svm_attack.train(corpus);
  mlp_attack.train(corpus);

  const std::vector<traffic::Trace> sessions =
      clean_corpus(cfg, /*training=*/false);
  const DefenseFactory factory =
      reshaping_factory(core::SchedulerKind::kRoundRobin, 3);
  const std::uint64_t defense_seed = 4242;
  const DefenseEvaluation e =
      harness.evaluate_sessions(factory, "RR", sessions, defense_seed);

  std::vector<traffic::Trace> flows;
  for (DefendedSession& session :
       apply_defense(factory, sessions, defense_seed)) {
    for (traffic::Trace& flow : session.flows) {
      flows.push_back(std::move(flow));
    }
  }
  ASSERT_TRUE(e.classifier_name == "svm" || e.classifier_name == "mlp");
  const ml::ConfusionMatrix expected = e.classifier_name == "svm"
                                           ? svm_attack.evaluate(flows)
                                           : mlp_attack.evaluate(flows);
  ASSERT_GT(expected.total(), 0u);
  EXPECT_EQ(e.confusion.total(), expected.total());
  const int classes = static_cast<int>(traffic::kAppCount);
  for (int truth = 0; truth < classes; ++truth) {
    for (int predicted = 0; predicted < classes; ++predicted) {
      EXPECT_EQ(e.confusion.count(truth, predicted),
                expected.count(truth, predicted))
          << "truth=" << truth << " predicted=" << predicted;
    }
  }
}

TEST(CleanCorpusTest, AppMajorWithSaltedRoleSeeds) {
  const ExperimentConfig cfg = tiny_config();
  const std::uint64_t salt = 0xC1EA0ULL;
  const std::vector<traffic::Trace> held_out = clean_corpus(cfg, false, salt);
  ASSERT_EQ(held_out.size(), traffic::kAppCount * cfg.test_sessions_per_app);
  std::size_t i = 0;
  for (const traffic::AppType app : traffic::kAllApps) {
    for (std::size_t s = 0; s < cfg.test_sessions_per_app; ++s, ++i) {
      const traffic::Trace expected = traffic::generate_trace(
          app, cfg.test_session_duration,
          ExperimentHarness::session_stream_seed(cfg.seed, app, s, false) ^
              salt,
          cfg.session_jitter);
      EXPECT_EQ(held_out[i].app(), app);
      EXPECT_TRUE(
          std::ranges::equal(held_out[i].times_us(), expected.times_us()));
      EXPECT_TRUE(std::ranges::equal(held_out[i].sizes_bytes(),
                                     expected.sizes_bytes()));
    }
  }
  EXPECT_EQ(clean_corpus(cfg, true).size(),
            traffic::kAppCount * cfg.train_sessions_per_app);
}

TEST(ExperimentHarnessTest, PaddingOverheadPositiveForSmallPacketApps) {
  ExperimentHarness harness{tiny_config()};
  const DefenseEvaluation e = harness.evaluate(padding_factory(), "Padding");
  EXPECT_GT(e.overhead[traffic::app_index(traffic::AppType::kChatting)],
            100.0);
  EXPECT_GT(e.mean_overhead, 0.0);
}

TEST(ExperimentHarnessTest, ReshapingHasZeroOverhead) {
  ExperimentHarness harness{tiny_config()};
  const DefenseEvaluation e = harness.evaluate(
      reshaping_factory(core::SchedulerKind::kOrthogonal, 3), "OR");
  EXPECT_DOUBLE_EQ(e.mean_overhead, 0.0);
}

TEST(ExperimentHarnessTest, SizeProfileIsCachedAndPlausible) {
  ExperimentHarness harness{tiny_config()};
  const auto& a = harness.size_profile(traffic::AppType::kDownloading);
  const auto& b = harness.size_profile(traffic::AppType::kDownloading);
  EXPECT_EQ(&a, &b);  // cached
  // Profiles pool both directions: downloading's mean sits between its
  // ACK uplink (~110 B) and full-frame downlink (~1575 B), far above
  // chatting's all-small profile.
  EXPECT_GT(a.mean(), 600.0);
  const auto& chat = harness.size_profile(traffic::AppType::kChatting);
  EXPECT_LT(chat.mean(), 0.6 * a.mean());
}

TEST(DefenseFactoryTest, EveryFactoryProducesWorkingDefense) {
  ExperimentHarness harness{tiny_config()};
  const traffic::Trace trace = traffic::generate_trace(
      traffic::AppType::kBitTorrent, util::Duration::seconds(10), 5);

  const std::vector<std::pair<std::string, DefenseFactory>> factories{
      {"none", no_defense_factory()},
      {"ra", reshaping_factory(core::SchedulerKind::kRandom, 3)},
      {"rr", reshaping_factory(core::SchedulerKind::kRoundRobin, 3)},
      {"or", reshaping_factory(core::SchedulerKind::kOrthogonal, 3)},
      {"or-mod", reshaping_factory(core::SchedulerKind::kModulo, 3)},
      {"or-l5",
       orthogonal_factory(core::SizeRanges::paper_l5(),
                          core::TargetDistribution::orthogonal_identity(5))},
      {"fh", frequency_hopping_factory(1)},
      {"padding", padding_factory()},
      {"morphing", morphing_factory(harness)},
      {"combined", combined_factory(harness)},
  };
  for (const auto& [name, factory] : factories) {
    auto defense = factory(traffic::AppType::kBitTorrent, 99);
    ASSERT_NE(defense, nullptr) << name;
    const core::DefenseResult result = defense->apply(trace);
    EXPECT_FALSE(result.streams.empty()) << name;
    EXPECT_EQ(result.original_bytes, trace.total_bytes()) << name;
  }
}

TEST(DefenseFactoryTest, MorphingSkipsUnmorphedApps) {
  ExperimentHarness harness{tiny_config()};
  const auto factory = morphing_factory(harness);
  // Downloading is left unmorphed: the flow passes through untouched.
  const traffic::Trace download = traffic::generate_trace(
      traffic::AppType::kDownloading, util::Duration::seconds(10.0), 5);
  const core::DefenseResult passed =
      factory(traffic::AppType::kDownloading, 1)->apply(download);
  ASSERT_EQ(passed.streams.size(), 1u);
  ASSERT_EQ(passed.streams[0].size(), download.size());
  for (std::size_t i = 0; i < download.size(); ++i) {
    EXPECT_EQ(passed.streams[0][i], download[i]);
  }
  EXPECT_EQ(passed.added_bytes, 0u);
  // Chatting is morphed toward gaming, which pads its small packets.
  const traffic::Trace chat = traffic::generate_trace(
      traffic::AppType::kChatting, util::Duration::seconds(10.0), 6);
  EXPECT_GT(factory(traffic::AppType::kChatting, 1)->apply(chat).added_bytes,
            0u);
}

}  // namespace
}  // namespace reshape::eval
