// Unit tests for src/ml: dataset handling, confusion-matrix metrics (the
// paper's accuracy/FP definitions), and all four classifiers on synthetic
// separable and noisy problems.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string_view>

#include "ml/dataset.h"
#include "ml/knn.h"
#include "ml/metrics.h"
#include "ml/mlp.h"
#include "ml/naive_bayes.h"
#include "ml/svm.h"
#include "util/rng.h"

namespace reshape::ml {
namespace {

// Two well-separated Gaussian blobs per class in `dims` dimensions.
Dataset make_blobs(int classes, int per_class, std::size_t dims,
                   double separation, double noise, std::uint64_t seed) {
  util::Rng rng{seed};
  Dataset data;
  for (int c = 0; c < classes; ++c) {
    for (int k = 0; k < per_class; ++k) {
      std::vector<double> row(dims);
      for (std::size_t d = 0; d < dims; ++d) {
        row[d] = rng.normal(separation * c, noise);
      }
      data.add(std::move(row), c);
    }
  }
  return data;
}

// ------------------------------------------------------------- Dataset ---

TEST(DatasetTest, ValidatesShape) {
  EXPECT_THROW(Dataset({{1.0}, {2.0, 3.0}}, {0, 1}, 2), std::invalid_argument);
  EXPECT_THROW(Dataset({{1.0}}, {0, 1}, 2), std::invalid_argument);
  EXPECT_THROW(Dataset({{1.0}}, {5}, 2), std::invalid_argument);
}

TEST(DatasetTest, AddGrowsNumClasses) {
  Dataset data;
  data.add({1.0}, 0);
  data.add({2.0}, 4);
  EXPECT_EQ(data.num_classes(), 5);
  EXPECT_EQ(data.size(), 2u);
  EXPECT_EQ(data.dimensions(), 1u);
}

TEST(DatasetTest, ClassCount) {
  Dataset data = make_blobs(3, 10, 2, 1.0, 0.1, 1);
  EXPECT_EQ(data.class_count(0), 10u);
  EXPECT_EQ(data.class_count(2), 10u);
}

TEST(DatasetTest, ShuffleKeepsPairs) {
  Dataset data;
  for (int i = 0; i < 50; ++i) {
    data.add({static_cast<double>(i)}, i % 2);
  }
  util::Rng rng{3};
  data.shuffle(rng);
  // Every row must keep the label parity it was created with.
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(static_cast<int>(data.row(i)[0]) % 2, data.label(i));
  }
}

TEST(DatasetTest, StratifiedSplitPreservesBalance) {
  Dataset data = make_blobs(4, 40, 2, 1.0, 0.1, 5);
  util::Rng rng{7};
  const auto [train, test] = data.stratified_split(0.75, rng);
  EXPECT_EQ(train.size(), 120u);
  EXPECT_EQ(test.size(), 40u);
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(train.class_count(c), 30u);
    EXPECT_EQ(test.class_count(c), 10u);
  }
}

TEST(DatasetTest, SplitRejectsBadFraction) {
  Dataset data = make_blobs(2, 4, 1, 1.0, 0.1, 9);
  util::Rng rng{1};
  EXPECT_THROW((void)data.stratified_split(0.0, rng), std::invalid_argument);
  EXPECT_THROW((void)data.stratified_split(1.0, rng), std::invalid_argument);
}

// ---------------------------------------------------- ConfusionMatrix ---

TEST(ConfusionMatrixTest, PaperMetricDefinitions) {
  // 2 classes; class 0: 8 right, 2 wrong; class 1: 5 right, 5 wrong.
  ConfusionMatrix m{2};
  for (int i = 0; i < 8; ++i) m.add(0, 0);
  for (int i = 0; i < 2; ++i) m.add(0, 1);
  for (int i = 0; i < 5; ++i) m.add(1, 1);
  for (int i = 0; i < 5; ++i) m.add(1, 0);
  EXPECT_DOUBLE_EQ(m.accuracy(0), 0.8);
  EXPECT_DOUBLE_EQ(m.accuracy(1), 0.5);
  EXPECT_DOUBLE_EQ(m.mean_accuracy(), 0.65);
  EXPECT_DOUBLE_EQ(m.overall_accuracy(), 13.0 / 20.0);
  // FP(0): of 10 class-1 instances, 5 were called class 0.
  EXPECT_DOUBLE_EQ(m.false_positive(0), 0.5);
  EXPECT_DOUBLE_EQ(m.false_positive(1), 0.2);
  EXPECT_DOUBLE_EQ(m.mean_false_positive(), 0.35);
}

TEST(ConfusionMatrixTest, AbsentClassContributesNothing) {
  ConfusionMatrix m{3};
  m.add(0, 0);
  m.add(1, 1);
  EXPECT_DOUBLE_EQ(m.accuracy(2), 0.0);
  EXPECT_DOUBLE_EQ(m.mean_accuracy(), 1.0);  // only present classes count
}

TEST(ConfusionMatrixTest, MergeAddsCounts) {
  ConfusionMatrix a{2};
  a.add(0, 0);
  ConfusionMatrix b{2};
  b.add(0, 1);
  a.merge(b);
  EXPECT_EQ(a.total(), 2u);
  EXPECT_DOUBLE_EQ(a.accuracy(0), 0.5);
  ConfusionMatrix c{3};
  EXPECT_THROW(a.merge(c), std::invalid_argument);
}

TEST(ConfusionMatrixTest, BoundsChecked) {
  ConfusionMatrix m{2};
  EXPECT_THROW(m.add(-1, 0), std::invalid_argument);
  EXPECT_THROW(m.add(0, 2), std::invalid_argument);
  EXPECT_THROW((void)m.count(2, 0), std::invalid_argument);
}

// ------------------------------------------------------ all classifiers ---

// Parameterised over classifier factories so every learner faces the same
// behavioural contract.
using MakeClassifier = std::function<std::unique_ptr<Classifier>()>;

class ClassifierContractTest
    : public ::testing::TestWithParam<std::pair<std::string,
                                                MakeClassifier>> {};

TEST_P(ClassifierContractTest, LearnsSeparableBlobs) {
  auto classifier = GetParam().second();
  Dataset data = make_blobs(4, 60, 3, 2.0, 0.3, 11);
  util::Rng rng{13};
  const auto [train, test] = data.stratified_split(0.7, rng);
  classifier->fit(train);
  ConfusionMatrix confusion{4};
  for (std::size_t i = 0; i < test.size(); ++i) {
    confusion.add(test.label(i), classifier->predict(test.row(i)));
  }
  EXPECT_GT(confusion.overall_accuracy(), 0.95) << GetParam().first;
}

TEST_P(ClassifierContractTest, SurvivesNoisyOverlap) {
  auto classifier = GetParam().second();
  Dataset data = make_blobs(2, 150, 2, 1.0, 1.0, 17);  // heavy overlap
  util::Rng rng{19};
  const auto [train, test] = data.stratified_split(0.7, rng);
  classifier->fit(train);
  ConfusionMatrix confusion{2};
  for (std::size_t i = 0; i < test.size(); ++i) {
    confusion.add(test.label(i), classifier->predict(test.row(i)));
  }
  // Better than chance, worse than perfect: the data genuinely overlaps.
  EXPECT_GT(confusion.overall_accuracy(), 0.6) << GetParam().first;
}

TEST_P(ClassifierContractTest, RejectsEmptyFit) {
  auto classifier = GetParam().second();
  Dataset empty;
  EXPECT_THROW(classifier->fit(empty), std::invalid_argument)
      << GetParam().first;
}

TEST_P(ClassifierContractTest, DeterministicPredictions) {
  auto a = GetParam().second();
  auto b = GetParam().second();
  Dataset data = make_blobs(3, 40, 2, 2.0, 0.3, 23);
  a->fit(data);
  b->fit(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(a->predict(data.row(i)), b->predict(data.row(i)))
        << GetParam().first;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllClassifiers, ClassifierContractTest,
    ::testing::Values(
        std::make_pair(std::string{"svm_rbf"},
                       MakeClassifier{[] {
                         SvmConfig cfg;
                         cfg.gamma = 0.5;  // blob scale, not minmax scale
                         return std::make_unique<SvmClassifier>(cfg);
                       }}),
        std::make_pair(std::string{"svm_linear"},
                       MakeClassifier{[] {
                         SvmConfig cfg;
                         cfg.kernel = KernelKind::kLinear;
                         return std::make_unique<SvmClassifier>(cfg);
                       }}),
        std::make_pair(std::string{"mlp"},
                       MakeClassifier{[] {
                         return std::make_unique<MlpClassifier>();
                       }}),
        std::make_pair(std::string{"knn"},
                       MakeClassifier{[] {
                         return std::make_unique<KnnClassifier>(5);
                       }}),
        std::make_pair(std::string{"gnb"},
                       MakeClassifier{[] {
                         return std::make_unique<NaiveBayesClassifier>();
                       }})),
    [](const auto& info) { return info.param.first; });

// ------------------------------------------------------------- SVM ---

TEST(SvmTest, DecisionValueSignMatchesPrediction) {
  Dataset data = make_blobs(2, 50, 2, 3.0, 0.3, 29);
  SvmConfig cfg;
  cfg.gamma = 0.5;
  SvmClassifier svm{cfg};
  svm.fit(data);
  const std::vector<double> near_zero{0.0, 0.0};
  const std::vector<double> near_one{3.0, 3.0};
  EXPECT_GT(svm.decision_value(0, 1, near_zero), 0.0);
  EXPECT_LT(svm.decision_value(0, 1, near_one), 0.0);
}

TEST(SvmTest, HasSupportVectors) {
  Dataset data = make_blobs(3, 30, 2, 2.0, 0.4, 31);
  SvmClassifier svm;
  svm.fit(data);
  EXPECT_TRUE(svm.trained());
  EXPECT_GT(svm.support_vector_count(), 0u);
}

TEST(SvmTest, RejectsInvalidConfig) {
  SvmConfig bad;
  bad.c = 0.0;
  EXPECT_THROW(SvmClassifier{bad}, std::invalid_argument);
  bad = SvmConfig{};
  bad.gamma = -1.0;
  EXPECT_THROW(SvmClassifier{bad}, std::invalid_argument);
}

TEST(SvmTest, PredictBeforeFitThrows) {
  SvmClassifier svm;
  EXPECT_THROW((void)svm.predict(std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(SvmTest, SingleClassFitThrows) {
  Dataset data;
  data.add({1.0}, 0);
  data.add({2.0}, 0);
  SvmClassifier svm;
  EXPECT_THROW(svm.fit(data), std::invalid_argument);
}

// Shared support-vector pool: every machine reads its kernel values from
// one per-window kernel row instead of evaluating its own copies. The
// fixture's expected values are the bit patterns the per-machine layout
// (each machine holding private support-vector copies) produced, so the
// pool must reproduce every decision value to the last bit.

/// Self-contained splitmix64 stream: the fixture must not depend on the
/// standard library's distribution algorithms.
struct SplitMix {
  std::uint64_t state;
  double next01() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    return static_cast<double>(z >> 11) * 0x1.0p-53;
  }
};

constexpr std::size_t kPoolDims = 14;

std::vector<double> pool_row(SplitMix& g, int label) {
  std::vector<double> row(kPoolDims);
  for (std::size_t d = 0; d < kPoolDims; ++d) {
    row[d] = 0.6 * g.next01() + (d % 2 == 0 ? 0.15 * label : 0.0);
  }
  return row;
}

/// Classes 0, 1 and 3 of four (class 2 is absent, so its pairs are never
/// trained), overlapping; the first four rows of each class appear twice.
Dataset pool_fixture() {
  SplitMix g{20110620};
  Dataset data;
  data.set_num_classes(4);
  for (const int label : {0, 1, 3}) {
    std::vector<std::vector<double>> rows;
    for (int k = 0; k < 16; ++k) {
      rows.push_back(pool_row(g, label));
    }
    for (const auto& r : rows) {
      data.add(r, label);
    }
    for (std::size_t k = 0; k < 4; ++k) {
      data.add(rows[k], label);
    }
  }
  return data;
}

/// Six fresh rows plus two training rows (first and last).
std::vector<std::vector<double>> pool_probes(const Dataset& data) {
  SplitMix g{1107};
  std::vector<std::vector<double>> probes;
  for (int k = 0; k < 6; ++k) {
    probes.push_back(pool_row(g, k % 4));
  }
  probes.push_back(data.row(0));
  probes.push_back(data.row(data.size() - 1));
  return probes;
}

struct PairBits {
  int a;
  int b;
  std::array<std::uint64_t, 8> bits;  // decision value per probe
};

struct PoolGolden {
  KernelKind kernel;
  std::size_t support_vectors;  // summed over machines
  std::array<int, 8> predictions;
  std::array<PairBits, 3> pairs;
};

TEST(SvmPoolTest, DecisionValuesMatchPerMachineLayoutBitForBit) {
  const std::array<PoolGolden, 2> goldens{{
      {KernelKind::kRbf,
       91,
       {0, 1, 3, 3, 0, 1, 0, 3},
       {{{0, 1, {0x3fe448716b37e7e6ULL, 0xbfdfaf28fbdf4582ULL,
                 0xbff82c5e20ecb82aULL, 0xbfece0e45b0c99ceULL,
                 0x3feebc62a0210808ULL, 0xbfe2ce25a85884f0ULL,
                 0x3ff00016938d5e4eULL, 0xbff2c770f435367aULL}},
         {0, 3, {0x3ff0ded98ff54523ULL, 0x3fda7e2dcb3cbb3dULL,
                 0xbfe455a22fc596c6ULL, 0xbfe754708ee14770ULL,
                 0x3fee53ae01b8f3bdULL, 0x3fcf25a6dc530f82ULL,
                 0x3ff2a58d47b08130ULL, 0xbff000d5ce4f7d02ULL}},
         {1, 3, {0x3ff37b5793976a26ULL, 0x3fe711d02b3eae09ULL,
                 0xbfd66db155222220ULL, 0xbfe4357f80b881c4ULL,
                 0x3ff3a0600aac4abdULL, 0x3fe8f646cdbaf37aULL,
                 0x3ff637f5ff20ebf8ULL, 0xbfeffe3ca3006c4eULL}}}}},
      {KernelKind::kLinear,
       34,
       {0, 1, 3, 3, 0, 1, 0, 3},
       {{{0, 1, {0x3fe0c9126023aca8ULL, 0xbfc88bee911fdf40ULL,
                 0xc00aab729d66af68ULL, 0xc01baaf9d3a5ded7ULL,
                 0x3fe435491820b5b0ULL, 0xbff0b811c4a396e0ULL,
                 0x3ff003d7f2dcef78ULL, 0xc0145dee63e36c9aULL}},
         {0, 3, {0x3ff73fa267ebc368ULL, 0x3fea112b275f2e40ULL,
                 0xbff2a6f1809a4653ULL, 0xc001472bae0c7038ULL,
                 0x3ffaa5318285865fULL, 0x3fc007dd9e0e9f6bULL,
                 0x3ffa0dec6d1ee113ULL, 0xbff000d88b18e38aULL}},
         {1, 3, {0x400eaef557f1e6a6ULL, 0x400046b5ba7dd18cULL,
                 0xbff233061f621c84ULL, 0xbffd7e9ceeda91d8ULL,
                 0x4010e48aace9fd11ULL, 0x3ff6f1fa8705c368ULL,
                 0x400ab6de19b863feULL, 0xbfeffca22a8cddb0ULL}}}}},
  }};
  const Dataset data = pool_fixture();
  const std::vector<std::vector<double>> probes = pool_probes(data);
  for (const PoolGolden& golden : goldens) {
    SvmConfig cfg;
    cfg.kernel = golden.kernel;
    SvmClassifier svm{cfg};
    svm.fit(data);
    const std::string_view kind = svm.name();
    EXPECT_EQ(svm.support_vector_count(), golden.support_vectors) << kind;
    for (std::size_t p = 0; p < probes.size(); ++p) {
      EXPECT_EQ(svm.predict(probes[p]), golden.predictions[p])
          << kind << " probe " << p;
      for (const PairBits& pair : golden.pairs) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(
                      svm.decision_value(pair.a, pair.b, probes[p])),
                  pair.bits[p])
            << kind << " pair (" << pair.a << "," << pair.b << ") probe "
            << p;
      }
    }
    // Pairs with the absent class were never trained.
    EXPECT_THROW((void)svm.decision_value(0, 2, probes[0]),
                 std::invalid_argument)
        << kind;
    EXPECT_THROW((void)svm.decision_value(2, 3, probes[0]),
                 std::invalid_argument)
        << kind;
  }
}

TEST(SvmPoolTest, WrongDimensionRowIsAnInputError) {
  const Dataset data = pool_fixture();
  SvmClassifier svm;
  svm.fit(data);
  const std::vector<double> short_row(kPoolDims - 1, 0.5);
  const std::vector<double> long_row(kPoolDims + 1, 0.5);
  EXPECT_THROW((void)svm.predict(short_row), std::invalid_argument);
  EXPECT_THROW((void)svm.predict(long_row), std::invalid_argument);
  EXPECT_THROW((void)svm.decision_value(0, 1, short_row),
               std::invalid_argument);
  EXPECT_THROW((void)svm.decision_value(0, 1, long_row),
               std::invalid_argument);
}

// ------------------------------------------------------------- MLP ---

TEST(MlpTest, LossDecreasesToSmallValue) {
  Dataset data = make_blobs(3, 60, 2, 2.0, 0.3, 37);
  MlpClassifier mlp;
  mlp.fit(data);
  EXPECT_LT(mlp.final_training_loss(), 0.3);
}

TEST(MlpTest, ProbabilitiesSumToOne) {
  Dataset data = make_blobs(3, 40, 2, 2.0, 0.3, 41);
  MlpClassifier mlp;
  mlp.fit(data);
  const auto probs = mlp.predict_proba(std::vector<double>{1.0, 1.0});
  double sum = 0.0;
  for (const double p : probs) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(MlpTest, DimensionMismatchThrows) {
  Dataset data = make_blobs(2, 20, 3, 2.0, 0.3, 43);
  MlpClassifier mlp;
  mlp.fit(data);
  EXPECT_THROW((void)mlp.predict(std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(MlpTest, RejectsInvalidConfig) {
  MlpConfig bad;
  bad.hidden_units = 0;
  EXPECT_THROW(MlpClassifier{bad}, std::invalid_argument);
}

TEST(MlpTest, PredictIsArgmaxOfProbabilities) {
  Dataset data = make_blobs(4, 30, 5, 1.0, 0.6, 59);
  MlpClassifier mlp;
  mlp.fit(data);
  util::Rng rng{61};
  for (int k = 0; k < 200; ++k) {
    std::vector<double> row(5);
    for (double& v : row) {
      v = rng.normal(1.5, 1.5);
    }
    const std::vector<double> probs = mlp.predict_proba(row);
    const auto argmax = static_cast<int>(
        std::max_element(probs.begin(), probs.end()) - probs.begin());
    EXPECT_EQ(mlp.predict(row), argmax) << "row " << k;
    // The scratch-backed predict leaves predict_proba's result intact.
    EXPECT_EQ(mlp.predict_proba(row), probs) << "row " << k;
  }
}

// ------------------------------------------------------------- kNN ---

TEST(KnnTest, KOneMemorisesTraining) {
  Dataset data = make_blobs(3, 20, 2, 2.0, 0.3, 47);
  KnnClassifier knn{1};
  knn.fit(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(knn.predict(data.row(i)), data.label(i));
  }
}

TEST(KnnTest, RejectsZeroK) {
  EXPECT_THROW(KnnClassifier{0}, std::invalid_argument);
}

TEST(KnnTest, VoteTiesGoToTheNearerNeighbour) {
  // k = 2 forces a 1-1 vote between the two classes; the winner must be
  // the class of the *nearer* neighbour, not the lower label index.
  Dataset data{{{0.0}, {3.0}}, {1, 0}, 2};
  KnnClassifier knn{2};
  knn.fit(data);
  const std::vector<double> near_one{0.5};   // closer to label 1 at 0.0
  const std::vector<double> near_zero{2.5};  // closer to label 0 at 3.0
  EXPECT_EQ(knn.predict(near_one), 1);
  EXPECT_EQ(knn.predict(near_zero), 0);
}

// ----------------------------------------------------------- GNB ---

TEST(NaiveBayesTest, UsesPriors) {
  // Overlapping classes with 9:1 prior imbalance: ambiguous points should
  // go to the majority class.
  util::Rng rng{53};
  Dataset data;
  for (int i = 0; i < 90; ++i) {
    data.add({rng.normal(0.0, 1.0)}, 0);
  }
  for (int i = 0; i < 10; ++i) {
    data.add({rng.normal(0.5, 1.0)}, 1);
  }
  NaiveBayesClassifier gnb;
  gnb.fit(data);
  EXPECT_EQ(gnb.predict(std::vector<double>{0.25}), 0);
}

}  // namespace
}  // namespace reshape::ml
