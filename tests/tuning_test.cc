// Unit tests for core::tuning: configuration points, candidate-space
// enumeration, the objective's budget/Pareto machinery, batch vs
// streaming parity of the padded composition, the shard merge, and the
// tuner's per-range workload memo on a tiny sweep. Full-size sweeps
// (thread bit-identity, tuned-vs-table5 dominance) live in
// tuning_slow_test.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/tuning/candidate_space.h"
#include "core/tuning/objective.h"
#include "core/tuning/presets.h"
#include "core/tuning/tuned_configuration.h"
#include "core/tuning/tuner.h"
#include "runtime/adaptive_campaign.h"
#include "runtime/scenario.h"
#include "traffic/generator.h"

namespace reshape::core::tuning {
namespace {

using traffic::AppType;
using traffic::Trace;

// ----------------------------------------------------- TunedConfiguration

TEST(TunedConfigurationTest, IdentityPointIsValid) {
  const TunedConfiguration config =
      TunedConfiguration::identity("id", SizeRanges::paper_default());
  EXPECT_TRUE(config.structurally_valid());
  EXPECT_EQ(config.interfaces, 3u);
  EXPECT_FALSE(config.padded());
  EXPECT_TRUE(config.target().is_orthogonal());
  EXPECT_EQ(config.make_scheduler()->interface_count(), 3u);
  EXPECT_EQ(config.summary(), "I=3 L=3 bounds=232,1540,1576");
}

TEST(TunedConfigurationTest, RejectsStructurallyInvalidPoints) {
  const TunedConfiguration valid =
      TunedConfiguration::identity("id", SizeRanges::paper_default());

  TunedConfiguration bad = valid;
  bad.range_bounds[1] = bad.range_bounds[0];  // not strictly increasing
  EXPECT_FALSE(bad.structurally_valid());
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  bad = valid;
  bad.assignment[2] = 7;  // nonexistent interface
  EXPECT_FALSE(bad.structurally_valid());

  bad = valid;
  bad.assignment = {0, 0, 0};  // interfaces 1 and 2 own nothing
  EXPECT_FALSE(bad.structurally_valid());

  bad = valid;
  bad.pad_to.pop_back();  // pad vector must match I
  EXPECT_FALSE(bad.structurally_valid());

  bad = valid;
  bad.interfaces = 0;
  EXPECT_FALSE(bad.structurally_valid());
}

TEST(TunedConfigurationTest, EqualityIsStructuralAndIgnoresName) {
  const TunedConfiguration a =
      TunedConfiguration::identity("a", SizeRanges::paper_default());
  TunedConfiguration b = a;
  b.name = "renamed";
  EXPECT_EQ(a, b);
  b.pad_to[0] = 232;
  EXPECT_FALSE(a == b);
}

TEST(TunedConfigurationTest, BatchAndStreamingPathsAgree) {
  // The golden-parity property the tuner's scoring rests on: the batch
  // defense and the streaming pipeline must produce byte-identical flows —
  // including the padded composition.
  const Trace trace = traffic::generate_trace(
      AppType::kBitTorrent, util::Duration::seconds(20.0), 404);

  TunedConfiguration config =
      TunedConfiguration::identity("parity", SizeRanges::paper_default());
  config.pad_to = {232, 1540, 0};

  const auto batch = config.make_defense()->apply(trace);

  online::StreamingConfig streaming;
  auto reshaper = config.make_reshaper(streaming);
  const DefenseResult live = online::run_streaming(*reshaper, trace);

  ASSERT_EQ(batch.streams.size(), live.streams.size());
  for (std::size_t i = 0; i < batch.streams.size(); ++i) {
    ASSERT_EQ(batch.streams[i].size(), live.streams[i].size()) << i;
    for (std::size_t k = 0; k < batch.streams[i].size(); ++k) {
      EXPECT_EQ(batch.streams[i][k], live.streams[i][k]);
    }
  }
  EXPECT_EQ(batch.original_bytes, live.original_bytes);
  EXPECT_EQ(batch.added_bytes, live.added_bytes);
  EXPECT_GT(batch.added_bytes, 0u);  // the pads actually fired
}

// --------------------------------------------------------- CandidateSpace

TEST(CandidateSpaceTest, EnumeratesValidDedupedCandidates) {
  const Trace profile = traffic::generate_trace(
      AppType::kBrowsing, util::Duration::seconds(30.0), 7);
  const CandidateSpace space;
  const std::vector<TunedConfiguration> candidates = space.enumerate(profile);
  ASSERT_FALSE(candidates.empty());

  std::set<std::string> names;
  for (const TunedConfiguration& candidate : candidates) {
    EXPECT_TRUE(candidate.structurally_valid()) << candidate.name;
    EXPECT_TRUE(names.insert(candidate.name).second)
        << "duplicate name " << candidate.name;
  }
  // The Table V presets are part of the space (the tuner always sweeps
  // the baseline it is measured against).
  for (const std::size_t i : {2, 3, 5}) {
    const auto preset =
        to_tuned_configuration(recommend_parameters(i, 1));
    EXPECT_NE(std::find(candidates.begin(), candidates.end(), preset),
              candidates.end())
        << "missing paper preset I=" << i;
  }
  // Padded variants exist and are flagged.
  EXPECT_TRUE(std::any_of(candidates.begin(), candidates.end(),
                          [](const TunedConfiguration& c) {
                            return c.padded();
                          }));
}

TEST(CandidateSpaceTest, EnumerationIsDeterministic) {
  const Trace profile = traffic::generate_trace(
      AppType::kVideo, util::Duration::seconds(30.0), 11);
  const CandidateSpace space;
  const auto a = space.enumerate(profile);
  const auto b = space.enumerate(profile);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]);
    EXPECT_EQ(a[i].name, b[i].name);
  }
}

TEST(CandidateSpaceTest, AxesCanBeDisabled) {
  const Trace profile = traffic::generate_trace(
      AppType::kUploading, util::Duration::seconds(30.0), 13);
  CandidateSpace space;
  space.equal_mass_partitions = false;
  space.interleaved_fine_partitions = false;
  space.padded_compositions = false;
  space.interface_counts = {3};
  const auto candidates = space.enumerate(profile);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates.front(),
            to_tuned_configuration(recommend_parameters(3, 1)));
}

// -------------------------------------------------------------- objective

CandidateMetrics metrics(std::size_t survived, double miss, double overhead) {
  CandidateMetrics m;
  m.epochs_total = 10;
  m.epochs_survived = survived;
  m.crossed = survived < m.epochs_total;
  m.deadline_miss_rate = miss;
  m.overhead_percent = overhead;
  return m;
}

TEST(ObjectiveTest, DominanceIsStrictOnAtLeastOneAxis) {
  EXPECT_TRUE(dominates(metrics(5, 0.1, 10.0), metrics(4, 0.1, 10.0)));
  EXPECT_TRUE(dominates(metrics(5, 0.05, 10.0), metrics(5, 0.1, 10.0)));
  EXPECT_FALSE(dominates(metrics(5, 0.1, 10.0), metrics(5, 0.1, 10.0)));
  EXPECT_FALSE(dominates(metrics(6, 0.2, 10.0), metrics(5, 0.1, 10.0)));
  EXPECT_FALSE(dominates(metrics(4, 0.05, 5.0), metrics(5, 0.1, 10.0)));
}

TEST(ObjectiveTest, NeverCrossedOutranksCrossedRegardlessOfCurveLength) {
  // A defense the adversary never beat must not lose the survival axis
  // to one it did beat, even when the never-crossed curve is shorter.
  CandidateMetrics never_beaten = metrics(4, 0.1, 10.0);
  never_beaten.epochs_total = 4;
  never_beaten.crossed = false;
  const CandidateMetrics beaten_late = metrics(5, 0.1, 10.0);  // crossed
  EXPECT_TRUE(dominates(never_beaten, beaten_late));
  EXPECT_FALSE(dominates(beaten_late, never_beaten));

  TuningObjective objective;
  const std::vector<CandidateMetrics> all{beaten_late, never_beaten};
  const auto chosen = select(all, objective);
  ASSERT_TRUE(chosen.has_value());
  EXPECT_EQ(*chosen, 1u);
}

TEST(ObjectiveTest, ParetoFrontKeepsNonDominated) {
  const std::vector<CandidateMetrics> all{
      metrics(5, 0.10, 10.0),  // dominated by #2
      metrics(3, 0.05, 0.0),   // front (cheapest, lowest miss)
      metrics(6, 0.10, 10.0),  // front (most epochs)
      metrics(6, 0.20, 20.0),  // dominated by #2
  };
  EXPECT_EQ(pareto_front(all), (std::vector<std::size_t>{1, 2}));
}

TEST(ObjectiveTest, BudgetsFilterBeforeRanking) {
  TuningObjective objective;
  objective.budgets.max_deadline_miss_rate = 0.08;
  objective.budgets.max_overhead_percent = 15.0;

  const std::vector<CandidateMetrics> all{
      metrics(9, 0.50, 5.0),   // best epochs, blows the miss budget
      metrics(7, 0.05, 30.0),  // blows the overhead budget
      metrics(5, 0.05, 10.0),  // feasible — must win
      metrics(4, 0.01, 0.0),   // feasible, fewer epochs
  };
  EXPECT_TRUE(within_budgets(all[2], objective.budgets));
  EXPECT_FALSE(within_budgets(all[0], objective.budgets));
  EXPECT_FALSE(within_budgets(all[1], objective.budgets));
  const auto chosen = select(all, objective);
  ASSERT_TRUE(chosen.has_value());
  EXPECT_EQ(*chosen, 2u);
}

TEST(ObjectiveTest, DropRateBudgetCatchesOverloadedCells) {
  // Dropped frames produce no access-delay sample; the drop budget is
  // what sees an overloaded measurement cell hiding behind good
  // percentiles.
  TuningObjective objective;
  objective.budgets.max_frame_drop_rate = 0.01;
  CandidateMetrics overloaded = metrics(9, 0.0, 0.0);
  overloaded.frames_dropped = 40;
  overloaded.frame_drop_rate = 0.4;
  const std::vector<CandidateMetrics> all{overloaded, metrics(3, 0.0, 0.0)};
  EXPECT_FALSE(within_budgets(all[0], objective.budgets));
  const auto chosen = select(all, objective);
  ASSERT_TRUE(chosen.has_value());
  EXPECT_EQ(*chosen, 1u);
}

TEST(ObjectiveTest, RunSelectionExposesFeasibleAndFront) {
  TuningObjective objective;
  objective.budgets.max_overhead_percent = 15.0;
  const std::vector<CandidateMetrics> all{
      metrics(5, 0.10, 30.0),  // infeasible (overhead)
      metrics(3, 0.05, 0.0),   // feasible, front
      metrics(6, 0.10, 10.0),  // feasible, front, selected
      metrics(5, 0.20, 12.0),  // feasible, dominated by #2
  };
  const SelectionOutcome outcome = run_selection(all, objective);
  EXPECT_EQ(outcome.feasible, (std::vector<std::size_t>{1, 2, 3}));
  EXPECT_EQ(outcome.front, (std::vector<std::size_t>{1, 2}));
  ASSERT_TRUE(outcome.selected.has_value());
  EXPECT_EQ(*outcome.selected, 2u);
  EXPECT_EQ(outcome.selected, select(all, objective));
}

TEST(ObjectiveTest, SelectReturnsNulloptWhenNothingFits) {
  TuningObjective objective;
  objective.budgets.max_overhead_percent = 1.0;
  const std::vector<CandidateMetrics> all{metrics(5, 0.0, 50.0)};
  EXPECT_FALSE(select(all, objective).has_value());
}

TEST(ObjectiveTest, TieBreaksPreferLowerFinalAccuracy) {
  TuningObjective objective;
  std::vector<CandidateMetrics> all{metrics(5, 0.1, 10.0),
                                    metrics(5, 0.1, 10.0)};
  all[0].final_adaptive_accuracy = 40.0;
  all[1].final_adaptive_accuracy = 25.0;
  const auto chosen = select(all, objective);
  ASSERT_TRUE(chosen.has_value());
  EXPECT_EQ(*chosen, 1u);
}

// ------------------------------------------------------------ shard merge

// The pooled-sample half of merge_shards as it was before
// the linear merge: concatenate every shard, then sort. Kept verbatim
// (with its nearest-rank percentile) as the oracle the merge must match
// bit for bit.
double oracle_percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(sorted.size()))));
  return sorted[std::min(rank, sorted.size()) - 1];
}

CandidateMetrics oracle_merge(std::span<const CandidateShardOutcome> shards,
                              const TuningObjective& objective) {
  CandidateMetrics metrics;
  std::size_t epochs_total = 0;
  for (const CandidateShardOutcome& shard : shards) {
    epochs_total = std::max(epochs_total, shard.epochs.size());
  }
  std::vector<runtime::EpochAggregate> merged(epochs_total);
  for (const CandidateShardOutcome& shard : shards) {
    for (std::size_t e = 0; e < shard.epochs.size(); ++e) {
      merged[e].merge(shard.epochs[e]);
    }
  }
  metrics.epochs_total = epochs_total;
  metrics.epochs_survived = epochs_total;
  for (std::size_t e = 0; e < epochs_total; ++e) {
    if (merged[e].accuracy_percent() >= objective.adaptive_cross_percent) {
      metrics.epochs_survived = e;
      metrics.crossed = true;
      break;
    }
  }
  if (epochs_total > 0) {
    metrics.final_adaptive_accuracy = merged.back().accuracy_percent();
    metrics.final_static_accuracy = merged.back().static_accuracy_percent();
  }

  online::StreamingStats pooled;
  std::vector<double> samples;
  for (const CandidateShardOutcome& shard : shards) {
    pooled.merge(shard.streaming);
    samples.insert(samples.end(), shard.access_delay_us.begin(),
                   shard.access_delay_us.end());
    metrics.frames_dropped += shard.frames_dropped;
  }
  std::sort(samples.begin(), samples.end());
  metrics.deadline_miss_rate = pooled.deadline_miss_rate();
  metrics.mean_queueing_delay_us = pooled.mean_queueing_delay_us();
  metrics.access_delay_p50_us = oracle_percentile(samples, 0.50);
  metrics.access_delay_p90_us = oracle_percentile(samples, 0.90);
  metrics.access_delay_p99_us = oracle_percentile(samples, 0.99);
  const double offered =
      static_cast<double>(samples.size() + metrics.frames_dropped);
  metrics.frame_drop_rate =
      offered == 0.0 ? 0.0
                     : static_cast<double>(metrics.frames_dropped) / offered;
  metrics.overhead_percent = pooled.overhead_percent();
  return metrics;
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

void expect_bit_identical(const CandidateMetrics& got,
                          const CandidateMetrics& want) {
  EXPECT_EQ(got.epochs_total, want.epochs_total);
  EXPECT_EQ(got.epochs_survived, want.epochs_survived);
  EXPECT_EQ(got.crossed, want.crossed);
  EXPECT_EQ(bits(got.final_adaptive_accuracy),
            bits(want.final_adaptive_accuracy));
  EXPECT_EQ(bits(got.final_static_accuracy), bits(want.final_static_accuracy));
  EXPECT_EQ(bits(got.deadline_miss_rate), bits(want.deadline_miss_rate));
  EXPECT_EQ(bits(got.mean_queueing_delay_us),
            bits(want.mean_queueing_delay_us));
  EXPECT_EQ(bits(got.access_delay_p50_us), bits(want.access_delay_p50_us));
  EXPECT_EQ(bits(got.access_delay_p90_us), bits(want.access_delay_p90_us));
  EXPECT_EQ(bits(got.access_delay_p99_us), bits(want.access_delay_p99_us));
  EXPECT_EQ(got.frames_dropped, want.frames_dropped);
  EXPECT_EQ(bits(got.frame_drop_rate), bits(want.frame_drop_rate));
  EXPECT_EQ(bits(got.overhead_percent), bits(want.overhead_percent));
}

/// A shard outcome with `count` sorted integer-microsecond delays drawn
/// from only `distinct` values, so every percentile rank falls inside a
/// run of duplicates that spans the shards.
CandidateShardOutcome shard_of(std::size_t count, std::uint64_t stride,
                               std::uint64_t distinct,
                               std::uint64_t dropped) {
  CandidateShardOutcome shard;
  for (std::size_t i = 0; i < count; ++i) {
    shard.access_delay_us.push_back(
        static_cast<double>(100 + (i * stride) % distinct * 50));
  }
  std::sort(shard.access_delay_us.begin(), shard.access_delay_us.end());
  shard.frames_dropped = dropped;
  shard.streaming.packets = count;
  shard.streaming.original_bytes = 1000 * count;
  shard.streaming.added_bytes = 10 * count;
  return shard;
}

TEST(CandidateMergeTest, LinearMergeMatchesConcatenateAndSortBitForBit) {
  const TuningObjective objective;
  const CandidateShardOutcome a = shard_of(57, 7, 13, 1);
  const CandidateShardOutcome b = shard_of(43, 5, 13, 0);
  const CandidateShardOutcome c = shard_of(211, 3, 17, 4);
  const CandidateShardOutcome empty = shard_of(0, 1, 1, 2);

  // 100 pooled samples over 13 values: the p50/p90/p99 ranks (50, 90,
  // 99) each land inside a run of equal values that both shards feed.
  const std::vector<std::vector<CandidateShardOutcome>> cases{
      {a, b}, {a, empty, b}, {a}, {empty}, {a, b, c}, {c, a, b}, {}};
  for (const std::vector<CandidateShardOutcome>& shards : cases) {
    SCOPED_TRACE(::testing::Message() << shards.size() << " shards");
    expect_bit_identical(merge_shards(shards, objective),
                         oracle_merge(shards, objective));
  }

  // The duplicate runs really straddle the ranks on the two-shard case.
  std::vector<double> pooled = a.access_delay_us;
  pooled.insert(pooled.end(), b.access_delay_us.begin(),
                b.access_delay_us.end());
  std::sort(pooled.begin(), pooled.end());
  ASSERT_EQ(pooled.size(), 100u);
  for (const std::size_t rank : {50u, 90u, 99u}) {
    EXPECT_EQ(pooled[rank - 1], pooled[rank - 2]);
  }
}

// ------------------------------------------------------- ParameterTuner

/// A sweep small enough for the fast suite: two shards of a two-station
/// arena and a handful of candidates.
TunerSpec tiny_sweep() {
  TunerSpec spec;
  spec.seed = 0x7C7E5;
  spec.bootstrap.seed = 20110620;
  spec.bootstrap.train_sessions_per_app = 2;
  spec.bootstrap.train_session_duration = util::Duration::seconds(30.0);
  spec.attacker.cadence = util::Duration::seconds(10.0);
  spec.scenario = runtime::tuned_vs_table5(2, util::Duration::seconds(30.0));
  spec.streaming.bitrate_mbps = 24.0;
  spec.shards = 2;
  spec.space.interleaved_fine_partitions = false;
  spec.space.padded_compositions = false;
  return spec;
}

// Each run_range() materializes the arenas it scores in a memo keyed by
// workload slot (the shard) and drops it on return, so any partition of
// the grid into ranges must fold to the whole run's report — including
// ranges that split one candidate's shard pair, and back-to-back runs on
// one tuner.
TEST(ParameterTunerTest, RangePartitionsFoldToTheOneThreadRun) {
  ParameterTuner reference{tiny_sweep()};
  const std::string expected = reference.run(1).to_json();

  ParameterTuner tuner{tiny_sweep()};
  const std::size_t n = tuner.cell_count();
  ASSERT_GE(n, 4u);

  std::vector<TuningRangeOutcome> singles;
  for (std::size_t c = 0; c < n; ++c) {
    singles.push_back(tuner.run_range(c, c + 1, 1));
  }
  EXPECT_EQ(tuner.fold(std::move(singles)).to_json(), expected);

  std::vector<TuningRangeOutcome> split;
  split.push_back(tuner.run_range(0, 1, 1));
  split.push_back(tuner.run_range(1, n - 1, 2));
  split.push_back(tuner.run_range(n - 1, n, 1));
  EXPECT_EQ(tuner.fold(std::move(split)).to_json(), expected);

  EXPECT_EQ(tuner.run(4).to_json(), expected);
  EXPECT_EQ(tuner.run(4).to_json(), expected);
}

TEST(ParameterTunerTest, GeneratesEachShardArenaOncePerRun) {
  ParameterTuner tuner{tiny_sweep()};
  obs::TelemetryConfig profiling;
  profiling.profiling = true;
  tuner.set_telemetry(profiling);
  const auto generations = [&tuner] {
    const auto phases = tuner.profiler().snapshot();
    const auto it = phases.find("generation");
    return it == phases.end() ? std::uint64_t{0} : it->second.calls;
  };

  const std::string first = tuner.run(4).to_json();
  EXPECT_EQ(generations(), tuner.spec().shards);
  EXPECT_EQ(tuner.run(4).to_json(), first);
  EXPECT_EQ(generations(), tuner.spec().shards);  // run() clears laps

  // A later range regenerates what it scores: nothing is kept between
  // calls.
  (void)tuner.run_range(0, 1, 1);
  EXPECT_EQ(generations(), tuner.spec().shards + 1);
}

// The tuner laps every cell, each cell's three passes, and the arena
// generation of each shard once (only the cell that fills a memo slot
// laps it).
TEST(ParameterTunerTest, ProfileLapsEveryCellAndPass) {
  ParameterTuner tuner{tiny_sweep()};
  obs::TelemetryConfig profiling;
  profiling.profiling = true;
  tuner.set_telemetry(profiling);
  (void)tuner.run(2);
  const std::size_t cells = tuner.cell_count();
  std::size_t named = 0;
  std::set<std::string> phases;
  for (const auto& [name, sample] : tuner.profiler().snapshot()) {
    if (name.starts_with("cell/")) {
      ++named;
      EXPECT_EQ(sample.calls, 1u) << name;
    } else {
      phases.insert(name);
      const std::uint64_t expected =
          name == "generation" ? tuner.spec().shards : cells;
      EXPECT_EQ(sample.calls, expected) << name;
    }
  }
  EXPECT_EQ(named, cells);
  EXPECT_EQ(phases,
            (std::set<std::string>{"adaptive", "arbitration", "cells",
                                   "generation", "streaming"}));
}

}  // namespace
}  // namespace reshape::core::tuning
