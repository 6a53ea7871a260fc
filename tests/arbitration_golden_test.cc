// Bit-for-bit pins of everything the DCF arbitration pass produces. Every
// arbitrated registry scenario, the tuner's per-cell access-delay
// measurement and a small tuning sweep all run through the simulator's
// event queue; these digests (FNV-1a 64) change only when an on-air
// timestamp, a delay sample, a drop count or a report byte does — not
// when the queue changes how it holds pending releases.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "core/scheduler.h"
#include "core/tuning/evaluator.h"
#include "core/tuning/tuned_configuration.h"
#include "core/tuning/tuner.h"
#include "runtime/evaluation_backend.h"
#include "runtime/scenario.h"
#include "util/rng.h"

namespace reshape {
namespace {

class Fnv1a {
 public:
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xFFU;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  void add_bytes(const std::string& bytes) {
    for (const char c : bytes) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001B3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

std::string hex(std::uint64_t value) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

void add_traces(Fnv1a& fnv, std::span<const traffic::Trace> traces) {
  fnv.add(std::uint64_t{traces.size()});
  for (const traffic::Trace& trace : traces) {
    fnv.add(std::uint64_t{traffic::app_index(trace.app())});
    fnv.add(std::uint64_t{trace.size()});
    for (const std::int64_t t : trace.times_us()) {
      fnv.add(static_cast<std::uint64_t>(t));
    }
    for (const std::uint32_t size : trace.sizes_bytes()) {
      fnv.add(std::uint64_t{size});
    }
    for (const mac::Direction dir : trace.directions()) {
      fnv.add(static_cast<std::uint64_t>(dir));
    }
  }
}

std::uint64_t scenario_digest(const runtime::Scenario& scenario) {
  util::Rng rng{0xA2B17E};
  Fnv1a fnv;
  add_traces(fnv, scenario.generate(rng));
  return fnv.value();
}

TEST(ArbitrationGoldenTest, ArbitratedScenariosPinnedBitForBit) {
  struct ScenarioGolden {
    runtime::Scenario scenario;
    std::uint64_t digest;
  };
  const runtime::ScenarioRegistry& registry =
      runtime::ScenarioRegistry::global();
  const std::vector<ScenarioGolden> goldens = {
      {registry.at("contended-cell"), 0xb6355ec891534c24ULL},
      {registry.at("saturated-ap-downlink"), 0xf08e1f10861733a7ULL},
      {registry.at("adaptive-contended-cell"), 0x3b54bf9e407cb02fULL},
      {registry.at("adaptive-roaming-retrain"), 0x1dbfafcf149e0d50ULL},
      {registry.at("tuned-vs-table5"), 0x0eb9cf4ff1a3265eULL},
      {runtime::dense_wlan_10k(200), 0xcbe9fdefcd1bcda8ULL},
  };
  for (const ScenarioGolden& golden : goldens) {
    EXPECT_EQ(hex(scenario_digest(golden.scenario)), hex(golden.digest))
        << golden.scenario.name();
  }
}

/// A tuning run small enough for the fast suite.
core::tuning::TunerSpec small_spec() {
  core::tuning::TunerSpec spec;
  spec.seed = 0x601DA2B;
  spec.bootstrap.seed = 20110620;
  spec.bootstrap.train_sessions_per_app = 2;
  spec.bootstrap.train_session_duration = util::Duration::seconds(30.0);
  spec.attacker.cadence = util::Duration::seconds(10.0);
  spec.scenario = runtime::tuned_vs_table5(3, util::Duration::seconds(30.0));
  spec.shards = 1;
  spec.space.interleaved_fine_partitions = false;
  spec.space.padded_compositions = false;
  return spec;
}

TEST(ArbitrationGoldenTest, EvaluateCellPinnedBitForBit) {
  const core::tuning::TunerSpec spec = small_spec();
  core::tuning::CandidateEvaluator evaluator{spec};
  evaluator.train();

  auto unpadded = core::tuning::TunedConfiguration::identity(
      "golden", core::SizeRanges::paper_default());
  auto padded = unpadded;
  padded.name = "golden-padded";
  padded.pad_to = {600, 1576, 0};
  const std::vector<core::tuning::TunedConfiguration> candidates = {unpadded,
                                                                    padded};
  const runtime::CellGrid grid{candidates.size(), 1, 1};
  util::Rng workload = runtime::cell_streams(spec.seed, grid, 0).workload;
  const std::vector<traffic::Trace> sessions =
      spec.scenario.generate(workload);

  const std::uint64_t goldens[] = {0x0d7282532e70eccaULL,
                                   0x9a6f3856d17afc4bULL};
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    const core::tuning::CandidateShardOutcome outcome =
        evaluator.evaluate_cell(candidates[c], sessions, grid, c);
    Fnv1a fnv;
    fnv.add(std::uint64_t{outcome.access_delay_us.size()});
    for (const double delay : outcome.access_delay_us) {
      fnv.add(delay);
    }
    fnv.add(outcome.frames_dropped);
    const core::online::StreamingStats& stats = outcome.streaming;
    fnv.add(stats.packets);
    fnv.add(stats.original_bytes);
    fnv.add(stats.added_bytes);
    fnv.add(stats.deadline_misses);
    fnv.add(
        static_cast<std::uint64_t>(stats.total_queueing_delay.count_us()));
    fnv.add(static_cast<std::uint64_t>(stats.max_queueing_delay.count_us()));
    fnv.add(static_cast<std::uint64_t>(stats.airtime_busy.count_us()));
    fnv.add(std::uint64_t{stats.max_queue_depth});
    EXPECT_EQ(hex(fnv.value()), hex(goldens[c])) << candidates[c].name;
  }
}

TEST(ArbitrationGoldenTest, TuningReportPinnedBitForBit) {
  core::tuning::ParameterTuner tuner{small_spec()};
  Fnv1a fnv;
  fnv.add_bytes(tuner.run(2).to_json());
  EXPECT_EQ(hex(fnv.value()), hex(0x27604b5aec9de669ULL));
}

}  // namespace
}  // namespace reshape
