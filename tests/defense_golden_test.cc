// Bit-for-bit pins of every defense the evaluation factories and the
// tuner build. Batch Defense::apply() and the streaming pipeline share
// one dispatch, so live == batch parity cannot catch a mistake made in
// that shared code; these digests are the independent oracle. Each one
// folds, over a fixed trace of every app, every output stream's
// time/size/direction columns plus original_bytes and added_bytes
// (FNV-1a 64). A digest changes only when a defense's output bytes do.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/defense.h"
#include "core/online/streaming_reshaper.h"
#include "core/scheduler.h"
#include "core/target_distribution.h"
#include "core/tuning/tuned_configuration.h"
#include "eval/defense_factory.h"
#include "eval/experiment.h"
#include "traffic/generator.h"

namespace reshape::eval {
namespace {

using traffic::AppType;

class Fnv1a {
 public:
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xFFU;
      hash_ *= 0x100000001B3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

void add_result(Fnv1a& fnv, const core::DefenseResult& result) {
  fnv.add(result.streams.size());
  for (const traffic::Trace& stream : result.streams) {
    fnv.add(traffic::app_index(stream.app()));
    fnv.add(stream.size());
    for (const std::int64_t t : stream.times_us()) {
      fnv.add(static_cast<std::uint64_t>(t));
    }
    for (const std::uint32_t size : stream.sizes_bytes()) {
      fnv.add(size);
    }
    for (const mac::Direction dir : stream.directions()) {
      fnv.add(static_cast<std::uint64_t>(dir));
    }
  }
  fnv.add(result.original_bytes);
  fnv.add(result.added_bytes);
}

std::string hex(std::uint64_t value) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

/// One fixed 20 s session per app.
const std::vector<traffic::Trace>& fixed_traces() {
  static const std::vector<traffic::Trace> traces = [] {
    std::vector<traffic::Trace> out;
    for (const AppType app : traffic::kAllApps) {
      out.push_back(traffic::generate_trace(app, util::Duration::seconds(20.0),
                                            0x601D + traffic::app_index(app)));
    }
    return out;
  }();
  return traces;
}

/// A fresh defense per app, seeded per app, applied once to its trace.
std::uint64_t factory_digest(const DefenseFactory& factory) {
  Fnv1a fnv;
  for (const traffic::Trace& trace : fixed_traces()) {
    const auto defense =
        factory(trace.app(), 0x5EED0000ULL + traffic::app_index(trace.app()));
    add_result(fnv, defense->apply(trace));
  }
  return fnv.value();
}

/// One defense instance applied to every app's trace in turn.
std::uint64_t instance_digest(core::Defense& defense) {
  Fnv1a fnv;
  for (const traffic::Trace& trace : fixed_traces()) {
    add_result(fnv, defense.apply(trace));
  }
  return fnv.value();
}

struct FactoryGolden {
  std::string name;
  DefenseFactory factory;
  std::uint64_t digest;
};

TEST(DefenseGoldenTest, EveryFactoryPinnedBitForBit) {
  ExperimentConfig config;
  config.seed = 0x601D;
  ExperimentHarness harness{config};
  const std::vector<FactoryGolden> goldens = {
      {"Original", no_defense_factory(), 0x47f77d7893879345ULL},
      {"RA", reshaping_factory(core::SchedulerKind::kRandom, 3),
       0xcfcb05953f543f0cULL},
      {"RR", reshaping_factory(core::SchedulerKind::kRoundRobin, 3),
       0xb598746ef165ac4eULL},
      {"OR", reshaping_factory(core::SchedulerKind::kOrthogonal, 3),
       0xc31cbdb1618f0d6cULL},
      {"OR-mod", reshaping_factory(core::SchedulerKind::kModulo, 3),
       0xf28424b2d3f4374aULL},
      {"OR L5",
       orthogonal_factory(core::SizeRanges::paper_l5(),
                          core::TargetDistribution::orthogonal_identity(5)),
       0x03d78bbc2acaefe3ULL},
      {"FH", frequency_hopping_factory(1), 0xc4718c4bc76804c9ULL},
      {"Padding", padding_factory(), 0x5d3076fdb2fa566eULL},
      {"Morphing", morphing_factory(harness), 0x0fbe90656e109653ULL},
      {"Combined", combined_factory(harness), 0xc2604e25b434ab80ULL},
  };
  for (const FactoryGolden& golden : goldens) {
    EXPECT_EQ(hex(factory_digest(golden.factory)), hex(golden.digest))
        << golden.name;
  }
}

core::tuning::TunedConfiguration tuned(bool padded) {
  auto config = core::tuning::TunedConfiguration::identity(
      "golden", core::SizeRanges::paper_default());
  if (padded) {
    // Both pads cross a range bound (232 | 1540 | 1576), so shaping before
    // dispatch would move packets to another interface.
    config.pad_to = {600, 1576, 0};
  }
  return config;
}

TEST(DefenseGoldenTest, TunedConfigurationPinnedBitForBit) {
  struct TunedGolden {
    bool padded;
    std::uint64_t digest;
  };
  for (const TunedGolden& golden :
       {TunedGolden{false, 0xc31cbdb1618f0d6cULL},
        TunedGolden{true, 0x294d8dfde90babd9ULL}}) {
    const auto config = tuned(golden.padded);
    EXPECT_EQ(hex(instance_digest(*config.make_defense())),
              hex(golden.digest))
        << config.summary();
  }
}

TEST(DefenseGoldenTest, StreamingTunedReshaperMatchesPin) {
  // The live pipeline the tuner scores reproduces the batch pin.
  const auto config = tuned(/*padded=*/true);
  const auto reshaper = config.make_reshaper({});
  Fnv1a fnv;
  for (const traffic::Trace& trace : fixed_traces()) {
    add_result(fnv, core::online::run_streaming(*reshaper, trace));
  }
  EXPECT_EQ(hex(fnv.value()), hex(0x294d8dfde90babd9ULL));
}

}  // namespace
}  // namespace reshape::eval
