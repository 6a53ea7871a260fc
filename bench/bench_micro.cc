// Micro-benchmarks (google-benchmark) for the §V-B scalability claims:
//   * the reshaping algorithms are O(N) in the packet count with tiny
//     per-packet constants (the paper: "the computational complexity of
//     OR is O(N)");
//   * the configuration handshake is the only message overhead;
//   * the supporting pipeline (feature extraction, classifier inference,
//     address-pool allocation, DCF arbitration of a contended cell) is
//     fast enough for online use.
#include <benchmark/benchmark.h>

#include "core/defense.h"
#include "core/scheduler.h"
#include "features/features.h"
#include "mac/address_pool.h"
#include "ml/mlp.h"
#include "ml/svm.h"
#include "net/config_protocol.h"
#include "runtime/scenario.h"
#include "traffic/generator.h"

namespace {

using namespace reshape;

const traffic::Trace& bt_trace() {
  static const traffic::Trace trace = traffic::generate_trace(
      traffic::AppType::kBitTorrent, util::Duration::seconds(120.0), 0xB17,
      traffic::SessionJitter::none());
  return trace;
}

void BM_SchedulerOrthogonal(benchmark::State& state) {
  core::OrthogonalScheduler scheduler = core::OrthogonalScheduler::identity(
      core::SizeRanges::paper_default());
  const auto& trace = bt_trace();
  std::size_t i = 0;
  for (auto _ : state) {
    const traffic::PacketRecord& r = trace[i++ % trace.size()];
    benchmark::DoNotOptimize(scheduler.select_interface(r));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SchedulerOrthogonal);

void BM_SchedulerModulo(benchmark::State& state) {
  core::ModuloScheduler scheduler{3};
  const auto& trace = bt_trace();
  std::size_t i = 0;
  for (auto _ : state) {
    const traffic::PacketRecord& r = trace[i++ % trace.size()];
    benchmark::DoNotOptimize(scheduler.select_interface(r));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SchedulerModulo);

void BM_SchedulerRandom(benchmark::State& state) {
  core::RandomScheduler scheduler{3, util::Rng{1}};
  const auto& trace = bt_trace();
  std::size_t i = 0;
  for (auto _ : state) {
    const traffic::PacketRecord& r = trace[i++ % trace.size()];
    benchmark::DoNotOptimize(scheduler.select_interface(r));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SchedulerRandom);

/// O(N) check: total reshaping time for traces of growing length.
void BM_ReshapeWholeTrace(benchmark::State& state) {
  const auto seconds = static_cast<double>(state.range(0));
  const traffic::Trace trace = traffic::generate_trace(
      traffic::AppType::kBitTorrent, util::Duration::seconds(seconds), 0xB18,
      traffic::SessionJitter::none());
  for (auto _ : state) {
    core::ReshapingDefense defense{std::make_unique<core::OrthogonalScheduler>(
        core::OrthogonalScheduler::identity(core::SizeRanges::paper_default()))};
    benchmark::DoNotOptimize(defense.apply(trace));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(trace.size()));
  state.counters["packets"] = static_cast<double>(trace.size());
}
BENCHMARK(BM_ReshapeWholeTrace)->Arg(15)->Arg(30)->Arg(60)->Arg(120);

void BM_FeatureExtraction5sWindows(benchmark::State& state) {
  const auto& trace = bt_trace();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        features::extract_all_windows(trace, util::Duration::seconds(5.0)));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_FeatureExtraction5sWindows);

void BM_ConfigHandshakeEncode(benchmark::State& state) {
  const mac::StreamCipher cipher{mac::SymmetricKey{7, 8}};
  net::ConfigRequest request;
  request.physical_address = mac::MacAddress::from_u64(0x0200AABBCCDD);
  request.nonce = 42;
  request.requested_interfaces = 3;
  std::uint64_t n = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::encode_request(request, cipher, ++n));
  }
}
BENCHMARK(BM_ConfigHandshakeEncode);

void BM_AddressPoolAllocate(benchmark::State& state) {
  mac::AddressPool pool{util::Rng{3}};
  for (auto _ : state) {
    auto addr = pool.allocate();
    benchmark::DoNotOptimize(addr);
    pool.release(*addr);
  }
}
BENCHMARK(BM_AddressPoolAllocate);

void BM_SvmPredict(benchmark::State& state) {
  // Small synthetic 7-class set mirrors attack dimensionality (14).
  util::Rng rng{5};
  ml::Dataset data;
  for (int c = 0; c < 7; ++c) {
    for (int k = 0; k < 40; ++k) {
      std::vector<double> row(14);
      for (double& v : row) {
        v = rng.normal(c * 0.2, 0.1);
      }
      data.add(std::move(row), c);
    }
  }
  ml::SvmClassifier svm;
  svm.fit(data);
  const std::vector<double> probe(14, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(svm.predict(probe));
  }
}
BENCHMARK(BM_SvmPredict);

void BM_MlpPredict(benchmark::State& state) {
  util::Rng rng{6};
  ml::Dataset data;
  for (int c = 0; c < 7; ++c) {
    for (int k = 0; k < 40; ++k) {
      std::vector<double> row(14);
      for (double& v : row) {
        v = rng.normal(c * 0.2, 0.1);
      }
      data.add(std::move(row), c);
    }
  }
  ml::MlpConfig cfg;
  cfg.epochs = 30;
  ml::MlpClassifier mlp{cfg};
  mlp.fit(data);
  const std::vector<double> probe(14, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mlp.predict(probe));
  }
}
BENCHMARK(BM_MlpPredict);

void BM_TraceGeneration(benchmark::State& state) {
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(traffic::generate_trace(
        traffic::AppType::kVideo, util::Duration::seconds(5.0), ++seed));
  }
}
BENCHMARK(BM_TraceGeneration);

/// The tuning arena end to end: four stations' 60 s sessions generated
/// and arbitrated through one DCF cell. Items are on-air frames, so the
/// per-frame cost of arbitration reads straight off items/s.
void BM_ArbitrateContendedCell(benchmark::State& state) {
  const runtime::Scenario arena =
      runtime::tuned_vs_table5(4, util::Duration::seconds(60.0));
  std::size_t frames = 0;
  for (auto _ : state) {
    util::Rng rng{0xA12B};
    const std::vector<traffic::Trace> flows = arena.generate(rng);
    frames = 0;
    for (const traffic::Trace& flow : flows) {
      frames += flow.size();
    }
    benchmark::DoNotOptimize(flows.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frames));
  state.counters["frames"] = static_cast<double>(frames);
}
BENCHMARK(BM_ArbitrateContendedCell)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
