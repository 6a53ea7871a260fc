// The benchmark's three workloads. Each is a closed loop: one process
// calls the engine's public run entry point back to back on at most
// `nproc` threads or worker processes. The seed shapes the inputs (the
// campaign/tuner seeds the engines sample their sessions from); the
// engines receive nothing else from the benchmark.
//
//   paper-grid         CampaignEngine, paper_single_app + dense_wlan x the
//                      Table II defenses + Padding, telemetry off
//   dense-10k-audited  run_sharded (fork mode) over dense_wlan_10k with
//                      Original + OR, metrics/windowed/privacy audit on
//   tuning-sweep       ParameterTuner, bench_parameter_tuning's full spec
//                      at the 10 s re-training cadence
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/tuning/tuner.h"
#include "host.h"
#include "runtime/campaign.h"
#include "runtime/shard_server.h"

namespace perfbench {

inline constexpr std::string_view kPaperGrid = "paper-grid";
inline constexpr std::string_view kDense10k = "dense-10k-audited";
inline constexpr std::string_view kTuningSweep = "tuning-sweep";

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds a fresh engine (dropping the previous one) and brings it to
  /// the warm state every timed repetition starts from: construction,
  /// train(), workload materialization, probe build and discarded warm-up
  /// repetitions, so glibc's mmap threshold and the lazy caches settle
  /// before anything is timed. This is what setup_s measures.
  virtual void set_up() = 0;

  /// Builds the 1-thread in-process reference report on the current engine
  /// and runs the workload's setup-time checks. Not part of setup_s.
  virtual void build_reference(Tally& tally) = 0;

  /// One timed repetition on the warm engine. Throws on a failed run.
  virtual void run_once() = 0;

  /// Stable JSON of the last repetition's report, and the shard failures
  /// that repetition reported.
  [[nodiscard]] virtual std::string last_report() const = 0;
  [[nodiscard]] virtual std::size_t last_failures() const { return 0; }

  [[nodiscard]] const std::string& reference() const { return reference_; }
  [[nodiscard]] std::size_t sessions_per_run() const { return sessions_; }
  [[nodiscard]] virtual std::size_t cells() const = 0;
  [[nodiscard]] virtual std::size_t workers() const { return 0; }

 protected:
  explicit Workload(std::size_t threads) : threads_{threads} {}

  std::size_t threads_;
  std::string reference_;
  std::size_t sessions_ = 0;
};

/// paper-grid and dense-10k-audited: one CampaignEngine, run in-process or
/// through the fork-mode shard server.
class CampaignWorkload final : public Workload {
 public:
  CampaignWorkload(std::string_view name, reshape::runtime::CampaignSpec spec,
                   reshape::obs::TelemetryConfig telemetry,
                   std::size_t threads, std::size_t workers);

  [[nodiscard]] std::string_view name() const { return name_; }
  void set_up() override;
  void build_reference(Tally& tally) override;
  void run_once() override;
  [[nodiscard]] std::string last_report() const override;
  [[nodiscard]] std::size_t last_failures() const override {
    return failures_.size();
  }
  [[nodiscard]] std::size_t cells() const override;
  [[nodiscard]] std::size_t workers() const override {
    return shard_.workers;
  }

  [[nodiscard]] bool sharded() const { return shard_.workers > 0; }
  [[nodiscard]] const reshape::runtime::CampaignSpec& spec() const {
    return spec_;
  }
  [[nodiscard]] reshape::obs::TelemetryConfig telemetry() const {
    return telemetry_;
  }
  [[nodiscard]] reshape::runtime::CampaignEngine& engine() { return *engine_; }

 private:
  std::string name_;
  reshape::runtime::CampaignSpec spec_;
  reshape::obs::TelemetryConfig telemetry_;
  reshape::runtime::ShardConfig shard_;  // workers == 0: in-process
  std::unique_ptr<reshape::runtime::CampaignEngine> engine_;
  reshape::runtime::CampaignReport last_;
  std::vector<std::string> failures_;
};

/// tuning-sweep: one ParameterTuner, in-process.
class TuningWorkload final : public Workload {
 public:
  TuningWorkload(reshape::core::tuning::TunerSpec spec, std::size_t threads);

  void set_up() override;
  void build_reference(Tally& tally) override;
  void run_once() override;
  [[nodiscard]] std::string last_report() const override;
  [[nodiscard]] std::size_t cells() const override;

  [[nodiscard]] reshape::core::tuning::ParameterTuner& tuner() {
    return *tuner_;
  }

 private:
  reshape::core::tuning::TunerSpec spec_;
  std::unique_ptr<reshape::core::tuning::ParameterTuner> tuner_;
  reshape::core::tuning::TuningReport last_;
};

/// Packets across `traces`.
[[nodiscard]] std::uint64_t packets_of(
    const std::vector<reshape::traffic::Trace>& traces);

/// The workload called `name` with inputs derived from `seed`, run on
/// `threads` threads (worker processes for the sharded workload).
/// Throws std::invalid_argument for unknown names.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name,
                                                      std::uint64_t seed,
                                                      std::size_t threads);

}  // namespace perfbench
