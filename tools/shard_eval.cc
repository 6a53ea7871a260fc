// shard_eval: the multi-process shard-server driver.
//
// Coordinator mode runs one of three named evaluation jobs across worker
// processes and (with --verify) proves the distributed determinism
// contract: the sharded report and telemetry must be byte-identical to
// the single-process run.
//
//   shard_eval --verify --workers 2                # fork-mode workers
//   shard_eval --verify --workers 2 --exec         # fork+exec workers
//   shard_eval --engine adaptive --workers 4 --threads 2 --json out.json
//
// Worker mode is what --exec children run; the coordinator spawns
//
//   shard_eval --worker --worker-fd 3
//
// with the protocol socket on fd 3 (stdin/stdout untouched). The worker
// rebuilds the engine named in each work order from the same registry the
// coordinator used, so both sides score identical grids.
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/tuning/tuner.h"
#include "eval/defense_factory.h"
#include "obs/export.h"
#include "runtime/adaptive_campaign.h"
#include "runtime/campaign.h"
#include "runtime/scenario.h"
#include "runtime/shard_server.h"
#include "runtime/wire.h"

namespace {

using namespace reshape;

/// What every run collects: the deterministic sections (metrics, windowed,
/// privacy). Profiling is host timing — excluded so telemetry_to_json is
/// byte-comparable.
obs::TelemetryConfig telemetry() {
  obs::TelemetryConfig config;
  config.metrics = true;
  config.windowed = true;
  config.privacy = true;
  return config;
}

runtime::CampaignSpec campaign_spec() {
  runtime::CampaignSpec spec;
  spec.seed = 20110620;
  spec.training.seed = 777;
  spec.training.train_sessions_per_app = 2;
  spec.training.train_session_duration = util::Duration::seconds(30.0);
  spec.training.test_sessions_per_app = 1;
  spec.training.test_session_duration = util::Duration::seconds(30.0);
  spec.defenses.push_back({"Original", eval::no_defense_factory()});
  spec.defenses.push_back(
      {"OR", eval::reshaping_factory(core::SchedulerKind::kOrthogonal, 3)});
  spec.scenarios.push_back(
      runtime::multi_app_station(1, util::Duration::seconds(30.0)));
  spec.shards = 2;
  return spec;
}

runtime::AdaptiveCampaignSpec adaptive_spec() {
  runtime::AdaptiveCampaignSpec spec;
  spec.seed = 0xADA;
  spec.bootstrap.seed = 777;
  spec.bootstrap.train_sessions_per_app = 2;
  spec.bootstrap.train_session_duration = util::Duration::seconds(30.0);
  spec.attacker.cadence = util::Duration::seconds(10.0);
  spec.defenses.push_back({"Original", eval::no_defense_factory()});
  spec.defenses.push_back(
      {"OR", eval::reshaping_factory(core::SchedulerKind::kOrthogonal, 3)});
  spec.scenarios.push_back(
      runtime::multi_app_station(1, util::Duration::seconds(30.0)));
  spec.shards = 2;
  return spec;
}

core::tuning::TunerSpec tuning_spec() {
  core::tuning::TunerSpec spec;
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

/// The job registry both sides share: a name resolves to a freshly built
/// engine behind the same serving closure run_sharded uses. Worker
/// processes call this through serve(); the coordinator's fork-mode path
/// never does (run_sharded serves its own engine).
runtime::WorkerJob make_job(std::string_view name) {
  if (name == "campaign") {
    return runtime::range_job(
        std::make_shared<runtime::CampaignEngine>(campaign_spec()));
  }
  if (name == "adaptive") {
    return runtime::range_job(
        std::make_shared<runtime::AdaptiveCampaignEngine>(adaptive_spec()));
  }
  if (name == "tuning") {
    return runtime::range_job(
        std::make_shared<core::tuning::ParameterTuner>(tuning_spec()));
  }
  throw std::runtime_error{"shard_eval: unknown job '" + std::string{name} +
                           "'"};
}

struct Options {
  bool worker = false;
  int worker_fd = -1;
  std::string engine = "campaign";
  std::size_t workers = 2;
  std::size_t threads = 1;
  bool exec_mode = false;
  bool verify = false;
  std::string json_path;
  std::string argv0;
};

int usage() {
  std::cerr
      << "usage: shard_eval [--engine campaign|adaptive|tuning]\n"
         "                  [--workers N] [--threads N] [--exec] [--verify]\n"
         "                  [--json PATH]\n"
         "       shard_eval --worker --worker-fd FD\n";
  return 2;
}

/// Runs one engine type both ways and reports. Returns the process exit
/// code: nonzero when --verify finds any byte difference.
template <typename Engine, typename Spec>
int drive(const Spec& spec, const Options& opt) {
  std::string expect_report;
  std::string expect_telemetry;
  if (opt.verify) {
    Engine in_process{spec};
    in_process.set_telemetry(telemetry());
    expect_report = in_process.run(opt.threads).to_json();
    expect_telemetry = in_process.telemetry_to_json();
  }

  Engine sharded_engine{spec};
  sharded_engine.set_telemetry(telemetry());
  runtime::ShardConfig config;
  config.workers = opt.workers;
  config.threads_per_worker = opt.threads;
  config.job = opt.engine;
  if (opt.exec_mode) {
    config.worker_command = {opt.argv0, "--worker"};
  }
  std::vector<std::string> failures;
  const std::string report =
      runtime::run_sharded(sharded_engine, config, &failures).to_json();
  const std::string sharded_telemetry = sharded_engine.telemetry_to_json();
  for (const std::string& failure : failures) {
    std::cerr << "shard_eval: " << failure << "\n";
  }

  const bool report_match = !opt.verify || report == expect_report;
  const bool telemetry_match =
      !opt.verify || sharded_telemetry == expect_telemetry;
  if (!opt.json_path.empty()) {
    std::string doc = "{\"engine\":\"" + opt.engine +
                      "\",\"workers\":" + std::to_string(opt.workers) +
                      ",\"threads\":" + std::to_string(opt.threads) +
                      ",\"worker_failures\":" +
                      std::to_string(failures.size()) +
                      ",\"verified\":" + (opt.verify ? "1" : "0") +
                      ",\"report_match\":" + (report_match ? "1" : "0") +
                      ",\"telemetry_match\":" + (telemetry_match ? "1" : "0") +
                      ",\"report\":" + report + "}";
    if (!obs::write_file(opt.json_path, doc)) {
      std::cerr << "shard_eval: cannot write " << opt.json_path << "\n";
      return 1;
    }
  }

  if (opt.verify) {
    std::cout << "engine=" << opt.engine << " workers=" << opt.workers
              << " threads=" << opt.threads
              << (opt.exec_mode ? " mode=exec" : " mode=fork")
              << " report=" << (report_match ? "identical" : "DIFFERS")
              << " telemetry="
              << (telemetry_match ? "identical" : "DIFFERS") << "\n";
    return report_match && telemetry_match ? 0 : 1;
  }
  std::cout << report << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  opt.argv0 = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::exit(usage());
      }
      return argv[++i];
    };
    if (arg == "--worker") {
      opt.worker = true;
    } else if (arg == "--worker-fd") {
      opt.worker_fd = std::atoi(value().c_str());
    } else if (arg == "--engine") {
      opt.engine = value();
    } else if (arg == "--workers") {
      opt.workers = static_cast<std::size_t>(std::atoi(value().c_str()));
    } else if (arg == "--threads") {
      opt.threads = static_cast<std::size_t>(std::atoi(value().c_str()));
    } else if (arg == "--exec") {
      opt.exec_mode = true;
    } else if (arg == "--verify") {
      opt.verify = true;
    } else if (arg == "--json") {
      opt.json_path = value();
    } else {
      return usage();
    }
  }

  try {
    if (opt.worker) {
      if (opt.worker_fd < 0) {
        return usage();
      }
      runtime::serve(opt.worker_fd, make_job);
      return 0;
    }
    if (opt.engine == "campaign") {
      return drive<runtime::CampaignEngine>(campaign_spec(), opt);
    }
    if (opt.engine == "adaptive") {
      return drive<runtime::AdaptiveCampaignEngine>(adaptive_spec(), opt);
    }
    if (opt.engine == "tuning") {
      return drive<core::tuning::ParameterTuner>(tuning_spec(), opt);
    }
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "shard_eval: " << e.what() << "\n";
    return 1;
  }
}
