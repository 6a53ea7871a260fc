// Named, parameterized evaluation workloads.
//
// The paper evaluates one workload: each of the seven applications running
// alone on one station. A production defense faces richer traffic —
// multi-app households, dense cells, IoT telemetry, long-lived VoIP calls
// next to browsing. A Scenario packages any such workload as a named
// factory from a per-cell RNG to the labeled sessions a campaign cell
// evaluates; every scenario is built purely from the existing
// traffic::AppTrafficSource / SessionJitter machinery, so adding one is a
// few lines of composition, not a new traffic model.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "traffic/app_model.h"
#include "traffic/trace.h"
#include "util/rng.h"
#include "util/time.h"

namespace reshape::runtime {

/// One station's flow in a scenario: an application session with its own
/// duration and session-level heterogeneity.
struct StationSpec {
  traffic::AppType app = traffic::AppType::kBrowsing;
  util::Duration duration = util::Duration::seconds(60.0);
  traffic::SessionJitter jitter{};
};

/// A named, parameterized workload.
///
/// `generate` maps a cell RNG to labeled sessions (ground truth in
/// Trace::app()). Generators must derive all randomness from the RNG they
/// are handed — via value draws or `fork(stream_id)` — so a cell's
/// workload depends only on its cell seed, never on scheduling order.
class Scenario {
 public:
  using Generator = std::function<std::vector<traffic::Trace>(util::Rng&)>;

  Scenario(std::string name, std::string description, Generator generate);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::string& description() const { return description_; }

  /// Materializes the workload for one cell.
  [[nodiscard]] std::vector<traffic::Trace> generate(util::Rng& rng) const;

 private:
  std::string name_;
  std::string description_;
  Generator generate_;
};

/// Materializes one labeled session per station, each from its own keyed
/// substream of `rng` (stations are independent and order-stable).
[[nodiscard]] std::vector<traffic::Trace> generate_stations(
    std::span<const StationSpec> stations, util::Rng& rng);

// ------------------------------------------------------- built-in builders

/// The paper's workload: `sessions_per_app` independent sessions of every
/// application (the §IV test corpus, parameterized).
[[nodiscard]] Scenario paper_single_app(std::size_t sessions_per_app,
                                        util::Duration session_duration,
                                        traffic::SessionJitter jitter = {});

/// `households` stations each running browsing + video + chatting
/// concurrently — the multi-app station the paper's single-app corpus
/// never exercises.
[[nodiscard]] Scenario multi_app_station(std::size_t households,
                                         util::Duration duration);

/// `devices` low-rate telemetry emitters: chatting/gaming-shaped flows
/// (small packets, human-paced cadence) with heavy per-device rate jitter
/// — bursty IoT uplink telemetry.
[[nodiscard]] Scenario iot_telemetry(std::size_t devices,
                                     util::Duration duration);

/// Long-lived VoIP-like calls (steady small-packet cadence) sharing the
/// air with bursty browsing stations.
[[nodiscard]] Scenario voip_browsing_mix(std::size_t calls,
                                         std::size_t browsers,
                                         util::Duration duration);

/// A dense cell: `stations` stations, each drawing its application
/// uniformly at random — the mixed evening-traffic picture of one AP.
[[nodiscard]] Scenario dense_wlan(std::size_t stations,
                                  util::Duration duration);

/// The scale exercise a per-packet object layout could not run: `stations`
/// stations (default 10000) each wake for one short sparse chatting/gaming
/// burst at a staggered offset inside `horizon`, all arbitrated through
/// one DCF cell at the default bitrate. Total frames stay bounded (a
/// handful per station), so the cost that scales is the station count —
/// contender heap, flow isolation, per-station streams.
[[nodiscard]] Scenario dense_wlan_10k(
    std::size_t stations = 10000,
    util::Duration horizon = util::Duration::seconds(60.0));

/// Bulk-transfer-heavy traffic: downloading / uploading / BitTorrent /
/// video stations with exaggerated rate spread between sessions.
[[nodiscard]] Scenario bulk_transfer_heavy(std::size_t stations,
                                           util::Duration duration);

/// Live-reshaping workload: every station's traffic is pushed through the
/// online per-packet pipeline (core::online::StreamingReshaper driving the
/// paper's OR scheduler behind one shared radio at `bitrate_mbps`), and
/// each packet is re-timestamped to its modeled transmission start —
/// queueing delay included. This is the air as an adversary captures it
/// when the defense runs live; campaigns that sweep this scenario against
/// the batch-timed ones compare batch vs online operation directly.
[[nodiscard]] Scenario live_reshaping(std::size_t stations,
                                      util::Duration duration,
                                      double bitrate_mbps = 54.0);

/// Dense co-channel contention: `stations` stations (random apps) share
/// one arbitrated channel under the simplified DCF
/// (sim::channel::DcfCore) at `bitrate_mbps`, and every packet is
/// re-timestamped to its *arbitrated on-air* instant — carrier sense,
/// backoff, and collision retries included. The air as captured in a
/// crowded cell; frames dropped at the retry limit never appear.
[[nodiscard]] Scenario contended_cell(std::size_t stations,
                                      util::Duration duration,
                                      double bitrate_mbps = 12.0);

/// Saturated AP downlink: one AP station serializes `clients` bulk-heavy
/// downlink flows through the arbitrated channel while every client
/// contends for its own uplink. Each observable flow mixes the AP's
/// head-of-line queueing (downlink) with contention delay (uplink) — the
/// workload the paper's per-flow radio model cannot express.
[[nodiscard]] Scenario saturated_ap_downlink(std::size_t clients,
                                             util::Duration duration,
                                             double bitrate_mbps = 12.0);

/// The adaptive adversary's arena: a contended cell held long enough for
/// an attacker that re-trains every few seconds to matter. Identical
/// arbitration to contended_cell (DCF, on-air restamping) with sessions
/// sized for multi-epoch capture — the workload behind the per-epoch
/// accuracy curves of runtime::AdaptiveCampaignEngine.
[[nodiscard]] Scenario adaptive_contended_cell(std::size_t stations,
                                               util::Duration duration,
                                               double bitrate_mbps = 12.0);

/// The parameter-tuning arena: a contended multi-epoch cell (identical
/// arbitration to adaptive_contended_cell) sized so the tuner's selected
/// point and the paper's Table V preset can be compared under an
/// adversary that re-trains mid-session — the workload behind the
/// tuned-vs-table5 acceptance check and bench_parameter_tuning.
[[nodiscard]] Scenario tuned_vs_table5(std::size_t stations,
                                       util::Duration duration,
                                       double bitrate_mbps = 12.0);

/// Mid-session roaming under arbitration: every station starts in its
/// home cell (even index -> cell A, odd -> cell B) and roams to the other
/// cell at its own instant in the middle third of the session. Both cells
/// arbitrate independently, so each observable flow's timing regime
/// shifts when the cell populations swap — the drift an adaptive
/// adversary has to re-train through (and a static profile cannot track).
[[nodiscard]] Scenario adaptive_roaming_retrain(std::size_t stations,
                                                util::Duration duration,
                                                double bitrate_mbps = 12.0);

/// The drift-monitoring arena. Every station runs a sparse interactive
/// app (chatting or gaming, keyed per station); with `shift` set, the
/// traffic *body* switches to a bulk app's model (downloading or video)
/// at duration/2 while the session keeps its original label — the
/// mid-campaign mix shift that collapses a trained attacker's accuracy
/// and must fire the Page–Hinkley detector over the windowed
/// adaptive-accuracy series. With `shift` off ("monitored-drift-control")
/// the mix is stationary end to end and no detector may fire.
[[nodiscard]] Scenario monitored_drift(std::size_t stations,
                                       util::Duration duration,
                                       bool shift = true);

// ---------------------------------------------------------------- registry

/// A name -> Scenario table. `global()` comes pre-populated with the
/// built-ins above at default sizes so tools can look workloads up by
/// name; campaigns may also carry private Scenario lists and never touch
/// the registry.
class ScenarioRegistry {
 public:
  ScenarioRegistry() = default;

  /// The process-wide registry with default-sized built-ins.
  [[nodiscard]] static ScenarioRegistry& global();

  /// Adds a scenario, replacing any existing one with the same name.
  void add(Scenario scenario);

  [[nodiscard]] const Scenario* find(std::string_view name) const;

  /// Like find(), but throws std::out_of_range for unknown names.
  [[nodiscard]] const Scenario& at(std::string_view name) const;

  [[nodiscard]] std::size_t size() const { return scenarios_.size(); }
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  std::vector<Scenario> scenarios_;
};

}  // namespace reshape::runtime
