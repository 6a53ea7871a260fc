// Telemetry export: stable-JSON / CSV dumps, the on/off configuration
// shared by the engines and examples, and the telemetry one sweep engine
// owns.
//
// The deterministic campaign/tuner reports and the telemetry export are
// deliberately separate documents: metrics and traces are deterministic
// (they describe the simulation) and may be compared byte-for-byte across
// thread counts; the profile section measures the host and is not.
#pragma once

#include <string>

#include "obs/metrics.h"
#include "obs/packet_trace.h"
#include "obs/profiler.h"
#include "obs/windowed.h"
#include "util/time.h"

namespace reshape::obs {

/// What to collect. Default-constructed = everything off (zero overhead).
struct TelemetryConfig {
  bool metrics = false;    // registry publishing
  bool tracing = false;    // PacketTrace span recording
  bool profiling = false;  // wall/CPU phase timers
  bool windowed = false;   // sim-time windowed series (obs/windowed.h)
  bool privacy = false;    // label-free leakage auditing (obs/privacy.h)

  /// With `privacy`: also emit one privacy_pairwise_jsd_bits series per
  /// vMAC pair (the linkability-matrix input for trace_dump.py --privacy).
  /// Off by default — O(pairs) series cardinality per cell.
  bool privacy_pairs = false;

  /// Window length for windowed series (sim time). Engines whose natural
  /// cadence differs (the adaptive attacker's epoch length) may override.
  util::Duration window = util::Duration::seconds(5.0);

  [[nodiscard]] bool any() const {
    return metrics || tracing || profiling || windowed || privacy;
  }

  friend bool operator==(const TelemetryConfig&,
                         const TelemetryConfig&) = default;

  [[nodiscard]] static TelemetryConfig enabled() {
    return TelemetryConfig{true, true, true, true, true};
  }

  /// Reads OBS_TRACE (gates tracing), OBS_METRICS/OBS_PROFILE/OBS_WINDOWED/
  /// OBS_PRIVACY/OBS_PRIVACY_PAIRS, and OBS_WINDOW_US (window length in integer
  /// microseconds); an unset variable keeps `fallback`'s field. Recognizes
  /// 0/off/false as off, anything else as on.
  [[nodiscard]] static TelemetryConfig from_env(TelemetryConfig fallback);
  [[nodiscard]] static TelemetryConfig from_env() {
    return from_env(TelemetryConfig{});
  }
};

/// True unless the environment variable is set to 0/off/false; `fallback`
/// when unset.
[[nodiscard]] bool env_enabled(const char* name, bool fallback);

/// One telemetry document: metrics + profile + trace, each section
/// optional (null pointer = omitted).
struct TelemetryExport {
  const MetricsSnapshot* metrics = nullptr;
  const PhaseProfiler* profiler = nullptr;
  const PacketTrace* trace = nullptr;
  const WindowedSnapshot* windows = nullptr;

  /// {"metrics":...,"windows":...,"profile":...,"trace":...} with absent
  /// sections skipped. The metrics, windows, and trace sections are
  /// deterministic; profile is not (host timings).
  [[nodiscard]] std::string to_json() const;
};

/// What one sweep engine collected in its last run: the config that
/// selected it, the metrics and windowed snapshots folded in cell order
/// (deterministic), and the host phase timings (not).
struct EngineTelemetry {
  TelemetryConfig config{};
  MetricsSnapshot metrics;
  WindowedSnapshot windows;
  PhaseProfiler profiler;

  /// The combined document; sections follow `config` (windows appear
  /// with windowed or privacy collection, profile with profiling).
  [[nodiscard]] std::string to_json() const;
};

/// Writes `contents` to `path`; returns false (and leaves no partial
/// file guarantee) on I/O failure.
bool write_file(const std::string& path, const std::string& contents);

}  // namespace reshape::obs
