// The label-free leakage auditor: the defender auditing its own air.
//
// Everything in src/attack so far models the adversary; this directory
// models the *defender running the adversary's first pass over itself*.
// A LeakageAuditor consumes the same defended capture a sniffer sees —
// per-packet (live forwarding from attack::Sniffer) or per-flow (the
// engines' ObservedFlow batches) — and reduces it, per sim-time audit
// window, into the obs::WindowLeakage quantities published as privacy_*
// telemetry series:
//
//   * partition balance / anonymity set — normalized entropy of per-vMAC
//     byte share among streams active in the window;
//   * pairwise linkability — Jensen–Shannon divergence between per-vMAC
//     packet-size and interarrival histograms, plus §V-A RSSI-cluster
//     separability via attack::RssiLinker;
//   * attacker-proxy accuracy — a NearestCentroidProbe over the standard
//     attack feature rows, built once from the defender's own clean
//     profile corpus (the same ml::Dataset the adaptive adversary
//     bootstraps from) and never refit. Its per-window mean margin tracks
//     the real adaptive attacker's accuracy curve without labels.
//
// Determinism: the auditor holds stations in a sorted map, reduces
// windows in ascending index order, and draws no randomness — reduce()
// is a pure function of the observed packets, so per-cell audits folded
// in cell order are byte-identical for any worker-thread count.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "attack/classifier_attack.h"
#include "attack/sniffer.h"
#include "ml/dataset.h"
#include "obs/privacy.h"
#include "obs/windowed.h"
#include "traffic/trace.h"
#include "util/time.h"

namespace reshape::attack::audit {

/// Reduction knobs. The histogram geometry is fixed (not data-dependent)
/// so divergences are comparable across windows, cells, and runs.
struct AuditConfig {
  /// Audit window length (sim time); engines override it with the
  /// windowed registry's window so leakage series align with the rest of
  /// the telemetry.
  util::Duration window = util::Duration::seconds(5.0);

  /// Packet-size histogram: `size_bins` fixed-width bins over
  /// [0, size_max_bytes) — 1600 covers the 1576-byte maximum frame.
  std::size_t size_bins = 16;
  double size_max_bytes = 1600.0;

  /// Interarrival histogram: `iat_bins` bins over log10(iat_us + 1) in
  /// [0, iat_log_max) — 7.0 tops out at 10-second gaps.
  std::size_t iat_bins = 16;
  double iat_log_max = 7.0;

  /// A stream needs this many packets in a window to count as active
  /// (below it there is nothing to fingerprint — matches the attack
  /// pipeline's min_packets_per_window floor).
  std::size_t min_packets_per_window = 2;

  /// RSSI single-linkage threshold (dB), as attack::RssiLinker.
  double rssi_link_threshold_db = 2.0;

  /// Pairwise work is O(streams^2) per window; windows with more active
  /// streams than this are reduced over the top-`max_streams_per_window`
  /// streams by byte volume (ties broken toward the lower station id —
  /// deterministic). Balance/anonymity still count every active stream.
  std::size_t max_streams_per_window = 64;

  /// Also emit one privacy_pairwise_jsd_bits entry per stream pair
  /// (the linkability-matrix input; off by default — it is O(pairs)
  /// series cardinality).
  bool per_pair_series = false;
};

/// The cheap attacker stand-in: per-class nearest-centroid over
/// standardized attack feature rows. Built once from a clean profile
/// dataset (raw rows, as attack::profile_rows returns them); never
/// refit. The margin (d2-d1)/(d1+d2) between the two nearest centroids is
/// the label-free confidence: ~1 when a row sits on one class's centroid
/// (fingerprintable), ~0 when reshaping blends classes together.
class NearestCentroidProbe {
 public:
  NearestCentroidProbe() = default;

  /// Standardizes the profile rows (per-dimension mean/stddev) and drops
  /// one centroid per class with samples. `attack` is the row-extraction
  /// config audited flows must be featurized with — exposed via attack().
  NearestCentroidProbe(const ml::Dataset& profile, AttackConfig attack);

  /// True when the probe has >= 2 centroids (a margin needs a runner-up).
  [[nodiscard]] bool ready() const { return centroids_.size() >= 2; }

  [[nodiscard]] const AttackConfig& attack() const { return attack_; }

  /// Margin of one raw (unscaled) feature row — the summand of
  /// mean_margin. 0.0 when not ready.
  [[nodiscard]] double margin(std::span<const double> row) const;

  /// Mean margin over raw (unscaled) feature rows, in [0, 1]; 0.0 when
  /// not ready or `rows` is empty. Sums margin() per row in order, so
  /// callers accumulating margins on the fly get the identical double.
  [[nodiscard]] double mean_margin(
      std::span<const std::vector<double>> rows) const;

 private:
  AttackConfig attack_{};
  std::vector<double> mean_;     // per-dimension standardization
  std::vector<double> inv_std_;  // 0 for constant dimensions
  std::vector<std::vector<double>> centroids_;  // standardized space
};

/// The online reducer. Feed it one capture's packets (any mix of the
/// per-packet and per-flow paths, as long as each station's packets
/// arrive in time order), then reduce() or publish().
class LeakageAuditor {
 public:
  explicit LeakageAuditor(AuditConfig config = {});

  /// Attaches the attacker proxy (not owned; nullptr detaches — the
  /// proxy-accuracy series is simply absent without one).
  void set_probe(const NearestCentroidProbe* probe) { probe_ = probe; }
  [[nodiscard]] const NearestCentroidProbe* probe() const { return probe_; }

  /// One captured packet of one stream (the attack::Sniffer live path).
  void observe(std::uint64_t station, util::TimePoint at,
               std::uint32_t size_bytes, mac::Direction direction,
               double rssi_dbm);

  /// A whole capture log at once (columns in air order).
  void observe(const CaptureColumns& captures);

  /// A whole per-vMAC flow with its §V-A power signature (the engines'
  /// batch path; `flow` must not overlap a previously observed time range
  /// of the same station).
  void observe_flow(std::uint64_t station, const traffic::Trace& flow,
                    double mean_rssi);

  /// Same, borrowing the flow's columns instead of copying them — the
  /// zero-copy batch path for callers whose flows outlive the auditor
  /// (runtime::audit_flows holds the cell's flows across reduce()). The
  /// station must not have been observed before (engines mint one unique
  /// vMAC per flow), so a borrowed stream never needs appending.
  void observe_flow(std::uint64_t station, traffic::TraceView flow,
                    double mean_rssi);

  [[nodiscard]] const AuditConfig& config() const { return config_; }
  [[nodiscard]] std::size_t stream_count() const { return stations_.size(); }
  [[nodiscard]] bool empty() const { return stations_.empty(); }

  /// Reduces everything observed so far into per-window leakage, windows
  /// ascending. Pure and repeatable; does not consume the observations.
  [[nodiscard]] std::vector<obs::WindowLeakage> reduce() const;

  /// reduce() + obs::publish_leakage into `registry`.
  void publish(obs::WindowedRegistry& registry,
               const obs::LabelSet& labels = {}) const;

  void clear();

 private:
  struct PerStation {
    traffic::Trace trace;      // time-ordered packets (owning paths)
    traffic::TraceView view;   // borrowed columns (zero-copy flow path)
    std::vector<double> rssi_dbm;  // per-packet (live path) ...
    double flat_rssi = 0.0;        // ... or one flow-level mean
    bool has_flat_rssi = false;

    /// The stream's columns, whichever path filled them.
    [[nodiscard]] traffic::TraceView records() const {
      return view.empty() ? trace.records() : view;
    }
  };

  AuditConfig config_;
  const NearestCentroidProbe* probe_ = nullptr;      // not owned
  std::map<std::uint64_t, PerStation> stations_;     // sorted: determinism
};

}  // namespace reshape::attack::audit
