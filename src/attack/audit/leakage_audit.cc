#include "attack/audit/leakage_audit.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>

#include "attack/rssi_linker.h"
#include "features/features.h"
#include "mac/mac_address.h"
#include "util/check.h"
#include "util/stats.h"

namespace reshape::attack::audit {

namespace {

// The histogram geometry is fixed (not data-dependent) so divergences
// are comparable across windows, cells, and runs. Packet sizes:
// kSizeBins fixed-width bins over [0, kSizeMaxBytes) — 1600 covers the
// 1576-byte maximum frame. Interarrivals: kIatBins bins over
// log10(iat_us + 1) in [0, kIatLogMax) — 7.0 tops out at 10-second gaps.
constexpr std::size_t kSizeBins = 16;
constexpr double kSizeMaxBytes = 1600.0;
constexpr std::size_t kIatBins = 16;
constexpr double kIatLogMax = 7.0;

/// One stream's share of every pairwise divergence it enters, computed
/// once per window by util::jsd_normalize: its pmf normalized by its
/// total and the entropy H of that distribution. `usable` is false for an
/// all-zero pmf, whose divergence with anything is 0.
template <std::size_t Bins>
struct JsdTerms {
  std::array<double, Bins> normalized{};
  double entropy_bits = 0.0;
  bool usable = false;

  JsdTerms() = default;  // an all-zero pmf

  /// Prepares the terms of the pmf counts / total, computed exactly as
  /// util::Histogram::pmf does when every sample was added once.
  JsdTerms(const std::array<std::uint32_t, Bins>& counts, double total) {
    std::array<double, Bins> pmf;
    for (std::size_t b = 0; b < Bins; ++b) {
      pmf[b] = static_cast<double>(counts[b]) / total;
    }
    const std::optional<double> h = util::jsd_normalize(pmf, normalized);
    usable = h.has_value();
    entropy_bits = h.value_or(0.0);
  }
};

/// util::jensen_shannon_divergence_bits of two prepared pmfs: only H(m)
/// is computed per pair, with the same bits.
template <std::size_t Bins>
double pairwise_jsd_bits(const JsdTerms<Bins>& p, const JsdTerms<Bins>& q) {
  if (!p.usable || !q.usable) {
    return 0.0;
  }
  return util::jensen_shannon_divergence_bits(p.normalized, p.entropy_bits,
                                              q.normalized, q.entropy_bits);
}

/// A stream needs this many packets in a window to count as active
/// (below it there is nothing to fingerprint — matches the attack
/// pipeline's min_packets_per_window floor).
constexpr std::size_t kMinPacketsPerWindow = 2;

/// floor(a / b) for b > 0 — the same window-index convention as
/// obs::WindowedSeries (window k covers [kW, (k+1)W)).
std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  std::int64_t q = a / b;
  if (a % b != 0 && a < 0) {
    --q;
  }
  return q;
}

/// Per-direction moment sums for the probing fast path. Sizes and gaps
/// are bounded integers (bytes, microseconds), so count / sum / sum of
/// squares in 64-bit integers capture the window exactly; the mean and
/// population standard deviation fall out with one division per window
/// instead of a Welford update (two divides) per packet.
struct DirectionSums {
  std::uint64_t count = 0;
  std::uint64_t size_sum = 0;
  std::uint64_t size_sumsq = 0;
  std::uint32_t size_min = 0;
  std::uint32_t size_max = 0;
  std::int64_t prev_us = 0;
  bool has_prev = false;
  std::uint64_t gap_count = 0;
  std::uint64_t gap_sum_us = 0;
  std::uint64_t gap_sumsq_us = 0;
};

features::DirectionFeatures direction_features(const DirectionSums& d) {
  features::DirectionFeatures f;
  f.packet_count = static_cast<double>(d.count);
  if (d.count > 0) {
    const double n = static_cast<double>(d.count);
    const double mean = static_cast<double>(d.size_sum) / n;
    f.size_max = static_cast<double>(d.size_max);
    f.size_min = static_cast<double>(d.size_min);
    f.size_mean = mean;
    f.size_std = std::sqrt(std::max(
        0.0, static_cast<double>(d.size_sumsq) / n - mean * mean));
  }
  if (d.gap_count > 0) {
    const double n = static_cast<double>(d.gap_count);
    // Gaps were filtered against kIdleGapFilter in integer microseconds;
    // converting the sums (rather than each gap) to seconds keeps the
    // arithmetic exact until the final two divisions.
    const double mean_s = static_cast<double>(d.gap_sum_us) / n * 1e-6;
    f.iat_mean = mean_s;
    f.iat_std = std::sqrt(std::max(
        0.0,
        static_cast<double>(d.gap_sumsq_us) * 1e-12 / n - mean_s * mean_s));
  }
  return f;
}

}  // namespace

NearestCentroidProbe::NearestCentroidProbe(const ml::Dataset& profile,
                                           AttackConfig attack)
    : attack_{std::move(attack)} {
  if (profile.empty()) {
    return;
  }
  const std::size_t dims = profile.dimensions();
  const auto rows = profile.rows();
  const double n = static_cast<double>(rows.size());
  mean_.assign(dims, 0.0);
  inv_std_.assign(dims, 0.0);
  for (const std::vector<double>& row : rows) {
    for (std::size_t d = 0; d < dims; ++d) {
      mean_[d] += row[d];
    }
  }
  for (double& m : mean_) {
    m /= n;
  }
  std::vector<double> var(dims, 0.0);
  for (const std::vector<double>& row : rows) {
    for (std::size_t d = 0; d < dims; ++d) {
      const double delta = row[d] - mean_[d];
      var[d] += delta * delta;
    }
  }
  for (std::size_t d = 0; d < dims; ++d) {
    const double v = var[d] / n;
    // Constant dimensions carry no class information; zero-weight them
    // instead of dividing by ~0.
    inv_std_[d] = v > 1e-24 ? 1.0 / std::sqrt(v) : 0.0;
  }

  const int classes = profile.num_classes();
  std::vector<std::vector<double>> sums(
      static_cast<std::size_t>(classes), std::vector<double>(dims, 0.0));
  std::vector<std::size_t> counts(static_cast<std::size_t>(classes), 0);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto label = static_cast<std::size_t>(profile.label(i));
    for (std::size_t d = 0; d < dims; ++d) {
      sums[label][d] += (rows[i][d] - mean_[d]) * inv_std_[d];
    }
    ++counts[label];
  }
  for (std::size_t c = 0; c < sums.size(); ++c) {
    if (counts[c] == 0) {
      continue;  // a class absent from the profile has no centroid
    }
    for (double& v : sums[c]) {
      v /= static_cast<double>(counts[c]);
    }
    centroids_.push_back(std::move(sums[c]));
  }
}

double NearestCentroidProbe::margin(std::span<const double> row) const {
  if (!ready()) {
    return 0.0;
  }
  const std::size_t dims = mean_.size();
  util::require(row.size() == dims,
                "NearestCentroidProbe: row dimensionality mismatch");
  double d1 = std::numeric_limits<double>::infinity();
  double d2 = std::numeric_limits<double>::infinity();
  for (const std::vector<double>& centroid : centroids_) {
    double dist2 = 0.0;
    for (std::size_t d = 0; d < dims; ++d) {
      const double delta = (row[d] - mean_[d]) * inv_std_[d] - centroid[d];
      dist2 += delta * delta;
    }
    if (dist2 < d1) {
      d2 = d1;
      d1 = dist2;
    } else if (dist2 < d2) {
      d2 = dist2;
    }
  }
  const double near = std::sqrt(d1);
  const double far = std::sqrt(d2);
  const double denom = near + far;
  return denom > 0.0 ? (far - near) / denom : 0.0;
}

LeakageAuditor::LeakageAuditor(AuditConfig config) : config_{config} {
  util::require(config_.window.count_us() > 0,
                "LeakageAuditor: window must be positive");
}

void LeakageAuditor::observe(std::uint64_t station, util::TimePoint at,
                             std::uint32_t size_bytes,
                             mac::Direction direction, double rssi_dbm) {
  PerStation& per = stations_[station];
  util::require(per.view.empty(),
                "LeakageAuditor: station already observed as a borrowed flow");
  per.trace.push_back(at, size_bytes, direction);
  per.rssi_dbm.push_back(rssi_dbm);
}

void LeakageAuditor::observe_flow(std::uint64_t station,
                                  traffic::TraceView flow, double mean_rssi) {
  PerStation& per = stations_[station];
  util::require(per.trace.empty() && per.view.empty(),
                "LeakageAuditor: a borrowed flow needs an unseen station");
  per.view = flow;
  per.flat_rssi = mean_rssi;
  per.has_flat_rssi = true;
}

void LeakageAuditor::clear() { stations_.clear(); }

std::vector<obs::WindowLeakage> LeakageAuditor::reduce() const {
  const std::int64_t window_us = config_.window.count_us();

  // IAT binning without a per-packet log10 or binary search: bin k of the
  // log-spaced histogram covers iat_us in [10^(k*w) - 1, 10^((k+1)*w) - 1).
  // Interarrivals are integers, so "iat <= edge" is "iat >= ceil(edge)"
  // against precomputed integer cuts — the bin is a branchless count of
  // satisfied cuts, landing exactly where upper_bound over the raw-space
  // edges (and therefore add(log10(iat_us + 1))) would.
  const double iat_width = kIatLogMax / static_cast<double>(kIatBins);
  std::vector<std::int64_t> iat_cuts(kIatBins - 1);
  for (std::size_t k = 0; k + 1 < kIatBins; ++k) {
    iat_cuts[k] = static_cast<std::int64_t>(std::ceil(
        std::pow(10.0, static_cast<double>(k + 1) * iat_width) - 1.0));
  }
  // bin(iat) counts the satisfied cuts. Splitting values by bit width
  // localizes that count: octave e holds iat in [2^(e-1), 2^e), and the
  // log-spaced cuts grow by ~2.7x per bin under this geometry, so
  // at most one or two cuts fall inside any octave. Per packet the
  // 15-compare scan collapses to bit_width + a table lookup + (usually)
  // a single compare. The tables are exact for any geometry: cuts below
  // the octave are pre-counted in octave_base, cuts above it can never
  // be satisfied, and whatever lands inside is compared directly.
  const auto count_cuts = [&iat_cuts](std::uint64_t v) {
    std::size_t b = 0;
    for (const std::int64_t cut : iat_cuts) {
      b += static_cast<std::size_t>(v >= static_cast<std::uint64_t>(cut));
    }
    return static_cast<std::uint32_t>(b);
  };
  std::array<std::uint32_t, 64> octave_base{};
  std::array<std::uint32_t, 64> octave_end{};
  for (unsigned e = 0; e < 64; ++e) {
    const std::uint64_t lo = e == 0 ? 0 : std::uint64_t{1} << (e - 1);
    const std::uint64_t hi_minus_1 =
        e == 0 ? 0
        : e == 63
            ? static_cast<std::uint64_t>(
                  std::numeric_limits<std::int64_t>::max())
            : (std::uint64_t{1} << e) - 1;
    octave_base[e] = count_cuts(lo);
    octave_end[e] = count_cuts(hi_minus_1);
  }

  // Size binning via a lookup table: packet sizes are bounded integers
  // (kSizeMaxBytes covers the frame ceiling), so one L1 load replaces
  // the divide util::Histogram::add pays per packet. The table replicates
  // Histogram::bin_index exactly — same clamps, same double division —
  // so every pmf is unchanged.
  const double size_width = kSizeMaxBytes / static_cast<double>(kSizeBins);
  std::vector<std::uint16_t> size_lut(static_cast<std::size_t>(kSizeMaxBytes) +
                                      1);
  for (std::size_t s = 0; s < size_lut.size(); ++s) {
    const double x = static_cast<double>(s);
    std::size_t idx = kSizeBins - 1;
    if (x < kSizeMaxBytes) {
      idx = std::min(static_cast<std::size_t>(x / size_width), kSizeBins - 1);
    }
    size_lut[s] = static_cast<std::uint16_t>(idx);
  }

  // Per (window, stream) reduction state. Streams land per window in
  // ascending station order because stations_ iterates sorted.
  struct StreamWindow {
    std::uint64_t station = 0;
    double bytes = 0.0;
    double mean_rssi = 0.0;
    std::size_t packets = 0;
    // Histogram counts, in bins of kSizeBins / kIatBins.
    std::array<std::uint32_t, kSizeBins> size_counts{};
    std::array<std::uint32_t, kIatBins> iat_counts{};
  };
  std::map<std::int64_t, std::vector<StreamWindow>> by_window;
  // Attacker-proxy margins, accumulated row by row as slices are
  // featurized (same station-then-window order the old rows_by_window
  // buffer replayed, so the per-window sum is bit-identical) — no
  // per-window row storage, and one scratch pair reused across slices.
  struct MarginSum {
    double total = 0.0;
    std::size_t rows = 0;
  };
  std::map<std::int64_t, MarginSum> margin_by_window;
  std::vector<std::vector<double>> row_scratch;
  std::vector<features::WindowFeatures> window_scratch;

  const bool probing = probe_ != nullptr && probe_->ready();
  // When the attacker's feature window is at least as long as the audit
  // window, an audit slice can never span a feature-window boundary: it
  // yields at most one feature row, so its moments can be accumulated
  // inside the histogram loop (integer sums, one division per window)
  // instead of re-scanning the slice through the per-packet incremental
  // extractor, which pays an integer division and a scalar Welford
  // update per packet.
  const AttackConfig* attack = probing ? &probe_->attack() : nullptr;
  const bool single_row_slices =
      probing && attack->window.count_us() >= window_us;
  constexpr std::int64_t kIdleGapUs = features::kIdleGapFilter.count_us();
  DirectionSums dir_sums[2];
  for (const auto& [station, per] : stations_) {
    const traffic::TraceView stream = per.records();
    const auto times = stream.times_us();
    const auto sizes = stream.sizes_bytes();
    const auto dirs = stream.directions();
    std::size_t i = 0;
    while (i < times.size()) {
      const std::int64_t w = floor_div(times[i], window_us);
      // Times are ascending, so the window's span ends at the first
      // timestamp past its right edge — one compare per packet instead
      // of a floor_div.
      const std::int64_t end_us = (w + 1) * window_us;
      std::size_t j = i;
      while (j < times.size() && times[j] < end_us) {
        ++j;
      }
      const std::size_t n = j - i;
      if (n < kMinPacketsPerWindow) {
        i = j;
        continue;
      }
      StreamWindow sw;
      sw.station = station;
      sw.packets = n;
      const std::size_t last_size_bin = kSizeBins - 1;
      const bool fuse_probe =
          single_row_slices && n >= attack->min_packets_per_window;
      if (fuse_probe) {
        dir_sums[0] = DirectionSums{};
        dir_sums[1] = DirectionSums{};
      }
      for (std::size_t k = i; k < j; ++k) {
        const std::uint32_t size = sizes[k];
        sw.bytes += static_cast<double>(size);
        ++sw.size_counts[size < size_lut.size() ? size_lut[size]
                                                : last_size_bin];
        if (k > i) {
          const std::int64_t iat = times[k] - times[k - 1];
          const auto e = static_cast<unsigned>(
              std::bit_width(static_cast<std::uint64_t>(iat)));
          std::size_t bin = octave_base[e];
          for (std::uint32_t c = octave_base[e]; c < octave_end[e]; ++c) {
            bin += static_cast<std::size_t>(iat >= iat_cuts[c]);
          }
          ++sw.iat_counts[bin];
        }
        if (fuse_probe) {
          DirectionSums& d =
              dir_sums[dirs[k] == mac::Direction::kUplink ? 1 : 0];
          d.size_min = d.count == 0 ? size : std::min(d.size_min, size);
          d.size_max = d.count == 0 ? size : std::max(d.size_max, size);
          ++d.count;
          d.size_sum += size;
          d.size_sumsq += static_cast<std::uint64_t>(size) * size;
          if (d.has_prev) {
            const std::int64_t gap = times[k] - d.prev_us;
            if (gap <= kIdleGapUs) {
              const auto gap_u = static_cast<std::uint64_t>(gap);
              ++d.gap_count;
              d.gap_sum_us += gap_u;
              d.gap_sumsq_us += gap_u * gap_u;
            }
          }
          d.prev_us = times[k];
          d.has_prev = true;
        }
      }
      if (per.has_flat_rssi) {
        sw.mean_rssi = per.flat_rssi;
      } else {
        double rssi_sum = 0.0;
        for (std::size_t k = i; k < j; ++k) {
          rssi_sum += per.rssi_dbm[k];
        }
        sw.mean_rssi = rssi_sum / static_cast<double>(n);
      }
      if (fuse_probe) {
        features::WindowFeatures window_features;
        window_features.downlink = direction_features(dir_sums[0]);
        window_features.uplink = direction_features(dir_sums[1]);
        const std::vector<double> row = features::project(
            features::log_compress(window_features), attack->feature_set);
        MarginSum& acc = margin_by_window[w];
        acc.total += probe_->margin(row);
        ++acc.rows;
      } else if (probing && !single_row_slices) {
        const traffic::TraceView slice{times.subspan(i, n),
                                       sizes.subspan(i, n),
                                       dirs.subspan(i, n)};
        feature_rows_into(row_scratch, slice, *attack, window_scratch);
        if (!row_scratch.empty()) {
          MarginSum& acc = margin_by_window[w];
          for (const std::vector<double>& row : row_scratch) {
            acc.total += probe_->margin(row);
          }
          acc.rows += row_scratch.size();
        }
      }
      by_window[w].push_back(std::move(sw));
      i = j;
    }
  }

  const RssiLinker linker{};
  // Per window: the JSD terms of each selected stream's size and
  // interarrival pmfs, in selection order.
  std::vector<std::pair<JsdTerms<kSizeBins>, JsdTerms<kIatBins>>> terms;
  std::vector<obs::WindowLeakage> out;
  out.reserve(by_window.size());
  for (const auto& [w, streams] : by_window) {
    obs::WindowLeakage leak;
    leak.window = w;
    leak.active_streams = streams.size();

    std::vector<double> shares;
    shares.reserve(streams.size());
    double total_bytes = 0.0;
    for (const StreamWindow& s : streams) {
      total_bytes += s.bytes;
    }
    for (const StreamWindow& s : streams) {
      shares.push_back(total_bytes > 0.0 ? s.bytes / total_bytes : 0.0);
    }
    leak.partition_balance = util::normalized_entropy(shares);
    leak.anonymity_set = std::exp2(util::entropy_bits(shares));

    // Pairwise divergence over the (possibly capped) heaviest streams.
    std::vector<const StreamWindow*> sel;
    sel.reserve(streams.size());
    for (const StreamWindow& s : streams) {
      sel.push_back(&s);
    }
    if (sel.size() > kMaxStreamsPerWindow) {
      std::sort(sel.begin(), sel.end(),
                [](const StreamWindow* a, const StreamWindow* b) {
                  if (a->bytes != b->bytes) {
                    return a->bytes > b->bytes;
                  }
                  return a->station < b->station;
                });
      sel.resize(kMaxStreamsPerWindow);
      std::sort(sel.begin(), sel.end(),
                [](const StreamWindow* a, const StreamWindow* b) {
                  return a->station < b->station;
                });
    }
    // Interarrival pmfs exist with >= 2 packets (>= 1 interarrival).
    terms.clear();
    if (sel.size() >= 2) {
      for (const StreamWindow* s : sel) {
        const auto n = static_cast<double>(s->packets);
        terms.emplace_back(
            JsdTerms<kSizeBins>{s->size_counts, n},
            s->packets >= 2 ? JsdTerms<kIatBins>{s->iat_counts, n - 1.0}
                            : JsdTerms<kIatBins>{});
      }
    }
    double jsd_sum = 0.0;
    std::size_t pair_count = 0;
    for (std::size_t a = 0; a < sel.size(); ++a) {
      for (std::size_t b = a + 1; b < sel.size(); ++b) {
        double jsd = pairwise_jsd_bits(terms[a].first, terms[b].first);
        if (sel[a]->packets >= 2 && sel[b]->packets >= 2) {
          jsd = (jsd + pairwise_jsd_bits(terms[a].second, terms[b].second)) /
                2.0;
        }
        jsd_sum += jsd;
        leak.max_pairwise_jsd_bits = std::max(leak.max_pairwise_jsd_bits,
                                              jsd);
        ++pair_count;
        if (config_.per_pair_series) {
          leak.pairs.push_back({sel[a]->station, sel[b]->station, jsd});
        }
      }
    }
    leak.mean_pairwise_jsd_bits =
        pair_count == 0 ? 0.0 : jsd_sum / static_cast<double>(pair_count);

    if (streams.size() >= 2) {
      std::vector<std::pair<mac::MacAddress, double>> signatures;
      signatures.reserve(streams.size());
      for (const StreamWindow& s : streams) {
        signatures.emplace_back(mac::MacAddress::from_u64(s.station),
                                s.mean_rssi);
      }
      std::size_t linked = 0;
      for (const LinkedGroup& group : linker.link(signatures)) {
        if (group.size() >= 2) {
          linked += group.size();
        }
      }
      leak.rssi_linked_fraction =
          static_cast<double>(linked) / static_cast<double>(streams.size());
    }

    if (probing) {
      const auto margins = margin_by_window.find(w);
      if (margins != margin_by_window.end() && margins->second.rows > 0) {
        leak.has_proxy = true;
        leak.proxy_accuracy_percent =
            100.0 * (margins->second.total /
                     static_cast<double>(margins->second.rows));
      }
    }
    out.push_back(std::move(leak));
  }
  return out;
}

void LeakageAuditor::publish(obs::WindowedRegistry& registry,
                             const obs::LabelSet& labels) const {
  const std::vector<obs::WindowLeakage> leakage = reduce();
  obs::publish_leakage(registry, leakage, labels);
}

}  // namespace reshape::attack::audit
