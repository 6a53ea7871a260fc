#include "obs/privacy.h"

#include <string>

namespace reshape::obs {

namespace {

/// Folds one scalar into `name` at the leakage window's index.
void fold_value(WindowedRegistry& registry, std::string_view name,
                const LabelSet& labels, std::int64_t window, double value) {
  WindowAccumulator acc;
  acc.observe(value);
  registry.series(name, labels).fold(window, acc);
}

}  // namespace

std::string station_label(std::uint64_t station) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(12, '0');
  for (std::size_t i = 0; i < 12; ++i) {
    out[11 - i] = kHex[(station >> (4 * i)) & 0xF];
  }
  return out;
}

void publish_leakage(WindowedRegistry& registry,
                     std::span<const WindowLeakage> leakage,
                     const LabelSet& labels) {
  for (const WindowLeakage& w : leakage) {
    fold_value(registry, kPrivacyActiveStreams, labels, w.window,
               static_cast<double>(w.active_streams));
    fold_value(registry, kPrivacyPartitionBalance, labels, w.window,
               w.partition_balance);
    fold_value(registry, kPrivacyAnonymitySet, labels, w.window,
               w.anonymity_set);
    // Divergence and linkage are pairwise quantities: a window with a
    // single active stream has no pair to compare, so the series is
    // simply absent there (sparse, like every windowed series).
    if (w.active_streams >= 2) {
      fold_value(registry, kPrivacyMaxPairwiseJsd, labels, w.window,
                 w.max_pairwise_jsd_bits);
      fold_value(registry, kPrivacyMeanPairwiseJsd, labels, w.window,
                 w.mean_pairwise_jsd_bits);
      fold_value(registry, kPrivacyRssiLinkedFraction, labels, w.window,
                 w.rssi_linked_fraction);
    }
    if (w.has_proxy) {
      fold_value(registry, kPrivacyProxyAccuracy, labels, w.window,
                 w.proxy_accuracy_percent);
    }
    for (const WindowLeakage::PairDivergence& pair : w.pairs) {
      LabelSet pair_labels = labels;
      pair_labels.set("a", station_label(pair.a));
      pair_labels.set("b", station_label(pair.b));
      fold_value(registry, kPrivacyPairwiseJsd, pair_labels, w.window,
                 pair.jsd_bits);
    }
  }
}

std::vector<SloRule> privacy_slo_rules(const PrivacyBudgets& budgets,
                                       const LabelSet& labels) {
  const auto rule = [&](const char* name, std::string_view series,
                        SloComparison comparison, double threshold) {
    return SloRule{name, std::string{series}, labels, comparison, threshold,
                   budgets.min_count};
  };
  return {rule("privacy-partition-balance-budget", kPrivacyPartitionBalance,
               SloComparison::kBelow, budgets.min_partition_balance),
          rule("privacy-linkability-budget", kPrivacyMaxPairwiseJsd,
               SloComparison::kAbove, budgets.max_pairwise_jsd_bits),
          rule("privacy-proxy-accuracy-budget", kPrivacyProxyAccuracy,
               SloComparison::kAbove, budgets.max_proxy_accuracy_percent)};
}

DriftRule privacy_drift_rule(const DriftParams& params,
                             const LabelSet& labels) {
  return DriftRule{"privacy-proxy-drift", std::string{kPrivacyProxyAccuracy},
                   labels, params};
}

}  // namespace reshape::obs
