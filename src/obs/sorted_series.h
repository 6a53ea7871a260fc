// The one fold and the one lookup behind every sorted telemetry list:
// MetricsSnapshot and WindowedSnapshot series (keyed by name and labels)
// and a windowed series' points (keyed by window index).
#pragma once

#include <compare>
#include <cstddef>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace reshape::obs::detail {

/// Two-pointer merge of `other` into `mine`, both sorted ascending by
/// key(entry): entries whose keys are equal combine through
/// fold(mine_entry, other_entry), the rest keep their order. `mine`'s
/// entries are moved, `other`'s copied.
template <typename T, typename Key, typename Fold>
void merge_sorted(std::vector<T>& mine, const std::vector<T>& other, Key key,
                  Fold fold) {
  std::vector<T> merged;
  merged.reserve(mine.size() + other.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < mine.size() && j < other.size()) {
    const auto order = key(mine[i]) <=> key(other[j]);
    if (order < 0) {
      merged.push_back(std::move(mine[i++]));
    } else if (order > 0) {
      merged.push_back(other[j++]);
    } else {
      merged.push_back(std::move(mine[i++]));
      fold(merged.back(), other[j++]);
    }
  }
  for (; i < mine.size(); ++i) {
    merged.push_back(std::move(mine[i]));
  }
  merged.insert(merged.end(), other.begin() + j, other.end());
  mine = std::move(merged);
}

/// The (name, labels) sort key of a snapshot series.
template <typename Series>
auto series_key(const Series& s) {
  return std::tie(s.name, s.labels);
}

/// First series of (name, labels) exactly; nullptr when absent.
template <typename Series>
const Series* find_series(const std::vector<Series>& series,
                          std::string_view name, const LabelSet& labels) {
  for (const Series& s : series) {
    if (s.name == name && s.labels == labels) {
      return &s;
    }
  }
  return nullptr;
}

}  // namespace reshape::obs::detail
