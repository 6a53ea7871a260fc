#include "features/scaler.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace reshape::features {

void MinMaxScaler::fit(std::span<const std::vector<double>> rows) {
  util::require(!rows.empty(), "MinMaxScaler::fit: no rows");
  const std::size_t dims = rows.front().size();
  util::require(dims > 0, "MinMaxScaler::fit: zero-dimensional rows");

  mins_.assign(dims, std::numeric_limits<double>::infinity());
  maxs_.assign(dims, -std::numeric_limits<double>::infinity());
  for (const auto& row : rows) {
    util::require(row.size() == dims, "MinMaxScaler::fit: ragged matrix");
    for (std::size_t d = 0; d < dims; ++d) {
      mins_[d] = std::min(mins_[d], row[d]);
      maxs_[d] = std::max(maxs_[d], row[d]);
    }
  }
}

std::vector<double> MinMaxScaler::transform(std::span<const double> row) const {
  std::vector<double> out;
  transform_into(row, out);
  return out;
}

void MinMaxScaler::transform_into(std::span<const double> row,
                                  std::vector<double>& out) const {
  util::require(fitted(), "MinMaxScaler::transform: not fitted");
  util::require(row.size() == mins_.size(),
                "MinMaxScaler::transform: dimensionality mismatch");
  out.resize(row.size());
  for (std::size_t d = 0; d < row.size(); ++d) {
    const double span = maxs_[d] - mins_[d];
    // Clamp to the training range: a single dimension outside the span
    // (possible for defended flows the training corpus never exhibits)
    // must not dominate every distance computation downstream.
    out[d] = span > 1e-12
                 ? std::clamp((row[d] - mins_[d]) / span, 0.0, 1.0)
                 : 0.0;
  }
}

std::vector<std::vector<double>> MinMaxScaler::transform_all(
    std::span<const std::vector<double>> rows) const {
  std::vector<std::vector<double>> out;
  out.reserve(rows.size());
  for (const auto& row : rows) {
    out.push_back(transform(row));
  }
  return out;
}

}  // namespace reshape::features
