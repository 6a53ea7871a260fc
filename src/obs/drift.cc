#include "obs/drift.h"

#include <algorithm>

namespace reshape::obs {

PageHinkleyDetector::PageHinkleyDetector(const DriftParams& params)
    : delta_{params.ph_delta},
      lambda_{params.ph_lambda},
      warmup_{std::max<std::size_t>(params.warmup, 1)} {}

double PageHinkleyDetector::statistic() const {
  return std::max(m_inc_ - m_inc_min_, m_dec_max_ - m_dec_);
}

bool PageHinkleyDetector::update(double value) {
  ++seen_;
  sum_ += value;
  const double mean = sum_ / static_cast<double>(seen_);
  // Two-sided PH: track cumulative deviation from the running mean with a
  // tolerance of delta per update; the statistic is the excursion from
  // the sum's own extremum.
  m_inc_ += value - mean - delta_;
  m_inc_min_ = std::min(m_inc_min_, m_inc_);
  m_dec_ += value - mean + delta_;
  m_dec_max_ = std::max(m_dec_max_, m_dec_);
  if (seen_ <= warmup_) {
    return false;
  }
  return statistic() > lambda_;
}

}  // namespace reshape::obs
