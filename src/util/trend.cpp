#include "util/trend.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "util/check.hpp"

namespace vw {

double pct_metric(std::span<const double> series) {
  if (series.size() < 2) return 0.5;
  std::size_t increases = 0;
  for (std::size_t i = 1; i < series.size(); ++i) {
    if (series[i] > series[i - 1]) ++increases;
  }
  return static_cast<double>(increases) / static_cast<double>(series.size() - 1);
}

double pdt_metric(std::span<const double> series) {
  if (series.size() < 2) return 0.0;
  double total_variation = 0.0;
  for (std::size_t i = 1; i < series.size(); ++i) {
    total_variation += std::abs(series[i] - series[i - 1]);
  }
  if (total_variation == 0.0) return 0.0;
  return (series.back() - series.front()) / total_variation;
}

double slope_ratio(std::span<const double> series) {
  const std::size_t n = series.size();
  if (n < 3) return 0.0;
  // Least squares of y against x = 0..n-1.
  double sum_x = 0, sum_y = 0, sum_xy = 0, sum_xx = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i);
    sum_x += x;
    sum_y += series[i];
    sum_xy += x * series[i];
    sum_xx += x * x;
  }
  const double denom = static_cast<double>(n) * sum_xx - sum_x * sum_x;
  if (denom == 0) return 0.0;
  const double slope = (static_cast<double>(n) * sum_xy - sum_x * sum_y) / denom;
  const double intercept = (sum_y - slope * sum_x) / static_cast<double>(n);
  double ss_res = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double r = series[i] - (intercept + slope * static_cast<double>(i));
    ss_res += r * r;
  }
  const double resid_sd = std::sqrt(ss_res / static_cast<double>(n));
  const double net_increase = slope * static_cast<double>(n - 1);
  if (resid_sd == 0) return net_increase > 0 ? 1e9 : 0.0;
  return net_increase / resid_sd;
}

Trend detect_trend(std::span<const double> series, bool require_both) {
  // PCT/PDT are meaningless over NaN/inf samples (comparisons go false and
  // variation sums poison): reject polluted series at the boundary.
  VW_AUDIT(std::all_of(series.begin(), series.end(),
                       [](double v) { return std::isfinite(v); }),
           "detect_trend: non-finite sample in series");
  if (series.size() < kTrendMinSamples) return Trend::kUndecided;
  const bool pct_up = pct_metric(series) >= kPctThreshold;
  const bool pdt_up = pdt_metric(series) >= kPdtThreshold;
  const bool increasing = require_both ? (pct_up && pdt_up) : (pct_up || pdt_up);
  return increasing ? Trend::kIncreasing : Trend::kNotIncreasing;
}

}  // namespace vw
