#include "util/stats.hpp"

#include <algorithm>

namespace vw {

void Ewma::add(double x) {
  if (!has_value_) {
    value_ = x;
    has_value_ = true;
  } else {
    value_ = alpha_ * x + (1.0 - alpha_) * value_;
  }
}

std::optional<double> median_of(std::vector<double> v) {
  if (v.empty()) return std::nullopt;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n % 2 == 1) return v[n / 2];
  return 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace vw
