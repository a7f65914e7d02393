#pragma once

#include <optional>
#include <vector>

// Statistics used by Wren's SIC analysis: an exponentially weighted moving
// average and the median of a sample.

namespace vw {

/// Exponentially weighted moving average with weight `alpha` on new samples.
class Ewma {
 public:
  explicit Ewma(double alpha) : alpha_(alpha) {}

  void add(double x);
  bool has_value() const { return has_value_; }
  /// Current average; 0 before the first sample.
  double value() const { return value_; }
  void reset() { has_value_ = false; value_ = 0.0; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool has_value_ = false;
};

/// Median of a copy of `v`; nullopt when empty.
std::optional<double> median_of(std::vector<double> v);

}  // namespace vw
