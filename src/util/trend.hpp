#pragma once

#include <cstddef>
#include <span>

// Increasing-trend detection on one-way-delay / RTT series.
//
// Wren's self-induced-congestion decision asks: do the ACK round-trip times
// of a packet train show an increasing trend (queues building at the
// bottleneck)? We use the two classical tests from the pathload literature:
// the Pairwise Comparison Test (PCT) and the Pairwise Difference Test (PDT).

namespace vw {

/// Pairwise Comparison Test statistic: fraction of consecutive pairs that
/// strictly increase. Random noise gives ~0.5; a strong increasing trend
/// gives values near 1. Returns 0.5 for series shorter than 2.
double pct_metric(std::span<const double> series);

/// Pairwise Difference Test statistic: (last - first) / sum |diffs|,
/// in [-1, 1]. Strong increase gives values near 1. Returns 0 for series
/// shorter than 2 or with zero total variation.
double pdt_metric(std::span<const double> series);

/// Combined-decision thresholds (the pathload literature's values).
inline constexpr double kPctThreshold = 0.6;       ///< PCT at or above this indicates increase
inline constexpr double kPdtThreshold = 0.4;       ///< PDT at or above this indicates increase
inline constexpr std::size_t kTrendMinSamples = 3;  ///< below this, no decision is made
static_assert(kPctThreshold >= 0.0 && kPctThreshold <= 1.0, "PCT threshold outside [0,1]");
static_assert(kPdtThreshold >= -1.0 && kPdtThreshold <= 1.0, "PDT threshold outside [-1,1]");

enum class Trend { kIncreasing, kNotIncreasing, kUndecided };

/// Least-squares trend strength: the fitted net increase over the series
/// (slope x span) divided by the residual standard deviation. Sawtooth or
/// white noise gives ~0; genuine queue growth gives large positive values.
/// Returns 0 for series shorter than 3 or with zero residual variance but
/// nonzero slope sign handled as +/-inf clamp (1e9).
double slope_ratio(std::span<const double> series);

/// Combined decision: increasing when either metric crosses its threshold
/// (the pathload "grey region" rule collapsed to a binary decision —
/// SIC only needs congested / not congested). With `require_both`, BOTH
/// metrics must cross (the conservative conjunctive rule): sawtooth delay
/// patterns — slow rises with sharp resets, typical of bursty cross
/// traffic — push PCT high with zero net trend, and PDT vetoes them.
Trend detect_trend(std::span<const double> series, bool require_both = false);

}  // namespace vw
