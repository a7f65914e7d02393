// Unit tests for the util substrate: time conversion, deterministic RNG
// streams, EWMA and median statistics, trend detection and CSV output.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <sstream>

#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/small_fn.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"
#include "util/trend.hpp"

namespace vw {
namespace {

// --- time --------------------------------------------------------------------

TEST(TimeTest, SecondsRoundTrip) {
  EXPECT_EQ(seconds(1.0), kNsPerSec);
  EXPECT_EQ(seconds(0.5), kNsPerSec / 2);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(3.25)), 3.25);
}

TEST(TimeTest, MillisMicros) {
  EXPECT_EQ(millis(1), 1'000'000);
  EXPECT_EQ(micros(1), 1'000);
  EXPECT_EQ(millis(1), micros(1000));
}

TEST(TimeTest, TransmissionTime) {
  // 1250 bytes at 10 Mbps = 1 ms.
  EXPECT_EQ(transmission_time(1250, 10e6), millis(1));
  // 1500 bytes at 100 Mbps = 120 us.
  EXPECT_EQ(transmission_time(1500, 100e6), micros(120));
}

TEST(TimeTest, SecondsRounding) {
  EXPECT_EQ(seconds(1e-9), 1);
  EXPECT_EQ(seconds(1.4e-9), 1);
  EXPECT_EQ(seconds(1.6e-9), 2);
}

// --- rng ---------------------------------------------------------------------

TEST(RngTest, StreamsAreDeterministic) {
  RngService svc(12345);
  Rng a = svc.stream("tcp");
  Rng b = svc.stream("tcp");
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1'000'000), b.uniform_int(0, 1'000'000));
  }
}

TEST(RngTest, DifferentStreamsDiffer) {
  RngService svc(12345);
  Rng a = svc.stream("tcp");
  Rng b = svc.stream("udp");
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform_int(0, 1'000'000) == b.uniform_int(0, 1'000'000)) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, DifferentRootSeedsDiffer) {
  EXPECT_NE(RngService(1).seed_for("x"), RngService(2).seed_for("x"));
}

TEST(RngTest, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, UniformIntInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= (v == 0);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(11);
  constexpr int kSamples = 20000;
  double sum = 0.0;
  for (int i = 0; i < kSamples; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / kSamples, 2.0, 0.1);
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

// --- stats ---------------------------------------------------------------------

TEST(EwmaTest, FirstSampleSetsValue) {
  Ewma e(0.5);
  EXPECT_FALSE(e.has_value());
  e.add(10.0);
  EXPECT_TRUE(e.has_value());
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
}

TEST(EwmaTest, ConvergesToConstant) {
  Ewma e(0.3);
  e.add(0.0);
  for (int i = 0; i < 100; ++i) e.add(5.0);
  EXPECT_NEAR(e.value(), 5.0, 1e-6);
}

TEST(EwmaTest, WeightsNewSamples) {
  Ewma e(0.5);
  e.add(0.0);
  e.add(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 5.0);
}

TEST(MedianOfTest, HandlesEmptyAndValues) {
  EXPECT_FALSE(median_of({}).has_value());
  EXPECT_DOUBLE_EQ(*median_of({3.0}), 3.0);
  EXPECT_DOUBLE_EQ(*median_of({1.0, 9.0}), 5.0);
  EXPECT_DOUBLE_EQ(*median_of({9.0, 1.0, 5.0}), 5.0);
}

// --- trend ---------------------------------------------------------------------

TEST(TrendTest, PctOnMonotoneSeries) {
  const std::vector<double> up{1, 2, 3, 4, 5};
  const std::vector<double> down{5, 4, 3, 2, 1};
  EXPECT_DOUBLE_EQ(pct_metric(up), 1.0);
  EXPECT_DOUBLE_EQ(pct_metric(down), 0.0);
}

TEST(TrendTest, PdtOnMonotoneSeries) {
  const std::vector<double> up{1, 2, 3, 4, 5};
  const std::vector<double> down{5, 4, 3, 2, 1};
  EXPECT_DOUBLE_EQ(pdt_metric(up), 1.0);
  EXPECT_DOUBLE_EQ(pdt_metric(down), -1.0);
}

TEST(TrendTest, FlatSeriesNotIncreasing) {
  const std::vector<double> flat{2, 2, 2, 2, 2};
  EXPECT_EQ(detect_trend(flat), Trend::kNotIncreasing);
}

TEST(TrendTest, ShortSeriesUndecided) {
  const std::vector<double> two{1, 2};
  EXPECT_EQ(detect_trend(two), Trend::kUndecided);
}

TEST(TrendTest, IncreasingDetected) {
  const std::vector<double> up{1.0, 1.1, 1.3, 1.2, 1.5, 1.7, 1.9};
  EXPECT_EQ(detect_trend(up), Trend::kIncreasing);
}

TEST(TrendTest, NoiseNotIncreasing) {
  Rng rng(3);
  std::vector<double> noise;
  for (int i = 0; i < 50; ++i) noise.push_back(rng.uniform(0.9, 1.1));
  // Unbiased noise should not read as congestion (PCT ~ 0.5, PDT ~ 0).
  EXPECT_EQ(detect_trend(noise), Trend::kNotIncreasing);
}

TEST(TrendTest, RequireBothVetoesSawtooth) {
  // Sawtooth: mostly-increasing pairs (high PCT) but no net trend (PDT ~ 0).
  std::vector<double> sawtooth;
  for (int k = 0; k < 8; ++k) {
    for (int i = 0; i < 4; ++i) sawtooth.push_back(1.0 + 0.1 * i);
  }
  EXPECT_EQ(detect_trend(sawtooth), Trend::kIncreasing);  // PCT fooled
  EXPECT_EQ(detect_trend(sawtooth, /*require_both=*/true), Trend::kNotIncreasing);  // PDT vetoes
  // A genuine ramp passes both rules.
  const std::vector<double> ramp{1, 2, 3, 4, 5, 6};
  EXPECT_EQ(detect_trend(ramp, /*require_both=*/true), Trend::kIncreasing);
}

TEST(TrendTest, SlopeRatioSeparatesRampFromSawtooth) {
  std::vector<double> sawtooth;
  for (int k = 0; k < 8; ++k) {
    for (int i = 0; i < 4; ++i) sawtooth.push_back(1.0 + 0.1 * i);
  }
  EXPECT_LT(slope_ratio(sawtooth), 1.0);

  Rng rng(9);
  std::vector<double> noisy_ramp;
  for (int i = 0; i < 32; ++i) {
    noisy_ramp.push_back(static_cast<double>(i) * 0.5 + rng.uniform(-1.0, 1.0));
  }
  EXPECT_GT(slope_ratio(noisy_ramp), 3.0);
}

TEST(TrendTest, SlopeRatioEdgeCases) {
  EXPECT_DOUBLE_EQ(slope_ratio(std::vector<double>{1.0, 2.0}), 0.0);  // too short
  const std::vector<double> flat{2, 2, 2, 2};
  EXPECT_DOUBLE_EQ(slope_ratio(flat), 0.0);
  const std::vector<double> exact{1, 2, 3, 4};  // perfect fit: clamped huge
  EXPECT_GT(slope_ratio(exact), 1e6);
  const std::vector<double> down{4, 3, 2, 1};
  EXPECT_LE(slope_ratio(down), 0.0);
}

// Parameterized sweep: linear ramps with varying noise amplitude must be
// detected as increasing as long as the ramp dominates the noise.
class TrendRampTest : public ::testing::TestWithParam<double> {};

TEST_P(TrendRampTest, RampDetectedUnderNoise) {
  const double noise_amp = GetParam();
  Rng rng(17);
  std::vector<double> series;
  for (int i = 0; i < 30; ++i) {
    series.push_back(static_cast<double>(i) + rng.uniform(-noise_amp, noise_amp));
  }
  EXPECT_EQ(detect_trend(series), Trend::kIncreasing) << "noise amplitude " << noise_amp;
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, TrendRampTest, ::testing::Values(0.0, 0.5, 2.0, 5.0));

// --- csv ---------------------------------------------------------------------

TEST(CsvTest, HeaderAndRows) {
  std::ostringstream os;
  CsvWriter csv(os, {"t", "x"});
  csv.row({1.0, 2.5});
  csv.row({2.0, 3.5});
  EXPECT_EQ(os.str(), "t,x\n1,2.5\n2,3.5\n");
  EXPECT_EQ(csv.rows_written(), 2u);
}

TEST(CsvTest, EscapesSpecialCharacters) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvTest, CellCountMismatchThrows) {
  std::ostringstream os;
  CsvWriter csv(os, {"a", "b"});
  EXPECT_THROW(csv.row({1.0}), std::invalid_argument);
  EXPECT_THROW(csv.text_row({"x", "y", "z"}), std::invalid_argument);
}

TEST(CsvTest, TextRow) {
  std::ostringstream os;
  CsvWriter csv(os, {"name", "value"});
  csv.text_row({"alpha,beta", "1"});
  EXPECT_EQ(os.str(), "name,value\n\"alpha,beta\",1\n");
}

// --- SmallFn (the event engine's SBO callback) -------------------------------

TEST(SmallFnTest, SmallCaptureStaysInline) {
  int x = 41;
  SmallFn<int()> f = [&x] { return x + 1; };
  EXPECT_TRUE(f.is_inline());
  EXPECT_EQ(f(), 42);
}

TEST(SmallFnTest, OversizedCaptureFallsBackToHeap) {
  std::array<std::uint64_t, 16> big{};  // 128 bytes > the 48-byte default
  big[7] = 7;
  SmallFn<std::uint64_t()> f = [big] { return big[7]; };
  EXPECT_FALSE(f.is_inline());
  EXPECT_EQ(f(), 7u);
}

TEST(SmallFnTest, MoveOnlyCapturesWork) {
  auto p = std::make_unique<int>(5);
  SmallFn<int()> f = [p = std::move(p)] { return *p; };
  EXPECT_EQ(f(), 5);
  SmallFn<int()> g = std::move(f);
  EXPECT_EQ(g(), 5);
  EXPECT_TRUE(f == nullptr);  // NOLINT(bugprone-use-after-move): documented
}

TEST(SmallFnTest, DestroysCaptureExactlyOnce) {
  auto token = std::make_shared<int>(0);
  EXPECT_EQ(token.use_count(), 1);
  {
    SmallFn<void()> f = [token] {};
    EXPECT_EQ(token.use_count(), 2);
    SmallFn<void()> g = std::move(f);
    EXPECT_EQ(token.use_count(), 2);  // moved, not copied
    g = nullptr;
    EXPECT_EQ(token.use_count(), 1);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(SmallFnTest, HeapPayloadSurvivesMove) {
  std::array<std::uint64_t, 16> big{};
  big[0] = 99;
  SmallFn<std::uint64_t()> f = [big] { return big[0]; };
  SmallFn<std::uint64_t()> g;
  g = std::move(f);
  EXPECT_FALSE(g.is_inline());
  EXPECT_EQ(g(), 99u);
}

TEST(SmallFnTest, ReassignmentReplacesCallable) {
  SmallFn<int(int)> f = [](int v) { return v + 1; };
  EXPECT_EQ(f(1), 2);
  f = [](int v) { return v * 10; };
  EXPECT_EQ(f(3), 30);
  f = nullptr;
  EXPECT_FALSE(static_cast<bool>(f));
}

}  // namespace
}  // namespace vw
