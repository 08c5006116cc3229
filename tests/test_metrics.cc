// Unit tests: evaluation metrics (PSNR, CR, bit rate, Eq. 1 speedup).
#include <gtest/gtest.h>

#include <cmath>

#include "fzmod/common/error.hh"
#include "fzmod/common/rng.hh"
#include "fzmod/metrics/metrics.hh"

namespace fzmod::metrics {
namespace {

TEST(Compare, IdenticalInputsAreLossless) {
  std::vector<f32> v{1, 2, 3, 4.5f, -2};
  const auto st = compare(v, v);
  EXPECT_EQ(st.max_abs_err, 0.0);
  EXPECT_EQ(st.mse, 0.0);
  EXPECT_TRUE(std::isinf(st.psnr));
  EXPECT_EQ(st.nrmse, 0.0);
}

TEST(Compare, KnownErrorStatistics) {
  std::vector<f32> a{0, 10};          // range 10
  std::vector<f32> b{1, 10};          // one error of 1
  const auto st = compare(a, b);
  EXPECT_DOUBLE_EQ(st.max_abs_err, 1.0);
  EXPECT_DOUBLE_EQ(st.mse, 0.5);
  EXPECT_DOUBLE_EQ(st.range, 10.0);
  // psnr = 20 log10(10) - 10 log10(0.5)
  EXPECT_NEAR(st.psnr, 20.0 + 3.0103, 1e-3);
  EXPECT_NEAR(st.nrmse, std::sqrt(0.5) / 10.0, 1e-12);
}

TEST(Compare, LargeInputParallelPathMatchesSerial) {
  rng r(200);
  std::vector<f32> a(300000), b(300000);
  f64 max_err = 0, sq = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<f32>(r.normal() * 10);
    b[i] = a[i] + static_cast<f32>(r.normal() * 0.01);
    const f64 d = static_cast<f64>(a[i]) - b[i];
    max_err = std::max(max_err, std::fabs(d));
    sq += d * d;
  }
  const auto st = compare(a, b);
  EXPECT_DOUBLE_EQ(st.max_abs_err, max_err);
  EXPECT_NEAR(st.mse, sq / a.size(), std::fabs(sq / a.size()) * 1e-9);
}

TEST(Compare, SizeMismatchThrows) {
  std::vector<f32> a(3), b(4);
  EXPECT_THROW((void)compare(a, b), error);
}

TEST(Ratios, CompressionRatioAndBitRate) {
  EXPECT_DOUBLE_EQ(compression_ratio(1000, 100), 10.0);
  EXPECT_DOUBLE_EQ(compression_ratio(1000, 0), 0.0);
  // 4-byte floats at CR 16 -> 2 bits/value.
  EXPECT_DOUBLE_EQ(bit_rate(250, 1000), 2.0);
}

TEST(Speedup, MatchesPaperEquationAlgebra) {
  // speedup = 1 / (((BW*CR)^-1 + T^-1) * BW)
  const f64 bw = 35.7, cr = 10.0, t = 200.0;
  const f64 expected = 1.0 / ((1.0 / (bw * cr) + 1.0 / t) * bw);
  EXPECT_DOUBLE_EQ(overall_speedup(bw, cr, t), expected);
}

TEST(Speedup, InfiniteThroughputLimitIsCr) {
  // With T -> inf, speedup approaches CR (pure transfer win).
  EXPECT_NEAR(overall_speedup(10.0, 8.0, 1e12), 8.0, 1e-6);
}

TEST(Speedup, PaperExampleFromSection42) {
  // "when transferring over a 100GB/s network, a compressor with a CR of 2
  //  would need throughput higher than 200GB/s to achieve speedup" — at
  //  exactly 200 GB/s the speedup is 1.
  EXPECT_NEAR(overall_speedup(100.0, 2.0, 200.0), 1.0, 1e-12);
  EXPECT_GT(overall_speedup(100.0, 2.0, 300.0), 1.0);
  EXPECT_LT(overall_speedup(100.0, 2.0, 150.0), 1.0);
}

TEST(Speedup, DegenerateInputsReturnZero) {
  EXPECT_EQ(overall_speedup(0, 10, 10), 0.0);
  EXPECT_EQ(overall_speedup(10, 0, 10), 0.0);
  EXPECT_EQ(overall_speedup(10, 10, 0), 0.0);
}

TEST(Speedup, MonotoneInCrAndThroughput) {
  const f64 base = overall_speedup(35.7, 10, 100);
  EXPECT_GT(overall_speedup(35.7, 20, 100), base);
  EXPECT_GT(overall_speedup(35.7, 10, 200), base);
}

TEST(BoundSlack, AddsHalfUlpScale) {
  const f64 bound = 1e-3;
  EXPECT_GT(f32_bound_slack(bound, 100.0), bound);
  EXPECT_NEAR(f32_bound_slack(bound, 0.0), bound, 1e-18);
  // Slack is proportional to magnitude.
  EXPECT_GT(f32_bound_slack(bound, 1e6), f32_bound_slack(bound, 1.0));
}

}  // namespace
}  // namespace fzmod::metrics
