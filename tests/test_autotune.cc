// Unit tests: pipeline auto-selection (paper future-work item 3).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "fzmod/common/rng.hh"
#include "fzmod/core/autotune.hh"
#include "fzmod/core/pipeline.hh"
#include "fzmod/metrics/metrics.hh"

namespace fzmod::core {
namespace {

std::vector<f32> smooth_field(std::size_t n) {
  std::vector<f32> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<f32>(std::sin(0.002 * static_cast<f64>(i)) * 100);
  }
  return v;
}

std::vector<f32> rough_field(std::size_t n) {
  rng r(321);
  std::vector<f32> v(n);
  for (auto& x : v) x = static_cast<f32>(r.uniform(-1000, 1000));
  return v;
}

TEST(Autotune, ThroughputObjectivePicksSpeedPipeline) {
  const auto v = smooth_field(100000);
  const auto rep = autotune(v, dims3(v.size()), {1e-4, eb_mode::rel},
                            objective::throughput);
  EXPECT_EQ(rep.config.predictor, predictor_lorenzo);
  EXPECT_EQ(rep.config.codec, codec_fzg);
}

TEST(Autotune, QualityObjectiveOnSmoothDataPicksSpline) {
  const auto v = smooth_field(100000);
  const auto rep = autotune(v, dims3(v.size()), {1e-4, eb_mode::rel},
                            objective::quality);
  EXPECT_EQ(rep.config.predictor, predictor_spline);
  EXPECT_EQ(rep.config.histogram, kernels::histogram_kind::topk);
  EXPECT_GT(rep.predictability, 0.9);
}

TEST(Autotune, QualityObjectiveOnRoughDataFallsBackToLorenzo) {
  const auto v = rough_field(100000);
  // Tight bound on white noise: neighbour deltas blow the radius.
  const auto rep = autotune(v, dims3(v.size()), {1e-7, eb_mode::rel},
                            objective::quality);
  EXPECT_LT(rep.predictability, 0.5);
  EXPECT_EQ(rep.config.predictor, predictor_lorenzo);
}

TEST(Autotune, RatioObjectiveEnablesSecondary) {
  for (const auto* make : {"smooth", "rough"}) {
    const auto v =
        make[0] == 's' ? smooth_field(50000) : rough_field(50000);
    const auto rep = autotune(v, dims3(v.size()), {1e-3, eb_mode::rel},
                              objective::ratio);
    EXPECT_TRUE(rep.config.secondary) << make;
  }
}

TEST(Autotune, BalancedPicksTopkOnConcentratedData) {
  // Nearly constant data: almost all deltas quantize to zero.
  std::vector<f32> v(100000, 5.0f);
  for (std::size_t i = 0; i < v.size(); i += 1000) v[i] = 5.001f;
  const auto rep = autotune(v, dims3(v.size()), {1e-2, eb_mode::rel},
                            objective::balanced);
  EXPECT_GT(rep.concentration, 0.6);
  EXPECT_EQ(rep.config.histogram, kernels::histogram_kind::topk);
}

TEST(Autotune, ReportFieldsArePopulated) {
  const auto v = smooth_field(10000);
  const auto rep =
      autotune(v, dims3(v.size()), {1e-4, eb_mode::rel});
  EXPECT_GT(rep.sampled_range, 0.0);
  EXPECT_FALSE(rep.rationale.empty());
  EXPECT_GE(rep.predictability, 0.0);
  EXPECT_LE(rep.predictability, 1.0);
}

TEST(Autotune, ChosenConfigCompressesWithinBound) {
  const auto v = smooth_field(60000);
  for (const objective goal :
       {objective::balanced, objective::throughput, objective::ratio,
        objective::quality}) {
    const eb_config eb{1e-4, eb_mode::rel};
    const auto rep = autotune(v, dims3(v.size()), eb, goal);
    pipeline<f32> p(rep.config);
    const auto rec = p.decompress(p.compress(v, dims3(v.size())));
    const auto err = metrics::compare(v, rec);
    EXPECT_LE(err.max_abs_err,
              metrics::f32_bound_slack(eb.eb * err.range, err.range))
        << to_string(goal);
  }
}

TEST(Autotune, RejectsBadInput) {
  std::vector<f32> v(10);
  EXPECT_THROW((void)autotune(v, dims3(11), {1e-3, eb_mode::rel}), error);
  EXPECT_THROW(
      (void)autotune(std::span<const f32>{}, dims3{0, 1, 1},
                     {1e-3, eb_mode::rel}),
      error);
}

TEST(Autotune, HugeValuesDoNotPoisonStatistics) {
  auto v = smooth_field(50000);
  v[100] = 3e38f;
  const auto rep = autotune(v, dims3(v.size()), {1e-10, eb_mode::abs});
  EXPECT_TRUE(std::isfinite(rep.predictability));
  EXPECT_TRUE(std::isfinite(rep.concentration));
}

TEST(Autotune, NaNSamplesAreSkippedByTheRange) {
  // The pipeline's range scan skips NaN, so a relative bound over a field
  // whose only non-finite values are NaN is well defined; the sampled
  // range must skip them too, even in the first position.
  auto v = smooth_field(60000);
  v[0] = std::numeric_limits<f32>::quiet_NaN();
  v[30000] = std::numeric_limits<f32>::quiet_NaN();
  const auto rep = autotune(v, dims3(v.size()), {1e-4, eb_mode::rel});
  EXPECT_TRUE(std::isfinite(rep.sampled_range));
  EXPECT_GT(rep.sampled_range, 0.0);
  EXPECT_LE(rep.sampled_range, 200.0);

  const std::vector<f32> all_nan(1000, std::numeric_limits<f32>::quiet_NaN());
  EXPECT_EQ(autotune(all_nan, dims3(all_nan.size()), {1e-4, eb_mode::rel})
                .sampled_range,
            0.0);
}

}  // namespace
}  // namespace fzmod::core
