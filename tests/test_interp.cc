// Unit + property tests: multi-level interpolation (G-Interp) predictor.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "fzmod/common/rng.hh"
#include "fzmod/metrics/metrics.hh"
#include "fzmod/predictors/interp.hh"
#include "fzmod/predictors/lorenzo.hh"

namespace fzmod::predictors {
namespace {

template <class T>
device::buffer<T> to_device(const std::vector<T>& v) {
  device::buffer<T> d(v.size(), device::space::device);
  std::memcpy(d.data(), v.data(), v.size() * sizeof(T));
  return d;
}

struct interp_roundtrip_result {
  std::vector<f32> rec;
  quant_field field;
  interp_anchors anchors;
};

interp_roundtrip_result roundtrip(const std::vector<f32>& v, dims3 dims,
                                  f64 eb, int radius = default_radius) {
  interp_roundtrip_result out;
  auto dev = to_device(v);
  device::stream s;
  interp_compress_async(dev, dims, 2 * eb, radius, out.field, out.anchors,
                        s);
  s.sync();
  device::buffer<f32> rec(dims.len(), device::space::device);
  interp_decompress_async(out.field, out.anchors, rec, s);
  s.sync();
  out.rec.resize(dims.len());
  std::memcpy(out.rec.data(), rec.data(), rec.bytes());
  return out;
}

TEST(Interp, RoundTrip1D) {
  std::vector<f32> v(3001);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<f32>(std::sin(0.01 * static_cast<f64>(i)) * 20);
  }
  const f64 eb = 1e-4;
  const auto rt = roundtrip(v, dims3(v.size()), eb);
  const auto err = metrics::compare(v, rt.rec);
  EXPECT_LE(err.max_abs_err, metrics::f32_bound_slack(eb, 20.0));
}

TEST(Interp, RoundTrip2D) {
  const dims3 d{130, 121};
  std::vector<f32> v(d.len());
  for (std::size_t y = 0; y < d.y; ++y) {
    for (std::size_t x = 0; x < d.x; ++x) {
      v[d.at(x, y, 0)] = static_cast<f32>(
          std::sin(0.04 * x) * std::cos(0.05 * y) * 100 + 0.3 * x);
    }
  }
  const f64 eb = 1e-3;
  const auto rt = roundtrip(v, d, eb);
  const auto err = metrics::compare(v, rt.rec);
  EXPECT_LE(err.max_abs_err, metrics::f32_bound_slack(eb, 150.0));
}

TEST(Interp, RoundTrip3DNonPowerOfTwo) {
  const dims3 d{37, 41, 23};
  rng r(20);
  std::vector<f32> v(d.len());
  for (std::size_t z = 0; z < d.z; ++z) {
    for (std::size_t y = 0; y < d.y; ++y) {
      for (std::size_t x = 0; x < d.x; ++x) {
        v[d.at(x, y, z)] = static_cast<f32>(
            std::sin(0.1 * x) + std::cos(0.12 * y) + 0.05 * z +
            0.01 * r.normal());
      }
    }
  }
  const f64 eb = 1e-3;
  const auto rt = roundtrip(v, d, eb);
  const auto err = metrics::compare(v, rt.rec);
  EXPECT_LE(err.max_abs_err, metrics::f32_bound_slack(eb, 5.0));
}

TEST(Interp, AnchorsAreStoredOnStrideLattice) {
  const dims3 d{129, 129};
  std::vector<f32> v(d.len(), 0.0f);
  const auto rt = roundtrip(v, d, 1e-3);
  // ceil(129/64) = 3 anchor coordinates per dim (0, 64, 128).
  EXPECT_EQ(rt.anchors.stride, interp_anchor_stride);
  EXPECT_EQ(rt.anchors.lattice.size(), 9u);
}

TEST(Interp, SmootherFieldYieldsMoreConcentratedCodes) {
  // The spline predictor's selling point: on smooth data its codes cluster
  // at the radius (zero error) much more tightly than Lorenzo's.
  const dims3 d{200, 200};
  std::vector<f32> v(d.len());
  for (std::size_t y = 0; y < d.y; ++y) {
    for (std::size_t x = 0; x < d.x; ++x) {
      v[d.at(x, y, 0)] = static_cast<f32>(
          std::sin(0.02 * x) * std::cos(0.015 * y) * 1000);
    }
  }
  const f64 eb = 1e-5 * 2000;  // rel-1e-5-like

  const auto rt = roundtrip(v, d, eb);
  auto dev = to_device(v);
  quant_field lz;
  device::stream s;
  lorenzo_compress_async(dev, d, 2 * eb, default_radius, lz, s);
  s.sync();

  auto center_hits = [&](const quant_field& f) {
    u64 hits = 0;
    for (std::size_t i = 0; i < d.len(); ++i) {
      hits += (f.codes.data()[i] == static_cast<u16>(default_radius));
    }
    return hits;
  };
  EXPECT_GT(center_hits(rt.field), center_hits(lz));
}

TEST(Interp, ConstantField) {
  const dims3 d{65, 65, 65};
  std::vector<f32> v(d.len(), -7.5f);
  const auto rt = roundtrip(v, d, 1e-4);
  EXPECT_EQ(rt.field.n_outliers, 0u);
  for (std::size_t i = 0; i < d.len(); i += 1000) {
    EXPECT_NEAR(rt.rec[i], -7.5f, 1e-4);
  }
}

TEST(Interp, TinyFieldsSmallerThanAnchorStride) {
  for (const std::size_t n : {1u, 2u, 3u, 7u, 63u}) {
    std::vector<f32> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<f32>(i * i);
    const f64 eb = 1e-3;
    const auto rt = roundtrip(v, dims3(n), eb);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(rt.rec[i], v[i], eb * (1 + 1e-6)) << "n=" << n << " i=" << i;
    }
  }
}

TEST(Interp, HugeMagnitudesGoThroughValueOutlierChannel) {
  std::vector<f32> v(100, 1.0f);
  v[37] = 4.2e30f;
  const f64 eb = 1e-4;
  const auto rt = roundtrip(v, dims3(v.size()), eb);
  EXPECT_EQ(rt.rec[37], 4.2e30f);
  EXPECT_NEAR(rt.rec[36], 1.0f, eb * 2);
}

TEST(Interp, RoughDataBoundStillHolds) {
  rng r(21);
  const dims3 d{64, 64, 16};
  std::vector<f32> v(d.len());
  for (auto& x : v) x = static_cast<f32>(r.uniform(-100, 100));
  const f64 eb = 1e-2;
  const auto rt = roundtrip(v, d, eb);
  const auto err = metrics::compare(v, rt.rec);
  EXPECT_LE(err.max_abs_err, metrics::f32_bound_slack(eb, 100.0));
  // Rough data must be funneled through outliers, not silently distorted.
  EXPECT_GT(rt.field.n_outliers, 0u);
}

class InterpEbSweep : public ::testing::TestWithParam<f64> {};

TEST_P(InterpEbSweep, BoundHolds) {
  const f64 eb = GetParam();
  const dims3 d{77, 53};
  rng r(22);
  std::vector<f32> v(d.len());
  for (std::size_t y = 0; y < d.y; ++y) {
    for (std::size_t x = 0; x < d.x; ++x) {
      v[d.at(x, y, 0)] =
          static_cast<f32>(std::sin(0.07 * x) * 40 + r.normal());
    }
  }
  const auto rt = roundtrip(v, d, eb);
  const auto err = metrics::compare(v, rt.rec);
  EXPECT_LE(err.max_abs_err, metrics::f32_bound_slack(eb, 50.0)) << eb;
}

INSTANTIATE_TEST_SUITE_P(Bounds, InterpEbSweep,
                         ::testing::Values(1.0, 1e-1, 1e-2, 1e-3, 1e-4));

TEST(Interp, HigherAccuracyThanLorenzoOnSmoothData) {
  // FZMod-Quality's premise (paper §3.3): interpolation predicts smooth
  // fields better, leaving fewer/narrower residuals.
  const dims3 d{150, 150};
  std::vector<f32> v(d.len());
  for (std::size_t y = 0; y < d.y; ++y) {
    for (std::size_t x = 0; x < d.x; ++x) {
      v[d.at(x, y, 0)] = static_cast<f32>(
          std::exp(-0.001 * ((x - 75.0) * (x - 75.0) +
                             (y - 75.0) * (y - 75.0))) *
          500);
    }
  }
  const f64 eb = 5e-4;
  const auto rt = roundtrip(v, d, eb);
  auto dev = to_device(v);
  quant_field lz;
  device::stream s;
  lorenzo_compress_async(dev, d, 2 * eb, default_radius, lz, s);
  s.sync();

  // Compare residual entropy proxies: sum of |code - radius|.
  auto residual_mass = [&](const quant_field& f) {
    u64 mass = 0;
    for (std::size_t i = 0; i < d.len(); ++i) {
      const u16 c = f.codes.data()[i];
      if (c) mass += static_cast<u64>(std::abs(c - default_radius));
    }
    return mass;
  };
  EXPECT_LT(residual_mass(rt.field), residual_mass(lz));
}

// ---------------------------------------------------------------------------
// Production traversal vs the reference bodies: identical codes and anchors,
// equal outlier sets, bit-identical reconstructions, and each encoder's
// output decodes identically through the other decoder.

using outlier_list = std::vector<std::pair<u64, i64>>;
using value_outlier_list = std::vector<std::pair<u64, f64>>;

struct encoded {
  quant_field field;
  interp_anchors anchors;
};

template <class T>
void encode(const std::vector<T>& v, dims3 d, f64 ebx2, int radius,
            bool reference, encoded& out) {
  auto dev = to_device(v);
  device::stream s;
  if (reference) {
    interp_compress_reference_async(dev, d, ebx2, radius, out.field,
                                    out.anchors, s);
  } else {
    interp_compress_async(dev, d, ebx2, radius, out.field, out.anchors, s);
  }
  s.sync();
}

template <class T>
std::vector<T> decode(const quant_field& f, const interp_anchors& a,
                      bool reference) {
  device::buffer<T> out(f.dims.len(), device::space::device);
  device::stream s;
  if (reference) {
    interp_decompress_reference_async(f, a, out, s);
  } else {
    interp_decompress_async(f, a, out, s);
  }
  s.sync();
  return std::vector<T>(out.data(), out.data() + f.dims.len());
}

outlier_list sorted_outliers(const quant_field& f) {
  outlier_list out;
  for (u64 k = 0; k < f.n_outliers; ++k) {
    out.emplace_back(f.outliers.data()[k].index, f.outliers.data()[k].value);
  }
  std::sort(out.begin(), out.end());
  return out;
}

value_outlier_list sorted_value_outliers(const quant_field& f) {
  value_outlier_list out = f.value_outliers;
  std::sort(out.begin(), out.end());
  return out;
}

template <class T>
bool bit_identical(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/// Run both encoders and all four encoder x decoder pairs on `v`.
/// Returns the production encoder's outlier count.
template <class T>
u64 expect_equivalent(const std::vector<T>& v, dims3 d, f64 ebx2,
                      int radius) {
  SCOPED_TRACE(::testing::Message()
               << d.x << "x" << d.y << "x" << d.z << " radius " << radius
               << " bytes " << sizeof(T));
  encoded prod, ref;
  encode(v, d, ebx2, radius, false, prod);
  encode(v, d, ebx2, radius, true, ref);

  EXPECT_EQ(std::memcmp(prod.field.codes.data(), ref.field.codes.data(),
                        d.len() * sizeof(u16)),
            0);
  EXPECT_EQ(prod.anchors.stride, ref.anchors.stride);
  EXPECT_EQ(prod.anchors.lattice, ref.anchors.lattice);
  EXPECT_EQ(sorted_outliers(prod.field), sorted_outliers(ref.field));
  EXPECT_EQ(sorted_value_outliers(prod.field),
            sorted_value_outliers(ref.field));

  const auto pp = decode<T>(prod.field, prod.anchors, false);
  const auto pr = decode<T>(prod.field, prod.anchors, true);
  const auto rp = decode<T>(ref.field, ref.anchors, false);
  const auto rr = decode<T>(ref.field, ref.anchors, true);
  EXPECT_TRUE(bit_identical(pp, rr));
  EXPECT_TRUE(bit_identical(pp, pr)) << "reference decoder, production codes";
  EXPECT_TRUE(bit_identical(pp, rp)) << "production decoder, reference codes";
  return prod.field.n_outliers;
}

/// Smooth field with noise; `spikes` are set far off the prediction so
/// they become integer outliers, `huge` beyond the quantizer's range so
/// they become value outliers.
template <class T>
std::vector<T> field_with_outliers(dims3 d, u64 seed,
                                   const std::vector<std::size_t>& spikes,
                                   const std::vector<std::size_t>& huge) {
  rng r(seed);
  std::vector<T> v(d.len());
  for (std::size_t z = 0; z < d.z; ++z) {
    for (std::size_t y = 0; y < d.y; ++y) {
      for (std::size_t x = 0; x < d.x; ++x) {
        v[d.at(x, y, z)] = static_cast<T>(
            std::sin(0.02 * static_cast<f64>(x)) * 30 +
            std::cos(0.03 * static_cast<f64>(y)) * 20 +
            0.5 * static_cast<f64>(z) + 0.05 * r.normal());
      }
    }
  }
  for (const std::size_t i : spikes) v[i] += static_cast<T>(5000);
  for (const std::size_t i : huge) v[i] = static_cast<T>(1e30);
  return v;
}

template <class T>
void expect_equivalent_all_radii(const std::vector<T>& v, dims3 d,
                                 f64 ebx2) {
  for (const int radius : {default_radius, 16384}) {
    EXPECT_GT(expect_equivalent(v, d, ebx2, radius), 0u)
        << "fixture lost its integer outliers";
  }
}

TEST(InterpReference, OneDimSegmentBoundaries) {
  // 2^17 points: the finest x sub-step has 2^16 targets, 16 segments of
  // 4096. Put outliers on both sides of every segment boundary of the
  // three finest levels (target j sits at x = h + 2hj).
  const dims3 d{std::size_t{1} << 17};
  std::vector<std::size_t> spikes, huge;
  for (const std::size_t h : {1u, 2u, 4u}) {
    for (std::size_t j = 4096; h * (2 * j + 1) < d.x; j += 4096) {
      spikes.push_back(h * (2 * (j - 1) + 1));
      spikes.push_back(h * (2 * j + 1));
    }
  }
  huge.push_back(8191);
  huge.push_back(8193 + 2);
  huge.push_back(64 * 7);  // an anchor
  const auto vf = field_with_outliers<f32>(d, 31, spikes, huge);
  const auto vd = field_with_outliers<f64>(d, 31, spikes, huge);
  expect_equivalent_all_radii(vf, d, 2e-3);
  expect_equivalent_all_radii(vd, d, 2e-3);
}

TEST(InterpReference, TwoDim) {
  const dims3 d{300, 170};
  const std::vector<std::size_t> spikes = {d.at(1, 1, 0), d.at(64, 33, 0),
                                           d.at(299, 169, 0),
                                           d.at(150, 3, 0)};
  const std::vector<std::size_t> huge = {d.at(128, 64, 0), d.at(7, 9, 0)};
  expect_equivalent_all_radii(field_with_outliers<f32>(d, 32, spikes, huge),
                              d, 2e-3);
  expect_equivalent_all_radii(field_with_outliers<f64>(d, 32, spikes, huge),
                              d, 2e-3);
}

TEST(InterpReference, ThreeDimNonPowerOfTwo) {
  const dims3 d{37, 41, 23};
  const std::vector<std::size_t> spikes = {d.at(1, 0, 0), d.at(36, 40, 22),
                                           d.at(5, 7, 11)};
  const std::vector<std::size_t> huge = {d.at(0, 0, 0), d.at(3, 3, 3)};
  expect_equivalent_all_radii(field_with_outliers<f32>(d, 33, spikes, huge),
                              d, 2e-3);
  expect_equivalent_all_radii(field_with_outliers<f64>(d, 33, spikes, huge),
                              d, 2e-3);
}

TEST(InterpReference, BulkChunkSlabs) {
  // The slab shapes core::chunked_pipeline hands the predictor for CESM and
  // HURR at 1 MiB chunks.
  for (const dims3 d : {dims3{450, 225, 2}, dims3{250, 250, 4}}) {
    const std::vector<std::size_t> spikes = {d.at(1, 1, 1), d.at(d.x - 1, 3, 0),
                                             d.at(100, 200, 1)};
    const std::vector<std::size_t> huge = {d.at(64, 128, 0), d.at(9, 9, 1)};
    expect_equivalent_all_radii(
        field_with_outliers<f32>(d, 34, spikes, huge), d, 2e-3);
    expect_equivalent_all_radii(
        field_with_outliers<f64>(d, 34, spikes, huge), d, 2e-3);
  }
}

TEST(InterpReference, RoughOneDimOutliersInEverySegment) {
  // 2^18 uniform-noise values at a tight bound: outliers land in every
  // segment of every sub-step, gathered by concurrent ranges.
  const dims3 d{std::size_t{1} << 18};
  rng r(35);
  std::vector<f32> v(d.len());
  for (auto& x : v) x = static_cast<f32>(r.uniform(-100, 100));
  encoded prod, ref;
  encode(v, d, 2e-3, default_radius, false, prod);
  encode(v, d, 2e-3, default_radius, true, ref);
  const auto outliers = sorted_outliers(prod.field);
  EXPECT_EQ(outliers, sorted_outliers(ref.field));
  // Every 4096-target segment of the finest sub-step holds outliers.
  std::vector<bool> hit((d.x / 2 + 4095) / 4096, false);
  for (const auto& [idx, q] : outliers) {
    if (idx % 2 == 1) hit[(idx / 2) / 4096] = true;
  }
  EXPECT_TRUE(std::all_of(hit.begin(), hit.end(), [](bool b) { return b; }));
  EXPECT_TRUE(bit_identical(decode<f32>(prod.field, prod.anchors, false),
                            decode<f32>(ref.field, ref.anchors, true)));
}

TEST(InterpReference, HostileQuantFieldPinsPrecedence) {
  // A hand-built field no encoder emits: a code-0 point with no outlier
  // entry, duplicate integer and value outliers, outliers at anchors and
  // under non-zero codes. Both decoders must agree bit for bit on the
  // precedence: non-zero code > value outlier > integer outlier > 0, and
  // at anchors value outlier > lattice.
  const dims3 d{150, 70};
  const f64 ebx2 = 0.5;
  const int radius = 64;
  quant_field f;
  f.dims = d;
  f.radius = radius;
  f.ebx2 = ebx2;
  f.codes.ensure(d.len(), device::space::device);
  rng r(36);
  for (std::size_t i = 0; i < d.len(); ++i) {
    f.codes.data()[i] = static_cast<u16>(radius - 3 + r.next_below(7));
  }
  interp_anchors a;
  for (std::size_t y = 0; y < d.y; y += interp_anchor_stride) {
    for (std::size_t x = 0; x < d.x; x += interp_anchor_stride) {
      a.lattice.push_back(static_cast<i32>(x + 3 * y) - 50);
    }
  }
  const std::size_t bare = d.at(5, 5, 0);        // code 0, no outlier
  const std::size_t dup_int = d.at(7, 5, 0);     // two integer outliers
  const std::size_t dup_vo = d.at(9, 5, 0);      // two value outliers
  const std::size_t both = d.at(11, 5, 0);       // integer + value outlier
  const std::size_t coded = d.at(13, 5, 0);      // non-zero code + both
  const std::size_t anchor_int = d.at(64, 0, 0);  // anchor + integer
  const std::size_t anchor_vo = d.at(128, 64, 0);  // anchor + value
  for (const std::size_t i : {bare, dup_int, dup_vo, both}) {
    f.codes.data()[i] = 0;
  }
  const std::vector<kernels::outlier> outs = {
      {dup_int, 11}, {both, 4}, {dup_int, -17}, {coded, 9},
      {anchor_int, 1000}};
  f.outliers.ensure(outs.size(), device::space::device);
  std::copy(outs.begin(), outs.end(), f.outliers.data());
  f.n_outliers = outs.size();
  f.value_outliers = {{dup_vo, 2.5},   {both, -7.25}, {dup_vo, 99.0},
                      {coded, 123.0}, {anchor_vo, 4.5e9}};

  const auto prod = decode<f64>(f, a, false);
  const auto ref = decode<f64>(f, a, true);
  EXPECT_TRUE(bit_identical(prod, ref));
  EXPECT_TRUE(bit_identical(decode<f32>(f, a, false),
                            decode<f32>(f, a, true)));
  EXPECT_EQ(prod[bare], 0.0);
  EXPECT_EQ(prod[dup_int], -17 * ebx2);  // the last integer outlier
  EXPECT_EQ(prod[dup_vo], 2.5);          // the first value outlier
  EXPECT_EQ(prod[both], -7.25);
  EXPECT_NE(prod[coded], 123.0);
  EXPECT_NE(prod[coded], 9 * ebx2);
  EXPECT_EQ(prod[anchor_int], 14 * ebx2);  // lattice: 64 + 0 - 50
  EXPECT_EQ(prod[anchor_vo], 4.5e9);
}

TEST(InterpReference, HalfLatticeTiesMatchReference) {
  // Values x = (k + 1/2) * ebx2 with a power-of-two ebx2: every anchor
  // rounds an exact tie, and interpolated predictions of such values land
  // the quantized differences on ties too.
  const f64 ebx2 = 0x1p-6;
  for (const dims3 d : {dims3{40000}, dims3{129, 67}, dims3{64, 48, 20}}) {
    rng r(66);
    std::vector<f32> v(d.len());
    for (std::size_t z = 0; z < d.z; ++z) {
      for (std::size_t y = 0; y < d.y; ++y) {
        for (std::size_t x = 0; x < d.x; ++x) {
          const f64 k = std::floor(
              std::sin(0.01 * static_cast<f64>(x)) *
                  std::cos(0.02 * static_cast<f64>(y)) * 500.0 +
              3.0 * static_cast<f64>(z) +
              static_cast<f64>(r.next_below(5)) - 2.0);
          v[d.at(x, y, z)] = static_cast<f32>((k + 0.5) * ebx2);
        }
      }
    }
    for (std::size_t i = 7; i < v.size(); i += 997) {
      v[i] += static_cast<f32>(4096 * ebx2);
    }
    for (const int radius : {default_radius, 16384}) {
      expect_equivalent(v, d, ebx2, radius);
    }
  }
}

TEST(InterpReference, NonFiniteNeighboursTakeOutlierPath) {
  // NaN and Inf inputs are stored raw; a target whose prediction reads
  // one gets a NaN or infinite difference, which must fail the range test
  // and store the point as an integer outlier, exactly as the reference's
  // llrint (INT64_MIN) sends it there.
  const dims3 d{4096};
  std::vector<f32> v(d.len());
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<f32>(std::sin(0.01 * static_cast<f64>(i)) * 30);
  }
  // Odd multiples of 8: lattice points of every level finer than h = 8.
  const std::size_t nan_at = 104, inf_at = 1000, ninf_at = 2056;
  v[nan_at] = std::numeric_limits<f32>::quiet_NaN();
  v[inf_at] = std::numeric_limits<f32>::infinity();
  v[ninf_at] = -std::numeric_limits<f32>::infinity();
  const f64 ebx2 = 2e-3;
  encoded prod, ref;
  encode(v, d, ebx2, default_radius, false, prod);
  encode(v, d, ebx2, default_radius, true, ref);
  EXPECT_EQ(std::memcmp(prod.field.codes.data(), ref.field.codes.data(),
                        d.len() * sizeof(u16)),
            0);
  EXPECT_EQ(prod.anchors.lattice, ref.anchors.lattice);
  EXPECT_EQ(sorted_outliers(prod.field), sorted_outliers(ref.field));
  const auto vo_index = [](const quant_field& f) {
    std::vector<u64> idx;
    for (const auto& [i, x] : f.value_outliers) idx.push_back(i);
    std::sort(idx.begin(), idx.end());
    return idx;
  };
  EXPECT_EQ(vo_index(prod.field),
            (std::vector<u64>{nan_at, inf_at, ninf_at}));
  EXPECT_EQ(vo_index(prod.field), vo_index(ref.field));
  // The h = 4 targets on either side predict from the NaN, so both are
  // integer outliers.
  for (const std::size_t i : {nan_at - 4, nan_at + 4}) {
    EXPECT_EQ(prod.field.codes.data()[i], 0u) << i;
  }
  EXPECT_TRUE(bit_identical(decode<f32>(prod.field, prod.anchors, false),
                            decode<f32>(ref.field, ref.anchors, true)));
}

}  // namespace
}  // namespace fzmod::predictors
