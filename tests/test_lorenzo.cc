// Unit + property tests: Lorenzo predictor with dual quantization.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "fzmod/common/rng.hh"
#include "fzmod/metrics/metrics.hh"
#include "fzmod/predictors/lorenzo.hh"

namespace fzmod::predictors {
namespace {

template <class T>
device::buffer<T> to_device(const std::vector<T>& v) {
  device::buffer<T> d(v.size(), device::space::device);
  std::memcpy(d.data(), v.data(), v.size() * sizeof(T));
  return d;
}

std::vector<f32> roundtrip(const std::vector<f32>& v, dims3 dims, f64 eb,
                           quant_field* field_out = nullptr,
                           int radius = default_radius) {
  auto dev = to_device(v);
  quant_field field;
  device::stream s;
  lorenzo_compress_async(dev, dims, 2 * eb, radius, field, s);
  s.sync();
  device::buffer<f32> rec(dims.len(), device::space::device);
  lorenzo_decompress_async(field, rec, s);
  s.sync();
  std::vector<f32> out(dims.len());
  std::memcpy(out.data(), rec.data(), rec.bytes());
  if (field_out) *field_out = std::move(field);
  return out;
}

void expect_bounded(const std::vector<f32>& a, const std::vector<f32>& b,
                    f64 eb) {
  const auto err = metrics::compare(a, b);
  const f64 max_abs = std::max(std::fabs(err.range), 1.0);
  EXPECT_LE(err.max_abs_err, metrics::f32_bound_slack(eb, max_abs * 4));
}

TEST(Lorenzo, RoundTrip1D) {
  rng r(10);
  std::vector<f32> v(10007);
  f64 acc = 0;
  for (auto& x : v) {
    acc += r.normal();
    x = static_cast<f32>(acc);  // random walk: smooth-ish
  }
  const f64 eb = 1e-3;
  const auto rec = roundtrip(v, dims3(v.size()), eb);
  expect_bounded(v, rec, eb);
}

TEST(Lorenzo, RoundTrip2D) {
  const dims3 d{101, 97};
  std::vector<f32> v(d.len());
  for (std::size_t y = 0; y < d.y; ++y) {
    for (std::size_t x = 0; x < d.x; ++x) {
      v[d.at(x, y, 0)] =
          static_cast<f32>(std::sin(0.05 * x) * std::cos(0.07 * y) * 50);
    }
  }
  const f64 eb = 1e-4;
  const auto rec = roundtrip(v, d, eb);
  expect_bounded(v, rec, eb);
}

TEST(Lorenzo, RoundTrip3D) {
  const dims3 d{33, 29, 17};
  rng r(11);
  std::vector<f32> v(d.len());
  for (std::size_t i = 0; i < d.len(); ++i) {
    v[i] = static_cast<f32>(100 + 10 * r.normal());
  }
  const f64 eb = 1e-2;
  const auto rec = roundtrip(v, d, eb);
  expect_bounded(v, rec, eb);
}

TEST(Lorenzo, ConstantFieldCompressesToOneSeedOutlier) {
  const dims3 d{64, 64};
  std::vector<f32> v(d.len(), 3.25f);
  quant_field field;
  const auto rec = roundtrip(v, d, 1e-3, &field);
  // The origin has no neighbours: its delta is the full lattice value,
  // which lands in the outlier channel (cuSZ behaves identically). Every
  // other point predicts exactly.
  EXPECT_EQ(field.n_outliers, 1u);
  EXPECT_EQ(field.outliers.data()[0].index, 0u);
  for (std::size_t i = 0; i < d.len(); ++i) EXPECT_EQ(rec[i], v[i]);
}

TEST(Lorenzo, SmoothFieldHasFewOutliers) {
  const dims3 d{128, 128};
  std::vector<f32> v(d.len());
  for (std::size_t y = 0; y < d.y; ++y) {
    for (std::size_t x = 0; x < d.x; ++x) {
      v[d.at(x, y, 0)] = static_cast<f32>(0.001 * x * x + 0.002 * y);
    }
  }
  quant_field field;
  roundtrip(v, d, 1e-3, &field);
  EXPECT_LT(field.n_outliers, d.len() / 100);
}

TEST(Lorenzo, RoughFieldStillBounded) {
  rng r(12);
  const dims3 d{5000};
  std::vector<f32> v(d.len());
  for (auto& x : v) x = static_cast<f32>(r.uniform(-1e6, 1e6));
  const f64 eb = 0.5;
  const auto rec = roundtrip(v, d, eb);
  const auto err = metrics::compare(v, rec);
  EXPECT_LE(err.max_abs_err, metrics::f32_bound_slack(eb, 1e6));
}

TEST(Lorenzo, HugeMagnitudesGoThroughValueOutlierChannel) {
  std::vector<f32> v{1.0f, 2.0f, 3.0e30f, 4.0f, -2.5e30f, 5.0f};
  auto dev = to_device(v);
  quant_field field;
  device::stream s;
  // Tiny absolute eb so 3e30 / ebx2 overflows the safe lattice.
  lorenzo_compress_async(dev, dims3(v.size()), 2e-4, default_radius, field,
                         s);
  s.sync();
  EXPECT_EQ(field.value_outliers.size(), 2u);
  device::buffer<f32> rec(v.size(), device::space::device);
  lorenzo_decompress_async(field, rec, s);
  s.sync();
  EXPECT_EQ(rec.data()[2], 3.0e30f);  // exact restore
  EXPECT_EQ(rec.data()[4], -2.5e30f);
  for (const std::size_t i : {0u, 1u, 3u, 5u}) {
    EXPECT_NEAR(rec.data()[i], v[i], 1e-4);
  }
}

TEST(Lorenzo, CodesStayInRadiusRange) {
  rng r(13);
  const dims3 d{251, 83};
  std::vector<f32> v(d.len());
  for (auto& x : v) x = static_cast<f32>(r.normal() * 100);
  auto dev = to_device(v);
  quant_field field;
  device::stream s;
  lorenzo_compress_async(dev, d, 2e-2, default_radius, field, s);
  s.sync();
  for (std::size_t i = 0; i < d.len(); ++i) {
    EXPECT_LT(field.codes.data()[i], 2 * default_radius);
  }
}

TEST(Lorenzo, OutlierSentinelMatchesCompactList) {
  rng r(14);
  const dims3 d{20000};
  std::vector<f32> v(d.len());
  for (auto& x : v) x = static_cast<f32>(r.uniform(-1000, 1000));
  auto dev = to_device(v);
  quant_field field;
  device::stream s;
  lorenzo_compress_async(dev, d, 2e-3, default_radius, field, s);
  s.sync();
  u64 sentinels = 0;
  for (std::size_t i = 0; i < d.len(); ++i) {
    sentinels += (field.codes.data()[i] == 0);
  }
  EXPECT_EQ(sentinels, field.n_outliers);
}

TEST(Lorenzo, F64RoundTrip) {
  rng r(15);
  const dims3 d{41, 37, 11};
  std::vector<f64> v(d.len());
  f64 acc = 1e8;
  for (auto& x : v) {
    acc += r.normal();
    x = acc;
  }
  auto dev = to_device(v);
  quant_field field;
  device::stream s;
  const f64 eb = 1e-6;
  lorenzo_compress_async(dev, d, 2 * eb, default_radius, field, s);
  s.sync();
  device::buffer<f64> rec(d.len(), device::space::device);
  lorenzo_decompress_async(field, rec, s);
  s.sync();
  for (std::size_t i = 0; i < d.len(); ++i) {
    EXPECT_LE(std::fabs(rec.data()[i] - v[i]), eb * (1 + 1e-12)) << i;
  }
}

struct EbCase {
  f64 eb;
};

class LorenzoEbSweep : public ::testing::TestWithParam<f64> {};

TEST_P(LorenzoEbSweep, BoundHolds3D) {
  const f64 eb = GetParam();
  rng r(16);
  const dims3 d{31, 30, 29};
  std::vector<f32> v(d.len());
  for (std::size_t i = 0; i < d.len(); ++i) {
    const f64 base = std::sin(0.1 * static_cast<f64>(i % d.x));
    v[i] = static_cast<f32>(base * 10 + r.normal() * 0.1);
  }
  const auto rec = roundtrip(v, d, eb);
  const auto err = metrics::compare(v, rec);
  EXPECT_LE(err.max_abs_err, metrics::f32_bound_slack(eb, 11.0)) << eb;
}

INSTANTIATE_TEST_SUITE_P(Bounds, LorenzoEbSweep,
                         ::testing::Values(1e-1, 1e-2, 1e-3, 1e-4, 1e-5));

TEST(Lorenzo, RejectsMismatchedDims) {
  device::buffer<f32> dev(10, device::space::device);
  quant_field field;
  device::stream s;
  EXPECT_THROW(
      lorenzo_compress_async(dev, dims3(11), 1e-3, default_radius, field, s),
      error);
}

TEST(Lorenzo, RejectsNonPositiveEb) {
  device::buffer<f32> dev(10, device::space::device);
  quant_field field;
  device::stream s;
  EXPECT_THROW(
      lorenzo_compress_async(dev, dims3(10), 0.0, default_radius, field, s),
      error);
}

// ---------------------------------------------------------------------------
// The production kernel (row segments, unguarded interior stencil) must
// match the per-element reference: codes bit-identical and the same
// outlier sets, so archives do not depend on which body ran.

struct outlier_counts {
  u64 codes = 0;
  std::size_t values = 0;
};

outlier_counts expect_matches_reference(const std::vector<f32>& v,
                                        dims3 dims, f64 eb) {
  auto dev = to_device(v);
  device::stream s;
  quant_field reference, production;
  lorenzo_compress_reference_async(dev, dims, 2 * eb, default_radius,
                                   reference, s);
  s.sync();
  lorenzo_compress_async(dev, dims, 2 * eb, default_radius, production, s);
  s.sync();

  EXPECT_EQ(reference.n_outliers, production.n_outliers);
  for (std::size_t i = 0; i < dims.len(); ++i) {
    if (reference.codes.data()[i] != production.codes.data()[i]) {
      ADD_FAILURE() << "code mismatch at " << i;
      break;
    }
  }
  // Outlier order depends on block scheduling in both bodies; compare as
  // sorted sets.
  const auto sorted_outliers = [](const quant_field& f) {
    std::vector<std::pair<u64, i64>> o(f.n_outliers);
    for (std::size_t k = 0; k < f.n_outliers; ++k) {
      o[k] = {f.outliers.data()[k].index, f.outliers.data()[k].value};
    }
    std::sort(o.begin(), o.end());
    return o;
  };
  EXPECT_EQ(sorted_outliers(reference), sorted_outliers(production));
  auto vo_a = reference.value_outliers;
  auto vo_b = production.value_outliers;
  std::sort(vo_a.begin(), vo_a.end());
  std::sort(vo_b.begin(), vo_b.end());
  EXPECT_EQ(vo_a, vo_b);

  // And the production field reconstructs within bound.
  device::buffer<f32> rec(dims.len(), device::space::device);
  lorenzo_decompress_async(production, rec, s);
  s.sync();
  std::vector<f32> out(dims.len());
  std::memcpy(out.data(), rec.data(), rec.bytes());
  expect_bounded(v, out, eb);
  return {reference.n_outliers, vo_a.size()};
}

TEST(LorenzoReference, Identical1D) {
  rng r(60);
  std::vector<f32> v(10007);
  f64 acc = 0;
  for (auto& x : v) {
    acc += r.normal();
    x = static_cast<f32>(acc);
  }
  expect_matches_reference(v, dims3(v.size()), 1e-3);
}

TEST(LorenzoReference, Identical2D) {
  const dims3 d{101, 97};
  std::vector<f32> v(d.len());
  rng r(61);
  for (std::size_t y = 0; y < d.y; ++y) {
    for (std::size_t x = 0; x < d.x; ++x) {
      v[d.at(x, y, 0)] = static_cast<f32>(
          std::sin(0.05 * x) * std::cos(0.07 * y) * 50 + r.normal());
    }
  }
  expect_matches_reference(v, d, 1e-4);
}

TEST(LorenzoReference, Identical3DWithValueOutliers) {
  const dims3 d{37, 29, 11};
  std::vector<f32> v(d.len());
  rng r(62);
  for (auto& x : v) x = static_cast<f32>(r.normal() * 8.0);
  // Rough data at a tight bound: plenty of code outliers; plus two
  // explicit value outliers beyond the lattice range.
  v[100] = 3.0e38f;
  v[d.len() - 1] = -3.0e38f;
  expect_matches_reference(v, d, 1e-6);
}

/// Mark code outliers (spikes) and value outliers (beyond the lattice
/// range) on both sides of every segment boundary of a row of `row_len`
/// elements starting at `base`.
void spike_segment_boundaries(std::vector<f32>& v, std::size_t base,
                              std::size_t row_len) {
  const std::size_t seg = device::runtime::instance().default_block();
  for (std::size_t x = seg; x < row_len; x += seg) {
    v[base + x - 1] += 500.0f;  // last element of a segment
    v[base + x] -= 500.0f;      // first element of the next one
    v[base + x + 1] = 3.0e38f;  // value outlier just past the boundary
  }
  v[base + row_len - 1] = -3.0e38f;
}

TEST(LorenzoReference, Identical1DAcrossSegments) {
  // A 1-D field is one row: 3 full segments plus a 5-element tail.
  const std::size_t seg = device::runtime::instance().default_block();
  std::vector<f32> v(3 * seg + 5);
  rng r(63);
  f64 acc = 0;
  for (auto& x : v) {
    acc += r.normal() * 0.05;
    x = static_cast<f32>(acc);
  }
  spike_segment_boundaries(v, 0, v.size());
  const auto counts = expect_matches_reference(v, dims3(v.size()), 1e-3);
  EXPECT_GT(counts.codes, 0u);
  EXPECT_GT(counts.values, 0u);
}

TEST(LorenzoReference, Identical2DAcrossSegments) {
  // Rows longer than one segment, so every row splits and interior rows
  // resume their unguarded stencil mid-row.
  const std::size_t seg = device::runtime::instance().default_block();
  const dims3 d{2 * seg + 3, 4};
  std::vector<f32> v(d.len());
  rng r(64);
  for (std::size_t y = 0; y < d.y; ++y) {
    for (std::size_t x = 0; x < d.x; ++x) {
      v[d.at(x, y, 0)] = static_cast<f32>(
          std::sin(0.001 * x) * std::cos(0.5 * y) * 50 + 0.01 * r.normal());
    }
    spike_segment_boundaries(v, d.at(0, y, 0), d.x);
  }
  const auto counts = expect_matches_reference(v, d, 1e-3);
  EXPECT_GT(counts.codes, 0u);
  EXPECT_GT(counts.values, 0u);
}

// The inline rounding helper must agree with std::llrint (ties to even)
// everywhere the quantizers call it: |v| <= 2^51.
TEST(LorenzoReference, RoundHalfEvenMatchesLlrint) {
  const f64 p27 = 0x1p27, p51 = 0x1p51;
  for (const f64 v :
       {0.5, -0.5, 1.5, -1.5, 2.5, -2.5, -0.0, 0.0,
        std::numeric_limits<f64>::denorm_min(),
        -std::numeric_limits<f64>::denorm_min(), p27 - 0.5, -(p27 - 0.5),
        p51 - 0.5, -(p51 - 0.5), 0.49999999999999994, -0.49999999999999994,
        1e6 + 0.5, -1e6 - 0.5, 3.7, -3.7}) {
    const f64 r = round_half_even(v);
    EXPECT_EQ(static_cast<i64>(r), std::llrint(v)) << v;
    EXPECT_EQ(r, std::nearbyint(v)) << v;
  }
}

/// A field on half-lattice ties, x = (k + 1/2) * ebx2 with a power-of-two
/// ebx2, so every prequantization rounds a tie exactly; `spikes` become
/// integer outliers.
std::vector<f32> half_lattice_field(dims3 d, f64 ebx2, u64 seed) {
  rng r(seed);
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
  return v;
}

TEST(LorenzoReference, HalfLatticeTiesMatchReference) {
  const f64 eb = 0x1p-7;  // ebx2 = 2^-6: scaled values are exact ties
  for (const dims3 d : {dims3{50000}, dims3{301, 97}, dims3{64, 48, 20}}) {
    const auto v = half_lattice_field(d, 2 * eb, 65);
    for (const f32 x : v) {
      const f64 scaled = static_cast<f64>(x) / (2 * eb);
      ASSERT_EQ(scaled - std::floor(scaled), 0.5);
    }
    EXPECT_GT(expect_matches_reference(v, d, eb).codes, 0u);
  }
}

}  // namespace
}  // namespace fzmod::predictors
