// Unit + property tests: data-parallel kernel primitives (stats, histogram,
// scan, bitshuffle, compaction).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <numeric>

#include "fzmod/common/rng.hh"
#include "fzmod/kernels/bitshuffle.hh"
#include "fzmod/kernels/compact.hh"
#include "fzmod/kernels/histogram.hh"
#include "fzmod/kernels/scan.hh"
#include "fzmod/kernels/stats.hh"

namespace fzmod::kernels {
namespace {

template <class T>
device::buffer<T> to_device(const std::vector<T>& v) {
  device::buffer<T> d(v.size(), device::space::device);
  std::memcpy(d.data(), v.data(), v.size() * sizeof(T));
  return d;
}

TEST(Stats, MinMaxMatchesHostReference) {
  rng r(1);
  std::vector<f32> v(100001);
  for (auto& x : v) x = static_cast<f32>(r.uniform(-500, 1200));
  auto d = to_device(v);
  minmax_result<f32> mm;
  device::stream s;
  minmax_async(d, &mm, s);
  s.sync();
  const auto ref = minmax_host<f32>(v);
  EXPECT_EQ(mm.min, ref.min);
  EXPECT_EQ(mm.max, ref.max);
  EXPECT_GT(mm.range(), 1600.0);
}

TEST(Stats, MinMaxSingleElement) {
  auto d = to_device<f32>({42.5f});
  minmax_result<f32> mm;
  device::stream s;
  minmax_async(d, &mm, s);
  s.sync();
  EXPECT_EQ(mm.min, 42.5f);
  EXPECT_EQ(mm.max, 42.5f);
  EXPECT_EQ(mm.range(), 0.0);
}

class HistogramKinds : public ::testing::TestWithParam<histogram_kind> {};

TEST_P(HistogramKinds, MatchesHostReference) {
  rng r(2);
  const std::size_t nbins = 1024;
  std::vector<u16> codes(250000);
  // Concentrated distribution (what predictors emit): mostly near 512.
  for (auto& c : codes) {
    const f64 g = r.normal() * 6.0 + 512.0;
    c = static_cast<u16>(std::clamp(g, 0.0, 1023.0));
  }
  std::vector<u32> ref(nbins, 0);
  for (const u16 c : codes) ref[c]++;

  auto d = to_device(codes);
  device::buffer<u32> bins(nbins, device::space::device);
  device::stream s;
  histogram_dispatch_async(GetParam(), d, bins, s);
  s.sync();
  for (std::size_t b = 0; b < nbins; ++b) {
    EXPECT_EQ(bins.data()[b], ref[b]) << "bin " << b;
  }
}

TEST_P(HistogramKinds, UniformDistribution) {
  rng r(3);
  const std::size_t nbins = 256;
  std::vector<u16> codes(65536);
  for (auto& c : codes) c = static_cast<u16>(r.next_below(nbins));
  std::vector<u32> ref(nbins, 0);
  for (const u16 c : codes) ref[c]++;
  auto d = to_device(codes);
  device::buffer<u32> bins(nbins, device::space::device);
  device::stream s;
  histogram_dispatch_async(GetParam(), d, bins, s);
  s.sync();
  u64 total = 0;
  for (std::size_t b = 0; b < nbins; ++b) {
    EXPECT_EQ(bins.data()[b], ref[b]);
    total += bins.data()[b];
  }
  EXPECT_EQ(total, codes.size());
}

TEST_P(HistogramKinds, EmptyInput) {
  device::buffer<u16> d(0, device::space::device);
  device::buffer<u32> bins(64, device::space::device);
  device::stream s;
  histogram_dispatch_async(GetParam(), d, bins, s);
  s.sync();
  for (std::size_t b = 0; b < 64; ++b) EXPECT_EQ(bins.data()[b], 0u);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, HistogramKinds,
                         ::testing::Values(histogram_kind::standard,
                                           histogram_kind::topk));

TEST(Scan, ExclusiveMatchesReference) {
  rng r(4);
  std::vector<u32> v(70000);
  for (auto& x : v) x = static_cast<u32>(r.next_below(100));
  auto d = to_device(v);
  device::buffer<u32> out(v.size(), device::space::device);
  u32 total = 0;
  device::stream s;
  exclusive_scan_async(d, out, &total, s);
  s.sync();
  u32 acc = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(out.data()[i], acc) << i;
    acc += v[i];
  }
  EXPECT_EQ(total, acc);
}

TEST(Scan, RowsInvertsLorenzo1D) {
  // prefix-sum of first differences recovers the sequence.
  std::vector<i32> orig{5, 3, 8, -2, 0, 7, 7, 1};
  std::vector<i32> delta(orig.size());
  for (std::size_t i = 0; i < orig.size(); ++i) {
    delta[i] = orig[i] - (i ? orig[i - 1] : 0);
  }
  auto d = to_device(delta);
  device::stream s;
  inclusive_scan_rows_async(d, dims3(orig.size()), s);
  s.sync();
  for (std::size_t i = 0; i < orig.size(); ++i) {
    EXPECT_EQ(d.data()[i], orig[i]);
  }
}

TEST(Scan, ColsAndSlicesCompose3DInverse) {
  // Build a 3-D field, take the full 3-D Lorenzo difference, then verify
  // the three scans recover it.
  const dims3 d{6, 5, 4};
  rng r(5);
  std::vector<i32> q(d.len());
  for (auto& x : q) x = static_cast<i32>(r.next_below(1000)) - 500;
  std::vector<i32> delta(d.len());
  auto at = [&](i64 x, i64 y, i64 z) -> i32 {
    if (x < 0 || y < 0 || z < 0) return 0;
    return q[d.at(static_cast<std::size_t>(x), static_cast<std::size_t>(y),
                  static_cast<std::size_t>(z))];
  };
  for (std::size_t z = 0; z < d.z; ++z) {
    for (std::size_t y = 0; y < d.y; ++y) {
      for (std::size_t x = 0; x < d.x; ++x) {
        const auto ix = static_cast<i64>(x), iy = static_cast<i64>(y),
                   iz = static_cast<i64>(z);
        delta[d.at(x, y, z)] =
            at(ix, iy, iz) - at(ix - 1, iy, iz) - at(ix, iy - 1, iz) -
            at(ix, iy, iz - 1) + at(ix - 1, iy - 1, iz) +
            at(ix - 1, iy, iz - 1) + at(ix, iy - 1, iz - 1) -
            at(ix - 1, iy - 1, iz - 1);
      }
    }
  }
  auto dev = to_device(delta);
  device::stream s;
  inclusive_scan_rows_async(dev, d, s);
  inclusive_scan_cols_async(dev, d, s);
  inclusive_scan_slices_async(dev, d, s);
  s.sync();
  for (std::size_t i = 0; i < d.len(); ++i) EXPECT_EQ(dev.data()[i], q[i]);
}

/// Forward-shuffle `codes` tile by tile into plane words.
std::vector<u32> shuffle_tiles(const std::vector<u16>& codes) {
  const std::size_t n = codes.size();
  std::vector<u32> planes(bitshuffle_words(n));
  for (std::size_t t = 0; t < bitshuffle_tiles(n); ++t) {
    const std::size_t base = t * bitshuffle_tile;
    bitshuffle_tile_fwd(codes.data() + base,
                        std::min(bitshuffle_tile, n - base),
                        planes.data() + t * bitshuffle_words_per_tile);
  }
  return planes;
}

class BitshuffleSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BitshuffleSizes, RoundTrip) {
  const std::size_t n = GetParam();
  rng r(6 + n);
  std::vector<u16> codes(n);
  for (auto& c : codes) {
    // Skewed-small magnitudes, the encoder's operating regime.
    c = static_cast<u16>(r.next_below(16) == 0 ? r.next_below(65536)
                                               : r.next_below(8));
  }
  const auto planes = shuffle_tiles(codes);
  std::vector<u16> back(n);
  for (std::size_t t = 0; t < bitshuffle_tiles(n); ++t) {
    const std::size_t base = t * bitshuffle_tile;
    bitshuffle_tile_inv(planes.data() + t * bitshuffle_words_per_tile,
                        std::min(bitshuffle_tile, n - base),
                        back.data() + base);
  }
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(back[i], codes[i]) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitshuffleSizes,
                         ::testing::Values(1, 31, 512, 513, 4096, 100000));

TEST(Bitshuffle, ZeroInputYieldsZeroPlanes) {
  std::vector<u16> codes(2048, 0);
  for (const u32 w : shuffle_tiles(codes)) EXPECT_EQ(w, 0u);
}

// ---------------------------------------------------------------------------
// The production tile bodies (byte matrices, one multiply per plane
// column, spread-table inverse) must match the per-bit references word for
// word and symbol for symbol.

TEST(BitshuffleReference, TilesMatchReference) {
  rng r(23);
  const std::vector<std::pair<const char*, std::function<u16(std::size_t)>>>
      patterns = {
          {"zero", [](std::size_t) { return u16{0}; }},
          {"ones", [](std::size_t) { return u16{0xFFFF}; }},
          {"bit per plane",
           [](std::size_t i) { return static_cast<u16>(1u << (i % 16)); }},
          {"random", [&](std::size_t) {
             return static_cast<u16>(r.next_below(65536));
           }},
          {"skewed small", [&](std::size_t) {
             return static_cast<u16>(r.next_below(32) == 0
                                         ? r.next_below(65536)
                                         : r.next_below(12));
           }},
      };
  for (const std::size_t count : {1, 31, 32, 33, 255, 511, 512}) {
    for (const auto& [name, gen] : patterns) {
      SCOPED_TRACE(testing::Message() << name << ", count " << count);
      std::vector<u16> in(count);
      for (std::size_t i = 0; i < count; ++i) in[i] = gen(i);
      std::vector<u32> want(bitshuffle_words_per_tile, 0xDEADBEEF);
      std::vector<u32> got(bitshuffle_words_per_tile, 0xDEADBEEF);
      bitshuffle_tile_fwd_reference(in.data(), count, want.data());
      const int used = bitshuffle_tile_fwd(in.data(), count, got.data());
      ASSERT_EQ(got, want);
      for (std::size_t w = static_cast<std::size_t>(used) *
                           bitshuffle_words_per_plane;
           w < bitshuffle_words_per_tile; ++w) {
        ASSERT_EQ(got[w], 0u) << "word " << w << " above plane " << used;
      }

      // Inverse of the forward words, and of arbitrary words (set bits in
      // padding positions are ignored by both bodies).
      std::vector<u32> noise(bitshuffle_words_per_tile);
      for (auto& w : noise) w = static_cast<u32>(r.next_u64());
      for (const auto* words : {&want, &noise}) {
        std::vector<u16> ref(count + 1, 0xABCD), prod(count + 1, 0xABCD);
        bitshuffle_tile_inv_reference(words->data(), count, ref.data());
        bitshuffle_tile_inv(words->data(), count, prod.data());
        ASSERT_EQ(prod, ref);
        if (words == &want) {
          ASSERT_TRUE(std::equal(in.begin(), in.end(), prod.begin()));
        }
      }
    }
  }
}

TEST(Compact, CollectsFlaggedInOrder) {
  const std::size_t n = 50000;
  rng r(7);
  std::vector<u8> flags(n, 0);
  std::vector<i64> vals(n, 0);
  std::vector<outlier> expected;
  for (std::size_t i = 0; i < n; ++i) {
    if (r.next_below(37) == 0) {
      flags[i] = 1;
      vals[i] = static_cast<i64>(r.next_below(1000)) - 500;
      expected.push_back({i, vals[i]});
    }
  }
  auto df = to_device(flags);
  auto dv = to_device(vals);
  device::buffer<outlier> out(expected.size() + 8, device::space::device);
  u64 count = 0;
  device::stream s;
  compact_async(df, dv, out, &count, s);
  s.sync();
  ASSERT_EQ(count, expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(out.data()[k].index, expected[k].index);
    EXPECT_EQ(out.data()[k].value, expected[k].value);
  }
}

TEST(Compact, ScatterRestoresDeltas) {
  const std::size_t n = 10000;
  std::vector<outlier> list{{7, -123}, {999, 456}, {9999, 2}};
  device::buffer<outlier> d(list.size(), device::space::device);
  std::memcpy(d.data(), list.data(), list.size() * sizeof(outlier));
  device::buffer<i32> deltas(n, device::space::device);
  u64 count = list.size();
  device::stream s;
  deltas.fill_zero_async(s);
  scatter_async(d, &count, deltas, s);
  s.sync();
  EXPECT_EQ(deltas.data()[7], -123);
  EXPECT_EQ(deltas.data()[999], 456);
  EXPECT_EQ(deltas.data()[9999], 2);
  EXPECT_EQ(deltas.data()[0], 0);
}

TEST(Compact, OverflowingCapacityThrows) {
  std::vector<u8> flags(100, 1);
  std::vector<i64> vals(100, 1);
  auto df = to_device(flags);
  auto dv = to_device(vals);
  device::buffer<outlier> out(10, device::space::device);
  u64 count = 0;
  device::stream s;
  compact_async(df, dv, out, &count, s);
  EXPECT_THROW(s.sync(), error);
}

// ---------------------------------------------------------------------------
// The production histogram (4 counter banks) must match its single-bank
// reference bit for bit.

TEST(HistogramReference, ProductionMatchesReference) {
  rng r(22);
  const std::size_t nbins = 1024;
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{3}, std::size_t{4097},
        std::size_t{250000}}) {
    std::vector<u16> codes(n);
    // Heavily concentrated: the worst case for the scalar dependency
    // chain, the exact case the sub-histograms exist for.
    for (auto& c : codes) {
      const f64 g = r.normal() * 2.0 + 512.0;
      c = static_cast<u16>(std::clamp(g, 0.0, 1023.0));
    }
    auto d = to_device(codes);
    device::buffer<u32> a(nbins, device::space::device);
    device::buffer<u32> b(nbins, device::space::device);
    device::stream s;
    histogram_reference_async(d, a, s);
    histogram_async(d, b, s);
    s.sync();
    for (std::size_t k = 0; k < nbins; ++k) {
      ASSERT_EQ(a.data()[k], b.data()[k]) << "n=" << n << " bin " << k;
    }
  }
}

// The top-k histogram (slot map, 4 banks) must give exactly the reference
// counts whatever the sample nominates.
TEST(HistogramReference, TopKMatchesReference) {
  rng r(24);
  const std::size_t nbins = 1024;
  const std::vector<std::pair<const char*, std::vector<u16>>> inputs = [&] {
    std::vector<std::pair<const char*, std::vector<u16>>> v;
    std::vector<u16> concentrated(300000), spread(300000), few(200000),
        tiny(5);
    for (auto& c : concentrated) {
      c = static_cast<u16>(std::clamp(r.normal() * 2.0 + 512.0, 0.0, 1023.0));
    }
    for (auto& c : spread) c = static_cast<u16>(r.next_below(nbins));
    // Three distinct symbols: fewer than k = 8 hot slots get nominated.
    for (auto& c : few) c = static_cast<u16>(510 + r.next_below(3));
    // Below the 65536-symbol sample stride: every symbol is sampled.
    for (auto& c : tiny) c = static_cast<u16>(r.next_below(nbins));
    v.emplace_back("concentrated", std::move(concentrated));
    v.emplace_back("spread over all bins", std::move(spread));
    v.emplace_back("fewer symbols than k", std::move(few));
    v.emplace_back("n below the sample stride", std::move(tiny));
    return v;
  }();
  for (const auto& [name, codes] : inputs) {
    auto d = to_device(codes);
    device::buffer<u32> a(nbins, device::space::device);
    device::buffer<u32> b(nbins, device::space::device);
    device::stream s;
    histogram_reference_async(d, a, s);
    histogram_topk_async(d, b, s);
    s.sync();
    for (std::size_t k = 0; k < nbins; ++k) {
      ASSERT_EQ(a.data()[k], b.data()[k]) << name << ", bin " << k;
    }
  }
}

}  // namespace
}  // namespace fzmod::kernels
