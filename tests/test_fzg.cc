// Unit + property tests: FZ-GPU bitshuffle + dictionary codec.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "fzmod/baselines/compressor.hh"
#include "fzmod/common/bits.hh"
#include "fzmod/common/rng.hh"
#include "fzmod/encoders/fzg.hh"
#include "fzmod/kernels/bitshuffle.hh"
#include "fzmod/metrics/metrics.hh"

namespace fzmod::encoders {
namespace {

device::buffer<u16> to_device(const std::vector<u16>& v) {
  device::buffer<u16> d(v.size(), device::space::device);
  std::memcpy(d.data(), v.data(), v.size() * sizeof(u16));
  return d;
}

void roundtrip_expect(const std::vector<u16>& codes, int radius = 512) {
  auto dev = to_device(codes);
  fzg_result enc;
  device::stream s;
  fzg_encode_async(dev, radius, enc, s);
  s.sync();
  device::buffer<u16> back(codes.size(), device::space::device);
  fzg_decode_async(enc, back, s);
  s.sync();
  for (std::size_t i = 0; i < codes.size(); ++i) {
    ASSERT_EQ(back.data()[i], codes[i]) << i;
  }
}

TEST(Fzg, RoundTripConcentratedCodes) {
  rng r(40);
  std::vector<u16> codes(100000);
  for (auto& c : codes) {
    const f64 g = r.normal() * 2.0 + 512.0;
    c = static_cast<u16>(std::clamp(g, 1.0, 1023.0));
  }
  roundtrip_expect(codes);
}

TEST(Fzg, RoundTripWithOutlierSentinels) {
  rng r(41);
  std::vector<u16> codes(50000);
  for (auto& c : codes) {
    c = r.next_below(100) == 0
            ? u16{0}
            : static_cast<u16>(std::clamp(r.normal() * 3.0 + 512.0, 1.0,
                                          1023.0));
  }
  roundtrip_expect(codes);
}

TEST(Fzg, RoundTripAllSentinels) {
  std::vector<u16> codes(4096, 0);
  roundtrip_expect(codes);
}

TEST(Fzg, RoundTripUniformHard) {
  rng r(42);
  std::vector<u16> codes(30000);
  for (auto& c : codes) c = static_cast<u16>(r.next_below(1024));
  roundtrip_expect(codes);
}

TEST(Fzg, AllCenterCodesCompressNearNothing) {
  // delta == 0 everywhere -> recentre gives 1 -> only plane 0 non-empty.
  std::vector<u16> codes(65536, 512);
  auto dev = to_device(codes);
  fzg_result enc;
  device::stream s;
  fzg_encode_async(dev, 512, enc, s);
  s.sync();
  // One plane of 65536 bits = 2048 words payload, vs 128Kib raw.
  EXPECT_LT(enc.bytes(), codes.size() * sizeof(u16) / 8);
}

TEST(Fzg, ConcentratedBeatsUniformInSize) {
  rng r(43);
  std::vector<u16> tight(50000), loose(50000);
  for (auto& c : tight) {
    c = static_cast<u16>(std::clamp(r.normal() * 1.5 + 512.0, 1.0, 1023.0));
  }
  for (auto& c : loose) c = static_cast<u16>(1 + r.next_below(1023));
  auto dt = to_device(tight);
  auto dl = to_device(loose);
  fzg_result et, el;
  device::stream s;
  fzg_encode_async(dt, 512, et, s);
  fzg_encode_async(dl, 512, el, s);
  s.sync();
  EXPECT_LT(et.bytes(), el.bytes());
}

TEST(Fzg, LargeRadiusSymbols) {
  // SZ3-regime radius (16384): recentre output up to 32768 needs plane 15.
  rng r(44);
  std::vector<u16> codes(20000);
  for (auto& c : codes) {
    const f64 g = r.normal() * 2000.0 + 16384.0;
    c = static_cast<u16>(std::clamp(g, 1.0, 32767.0));
  }
  roundtrip_expect(codes, 16384);
}

/// Decoding `enc` must fail with corrupt_archive before any tile gathers:
/// the output keeps its fill pattern.
void expect_rejected_before_gather(const fzg_result& enc, std::size_t n) {
  device::buffer<u16> back(n, device::space::device);
  std::fill_n(back.data(), n, u16{0xABCD});
  device::stream s;
  try {
    fzg_decode_async(enc, back, s);
    s.sync();
    ADD_FAILURE() << "hostile payload decoded";
  } catch (const error& e) {
    EXPECT_EQ(e.code(), status::corrupt_archive) << e.what();
  }
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(back.data()[i], 0xABCD) << "symbol " << i << " was written";
  }
}

/// A 10000-symbol encode with every plane word of plane 0 in use.
fzg_result encode_centre_codes(std::size_t n) {
  std::vector<u16> codes(n, 512);
  auto dev = to_device(codes);
  fzg_result enc;
  device::stream s;
  fzg_encode_async(dev, 512, enc, s);
  s.sync();
  return enc;
}

TEST(Fzg, DecodeDetectsBitmapCorruption) {
  fzg_result enc = encode_centre_codes(10000);
  // Flip a bitmap bit: population no longer matches packed_words.
  enc.payload.data()[0] ^= 0x10u;
  expect_rejected_before_gather(enc, 10000);
}

TEST(Fzg, DecodeRejectsPackedWordsPastPayload) {
  fzg_result enc = encode_centre_codes(10000);
  // A packed count running past the payload, with a bitmap whose
  // population agrees with it: only the size check can stop the gather.
  enc.packed_words = enc.payload.size() - enc.bitmap_words + 1;
  expect_rejected_before_gather(enc, 10000);
  enc.packed_words = ~u64{0};
  expect_rejected_before_gather(enc, 10000);
}

TEST(Fzg, DecodeRejectsWrongBitmapWords) {
  fzg_result enc = encode_centre_codes(10000);
  for (const u64 words : {enc.bitmap_words - 1, enc.bitmap_words + 1,
                          u64{0}, ~u64{0}}) {
    fzg_result bad;
    bad.n_codes = enc.n_codes;
    bad.radius = enc.radius;
    bad.bitmap_words = words;
    bad.packed_words = enc.packed_words;
    bad.payload = device::buffer<u32>(enc.payload.size(),
                                      device::space::device);
    std::memcpy(bad.payload.data(), enc.payload.data(), enc.payload.bytes());
    expect_rejected_before_gather(bad, 10000);
  }
}

// ---------------------------------------------------------------------------
// The fused two-pass codec must produce exactly what the old stage chain
// produced: re-centre, per-bit reference shuffle of every tile, then the
// dictionary (a bitmap of nonzero plane words and those words in order).

struct composed {
  std::vector<u32> payload;  // bitmap, then packed words
  u64 bitmap_words = 0;
  u64 packed_words = 0;
};

composed reference_composition(std::vector<u16> symbols, int radius,
                               bool centre) {
  if (centre) {
    for (auto& c : symbols) {
      c = c ? static_cast<u16>(
                  zigzag_encode(static_cast<i32>(c) - radius) + 1)
            : u16{0};
    }
  }
  const std::size_t n = symbols.size();
  std::vector<u32> planes(kernels::bitshuffle_words(n));
  for (std::size_t t = 0; t < kernels::bitshuffle_tiles(n); ++t) {
    const std::size_t base = t * kernels::bitshuffle_tile;
    kernels::bitshuffle_tile_fwd_reference(
        symbols.data() + base, std::min(kernels::bitshuffle_tile, n - base),
        planes.data() + t * kernels::bitshuffle_words_per_tile);
  }
  composed out;
  out.bitmap_words = (planes.size() + 31) / 32;
  out.payload.assign(out.bitmap_words, 0);
  for (std::size_t w = 0; w < planes.size(); ++w) {
    if (planes[w]) {
      out.payload[w >> 5] |= u32{1} << (w & 31);
      out.payload.push_back(planes[w]);
      ++out.packed_words;
    }
  }
  return out;
}

TEST(Fzg, PayloadMatchesReferenceComposition) {
  for (const int radius : {512, 16384}) {
    for (const std::size_t n : {1, 2, 511, 512, 513, 12345}) {
      SCOPED_TRACE(testing::Message() << "radius " << radius << ", n " << n);
      rng r(46 + n);
      std::vector<u16> codes(n);
      for (auto& c : codes) {
        // Radius 16384 draws from the whole u16 range, so re-centred
        // symbols reach plane 15.
        c = radius == 512 ? static_cast<u16>(std::clamp(
                                r.normal() * 5.0 + 512.0, 0.0, 1023.0))
                          : static_cast<u16>(r.next_below(65536));
      }
      auto dev = to_device(codes);
      for (const bool centre : {true, false}) {
        const composed want = reference_composition(codes, radius, centre);
        fzg_result enc;
        device::stream s;
        if (centre) {
          fzg_encode_async(dev, radius, enc, s);
        } else {
          fzg_pack_async(dev, enc, s);
        }
        s.sync();
        ASSERT_EQ(enc.bitmap_words, want.bitmap_words) << centre;
        ASSERT_EQ(enc.packed_words, want.packed_words) << centre;
        ASSERT_TRUE(std::equal(want.payload.begin(), want.payload.end(),
                               enc.payload.data()))
            << centre;
      }
    }
  }
}

/// FNV-1a of an archive.
u64 digest(const std::vector<u8>& bytes) {
  u64 h = 1469598103934665603ull;
  for (const u8 b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(Fzg, FzgpuBaselineArchivesUnchanged) {
  // Digests of the FZ-GPU baseline's archives as the unfused per-bit codec
  // wrote them; the baseline shares the fused codec through
  // fzg_pack_async / fzg_unpack_async.
  const std::pair<std::size_t, u64> golden[] = {
      {1, 0x1d4154a72fcf5a67ull},   {2, 0x08588760fa22c069ull},
      {511, 0xdb249aba458fadc3ull}, {512, 0x5690f4d0c92a6d90ull},
      {513, 0xaba6d11e3e5117cbull}, {12345, 0xe1b7514e2c9cdc97ull},
  };
  auto fzgpu = baselines::make_fzgpu();
  for (const auto& [n, want] : golden) {
    rng r(70 + n);
    std::vector<f32> v(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = static_cast<f32>(std::sin(0.01 * static_cast<f64>(i)) * 100.0 +
                              r.normal());
    }
    const auto archive =
        fzgpu->compress(v, dims3{n}, eb_config{1e-2, eb_mode::abs});
    EXPECT_EQ(digest(archive), want) << "n " << n;
    const auto back = fzgpu->decompress(archive);
    ASSERT_EQ(back.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_LE(std::fabs(static_cast<f64>(back[i]) - v[i]),
                metrics::f32_bound_slack(1e-2, 200.0))
          << i;
    }
  }
}

class FzgSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FzgSizeSweep, RoundTrip) {
  rng r(45 + GetParam());
  std::vector<u16> codes(GetParam());
  for (auto& c : codes) {
    c = static_cast<u16>(std::clamp(r.normal() * 5.0 + 512.0, 0.0, 1023.0));
  }
  roundtrip_expect(codes);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FzgSizeSweep,
                         ::testing::Values(1, 2, 511, 512, 513, 12345));

}  // namespace
}  // namespace fzmod::encoders
