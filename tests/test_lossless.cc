// Unit + property tests: LZ77 + Huffman secondary lossless codec.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>

#include "fzmod/common/error.hh"
#include "fzmod/common/rng.hh"
#include "fzmod/lossless/lz.hh"

namespace fzmod::lossless {
namespace {

void roundtrip_expect(const std::vector<u8>& raw) {
  const auto blob = compress(raw);
  EXPECT_EQ(decompressed_size(blob), raw.size());
  const auto back = decompress(blob);
  ASSERT_EQ(back.size(), raw.size());
  EXPECT_TRUE(std::equal(raw.begin(), raw.end(), back.begin()));
}

TEST(Lossless, RoundTripText) {
  const std::string s =
      "the quick brown fox jumps over the lazy dog; "
      "the quick brown fox jumps over the lazy dog again and again. ";
  std::vector<u8> raw;
  for (int i = 0; i < 200; ++i) raw.insert(raw.end(), s.begin(), s.end());
  roundtrip_expect(raw);
  const auto blob = compress(raw);
  EXPECT_LT(blob.size(), raw.size() / 5);  // highly repetitive
}

TEST(Lossless, RoundTripEmpty) { roundtrip_expect({}); }

TEST(Lossless, RoundTripTiny) {
  roundtrip_expect({1});
  roundtrip_expect({1, 2, 3});
  roundtrip_expect({0, 0, 0, 0});
}

TEST(Lossless, RoundTripAllZeros) {
  std::vector<u8> raw(1 << 18, 0);
  roundtrip_expect(raw);
  const auto blob = compress(raw);
  EXPECT_LT(blob.size(), raw.size() / 100);
}

TEST(Lossless, RoundTripRandomIncompressible) {
  rng r(60);
  std::vector<u8> raw(100000);
  for (auto& b : raw) b = static_cast<u8>(r.next_u64());
  roundtrip_expect(raw);
  const auto blob = compress(raw);
  // Stored-mode fallback bounds expansion.
  EXPECT_LE(blob.size(), raw.size() + 64);
}

TEST(Lossless, RoundTripRunLengthPatterns) {
  std::vector<u8> raw;
  rng r(61);
  for (int run = 0; run < 500; ++run) {
    const u8 byte = static_cast<u8>(r.next_below(4));
    const std::size_t len = 1 + r.next_below(300);
    raw.insert(raw.end(), len, byte);
  }
  roundtrip_expect(raw);
}

TEST(Lossless, RoundTripOverlappingMatches) {
  // "abcabcabc..." exercises dist < len copies.
  std::vector<u8> raw;
  for (int i = 0; i < 10000; ++i) raw.push_back(static_cast<u8>(i % 3 + 65));
  roundtrip_expect(raw);
}

TEST(Lossless, RoundTripMultiSegment) {
  // > 1 MiB input spans several independent segments.
  rng r(62);
  std::vector<u8> raw(3 * (1u << 20) + 12345);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    raw[i] = static_cast<u8>((i / 100) % 251);
  }
  roundtrip_expect(raw);
}

TEST(Lossless, RoundTripFloatQuantCodes) {
  // Realistic payload: serialized u16 quant codes around a center.
  rng r(63);
  std::vector<u16> codes(200000);
  for (auto& c : codes) {
    c = static_cast<u16>(std::clamp(r.normal() * 2.0 + 512.0, 0.0, 1023.0));
  }
  std::vector<u8> raw(codes.size() * sizeof(u16));
  std::memcpy(raw.data(), codes.data(), raw.size());
  roundtrip_expect(raw);
  const auto blob = compress(raw);
  EXPECT_LT(blob.size(), raw.size() / 2);
}

TEST(Lossless, RejectsBadMagic) {
  auto blob = compress(std::vector<u8>{1, 2, 3, 4, 5});
  blob[0] ^= 0xff;
  EXPECT_THROW(decompress(blob), error);
}

TEST(Lossless, RejectsTruncatedBlob) {
  std::vector<u8> raw(10000, 7);
  raw[500] = 9;
  auto blob = compress(raw);
  blob.resize(blob.size() / 3);
  EXPECT_THROW(decompress(blob), error);
}

TEST(Lossless, RejectsTooSmallBlob) {
  std::vector<u8> blob(3, 0);
  EXPECT_THROW(decompress(blob), error);
  EXPECT_THROW((void)decompressed_size(blob), error);
}

class LosslessSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LosslessSizeSweep, RoundTripStructured) {
  rng r(64 + GetParam());
  std::vector<u8> raw(GetParam());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    raw[i] = static_cast<u8>((i % 16 == 0) ? r.next_u64() : raw[i ? i - 1 : 0]);
  }
  roundtrip_expect(raw);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LosslessSizeSweep,
                         ::testing::Values(7, 64, 4096, 65537, 1 << 20));

}  // namespace
}  // namespace fzmod::lossless
