// Unit + property tests: canonical length-limited Huffman codec.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "fzmod/common/error.hh"
#include "fzmod/common/rng.hh"
#include "fzmod/encoders/huffman.hh"

namespace fzmod::encoders {
namespace {

std::vector<u32> histogram_of(std::span<const u16> codes, std::size_t nbins) {
  std::vector<u32> h(nbins, 0);
  for (const u16 c : codes) h[c]++;
  return h;
}

/// Fibonacci frequencies: maximal skew, so the unbounded tree is far
/// deeper than huffman_max_code_len and the length cap kicks in.
std::vector<u32> fibonacci_freq() {
  std::vector<u32> freq(48);
  u64 a = 1, b = 1;
  for (auto& f : freq) {
    f = static_cast<u32>(std::min<u64>(a, 0x7fffffff));
    const u64 c = a + b;
    a = b;
    b = c;
  }
  return freq;
}

/// Encode with the production encoder and check the bit-at-a-time
/// reference writes the same bytes.
std::vector<u8> encode_expect_reference(std::span<const u16> codes,
                                        std::span<const u32> hist) {
  auto blob = huffman_encode(codes, hist);
  EXPECT_TRUE(blob == huffman_encode_reference(codes, hist))
      << "production and reference encoders disagree on " << codes.size()
      << " symbols";
  return blob;
}

void roundtrip_expect(const std::vector<u16>& codes, std::size_t nbins) {
  const auto hist = histogram_of(codes, nbins);
  const auto blob = encode_expect_reference(codes, hist);
  ASSERT_EQ(huffman_decoded_count(blob), codes.size());
  std::vector<u16> out(codes.size());
  huffman_decode(blob, out);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    ASSERT_EQ(out[i], codes[i]) << "at " << i;
  }
  // The canonical reference must reproduce the same stream.
  std::vector<u16> ref_out(codes.size());
  huffman_decode_reference(blob, ref_out);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    ASSERT_EQ(ref_out[i], codes[i]) << "reference at " << i;
  }
}

TEST(HuffmanCodebook, PrefixFreeAndCanonical) {
  std::vector<u32> freq{100, 50, 25, 12, 6, 3, 1, 1};
  const auto book = huffman_codebook::build(freq);
  // Kraft equality for a complete code.
  f64 kraft = 0;
  for (std::size_t s = 0; s < freq.size(); ++s) {
    ASSERT_GT(book.len[s], 0u);
    kraft += std::pow(2.0, -static_cast<f64>(book.len[s]));
  }
  EXPECT_NEAR(kraft, 1.0, 1e-12);
  // More frequent symbols never get longer codes.
  for (std::size_t a = 0; a < freq.size(); ++a) {
    for (std::size_t b = 0; b < freq.size(); ++b) {
      if (freq[a] > freq[b]) {
        EXPECT_LE(book.len[a], book.len[b]);
      }
    }
  }
}

TEST(HuffmanCodebook, SingleSymbolAlphabet) {
  std::vector<u32> freq(16, 0);
  freq[7] = 1000;
  const auto book = huffman_codebook::build(freq);
  EXPECT_EQ(book.len[7], 1u);
  std::vector<u16> codes(5000, 7);
  roundtrip_expect(codes, freq.size());
}

TEST(HuffmanCodebook, EmptyHistogramThrows) {
  std::vector<u32> freq(8, 0);
  EXPECT_THROW(huffman_codebook::build(freq), error);
}

TEST(HuffmanCodebook, LengthCapEnforcedOnPathologicalInput) {
  // Fibonacci-like frequencies force maximal skew (unbounded depth).
  const auto freq = fibonacci_freq();
  const auto book = huffman_codebook::build(freq);
  u8 maxlen = 0;
  f64 kraft = 0;
  for (std::size_t s = 0; s < freq.size(); ++s) {
    maxlen = std::max(maxlen, book.len[s]);
    if (book.len[s]) kraft += std::pow(2.0, -static_cast<f64>(book.len[s]));
  }
  EXPECT_LE(maxlen, huffman_max_code_len);
  EXPECT_LE(kraft, 1.0 + 1e-12);
  // And it still round-trips.
  rng r(30);
  std::vector<u16> codes(20000);
  for (auto& c : codes) c = static_cast<u16>(r.next_below(freq.size()));
  // Regenerate the histogram to match the actual stream.
  roundtrip_expect(codes, freq.size());
}

TEST(Huffman, RoundTripSkewedDistribution) {
  rng r(31);
  std::vector<u16> codes(200000);
  for (auto& c : codes) {
    const f64 g = r.normal() * 3.0 + 512.0;
    c = static_cast<u16>(std::clamp(g, 0.0, 1023.0));
  }
  roundtrip_expect(codes, 1024);
}

TEST(Huffman, RoundTripUniformDistribution) {
  rng r(32);
  std::vector<u16> codes(100000);
  for (auto& c : codes) c = static_cast<u16>(r.next_below(1024));
  roundtrip_expect(codes, 1024);
}

TEST(Huffman, RoundTripChunkBoundaries) {
  // Exactly one chunk, one chunk +/- 1, several chunks.
  for (const std::size_t n :
       {huffman_chunk - 1, huffman_chunk, huffman_chunk + 1,
        3 * huffman_chunk + 17, std::size_t{1}}) {
    rng r(33 + n);
    std::vector<u16> codes(n);
    for (auto& c : codes) c = static_cast<u16>(r.next_below(16));
    roundtrip_expect(codes, 16);
  }
}

TEST(Huffman, CompressionBeatsRawOnSkewedData) {
  rng r(34);
  std::vector<u16> codes(100000);
  for (auto& c : codes) {
    c = static_cast<u16>(512 + std::clamp(r.normal(), -2.0, 2.0));
  }
  const auto hist = histogram_of(codes, 1024);
  const auto blob = huffman_encode(codes, hist);
  EXPECT_LT(blob.size(), codes.size() * sizeof(u16) / 3);
}

TEST(Huffman, ExpectedBitsMatchesAchievedRate) {
  rng r(35);
  std::vector<u16> codes(131072);
  for (auto& c : codes) {
    const f64 g = r.normal() * 20.0 + 300.0;
    c = static_cast<u16>(std::clamp(g, 0.0, 1023.0));
  }
  const auto hist = histogram_of(codes, 1024);
  const auto book = huffman_codebook::build(hist);
  const f64 expected = book.expected_bits(hist);
  const auto blob = huffman_encode(codes, hist);
  // Blob carries ~1KB metadata + offsets; compare payload scale only.
  const f64 achieved =
      8.0 * static_cast<f64>(blob.size()) / static_cast<f64>(codes.size());
  EXPECT_NEAR(achieved, expected, expected * 0.15 + 0.4);
}

TEST(Huffman, DecodeRejectsCorruptMagic) {
  std::vector<u16> codes(100, 5);
  const auto hist = histogram_of(codes, 16);
  auto blob = huffman_encode(codes, hist);
  blob[0] ^= 0xff;
  std::vector<u16> out(100);
  EXPECT_THROW(huffman_decode(blob, out), error);
}

TEST(Huffman, DecodeRejectsTruncatedBlob) {
  std::vector<u16> codes(10000, 3);
  codes[5] = 9;
  const auto hist = histogram_of(codes, 16);
  auto blob = huffman_encode(codes, hist);
  blob.resize(blob.size() / 2);
  std::vector<u16> out(10000);
  EXPECT_THROW(huffman_decode(blob, out), error);
}

TEST(Huffman, DecodeRejectsUndersizedOutput) {
  std::vector<u16> codes(1000, 1);
  codes[0] = 0;
  const auto hist = histogram_of(codes, 4);
  const auto blob = huffman_encode(codes, hist);
  std::vector<u16> out(10);
  EXPECT_THROW(huffman_decode(blob, out), error);
}

TEST(Huffman, LargeAlphabet32k) {
  // The SZ3 baseline uses radius 16384 -> 32768-bin codebooks.
  rng r(36);
  std::vector<u16> codes(60000);
  for (auto& c : codes) {
    const f64 g = r.normal() * 100.0 + 16384.0;
    c = static_cast<u16>(std::clamp(g, 0.0, 32767.0));
  }
  roundtrip_expect(codes, 32768);
}

TEST(Huffman, RoundTripAllEqualFrequencies) {
  // A complete, perfectly balanced book: every window decodes, so the
  // lookup table has zero invalid holes.
  std::vector<u16> codes(3 * huffman_chunk + 5);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    codes[i] = static_cast<u16>(i % 256);
  }
  roundtrip_expect(codes, 256);
}

TEST(Huffman, DeepBookTakesCanonicalSlowPath) {
  // Fibonacci frequencies push codes past the decoder's lookup table, so
  // the rare symbols decode through the canonical walk inside it.
  const auto freq = fibonacci_freq();
  const auto book = huffman_codebook::build(freq);
  u32 max_len = 0;
  for (const u8 l : book.len) max_len = std::max<u32>(max_len, l);
  ASSERT_GT(max_len, huffman_double_table_bits);

  rng r(41);
  std::vector<u16> codes(huffman_chunk + 100);
  for (auto& c : codes) c = static_cast<u16>(r.next_below(freq.size()));
  // Encode against the skewed Fibonacci frequencies, not the near-uniform
  // histogram of `codes`, so the blob really carries the deep book.
  const auto blob = encode_expect_reference(codes, freq);
  std::vector<u16> out(codes.size());
  std::vector<u16> ref_out(codes.size());
  huffman_decode(blob, out);
  huffman_decode_reference(blob, ref_out);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    ASSERT_EQ(out[i], codes[i]) << "at " << i;
    ASSERT_EQ(ref_out[i], codes[i]) << "reference at " << i;
  }
}

TEST(Huffman, MaxLengthCodesStraddleWordFlushes) {
  // The Fibonacci book gives 27 of its 48 symbols 24-bit codes; a stream
  // drawn uniformly over the 48 is mostly such codes, so many of them
  // straddle the packer's 32-bit word flushes.
  const auto freq = fibonacci_freq();
  const auto book = huffman_codebook::build(freq);
  ASSERT_EQ(*std::max_element(book.len.begin(), book.len.end()),
            huffman_max_code_len);
  for (const std::size_t n : {std::size_t{1}, std::size_t{3}, huffman_chunk,
                              2 * huffman_chunk + 7}) {
    rng r(42 + n);
    std::vector<u16> codes(n);
    for (auto& c : codes) c = static_cast<u16>(r.next_below(freq.size()));
    const auto blob = encode_expect_reference(codes, freq);
    std::vector<u16> out(codes.size());
    huffman_decode(blob, out);
    EXPECT_EQ(out, codes) << "n=" << n;
  }
}

TEST(Huffman, SymbolMissingFromHistogramThrowsInternal) {
  // Symbol 6 has a zero count; symbol 9 lies past the 8-bin histogram.
  for (const u16 missing : {u16{6}, u16{9}}) {
    std::vector<u16> codes(3 * huffman_chunk, 1);
    codes[2 * huffman_chunk + 5] = missing;
    std::vector<u32> hist(8, 0);
    hist[1] = static_cast<u32>(codes.size() - 1);
    for (const auto encode : {&huffman_encode, &huffman_encode_reference}) {
      try {
        (void)encode(codes, hist);
        ADD_FAILURE() << "missing symbol " << missing << " was encoded";
      } catch (const error& e) {
        EXPECT_EQ(e.code(), status::internal) << e.what();
      }
    }
  }
}

TEST(HuffmanDecodedCount, RejectsTruncatedBlob) {
  std::vector<u16> codes(3 * huffman_chunk, 3);
  codes[7] = 9;
  const auto hist = histogram_of(codes, 16);
  const auto blob = huffman_encode(codes, hist);
  ASSERT_EQ(huffman_decoded_count(blob), codes.size());
  // Any truncation — mid-payload, mid-offsets, mid-lengths, mid-header —
  // must throw instead of returning a count the caller would size an
  // output span from.
  for (const std::size_t keep :
       {blob.size() - 1, blob.size() / 2, std::size_t{40}, std::size_t{10},
        std::size_t{0}}) {
    const std::span<const u8> cut(blob.data(), keep);
    EXPECT_THROW((void)huffman_decoded_count(cut), error) << "keep=" << keep;
  }
}

TEST(HuffmanDecodedCount, RejectsForgedCount) {
  std::vector<u16> codes(1000, 2);
  codes[1] = 7;
  const auto hist = histogram_of(codes, 16);
  auto blob = huffman_encode(codes, hist);
  // Forge the header's symbol count (bytes 8..16): the chunk table no
  // longer matches, so validation must reject it.
  const u64 forged = u64{1} << 40;
  std::memcpy(blob.data() + 8, &forged, sizeof(forged));
  EXPECT_THROW((void)huffman_decoded_count(blob), error);
}

class HuffmanSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HuffmanSizeSweep, RoundTrip) {
  rng r(37 + GetParam());
  std::vector<u16> codes(GetParam());
  for (auto& c : codes) c = static_cast<u16>(r.next_below(64));
  roundtrip_expect(codes, 64);
}

INSTANTIATE_TEST_SUITE_P(Sizes, HuffmanSizeSweep,
                         ::testing::Values(1, 2, 17, 255, 4095, 65536));

}  // namespace
}  // namespace fzmod::encoders
