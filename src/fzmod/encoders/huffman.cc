#include "fzmod/encoders/huffman.hh"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <queue>

#include "fzmod/common/bits.hh"
#include "fzmod/common/error.hh"
#include "fzmod/device/runtime.hh"

namespace fzmod::encoders {
namespace {

struct blob_header {
  u32 magic;
  u32 nbins;
  u64 count;
  u32 nchunks;
  u32 chunk;
};
constexpr u32 blob_magic = 0x48554646;  // "HUFF"

/// Compute unrestricted code lengths by Huffman tree construction.
std::vector<u8> tree_lengths(std::span<const u32> freq) {
  struct node {
    u64 weight;
    i32 left;    // -1 for leaf
    i32 right;
    u16 symbol;
  };
  std::vector<node> nodes;
  nodes.reserve(freq.size() * 2);
  using heap_item = std::pair<u64, i32>;  // (weight, node index)
  std::priority_queue<heap_item, std::vector<heap_item>, std::greater<>> heap;
  for (std::size_t sym = 0; sym < freq.size(); ++sym) {
    if (freq[sym] == 0) continue;
    nodes.push_back({freq[sym], -1, -1, static_cast<u16>(sym)});
    heap.emplace(freq[sym], static_cast<i32>(nodes.size() - 1));
  }
  FZMOD_REQUIRE(!heap.empty(), status::invalid_argument,
                "huffman: empty histogram");
  if (heap.size() == 1) {
    // Degenerate single-symbol alphabet: assign a 1-bit code.
    std::vector<u8> lens(freq.size(), 0);
    lens[nodes[0].symbol] = 1;
    return lens;
  }
  while (heap.size() > 1) {
    const auto [wa, a] = heap.top();
    heap.pop();
    const auto [wb, b] = heap.top();
    heap.pop();
    nodes.push_back({wa + wb, a, b, 0});
    heap.emplace(wa + wb, static_cast<i32>(nodes.size() - 1));
  }
  std::vector<u8> lens(freq.size(), 0);
  // Iterative depth-first walk assigning depths to leaves.
  std::vector<std::pair<i32, u8>> stack{{heap.top().second, 0}};
  while (!stack.empty()) {
    const auto [ni, depth] = stack.back();
    stack.pop_back();
    const node& nd = nodes[static_cast<std::size_t>(ni)];
    if (nd.left < 0) {
      lens[nd.symbol] = std::max<u8>(depth, 1);
    } else {
      stack.emplace_back(nd.left, static_cast<u8>(depth + 1));
      stack.emplace_back(nd.right, static_cast<u8>(depth + 1));
    }
  }
  return lens;
}

/// Enforce the 24-bit cap: clamp overlong codes, then repair the Kraft sum
/// by lengthening the cheapest short codes (zlib's classic adjustment).
void limit_lengths(std::vector<u8>& lens, u32 cap) {
  u64 kraft = 0;  // scaled by 2^cap
  bool clamped = false;
  for (auto& l : lens) {
    if (l == 0) continue;
    if (l > cap) {
      l = static_cast<u8>(cap);
      clamped = true;
    }
    kraft += u64{1} << (cap - l);
  }
  if (!clamped) return;
  // While over-subscribed, demote one max-length slot's sibling: find a
  // code with length < cap and increase it; each increment frees
  // 2^(cap-l) - 2^(cap-l-1) units.
  while (kraft > (u64{1} << cap)) {
    // Prefer lengthening the longest code below the cap (cheapest CR hit).
    u8 best = 0;
    std::size_t best_sym = 0;
    for (std::size_t sym = 0; sym < lens.size(); ++sym) {
      if (lens[sym] != 0 && lens[sym] < cap && lens[sym] > best) {
        best = lens[sym];
        best_sym = sym;
      }
    }
    FZMOD_REQUIRE(best != 0, status::internal,
                  "huffman: cannot satisfy length cap");
    kraft -= u64{1} << (cap - lens[best_sym] - 1);
    lens[best_sym] += 1;
  }
}

/// Canonical code assignment from lengths (shorter lengths first, ties by
/// symbol order).
void assign_codes(const std::vector<u8>& lens, std::vector<u32>& codes) {
  codes.assign(lens.size(), 0);
  std::array<u32, huffman_max_code_len + 2> count{};
  for (const u8 l : lens) count[l]++;
  count[0] = 0;
  std::array<u32, huffman_max_code_len + 2> next{};
  u32 code = 0;
  for (u32 l = 1; l <= huffman_max_code_len; ++l) {
    code = (code + count[l - 1]) << 1;
    next[l] = code;
  }
  for (std::size_t sym = 0; sym < lens.size(); ++sym) {
    if (lens[sym]) codes[sym] = next[lens[sym]]++;
  }
}

/// Canonical decode tables derived from lengths alone.
struct decode_table {
  std::array<u32, huffman_max_code_len + 2> first_code{};
  std::array<u32, huffman_max_code_len + 2> first_index{};
  std::array<u32, huffman_max_code_len + 2> count{};
  std::vector<u16> symbols;  // sorted by (len, symbol)
  // Fast path: direct lookup of the top `fast_bits` of the window.
  static constexpr u32 fast_bits = 12;
  std::vector<u32> fast;  // (symbol << 8) | len, or 0 for slow path

  explicit decode_table(std::span<const u8> lens) {
    for (const u8 l : lens) {
      FZMOD_REQUIRE(l <= huffman_max_code_len, status::corrupt_archive,
                    "huffman: code length exceeds cap");
      count[l]++;
    }
    count[0] = 0;
    u32 code = 0, index = 0;
    for (u32 l = 1; l <= huffman_max_code_len; ++l) {
      code = (code + count[l - 1]) << 1;
      first_code[l] = code;
      first_index[l] = index;
      index += count[l];
    }
    symbols.resize(index);
    std::array<u32, huffman_max_code_len + 2> next{};
    next = first_index;
    for (std::size_t sym = 0; sym < lens.size(); ++sym) {
      if (lens[sym]) symbols[next[lens[sym]]++] = static_cast<u16>(sym);
    }
    // Validate the Kraft inequality so corrupt lengths can't walk us out
    // of the symbol table during decode.
    u64 kraft = 0;
    for (u32 l = 1; l <= huffman_max_code_len; ++l) {
      kraft += static_cast<u64>(count[l]) << (huffman_max_code_len - l);
    }
    FZMOD_REQUIRE(kraft <= (u64{1} << huffman_max_code_len),
                  status::corrupt_archive,
                  "huffman: invalid code lengths (Kraft violation)");

    fast.assign(std::size_t{1} << fast_bits, 0);
    std::vector<u32> codes;
    std::vector<u8> lens_copy(lens.begin(), lens.end());
    assign_codes(lens_copy, codes);
    for (std::size_t sym = 0; sym < lens.size(); ++sym) {
      const u8 l = lens[sym];
      if (l == 0 || l > fast_bits) continue;
      const u32 prefix = codes[sym] << (fast_bits - l);
      for (u32 fill = 0; fill < (u32{1} << (fast_bits - l)); ++fill) {
        fast[prefix | fill] = (static_cast<u32>(sym) << 8) | l;
      }
    }
  }

  /// Decode one symbol from an MSB-first window of fast_bits..cap bits.
  [[nodiscard]] std::pair<u16, u32> decode(u64 window_msb_first) const {
    const u32 f = fast[window_msb_first >> (huffman_max_code_len - fast_bits)];
    if (f) return {static_cast<u16>(f >> 8), f & 0xff};
    u32 code = 0;
    for (u32 l = 1; l <= huffman_max_code_len; ++l) {
      code = static_cast<u32>(window_msb_first >>
                              (huffman_max_code_len - l));
      if (count[l] &&
          code - first_code[l] < count[l]) {
        return {symbols[first_index[l] + (code - first_code[l])], l};
      }
    }
    throw error(status::corrupt_archive, "huffman: undecodable window");
  }
};

// ---- production decoder table ------------------------------------------

/// Double-symbol table: fixed 2^12 LUT whose entries resolve up to TWO
/// complete codes per lookup. Entry = (sym0 << 32) | (sym1 << 16) |
/// (len0 << 8) | len_total; len_total == len0 means only one code fit
/// the window; 0 means the first code is longer than the table and the
/// caller walks the canonical tables instead. Build cost is bounded by
/// the Kraft sum: total pair fills <= 2^12.
struct double_cached_table {
  static constexpr u32 bits = huffman_double_table_bits;
  std::vector<u64> lut;

  /// `lens` must already have passed decode_table's cap + Kraft checks.
  explicit double_cached_table(std::span<const u8> lens) {
    std::vector<u32> codes;
    assign_codes(std::vector<u8>(lens.begin(), lens.end()), codes);
    lut.assign(std::size_t{1} << bits, 0);
    std::array<std::vector<u16>, bits + 1> by_len{};
    for (std::size_t sym = 0; sym < lens.size(); ++sym) {
      if (lens[sym] && lens[sym] <= bits) {
        by_len[lens[sym]].push_back(static_cast<u16>(sym));
      }
    }
    // Pass 1: every short-enough first code as a single-symbol entry.
    for (u32 l0 = 1; l0 <= bits; ++l0) {
      for (const u16 sym0 : by_len[l0]) {
        const u32 prefix = codes[sym0] << (bits - l0);
        const u64 e = (static_cast<u64>(sym0) << 32) |
                      (static_cast<u64>(l0) << 8) | l0;
        for (u32 f = 0; f < (u32{1} << (bits - l0)); ++f) lut[prefix | f] = e;
      }
    }
    // Pass 2: where a complete second code also fits, upgrade to a pair.
    for (u32 l0 = 1; l0 < bits; ++l0) {
      for (const u16 sym0 : by_len[l0]) {
        const u32 prefix0 = codes[sym0] << (bits - l0);
        for (u32 l1 = 1; l1 + l0 <= bits; ++l1) {
          for (const u16 sym1 : by_len[l1]) {
            const u32 prefix = prefix0 | (codes[sym1] << (bits - l0 - l1));
            const u64 e = (static_cast<u64>(sym0) << 32) |
                          (static_cast<u64>(sym1) << 16) |
                          (static_cast<u64>(l0) << 8) | (l0 + l1);
            for (u32 f = 0; f < (u32{1} << (bits - l0 - l1)); ++f) {
              lut[prefix | f] = e;
            }
          }
        }
      }
    }
  }
};

// ---- per-chunk decode loops ---------------------------------------------
//
// Both loops share the seed's safety posture: the cursor is checked
// against the chunk's bit extent before every step, and the payload copy
// is padded so reservoir reloads past the last real byte read zeros.

void decode_chunk_canonical(const decode_table& table, const u8* src,
                            u64 bit_limit, std::span<u16> out, u64 beg_sym,
                            u64 end_sym) {
  u64 bitpos = 0;
  for (u64 i = beg_sym; i < end_sym; ++i) {
    FZMOD_REQUIRE(bitpos <= bit_limit, status::corrupt_archive,
                  "huffman: chunk bitstream overrun");
    // Assemble a 24-bit MSB-first window at bitpos.
    u64 window = 0;
    const u64 byte = bitpos >> 3;
    for (int b = 0; b < 4; ++b) {
      window = (window << 8) | src[byte + static_cast<u64>(b)];
    }
    window = (window >> (8 - (bitpos & 7))) &
             ((u64{1} << huffman_max_code_len) - 1);
    const auto [sym, len] = table.decode(window);
    out[i] = sym;
    bitpos += len;
  }
}

void decode_chunk_double(const double_cached_table& t,
                         const decode_table& walk, const u8* src,
                         u64 bit_limit, std::span<u16> out, u64 beg_sym,
                         u64 end_sym) {
  msb_bit_reservoir br(src);
  u64 i = beg_sym;
  while (i < end_sym) {
    FZMOD_REQUIRE(br.position() <= bit_limit, status::corrupt_archive,
                  "huffman: chunk bitstream overrun");
    br.ensure(huffman_max_code_len);
    const u64 e = t.lut[br.peek(double_cached_table::bits)];
    if (e == 0) {
      // First code longer than the table: one canonical walk.
      const auto [sym, len] = walk.decode(br.peek(huffman_max_code_len));
      out[i++] = sym;
      br.consume(len);
      continue;
    }
    const u32 l0 = static_cast<u32>((e >> 8) & 0xff);
    const u32 ltot = static_cast<u32>(e & 0xff);
    out[i++] = static_cast<u16>(e >> 32);
    if (ltot != l0 && i < end_sym) {
      out[i++] = static_cast<u16>((e >> 16) & 0xffff);
      br.consume(ltot);
    } else {
      br.consume(l0);
    }
  }
}

// ---- blob validation (shared by decode and decoded_count) ---------------

struct parsed_blob {
  blob_header hdr;
  std::span<const u8> lens;
  std::vector<u64> offsets;
  std::size_t payload_off = 0;
};

/// Validate every structural invariant an attacker-controlled blob could
/// violate — magic, chunk geometry, alphabet size, metadata extent,
/// offset monotonicity, payload extent — before anything downstream
/// sizes a buffer or walks a table from it.
parsed_blob parse_blob(std::span<const u8> blob) {
  parsed_blob pb;
  FZMOD_REQUIRE(blob.size() >= sizeof(blob_header), status::corrupt_archive,
                "huffman: blob too small");
  std::memcpy(&pb.hdr, blob.data(), sizeof(pb.hdr));
  const blob_header& hdr = pb.hdr;
  FZMOD_REQUIRE(hdr.magic == blob_magic, status::corrupt_archive,
                "huffman: bad magic");
  FZMOD_REQUIRE(hdr.chunk == huffman_chunk, status::corrupt_archive,
                "huffman: unsupported chunk size");
  FZMOD_REQUIRE(hdr.nchunks ==
                    (hdr.count ? (hdr.count - 1) / hdr.chunk + 1 : 0),
                status::corrupt_archive, "huffman: chunk count mismatch");
  FZMOD_REQUIRE(hdr.nbins <= 65536, status::corrupt_archive,
                "huffman: implausible alphabet size");
  const std::size_t meta =
      sizeof(hdr) + hdr.nbins + (hdr.nchunks + std::size_t{1}) * sizeof(u64);
  FZMOD_REQUIRE(blob.size() >= meta, status::corrupt_archive,
                "huffman: truncated metadata");
  pb.lens = blob.subspan(sizeof(hdr), hdr.nbins);
  pb.offsets.resize(hdr.nchunks + std::size_t{1});
  std::memcpy(pb.offsets.data(), blob.data() + sizeof(hdr) + hdr.nbins,
              pb.offsets.size() * sizeof(u64));
  // Offsets are data: enforce monotonicity so no chunk can point outside
  // the payload.
  for (u32 c = 0; c < hdr.nchunks; ++c) {
    FZMOD_REQUIRE(pb.offsets[c] <= pb.offsets[c + 1], status::corrupt_archive,
                  "huffman: non-monotonic chunk offsets");
  }
  FZMOD_REQUIRE(pb.offsets[hdr.nchunks] <= blob.size() &&
                    blob.size() >= meta + pb.offsets[hdr.nchunks],
                status::corrupt_archive, "huffman: truncated payload");
  pb.payload_off = meta;
  return pb;
}

/// Run `decode_chunk(src, bit_limit, beg_sym, end_sym)` over every chunk
/// of a parsed blob in parallel. The payload copy is padded so reservoir
/// and window reads never run off the end (the per-symbol bit_limit check
/// bounds how far the cursor gets).
template <class DecodeChunk>
void decode_chunks(const parsed_blob& pb, std::span<const u8> blob,
                   const DecodeChunk& decode_chunk) {
  const blob_header& hdr = pb.hdr;
  std::vector<u8> payload(pb.offsets[hdr.nchunks] + 16, 0);
  std::memcpy(payload.data(), blob.data() + pb.payload_off,
              pb.offsets[hdr.nchunks]);
  device::runtime::instance().pool().parallel_for(
      hdr.nchunks, 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t c = lo; c < hi; ++c) {
          const u64 beg_sym = c * hdr.chunk;
          const u64 end_sym = std::min<u64>(hdr.count, beg_sym + hdr.chunk);
          // A corrupt bitstream must not walk the cursor past this
          // chunk's extent (the +16 padding then covers window reads).
          const u64 bit_limit = (pb.offsets[c + 1] - pb.offsets[c]) * 8;
          decode_chunk(payload.data() + pb.offsets[c], bit_limit, beg_sym,
                       end_sym);
        }
      });
}

parsed_blob parse_for_decode(std::span<const u8> blob, std::span<u16> out) {
  parsed_blob pb = parse_blob(blob);
  FZMOD_REQUIRE(out.size() >= pb.hdr.count, status::invalid_argument,
                "huffman: output span too small");
  return pb;
}

// ---- encoders -------------------------------------------------------------

/// Chunk `c` of a code stream (the last chunk may be short).
std::span<const u16> chunk_span(std::span<const u16> codes, std::size_t c) {
  const std::size_t beg = c * huffman_chunk;
  return codes.subspan(beg, std::min(huffman_chunk, codes.size() - beg));
}

/// The blob at its exact final size, header | lens | offsets written and
/// the payload (offsets.back() bytes at `payload_off`) zeroed.
std::vector<u8> make_blob(const huffman_codebook& book, std::size_t count,
                          std::span<const u64> offsets,
                          std::size_t& payload_off) {
  const blob_header hdr{blob_magic, static_cast<u32>(book.len.size()),
                        static_cast<u64>(count),
                        static_cast<u32>(offsets.size() - 1),
                        static_cast<u32>(huffman_chunk)};
  payload_off = sizeof(hdr) + book.len.size() + offsets.size_bytes();
  std::vector<u8> blob(payload_off + offsets.back());
  u8* p = blob.data();
  std::memcpy(p, &hdr, sizeof(hdr));
  std::memcpy(p + sizeof(hdr), book.len.data(), book.len.size());
  std::memcpy(p + sizeof(hdr) + book.len.size(), offsets.data(),
              offsets.size_bytes());
  return blob;
}

/// Size pass: the exact bit count of one chunk. Checks every symbol
/// against the codebook, so a bad stream throws before anything is packed.
u64 chunk_bits(std::span<const u16> chunk, std::span<const u8> len) {
  u64 bits = 0;
  for (const u16 sym : chunk) {
    FZMOD_REQUIRE(sym < len.size() && len[sym] != 0, status::internal,
                  "huffman: symbol missing from codebook");
    bits += len[sym];
  }
  return bits;
}

void store_be32(u8* dst, u32 w) {
  dst[0] = static_cast<u8>(w >> 24);
  dst[1] = static_cast<u8>(w >> 16);
  dst[2] = static_cast<u8>(w >> 8);
  dst[3] = static_cast<u8>(w);
}

/// Pack one chunk MSB-first into exactly (bits + 7) / 8 bytes at `dst`.
/// `entry[sym]` is (code << 8) | len. Codes enter a 64-bit accumulator at
/// the low end and whole 32-bit words leave from the top as big-endian
/// stores; the final partial word stores only the bytes it covers. No
/// store leaves the chunk's extent: neighbouring chunks pack into the
/// same blob concurrently.
void pack_chunk(std::span<const u16> chunk, std::span<const u32> entry,
                u8* dst, u64 bits) {
  u8* const words_end = dst + bits / 32 * 4;
  u8* out = dst;
  u64 acc = 0;
  u32 nacc = 0;  // pending bits, right-aligned in acc; < 32 between codes
  for (const u16 sym : chunk) {
    const u32 e = entry[sym];
    const u32 l = e & 0xff;
    acc = (acc << l) | (e >> 8);
    nacc += l;
    if (nacc >= 32) {
      FZMOD_REQUIRE(out < words_end, status::internal,
                    "huffman: chunk overran its size pass");
      nacc -= 32;
      store_be32(out, static_cast<u32>(acc >> nacc));
      out += 4;
    }
  }
  FZMOD_REQUIRE(static_cast<u64>(out - dst) * 8 + nacc == bits,
                status::internal,
                "huffman: packed length differs from the size pass");
  const u32 tail = static_cast<u32>(acc << (32 - nacc));  // left-aligned
  for (u32 b = 0; b < nacc; b += 8) *out++ = static_cast<u8>(tail >> (24 - b));
}

/// Reference: the original bit-at-a-time writer. Encodes one chunk MSB-first
/// into `dst` (zeroed, sized worst case); returns bits.
u64 encode_chunk_reference(std::span<const u16> chunk,
                           const huffman_codebook& book, u8* dst) {
  u64 bitpos = 0;
  for (const u16 sym : chunk) {
    FZMOD_REQUIRE(sym < book.len.size() && book.len[sym] != 0,
                  status::internal, "huffman: symbol missing from codebook");
    const u8 l = book.len[sym];
    const u32 c = book.code[sym];
    // MSB-first append.
    for (u32 b = 0; b < l; ++b, ++bitpos) {
      if ((c >> (l - 1 - b)) & 1u) dst[bitpos >> 3] |= u8(1u << (7 - (bitpos & 7)));
    }
  }
  return bitpos;
}

}  // namespace

huffman_codebook huffman_codebook::build(std::span<const u32> freq) {
  huffman_codebook book;
  book.len = tree_lengths(freq);
  limit_lengths(book.len, huffman_max_code_len);
  assign_codes(book.len, book.code);
  return book;
}

f64 huffman_codebook::expected_bits(std::span<const u32> freq) const {
  u64 total = 0, bits = 0;
  for (std::size_t sym = 0; sym < freq.size(); ++sym) {
    total += freq[sym];
    bits += static_cast<u64>(freq[sym]) * len[sym];
  }
  return total ? static_cast<f64>(bits) / static_cast<f64>(total) : 0.0;
}

std::vector<u8> huffman_encode(std::span<const u16> codes,
                               std::span<const u32> hist) {
  const auto book = huffman_codebook::build(hist);
  const std::size_t n = codes.size();
  const std::size_t nchunks = n ? (n - 1) / huffman_chunk + 1 : 0;
  auto& pool = device::runtime::instance().pool();

  // Size pass: each chunk's exact bit count.
  std::vector<u64> bits(nchunks);
  pool.parallel_for(nchunks, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t c = lo; c < hi; ++c) {
      bits[c] = chunk_bits(chunk_span(codes, c), book.len);
    }
  });

  // Scan: exclusive prefix sum of the byte lengths gives the offsets.
  std::vector<u64> offsets(nchunks + 1, 0);
  for (std::size_t c = 0; c < nchunks; ++c) {
    offsets[c + 1] = offsets[c] + (bits[c] + 7) / 8;
  }

  // Pack: every chunk straight to its offset in the exact-size blob.
  std::size_t payload_off = 0;
  std::vector<u8> blob = make_blob(book, n, offsets, payload_off);
  std::vector<u32> entry(book.len.size());
  for (std::size_t sym = 0; sym < entry.size(); ++sym) {
    entry[sym] = (book.code[sym] << 8) | book.len[sym];
  }
  u8* const payload = blob.data() + payload_off;
  pool.parallel_for(nchunks, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t c = lo; c < hi; ++c) {
      pack_chunk(chunk_span(codes, c), entry, payload + offsets[c], bits[c]);
    }
  });
  return blob;
}

std::vector<u8> huffman_encode_reference(std::span<const u16> codes,
                                         std::span<const u32> hist) {
  const auto book = huffman_codebook::build(hist);
  const std::size_t n = codes.size();
  const std::size_t nchunks = n ? (n - 1) / huffman_chunk + 1 : 0;

  // Encode chunks in parallel into worst-case scratch buffers.
  std::vector<std::vector<u8>> scratch(nchunks);
  std::vector<u64> chunk_bytes(nchunks, 0);
  device::runtime::instance().pool().parallel_for(
      nchunks, 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t c = lo; c < hi; ++c) {
          const auto chunk = chunk_span(codes, c);
          auto& buf = scratch[c];
          buf.assign(chunk.size() * (huffman_max_code_len / 8 + 1) + 8, 0);
          chunk_bytes[c] =
              (encode_chunk_reference(chunk, book, buf.data()) + 7) / 8;
        }
      });

  // Assemble the blob: header | lens | offsets | payload.
  std::vector<u64> offsets(nchunks + 1, 0);
  for (std::size_t c = 0; c < nchunks; ++c) {
    offsets[c + 1] = offsets[c] + chunk_bytes[c];
  }
  std::size_t payload_off = 0;
  std::vector<u8> blob = make_blob(book, n, offsets, payload_off);
  for (std::size_t c = 0; c < nchunks; ++c) {
    std::memcpy(blob.data() + payload_off + offsets[c], scratch[c].data(),
                chunk_bytes[c]);
  }
  return blob;
}

u64 huffman_decoded_count(std::span<const u8> blob) {
  // Full structural validation: a truncated or forged blob fails here,
  // not after a caller has sized an output span from the bogus count.
  return parse_blob(blob).hdr.count;
}

void huffman_decode(std::span<const u8> blob, std::span<u16> out) {
  const parsed_blob pb = parse_for_decode(blob, out);
  // The canonical tables validate the lengths (cap + Kraft) before the
  // LUT is built from them, and back its slow path.
  const decode_table walk(pb.lens);
  const double_cached_table lut(pb.lens);
  decode_chunks(pb, blob,
                [&](const u8* src, u64 bit_limit, u64 beg, u64 end) {
                  decode_chunk_double(lut, walk, src, bit_limit, out, beg,
                                      end);
                });
}

void huffman_decode_reference(std::span<const u8> blob, std::span<u16> out) {
  const parsed_blob pb = parse_for_decode(blob, out);
  const decode_table walk(pb.lens);
  decode_chunks(pb, blob,
                [&](const u8* src, u64 bit_limit, u64 beg, u64 end) {
                  decode_chunk_canonical(walk, src, bit_limit, out, beg, end);
                });
}

}  // namespace fzmod::encoders
