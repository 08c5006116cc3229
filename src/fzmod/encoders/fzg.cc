#include "fzmod/encoders/fzg.hh"

#include <algorithm>
#include <bit>
#include <memory>
#include <vector>

#include "fzmod/common/bits.hh"
#include "fzmod/kernels/bitshuffle.hh"
#include "fzmod/kernels/scan.hh"

namespace fzmod::encoders {
namespace {

using kernels::bitshuffle_tile;
using kernels::bitshuffle_words_per_tile;

/// Bitmap words per tile: one bit per plane word.
constexpr std::size_t tile_bitmap_words = bitshuffle_words_per_tile / 32;

/// Re-centre a code around the radius and zigzag it; the outlier sentinel
/// (0) maps to 0 so it stays maximally sparse. Bijective on [0, 2*radius).
struct recentre {
  int radius;
  [[nodiscard]] u16 operator()(u16 code) const {
    const u16 t = static_cast<u16>(
        zigzag_encode(static_cast<i32>(code) - radius) + 1);
    return code ? t : u16{0};
  }
};

struct uncentre {
  int radius;
  [[nodiscard]] u16 operator()(u16 t) const {
    const u16 code = static_cast<u16>(
        zigzag_decode(static_cast<u32>(t) - 1) + radius);
    return t ? code : u16{0};
  }
};

/// Enqueue `body` as one traced kernel: the bookkeeping of device::launch
/// for a kernel that runs several dependent passes over the pool.
template <class F>
void enqueue_kernel(device::stream& s, std::size_t n, F body) {
  s.enqueue([n, body = std::move(body), sid = s.id()] {
    const u64 t0 = trace::enabled() ? trace::now_ns() : 0;
    device::runtime::instance().stats().kernels_launched += 1;
    body();
    if (t0) {
      trace::complete("stream", "kernel", t0, trace::now_ns() - t0, sid,
                      static_cast<f64>(n));
    }
  });
}

/// Encode `n` symbols, each mapped through `f`, as one kernel.
///  Pass 1 (per tile): transpose into plane words, write the tile's 8
///    bitmap words into the payload and its nonzero words, in order, into
///    the tile's slot of `scratch`, and record the count.
///  Scan: an exclusive scan of the counts places every tile.
///  Pass 2 (per tile): copy the nonzero words to their payload offset.
template <class F>
void pack_async(const u16* in, std::size_t n, fzg_result& out, F f,
                device::stream& s) {
  const std::size_t tiles = kernels::bitshuffle_tiles(n);
  const std::size_t plane_words = kernels::bitshuffle_words(n);
  const std::size_t bitmap_words = tiles * tile_bitmap_words;

  out.n_codes = n;
  out.bitmap_words = bitmap_words;
  out.payload = device::buffer<u32>(bitmap_words + plane_words,
                                    device::space::device);
  auto scratch = std::make_shared<device::buffer<u32>>(plane_words,
                                                       device::space::device);
  u32* payload = out.payload.data();
  fzg_result* res = &out;
  enqueue_kernel(s, n, [in, n, f, tiles, bitmap_words, payload, res,
                        scratch] {
    auto& rt = device::runtime::instance();
    const std::size_t grain = rt.default_block() / bitshuffle_tile;
    std::vector<u64> counts(tiles), offsets(tiles);
    u32* words_of = scratch->data();
    rt.pool().parallel_for(tiles, grain, [&](std::size_t lo, std::size_t hi) {
      alignas(64) u32 planes[bitshuffle_words_per_tile];
      for (std::size_t t = lo; t < hi; ++t) {
        const std::size_t base = t * bitshuffle_tile;
        const int used = kernels::bitshuffle_tile_fwd(
            in + base, std::min(bitshuffle_tile, n - base), planes, f);
        // Planes >= `used` are zero: their bitmap words are 0 and they
        // hold nothing to keep.
        const std::size_t live = (static_cast<std::size_t>(used) + 1) / 2;
        u32* bitmap = payload + t * tile_bitmap_words;
        u32* kept = words_of + t * bitshuffle_words_per_tile;
        std::size_t count = 0;
        for (std::size_t j = 0; j < live; ++j) {
          u32 bits = 0;
          for (std::size_t b = 0; b < 32; ++b) {
            const u32 w = planes[32 * j + b];
            bits |= u32{w != 0} << b;
            kept[count] = w;
            count += (w != 0);
          }
          bitmap[j] = bits;
        }
        std::fill(bitmap + live, bitmap + tile_bitmap_words, 0u);
        counts[t] = count;
      }
    });
    kernels::exclusive_scan_host<u64>(counts, offsets);
    res->packed_words = tiles ? offsets[tiles - 1] + counts[tiles - 1] : 0;
    u32* packed = payload + bitmap_words;
    rt.pool().parallel_for(tiles, grain, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t t = lo; t < hi; ++t) {
        std::copy_n(words_of + t * bitshuffle_words_per_tile, counts[t],
                    packed + offsets[t]);
      }
    });
  });
}

/// Decode `enc` into `out`, mapping every symbol through `f`, as one
/// kernel. The bitmap's population is checked against `packed_words`
/// before the packed stream is read; each tile then gathers its words,
/// inverse-transposes them and stores its symbols.
template <class F>
void unpack_async(const fzg_result& enc, u16* out, F f, device::stream& s) {
  const std::size_t n = enc.n_codes;
  const std::size_t tiles = kernels::bitshuffle_tiles(n);
  FZMOD_REQUIRE(enc.bitmap_words == tiles * tile_bitmap_words,
                status::corrupt_archive, "fzg: bitmap size mismatch");
  FZMOD_REQUIRE(enc.payload.size() >= enc.bitmap_words &&
                    enc.packed_words <=
                        enc.payload.size() - enc.bitmap_words,
                status::corrupt_archive,
                "fzg: packed words run past the payload");
  const u32* payload = enc.payload.data();
  const u64 packed_words = enc.packed_words;
  enqueue_kernel(s, n, [payload, packed_words, n, tiles, out, f] {
    auto& rt = device::runtime::instance();
    const std::size_t grain = rt.default_block() / bitshuffle_tile;
    std::vector<u64> counts(tiles), offsets(tiles);
    for (std::size_t t = 0; t < tiles; ++t) {
      u64 c = 0;
      for (std::size_t j = 0; j < tile_bitmap_words; ++j) {
        c += static_cast<u64>(
            std::popcount(payload[t * tile_bitmap_words + j]));
      }
      counts[t] = c;
    }
    kernels::exclusive_scan_host<u64>(counts, offsets);
    const u64 population = tiles ? offsets[tiles - 1] + counts[tiles - 1] : 0;
    FZMOD_REQUIRE(population == packed_words, status::corrupt_archive,
                  "fzg: bitmap/payload population mismatch");
    const u32* packed = payload + tiles * tile_bitmap_words;
    rt.pool().parallel_for(tiles, grain, [&](std::size_t lo, std::size_t hi) {
      alignas(64) u32 planes[bitshuffle_words_per_tile];
      for (std::size_t t = lo; t < hi; ++t) {
        std::fill_n(planes, bitshuffle_words_per_tile, 0u);
        const u32* src = packed + offsets[t];
        for (std::size_t j = 0; j < tile_bitmap_words; ++j) {
          u32 bits = payload[t * tile_bitmap_words + j];
          while (bits) {
            planes[32 * j + static_cast<std::size_t>(std::countr_zero(bits))] =
                *src++;
            bits &= bits - 1;
          }
        }
        const std::size_t base = t * bitshuffle_tile;
        kernels::bitshuffle_tile_inv(
            planes, std::min(bitshuffle_tile, n - base), out + base, f);
      }
    });
  });
}

}  // namespace

void fzg_pack_async(const device::buffer<u16>& symbols, fzg_result& out,
                    device::stream& s) {
  symbols.assert_space(device::space::device);
  pack_async(symbols.data(), symbols.size(), out,
             kernels::bitshuffle_identity{}, s);
}

void fzg_unpack_async(const fzg_result& enc, device::buffer<u16>& symbols,
                      device::stream& s) {
  symbols.assert_space(device::space::device);
  enc.payload.assert_space(device::space::device);
  FZMOD_REQUIRE(symbols.size() >= enc.n_codes, status::invalid_argument,
                "fzg: output buffer too small");
  unpack_async(enc, symbols.data(), kernels::bitshuffle_identity{}, s);
}

void fzg_encode_async(const device::buffer<u16>& codes, int radius,
                      fzg_result& out, device::stream& s) {
  codes.assert_space(device::space::device);
  out.radius = radius;
  pack_async(codes.data(), codes.size(), out, recentre{radius}, s);
}

void fzg_decode_async(const fzg_result& enc, device::buffer<u16>& codes,
                      device::stream& s) {
  codes.assert_space(device::space::device);
  enc.payload.assert_space(device::space::device);
  FZMOD_REQUIRE(codes.size() >= enc.n_codes, status::invalid_argument,
                "fzg: output buffer too small");
  unpack_async(enc, codes.data(), uncentre{enc.radius}, s);
}

}  // namespace fzmod::encoders
