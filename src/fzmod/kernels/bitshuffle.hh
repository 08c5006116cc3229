// FZModules — bitshuffle (bit-plane transpose) tile bodies.
//
// FZ-GPU's key lossless trick: after dual-quantized Lorenzo, quantization
// codes are small integers, so their high bit-planes are almost entirely
// zero. Transposing tiles of codes into bit-plane order turns "many small
// values" into "long runs of zero machine words", which the dictionary
// stage then eliminates with a bitmap.
//
// Layout: input is u16 symbols processed in tiles of 512. Each tile emits
// 16 bit-planes of 512 bits = 16 x 16 u32 words, plane-major. A partial
// final tile is zero-padded (decoder truncates by total count).
//
// The production bodies work on one 32-symbol group (word `g` of every
// plane) at a time, with no branch per bit:
//  - forward: the tile is staged through a per-symbol transform into a
//    zero-padded buffer, so every load is a full 8 bytes. The low and the
//    high bytes of 8 symbols form two 8x8 bit matrices; one multiply
//    gathers each matrix column, i.e. one plane's 8 bits. Planes above the
//    group's OR are zero and skipped.
//  - inverse: a constexpr 256-entry table spreads a plane byte into four
//    u16 lanes (symbols 0-3 in the low bytes, 4-7 in the high bytes);
//    shifting each entry to its plane and OR-ing rebuilds the two byte
//    matrices, which interleave back into symbols, pass through the
//    transform and are stored.
// The FZG codec (encoders/fzg.cc) runs these inside its two fused passes.
// The per-bit bodies stay only as `bitshuffle_tile_{fwd,inv}_reference`,
// which tests and benches compare the production bodies against.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "fzmod/common/types.hh"

namespace fzmod::kernels {

inline constexpr std::size_t bitshuffle_tile = 512;       // symbols per tile
inline constexpr std::size_t bitshuffle_words_per_plane =
    bitshuffle_tile / 32;                                 // 16
inline constexpr std::size_t bitshuffle_words_per_tile =
    16 * bitshuffle_words_per_plane;                      // 256 u32

[[nodiscard]] constexpr std::size_t bitshuffle_tiles(std::size_t n) {
  return (n + bitshuffle_tile - 1) / bitshuffle_tile;
}

[[nodiscard]] constexpr std::size_t bitshuffle_words(std::size_t n) {
  return bitshuffle_tiles(n) * bitshuffle_words_per_tile;
}

/// The per-symbol transform of a plain transpose.
struct bitshuffle_identity {
  [[nodiscard]] u16 operator()(u16 v) const { return v; }
};

namespace detail {

/// The low byte of every u16 lane.
inline constexpr u64 lane_low_bytes = 0x00FF00FF00FF00FFull;

/// Byte matrices of 8 symbols s0..s7 hold s_k in byte 2k and s_{k+4} in
/// byte 2k+1 (what interleaving two 4-lane loads gives). This multiplier
/// moves bit 0 of byte j to bit 56 + (row j's symbol); the cross terms
/// stay below bit 56 without carrying into it, so `>> 56` is the column.
inline constexpr u64 column_gather = [] {
  u64 m = 0;
  for (int j = 0; j < 8; ++j) {
    const int sym = (j & 1) ? j / 2 + 4 : j / 2;
    m |= u64{1} << (56 + sym - 8 * j);
  }
  return m;
}();

/// Entry b puts bit k of b in bit 0 and bit k + 4 in bit 8 of u16 lane k.
inline constexpr std::array<u64, 256> plane_byte_spread = [] {
  std::array<u64, 256> t{};
  for (u32 b = 0; b < 256; ++b) {
    for (u32 k = 0; k < 4; ++k) {
      t[b] |= u64{(b >> k) & 1u} << (16 * k);
      t[b] |= u64{(b >> (k + 4)) & 1u} << (16 * k + 8);
    }
  }
  return t;
}();

/// OR of the 8 bytes of `x`.
[[nodiscard]] inline u32 or_bytes(u64 x) {
  x |= x >> 32;
  x |= x >> 16;
  x |= x >> 8;
  return static_cast<u32>(x & 0xFF);
}

/// One plane word of a group: column `p` of each of its 4 byte matrices.
[[nodiscard]] inline u32 gather_plane(const u64 (&m)[4], int p) {
  u32 w = 0;
  for (int q = 0; q < 4; ++q) {
    const u64 col = (m[q] >> p) & 0x0101010101010101ull;
    w |= static_cast<u32>((col * column_gather) >> 56) << (8 * q);
  }
  return w;
}

}  // namespace detail

/// Forward-shuffle one tile: `count` (<= 512) symbols of `in`, each mapped
/// through `f`, into 256 plane words at `out` (zero-padded). Returns the
/// number of planes in use: every word of a higher plane is zero.
template <class F = bitshuffle_identity>
inline int bitshuffle_tile_fwd(const u16* in, std::size_t count, u32* out,
                               F f = {}) {
  alignas(64) u16 tile[bitshuffle_tile];
  for (std::size_t i = 0; i < count; ++i) tile[i] = f(in[i]);
  std::fill(tile + count, tile + bitshuffle_tile, u16{0});
  std::memset(out, 0, bitshuffle_words_per_tile * sizeof(u32));
  int planes = 0;
  for (std::size_t g = 0; g < bitshuffle_words_per_plane; ++g) {
    u64 lo[4], hi[4];
    u64 lo_or = 0, hi_or = 0;
    for (int q = 0; q < 4; ++q) {
      u64 a, b;  // symbols 8q..8q+3 and 8q+4..8q+7 of the group
      std::memcpy(&a, tile + 32 * g + 8 * q, sizeof(a));
      std::memcpy(&b, tile + 32 * g + 8 * q + 4, sizeof(b));
      lo[q] = (a & detail::lane_low_bytes) |
              ((b & detail::lane_low_bytes) << 8);
      hi[q] = ((a >> 8) & detail::lane_low_bytes) |
              (b & ~detail::lane_low_bytes);
      lo_or |= lo[q];
      hi_or |= hi[q];
    }
    const int lo_planes =
        static_cast<int>(std::bit_width(detail::or_bytes(lo_or)));
    const int hi_planes =
        static_cast<int>(std::bit_width(detail::or_bytes(hi_or)));
    u32* col = out + g;
    for (int p = 0; p < lo_planes; ++p) {
      col[p * bitshuffle_words_per_plane] = detail::gather_plane(lo, p);
    }
    for (int p = 0; p < hi_planes; ++p) {
      col[(p + 8) * bitshuffle_words_per_plane] = detail::gather_plane(hi, p);
    }
    planes = std::max(planes, hi_planes ? 8 + hi_planes : lo_planes);
  }
  return planes;
}

/// Inverse-shuffle one tile: rebuild `count` (<= 512) symbols from the 256
/// plane words at `in`, map each through `f` and store it at `out`. Bits
/// of padding positions are ignored.
template <class F = bitshuffle_identity>
inline void bitshuffle_tile_inv(const u32* in, std::size_t count, u16* out,
                                F f = {}) {
  alignas(64) u16 tile[bitshuffle_tile];
  for (std::size_t g = 0; g < bitshuffle_words_per_plane; ++g) {
    const u32* col = in + g;
    int planes = 16;
    while (planes > 0 && col[(planes - 1) * bitshuffle_words_per_plane] == 0) {
      --planes;
    }
    u64 lo[4] = {}, hi[4] = {};
    for (int p = 0; p < std::min(planes, 8); ++p) {
      const u32 w = col[p * bitshuffle_words_per_plane];
      for (int q = 0; q < 4; ++q) {
        lo[q] |= detail::plane_byte_spread[(w >> (8 * q)) & 0xFF] << p;
      }
    }
    for (int p = 8; p < planes; ++p) {
      const u32 w = col[p * bitshuffle_words_per_plane];
      for (int q = 0; q < 4; ++q) {
        hi[q] |= detail::plane_byte_spread[(w >> (8 * q)) & 0xFF] << (p - 8);
      }
    }
    for (int q = 0; q < 4; ++q) {
      const u64 a = (lo[q] & detail::lane_low_bytes) |
                    ((hi[q] & detail::lane_low_bytes) << 8);
      const u64 b = ((lo[q] >> 8) & detail::lane_low_bytes) |
                    (hi[q] & ~detail::lane_low_bytes);
      std::memcpy(tile + 32 * g + 8 * q, &a, sizeof(a));
      std::memcpy(tile + 32 * g + 8 * q + 4, &b, sizeof(b));
    }
  }
  for (std::size_t i = 0; i < count; ++i) out[i] = f(tile[i]);
}

/// Reference forward body: one pass per set bit. Tests and benches compare
/// `bitshuffle_tile_fwd` against it; no codec path runs it.
inline void bitshuffle_tile_fwd_reference(const u16* in, std::size_t count,
                                          u32* out) {
  std::memset(out, 0, bitshuffle_words_per_tile * sizeof(u32));
  for (std::size_t i = 0; i < count; ++i) {
    const u16 v = in[i];
    if (v == 0) continue;
    const std::size_t word = i >> 5;   // which u32 within a plane
    const u32 bit = u32{1} << (i & 31);
    u16 rest = v;
    while (rest) {
      const int plane = std::countr_zero(static_cast<u32>(rest));
      out[static_cast<std::size_t>(plane) * bitshuffle_words_per_plane +
          word] |= bit;
      rest = static_cast<u16>(rest & (rest - 1));
    }
  }
}

/// Reference inverse body (the counterpart of
/// `bitshuffle_tile_fwd_reference`).
inline void bitshuffle_tile_inv_reference(const u32* in, std::size_t count,
                                          u16* out) {
  std::memset(out, 0, count * sizeof(u16));
  for (int plane = 0; plane < 16; ++plane) {
    const u32* row = in + static_cast<std::size_t>(plane) *
                              bitshuffle_words_per_plane;
    const u16 pbit = static_cast<u16>(1u << plane);
    for (std::size_t w = 0; w < bitshuffle_words_per_plane; ++w) {
      u32 bits = row[w];
      while (bits) {
        const std::size_t i = (w << 5) + std::countr_zero(bits);
        if (i < count) out[i] = static_cast<u16>(out[i] | pbit);
        bits &= bits - 1;
      }
    }
  }
}

}  // namespace fzmod::kernels
