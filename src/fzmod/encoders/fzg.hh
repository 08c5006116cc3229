// FZModules — FZ-GPU's bitshuffle + dictionary lossless encoder
// (Zhang et al., HPDC'23), adapted as a modular FZModules codec.
//
// Format: the codes are re-centred and zigzagged (so magnitudes are
// small), bitshuffled in 512-symbol tiles into bit-plane order
// (kernels/bitshuffle.hh) — the high planes become all-zero machine words
// — and a dictionary keeps a bitmap of nonzero plane words followed by
// only those words.
//
// Like FZ-GPU, encode and decode each run as one kernel:
//   encode, pass 1: each tile is re-centred in registers, transposed, and
//     writes its 8 bitmap words, its nonzero plane words (to scratch) and
//     their count; an exclusive scan of the counts places the tiles;
//   encode, pass 2: each tile copies its nonzero words to its offset.
//   decode: the bitmap's population is checked against `packed_words`
//     before the packed stream is read; each tile then gathers its words,
//     inverse-transposes them, un-centres and stores its codes.
// The re-centring is a per-symbol transform of the tile bodies: the fused
// FZ-GPU baseline, whose symbols are already centred, uses the identity
// through fzg_pack_async / fzg_unpack_async.
//
// The whole codec is device-resident — this is the encoder FZMod-Speed
// swaps in to avoid the D2H transfer + CPU Huffman of FZMod-Default.
// It trades compression ratio for throughput (paper §3.2: "very extreme
// compression metrics").
#pragma once

#include "fzmod/device/runtime.hh"

namespace fzmod::encoders {

/// Encoded representation, device-resident. `payload` holds the bitmap
/// followed by the compacted nonzero words; only the first
/// `bitmap_words + packed_words` entries are meaningful.
struct fzg_result {
  device::buffer<u32> payload;
  u64 n_codes = 0;       // original symbol count
  u64 bitmap_words = 0;  // ceil(plane_words / 32)
  u64 packed_words = 0;  // nonzero plane words stored
  int radius = 0;

  [[nodiscard]] u64 payload_words() const {
    return bitmap_words + packed_words;
  }
  [[nodiscard]] u64 bytes() const { return payload_words() * sizeof(u32); }
};

/// Encode a device code stream. Complete after `s.sync()`.
void fzg_encode_async(const device::buffer<u16>& codes, int radius,
                      fzg_result& out, device::stream& s);

/// Decode back into a presized device code buffer.
void fzg_decode_async(const fzg_result& enc, device::buffer<u16>& codes,
                      device::stream& s);

/// Lower-level entry points operating on already-centred (small-magnitude)
/// u16 symbols — the fused FZ-GPU baseline performs its own re-centring
/// inside its prediction kernel and shares the shuffle+dictionary core
/// through these. Decode entry points throw corrupt_archive (at the call
/// or at the stream's sync) on a bitmap size, packed-word count or bitmap
/// population that does not match the payload.
void fzg_pack_async(const device::buffer<u16>& symbols, fzg_result& out,
                    device::stream& s);
void fzg_unpack_async(const fzg_result& enc, device::buffer<u16>& symbols,
                      device::stream& s);

}  // namespace fzmod::encoders
