// FZModules — canonical Huffman codec for quantization codes.
//
// This is the high-ratio primary lossless codec (cuSZ's Huffman stage). The
// paper's FZMod-Default and FZMod-Quality pipelines run it on the CPU
// ("CPU-based Huffman encoding due to low GPU performance of Huffman
// encoders", §3.3), so the API here is host-side: the pipeline pays an
// explicit D2H transfer for the code stream first, exactly like the hybrid
// design in the paper.
//
// Properties:
//  - canonical, length-limited codes (max 24 bits) built from the
//    histogram module's output, so codebook transmission is just one code
//    length per symbol;
//  - coarse-grained chunking (8192 symbols): chunks encode and decode
//    independently in parallel, mirroring cuSZ's coarse-grained GPU
//    Huffman layout;
//  - fully self-contained archive blob (header + lengths + chunk offsets +
//    bitstream), validated on decode.
//
// The encoder runs in three steps, cuSZ's coarse-grained encoder on host
// threads: a parallel size pass sums each chunk's code lengths (and
// rejects a symbol the codebook lacks before any byte is written), an
// exclusive scan of the chunk byte lengths gives the payload offsets, and
// a parallel pack writes every chunk straight to its offset in the blob,
// which is allocated once at its exact size. The packer keeps a 64-bit
// MSB-first accumulator: codes enter at the low end and whole 32-bit
// big-endian words leave from the top, so it costs a few register ops
// per symbol rather than per bit, and each chunk stores only into its
// own byte extent.
#pragma once

#include <span>
#include <vector>

#include "fzmod/common/types.hh"

namespace fzmod::encoders {

inline constexpr u32 huffman_max_code_len = 24;
inline constexpr std::size_t huffman_chunk = 8192;

/// Canonical codebook: assignment of (code, length) per symbol.
struct huffman_codebook {
  std::vector<u32> code;  // canonical code value, MSB-first semantics
  std::vector<u8> len;    // 0 = symbol absent

  /// Build length-limited canonical codes from symbol frequencies.
  /// Throws on an all-zero histogram.
  static huffman_codebook build(std::span<const u32> freq);

  /// Average code length in bits under `freq` (the entropy-coder's
  /// achieved rate; used by tests and the ablation bench).
  [[nodiscard]] f64 expected_bits(std::span<const u32> freq) const;
};

/// Encode `codes` (symbols < nbins) given their histogram. Returns a
/// self-contained blob. Throws status::internal if a symbol of `codes`
/// has no code (a zero or missing histogram entry).
[[nodiscard]] std::vector<u8> huffman_encode(std::span<const u16> codes,
                                             std::span<const u32> hist);

/// Reference encoder: the original bit-at-a-time writer into per-chunk
/// scratch buffers. Same contract and byte-identical output as
/// huffman_encode; tests and bench_huffman compare the two.
[[nodiscard]] std::vector<u8> huffman_encode_reference(
    std::span<const u16> codes, std::span<const u32> hist);

/// Width of the decoder's lookup table: codes up to this long resolve
/// in one probe, longer ones take the canonical walk.
inline constexpr u32 huffman_double_table_bits = 12;

/// Decode a blob produced by huffman_encode into `out` (presized to the
/// original count, which callers know from the pipeline header). Chunks
/// decode in parallel through a 64-bit bit reservoir (common/bits.hh)
/// and a 2^huffman_double_table_bits-entry lookup table whose entries
/// resolve up to TWO short codes per probe (the rapidgzip playbook); a
/// code longer than the table takes the canonical walk. Every blob
/// decodes this way — the wire format carries no decoder choice.
void huffman_decode(std::span<const u8> blob, std::span<u16> out);

/// Reference decoder: the seed's per-symbol canonical walk. Same
/// contract and validation as huffman_decode; tests and bench_huffman
/// compare the production decoder against it.
void huffman_decode_reference(std::span<const u8> blob, std::span<u16> out);

/// Number of symbols stored in a blob (for callers sizing `out`).
/// Validates the full blob structure — magic, alphabet size, chunk table
/// extent and monotonic offsets, payload extent — so a truncated or
/// forged blob throws `status::corrupt_archive` here instead of returning
/// a count that reads past the span downstream.
[[nodiscard]] u64 huffman_decoded_count(std::span<const u8> blob);

}  // namespace fzmod::encoders
