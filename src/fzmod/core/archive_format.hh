// FZModules — on-disk archive layout (internal, shared by the synchronous
// pipeline driver and the experimental STF pipeline so both produce and
// consume the same format). docs/FORMAT.md is the normative description.
//
// Layout:
//   outer_header | body
// where body is either the inner archive or (outer.secondary == 1) an LZ
// blob of it, and the inner archive is
//   inner_header | codec blob | outliers | value outliers | anchors.
//
// Version history:
//   v1 ("FZM0" outer, inner version 1): no integrity digests; structural
//      fields are validated, but payload corruption can decode to wrong
//      values. Still fully readable.
//   v2 ("FZM2" outer, inner version 2): the inner header carries one
//      xxhash64 digest per section plus a self-digest, and the outer
//      header carries a sealed whole-body digest for secondary-wrapped
//      archives (verified *before* the LZ decoder touches the blob). With
//      verification on — the default; see `verify_enabled` — any payload
//      corruption surfaces as a deterministic status::corrupt_archive.
//   v3 ("FZM3" chunk container): an outer chunk directory framing whole
//      v1/v2 archives as independently decodable chunks of one field —
//      parallel decompression, random access through core::reader, and
//      streaming compression (core/chunked.hh). Single-chunk compressions
//      bypass the container entirely and stay byte-identical to v2.
//
// Each container (v3, FZMF) is built and parsed here and nowhere else: one
// header builder, one entry/directory builder, and a parse split into a
// header step and a directory step, each taking only the bytes it reads
// plus the container size. Span parses and every seekable-reader open run
// the same steps, so they accept and reject the same bytes. A container's
// own trailing directory is its only chunk index.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fzmod/common/bits.hh"
#include "fzmod/common/error.hh"
#include "fzmod/common/hash.hh"
#include "fzmod/common/types.hh"
#include "fzmod/kernels/chunked_hash.hh"
#include "fzmod/kernels/compact.hh"

namespace fzmod::core::fmt {

inline constexpr u32 outer_magic = 0x465a4d30;     // "FZM0" (format v1)
inline constexpr u32 outer_magic_v2 = 0x465a4d32;  // "FZM2"
inline constexpr u32 chunk_magic_v3 = 0x465a4d33;  // "FZM3" (chunk container)
inline constexpr u32 inner_magic = 0x465a4d44;     // "FZMD"
inline constexpr u16 archive_version = 2;          // what we write per chunk
inline constexpr u16 chunk_container_version = 3;

#pragma pack(push, 1)
/// v1 outer header (8 bytes). Still accepted on read.
struct outer_header {
  u32 magic;
  u8 secondary;  // 1 = body is an LZ blob of the inner archive
  u8 pad[3];
};

/// v2 outer header (16 bytes). `body_digest` is the sealed digest of the
/// *stored* body bytes when secondary == 1 (see `seal_digest`), and must
/// be zero otherwise (plain bodies are covered by the inner digests).
struct outer_header_v2 {
  u32 magic;
  u8 secondary;
  u8 pad[3];  // must be zero
  u64 body_digest;
};

/// Inner header. The v1 header is the byte-exact prefix of the v2 header:
/// v2 appends the five digest words and bumps `version`.
struct inner_header {
  u32 magic;
  u16 version;
  u8 type;  // dtype
  u8 mode;  // eb_mode
  f64 eb_user;
  f64 ebx2;
  u64 dims[3];
  i32 radius;
  u8 hist;  // histogram_kind (informational)
  u8 pad[3];
  char preprocessor[16];
  char predictor[16];
  char codec[16];
  u64 n_outliers;
  u64 n_value_outliers;
  u64 n_anchors;
  u64 anchor_stride;
  u64 codec_bytes;
  u64 outlier_bytes;  // packed (varint) size of the outlier section
  // --- v2 fields below; absent from v1 archives ---
  u64 digest_codec;
  u64 digest_outliers;
  u64 digest_value_outliers;
  u64 digest_anchors;
  u64 digest_header;  // digest of this header with this field zeroed
};
#pragma pack(pop)

inline constexpr std::size_t inner_header_v1_bytes =
    sizeof(inner_header) - 5 * sizeof(u64);
static_assert(inner_header_v1_bytes == 152,
              "v1 inner header layout must stay byte-stable");

[[nodiscard]] inline std::size_t inner_header_bytes(u16 version) {
  return version >= 2 ? sizeof(inner_header) : inner_header_v1_bytes;
}

/// Value outliers serialize as (u64 index, f64 value) pairs.
#pragma pack(push, 1)
struct vo_record {
  u64 index;
  f64 value;
};
#pragma pack(pop)

// --- verification policy -------------------------------------------------

/// Decode-side digest verification is on by default; FZMOD_VERIFY=0 opts
/// out at startup, and `set_verify_enabled` is the runtime A/B switch
/// (benches measure the overhead with it, tests exercise both paths).
/// Structural validation is never switchable — only digest comparisons.
/// Atomic: chunk-parallel decoders read this from many streams at once,
/// possibly while a bench thread toggles it.
[[nodiscard]] inline std::atomic<bool>& verify_flag() {
  static std::atomic<bool> on = [] {
    const char* v = std::getenv("FZMOD_VERIFY");
    return !(v && v[0] == '0' && v[1] == '\0');
  }();
  return on;
}

inline void set_verify_enabled(bool on) {
  verify_flag().store(on, std::memory_order_relaxed);
}
[[nodiscard]] inline bool verify_enabled() {
  return verify_flag().load(std::memory_order_relaxed);
}

// --- digests --------------------------------------------------------------

/// Seal a whole-body digest together with the secondary flag, so a bit
/// flip that toggles `secondary` cannot leave a matching digest behind.
[[nodiscard]] inline u64 seal_digest(u64 body_digest, u8 secondary) {
  u8 buf[9];
  std::memcpy(buf, &body_digest, sizeof(body_digest));
  buf[8] = secondary;
  return common::xxhash64(buf, sizeof(buf), 0);
}

/// Digest of a v2 inner header (by value: the self-digest slot is zeroed
/// before hashing).
[[nodiscard]] inline u64 header_digest(inner_header hdr) {
  hdr.digest_header = 0;
  return common::xxhash64(&hdr, sizeof(hdr), 0);
}

// --- outer layer ----------------------------------------------------------

/// Parsed outer header plus the body bytes exactly as stored (the LZ blob
/// when secondary). Structural checks (magic, flag range, padding) happen
/// here unconditionally; digest checks are `verify_outer`'s job.
struct outer_view {
  bool v2 = false;
  bool secondary = false;
  u64 body_digest = 0;
  std::span<const u8> stored_body;
};

[[nodiscard]] inline outer_view parse_outer(std::span<const u8> archive) {
  FZMOD_REQUIRE(archive.size() >= sizeof(outer_header),
                status::corrupt_archive, "archive too small");
  u32 magic;
  std::memcpy(&magic, archive.data(), sizeof(magic));
  outer_view ov;
  if (magic == outer_magic) {
    outer_header h;
    std::memcpy(&h, archive.data(), sizeof(h));
    ov.secondary = h.secondary != 0;
    ov.stored_body = archive.subspan(sizeof(h));
    return ov;
  }
  FZMOD_REQUIRE(magic == outer_magic_v2, status::corrupt_archive,
                "bad archive magic");
  FZMOD_REQUIRE(archive.size() >= sizeof(outer_header_v2),
                status::corrupt_archive, "archive too small");
  outer_header_v2 h;
  std::memcpy(&h, archive.data(), sizeof(h));
  FZMOD_REQUIRE(h.secondary <= 1, status::corrupt_archive,
                "archive: bad secondary flag");
  FZMOD_REQUIRE(h.pad[0] == 0 && h.pad[1] == 0 && h.pad[2] == 0,
                status::corrupt_archive, "archive: nonzero outer padding");
  ov.v2 = true;
  ov.secondary = h.secondary == 1;
  ov.body_digest = h.body_digest;
  ov.stored_body = archive.subspan(sizeof(h));
  return ov;
}

/// Whole-body digest check (v2 + verification on). For secondary archives
/// this hashes the stored LZ blob — i.e. corruption is caught before the
/// LZ decoder ever parses hostile bytes. Plain v2 bodies must carry a
/// zero slot; their coverage comes from the inner digests.
inline void verify_outer(const outer_view& ov) {
  if (!ov.v2 || !verify_enabled()) return;
  if (ov.secondary) {
    FZMOD_REQUIRE(
        seal_digest(kernels::chunked_hash(ov.stored_body), 1) ==
            ov.body_digest,
        status::corrupt_archive, "archive: body digest mismatch");
  } else {
    FZMOD_REQUIRE(ov.body_digest == 0, status::corrupt_archive,
                  "archive: unexpected body digest");
  }
}

// --- inner layer ----------------------------------------------------------

/// Parse the inner header, negotiating v1 vs v2 by the version field (v1
/// reads leave the digest words zero). Rejects unknown versions.
[[nodiscard]] inline inner_header parse_inner(std::span<const u8> body) {
  FZMOD_REQUIRE(body.size() >= inner_header_v1_bytes,
                status::corrupt_archive, "archive body truncated");
  inner_header hdr{};
  std::memcpy(&hdr, body.data(), inner_header_v1_bytes);
  FZMOD_REQUIRE(hdr.magic == inner_magic &&
                    (hdr.version == 1 || hdr.version == archive_version),
                status::corrupt_archive, "bad inner header");
  if (hdr.version >= 2) {
    FZMOD_REQUIRE(body.size() >= sizeof(inner_header),
                  status::corrupt_archive, "archive body truncated");
    std::memcpy(&hdr, body.data(), sizeof(inner_header));
  }
  return hdr;
}

/// Header self-digest check. Runs before any header field (dtype, counts,
/// bounds) is *interpreted*, so a flipped header bit is always reported as
/// corruption rather than as a misleading downstream error.
inline void verify_inner_header(const inner_header& hdr) {
  if (hdr.version < 2 || !verify_enabled()) return;
  FZMOD_REQUIRE(header_digest(hdr) == hdr.digest_header,
                status::corrupt_archive,
                "archive: header digest mismatch");
}

/// Dims validation shared by every decode driver: reject overflowing or
/// zero extents, and bodies too small for their declared element count
/// (no codec packs more than ~8192 values per byte — the Huffman
/// chunk-offset table is the loosest floor).
[[nodiscard]] inline dims3 validate_dims(const inner_header& hdr,
                                         std::size_t body_size) {
  const dims3 dims{hdr.dims[0], hdr.dims[1], hdr.dims[2]};
  FZMOD_REQUIRE(!dims.len_invalid(), status::corrupt_archive,
                "archive dims out of supported range");
  FZMOD_REQUIRE(dims.len() / 8192 <= body_size, status::corrupt_archive,
                "archive too small for its declared dims");
  return dims;
}

/// Anchor geometry validation: a zero stride would loop the anchor walk
/// forever, and a count inconsistent with dims/stride either truncates or
/// overruns the lattice. (Archives without anchors leave both fields
/// meaningless.)
inline void validate_anchor_geometry(const inner_header& hdr, dims3 dims) {
  if (hdr.n_anchors == 0) return;
  FZMOD_REQUIRE(hdr.anchor_stride >= 1, status::corrupt_archive,
                "archive: zero anchor stride");
  const u64 expected = ((dims.x - 1) / hdr.anchor_stride + 1) *
                       ((dims.y - 1) / hdr.anchor_stride + 1) *
                       ((dims.z - 1) / hdr.anchor_stride + 1);
  FZMOD_REQUIRE(hdr.n_anchors == expected, status::corrupt_archive,
                "archive: anchor lattice inconsistent with dims/stride");
}

/// The four payload sections in declaration order.
struct section_view {
  std::span<const u8> codec;
  std::span<const u8> outliers;
  std::span<const u8> value_outliers;
  std::span<const u8> anchors;
};

/// Structural validation of the declared section geometry against the
/// actual body, then slicing. Every plausibility guard fires before any
/// count-sized allocation happens downstream.
[[nodiscard]] inline section_view slice_sections(std::span<const u8> body,
                                                 const inner_header& hdr) {
  FZMOD_REQUIRE(hdr.codec_bytes <= body.size() &&
                    hdr.outlier_bytes <= body.size(),
                status::corrupt_archive, "archive section size overflow");
  FZMOD_REQUIRE(hdr.n_outliers <= hdr.outlier_bytes / 2 + 1,
                status::corrupt_archive, "outlier count implausible");
  FZMOD_REQUIRE(hdr.n_value_outliers <= body.size() / sizeof(vo_record),
                status::corrupt_archive, "value outlier count implausible");
  FZMOD_REQUIRE(hdr.n_anchors <= body.size() / sizeof(i32),
                status::corrupt_archive, "anchor count implausible");
  const u64 vo_bytes = hdr.n_value_outliers * sizeof(vo_record);
  const u64 anchor_bytes = hdr.n_anchors * sizeof(i32);
  const std::size_t hb = inner_header_bytes(hdr.version);
  FZMOD_REQUIRE(body.size() >= hb + hdr.codec_bytes + hdr.outlier_bytes +
                                   vo_bytes + anchor_bytes,
                status::corrupt_archive, "archive payload truncated");
  section_view sv;
  std::size_t off = hb;
  sv.codec = body.subspan(off, hdr.codec_bytes);
  off += hdr.codec_bytes;
  sv.outliers = body.subspan(off, hdr.outlier_bytes);
  off += hdr.outlier_bytes;
  sv.value_outliers = body.subspan(off, vo_bytes);
  off += vo_bytes;
  sv.anchors = body.subspan(off, anchor_bytes);
  return sv;
}

/// Per-section digest check (v2 + verification on). Runs before any
/// section is decoded, so the codec / varint / anchor parsers only ever
/// see bytes that match what the compressor wrote.
inline void verify_sections(const inner_header& hdr,
                            const section_view& sv) {
  if (hdr.version < 2 || !verify_enabled()) return;
  FZMOD_REQUIRE(kernels::chunked_hash(sv.codec) == hdr.digest_codec,
                status::corrupt_archive,
                "archive: codec section digest mismatch");
  FZMOD_REQUIRE(kernels::chunked_hash(sv.outliers) == hdr.digest_outliers,
                status::corrupt_archive,
                "archive: outlier section digest mismatch");
  FZMOD_REQUIRE(
      kernels::chunked_hash(sv.value_outliers) == hdr.digest_value_outliers,
      status::corrupt_archive,
      "archive: value outlier section digest mismatch");
  FZMOD_REQUIRE(kernels::chunked_hash(sv.anchors) == hdr.digest_anchors,
                status::corrupt_archive,
                "archive: anchor section digest mismatch");
}

// --- embedded pipeline spec section ---------------------------------------
//
// v2 archives may carry a trailing section after the anchors: the
// canonical `fzmod::spec` text of the pipeline that wrote them, so a
// consumer can rebuild the exact configuration (modules, radius, knobs)
// from the archive alone. `slice_sections` has always tolerated trailing
// bytes (the forward-compat hook), so archives with the section are
// readable by older parsers and archives without it (v1, pre-spec v2,
// STF-assembled) parse as "no spec". The section is self-delimiting and
// digest-protected:
//
//   spec_section := spec_section_header | len text bytes | u64 digest
//
// where digest = xxhash64(header + text). Structural checks (magic,
// version, exact length) always run; the digest comparison is gated on
// `verify_enabled()` like every other digest. A tail that is nonempty
// but not exactly one well-formed section is corruption — so the
// bit-flip fuzz contract (ANY single flipped bit in a v2 archive throws
// corrupt_archive) extends over the appended bytes.

inline constexpr u32 spec_magic = 0x465a5350;  // "FZSP"
inline constexpr u16 spec_section_version = 1;
/// Specs are one short line; anything bigger is forged.
inline constexpr std::size_t spec_max_bytes = 4096;

#pragma pack(push, 1)
struct spec_section_header {
  u32 magic;    // spec_magic
  u16 version;  // spec_section_version
  u16 len;      // text bytes following the header
};
#pragma pack(pop)

static_assert(sizeof(spec_section_header) == 8,
              "spec section layout must stay byte-stable");

/// Serialize a spec text into a section (header + text + digest).
[[nodiscard]] inline std::vector<u8> build_spec_section(
    std::string_view text) {
  FZMOD_REQUIRE(!text.empty() && text.size() <= spec_max_bytes,
                status::invalid_argument,
                "pipeline spec text must be 1..4096 bytes");
  spec_section_header h{};
  h.magic = spec_magic;
  h.version = spec_section_version;
  h.len = static_cast<u16>(text.size());
  std::vector<u8> out(sizeof(h) + text.size() + sizeof(u64));
  std::memcpy(out.data(), &h, sizeof(h));
  std::memcpy(out.data() + sizeof(h), text.data(), text.size());
  const u64 digest =
      common::xxhash64(out.data(), sizeof(h) + text.size(), 0);
  std::memcpy(out.data() + sizeof(h) + text.size(), &digest,
              sizeof(digest));
  return out;
}

/// The bytes after the last declared section. Defensive about the header
/// fields (inspect_archive calls this without slice_sections' screening):
/// a declared geometry that oversteps the body throws instead of slicing
/// out of bounds.
[[nodiscard]] inline std::span<const u8> section_tail(
    std::span<const u8> body, const inner_header& hdr) {
  u64 used = inner_header_bytes(hdr.version);
  for (const u64 part : {hdr.codec_bytes, hdr.outlier_bytes,
                         hdr.n_value_outliers * sizeof(vo_record),
                         hdr.n_anchors * sizeof(i32)}) {
    used += part;
    FZMOD_REQUIRE(used >= part && used <= body.size(),
                  status::corrupt_archive,
                  "archive: section geometry overruns the body");
  }
  return body.subspan(static_cast<std::size_t>(used));
}

/// Parse a section tail: empty means "no spec" (older archives), a
/// nonempty tail must be exactly one well-formed spec section. Returns
/// the spec text. `check_digest` gates only the digest comparison.
[[nodiscard]] inline std::string parse_spec_section(
    std::span<const u8> tail, bool check_digest) {
  if (tail.empty()) return {};
  FZMOD_REQUIRE(tail.size() >= sizeof(spec_section_header) + sizeof(u64),
                status::corrupt_archive, "archive: truncated spec section");
  spec_section_header h;
  std::memcpy(&h, tail.data(), sizeof(h));
  FZMOD_REQUIRE(h.magic == spec_magic && h.version == spec_section_version,
                status::corrupt_archive, "archive: bad spec section header");
  FZMOD_REQUIRE(h.len >= 1 && h.len <= spec_max_bytes,
                status::corrupt_archive,
                "archive: implausible spec section length");
  FZMOD_REQUIRE(
      tail.size() == sizeof(h) + h.len + sizeof(u64),
      status::corrupt_archive,
      "archive: spec section length inconsistent with the body tail");
  if (check_digest) {
    u64 stored = 0;
    std::memcpy(&stored, tail.data() + sizeof(h) + h.len, sizeof(stored));
    FZMOD_REQUIRE(common::xxhash64(tail.data(), sizeof(h) + h.len, 0) ==
                      stored,
                  status::corrupt_archive,
                  "archive: spec section digest mismatch");
  }
  return std::string(reinterpret_cast<const char*>(tail.data()) + sizeof(h),
                     h.len);
}

// --- varint / outlier packing --------------------------------------------

inline void put_varint(std::vector<u8>& out, u64 v) {
  while (v >= 0x80) {
    out.push_back(static_cast<u8>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<u8>(v));
}

inline u64 get_varint(const u8*& p, const u8* end) {
  u64 v = 0;
  int shift = 0;
  for (;;) {
    FZMOD_REQUIRE(p < end, status::corrupt_archive,
                  "archive: truncated varint");
    const u8 b = *p++;
    // The 10th byte holds bit 63 only: any higher payload bit would be
    // shifted out silently, decoding a different value than was encoded.
    FZMOD_REQUIRE(shift < 63 || (b & 0x7e) == 0, status::corrupt_archive,
                  "archive: varint overflow");
    v |= static_cast<u64>(b & 0x7f) << shift;
    if (!(b & 0x80)) return v;
    shift += 7;
    FZMOD_REQUIRE(shift < 64, status::corrupt_archive,
                  "archive: varint overflow");
  }
}

/// Pack an outlier list compactly: sorted by index, indices delta+varint
/// coded, values zigzag+varint coded (~3-5 bytes per outlier instead of
/// the in-memory 16). At tight bounds on hard data the outlier section
/// dominates the archive, so this matters for Table 3's 1e-6 rows.
/// Span form sorts the caller's storage in place — callers with a
/// reusable scratch list (pipeline hot path) avoid the by-value copy.
inline std::vector<u8> pack_outliers(std::span<kernels::outlier> outliers) {
  std::sort(outliers.begin(), outliers.end(),
            [](const auto& a, const auto& b) { return a.index < b.index; });
  std::vector<u8> out;
  out.reserve(outliers.size() * 4);
  u64 prev = 0;
  for (const auto& o : outliers) {
    put_varint(out, o.index - prev);
    prev = o.index;
    put_varint(out, zigzag_encode64(o.value));
  }
  return out;
}

inline std::vector<u8> pack_outliers(
    std::vector<kernels::outlier> outliers) {
  return pack_outliers(std::span<kernels::outlier>(outliers));
}

// --- v3 chunk container ---------------------------------------------------
//
// Layout (docs/FORMAT.md is normative):
//   container := chunk_header_v3 | chunk archives | directory | u64 dir_digest
// Chunk archives are whole v1/v2 archives of contiguous sub-extents of the
// field, concatenated back-to-back in raw order. The directory trails the
// payload so a streaming compressor can emit chunk archives as they finish
// (their sizes are unknown up front) and still write strictly in order; its
// location is computable from the header alone (fixed entry size, nchunks
// in the header), so readers need no footer.

#pragma pack(push, 1)
/// Fixed-size container header (56 bytes). Every field is known before the
/// first chunk is compressed, so a streaming writer emits it immediately.
struct chunk_header_v3 {
  u32 magic;        // chunk_magic_v3
  u16 version;      // chunk_container_version
  u8 type;          // dtype of the field
  u8 pad;           // must be zero
  u64 dims[3];      // full-field extents
  u64 nchunks;      // >= 2 (single-chunk output bypasses the container)
  u64 chunk_elems;  // nominal elements per chunk (last chunk may be ragged)
  u64 digest_header;  // self-digest with this slot zeroed
};

/// One directory entry (40 bytes). `archive_offset` is relative to the end
/// of the container header, so entries are independent of header size.
struct chunk_dir_entry {
  u64 raw_offset;      // first element of this chunk in the full field
  u64 raw_len;         // elements in this chunk
  u64 archive_offset;  // chunk archive start, bytes past chunk_header_v3
  u64 archive_bytes;   // chunk archive size
  u64 digest;          // chunked_hash of the chunk archive bytes
};
#pragma pack(pop)

static_assert(sizeof(chunk_header_v3) == 56 && sizeof(chunk_dir_entry) == 40,
              "v3 container layout must stay byte-stable");

[[nodiscard]] inline u64 chunk_header_digest(chunk_header_v3 hdr) {
  hdr.digest_header = 0;
  return common::xxhash64(&hdr, sizeof(hdr), 0);
}

/// The one v3 header builder: the chunk scheduler writes it, and the
/// resume salvage compares the on-disk header against it byte for byte.
[[nodiscard]] inline chunk_header_v3 make_chunk_header(dtype type,
                                                       dims3 dims,
                                                       u64 nchunks,
                                                       u64 chunk_elems) {
  chunk_header_v3 h{};
  h.magic = chunk_magic_v3;
  h.version = chunk_container_version;
  h.type = static_cast<u8>(type);
  h.dims[0] = dims.x;
  h.dims[1] = dims.y;
  h.dims[2] = dims.z;
  h.nchunks = nchunks;
  h.chunk_elems = chunk_elems;
  h.digest_header = chunk_header_digest(h);
  return h;
}

/// Cheap dispatch: does this blob carry the v3 container magic? v1/v2
/// archives (and garbage) answer false and flow to the plain parsers.
[[nodiscard]] inline bool is_chunk_container(std::span<const u8> archive) {
  if (archive.size() < sizeof(u32)) return false;
  u32 magic;
  std::memcpy(&magic, archive.data(), sizeof(magic));
  return magic == chunk_magic_v3;
}

// --- trailing directories (v3 and FZMF) ------------------------------------
//
// Both containers end in `entries | u64 dir_digest` with
// dir_digest = chunked_hash(entries); one builder and one reader serve both.

/// Serialize a directory followed by its digest.
template <class Entry>
[[nodiscard]] inline std::vector<u8> build_directory(
    const std::vector<Entry>& entries) {
  const std::size_t dir_bytes = entries.size() * sizeof(Entry);
  std::vector<u8> out(dir_bytes + sizeof(u64));
  std::memcpy(out.data(), entries.data(), dir_bytes);
  const u64 digest =
      kernels::chunked_hash(std::span<const u8>(out.data(), dir_bytes));
  std::memcpy(out.data() + dir_bytes, &digest, sizeof(digest));
  return out;
}

/// Read `count` entries from a directory tail (the entries, then the u64
/// digest) into `out`. Returns whether the digest matched; a mismatch
/// throws instead when `check_digest` is set.
template <class Entry>
inline bool read_directory(std::span<const u8> tail, u64 count,
                           std::vector<Entry>& out, bool check_digest,
                           const char* container) {
  const std::size_t dir_bytes = static_cast<std::size_t>(count) *
                                sizeof(Entry);
  FZMOD_REQUIRE(tail.size() == dir_bytes + sizeof(u64),
                status::corrupt_archive,
                std::string(container) + ": directory truncated");
  u64 stored = 0;
  std::memcpy(&stored, tail.data() + dir_bytes, sizeof(stored));
  const bool ok = kernels::chunked_hash(tail.first(dir_bytes)) == stored;
  FZMOD_REQUIRE(ok || !check_digest, status::corrupt_archive,
                std::string(container) + ": directory digest mismatch");
  out.resize(static_cast<std::size_t>(count));
  std::memcpy(out.data(), tail.data(), dir_bytes);
  return ok;
}

/// Validate that a chunk directory tiles the field contiguously in raw
/// order and tiles a `payload_bytes`-sized payload contiguously — any
/// gap, overlap, or overrun is corruption. The directory digest only
/// detects damage: a forged directory can carry a recomputed digest, and
/// this screening is what keeps its entries from producing an
/// out-of-bounds chunk_archive() slice or reader fetch.
inline void validate_chunk_directory(std::span<const chunk_dir_entry> entries,
                                     u64 field_len, u64 payload_bytes) {
  u64 raw_at = 0, arch_at = 0;
  for (const chunk_dir_entry& e : entries) {
    FZMOD_REQUIRE(e.raw_offset == raw_at && e.raw_len >= 1 &&
                      e.raw_len <= field_len - raw_at,
                  status::corrupt_archive,
                  "chunk container: directory does not tile the field");
    FZMOD_REQUIRE(e.archive_offset == arch_at &&
                      e.archive_bytes <= payload_bytes - arch_at,
                  status::corrupt_archive,
                  "chunk container: directory does not tile the payload");
    raw_at += e.raw_len;
    arch_at += e.archive_bytes;
  }
  FZMOD_REQUIRE(raw_at == field_len && arch_at == payload_bytes,
                status::corrupt_archive,
                "chunk container: directory leaves a tail uncovered");
}

/// Parsed container: header, directory geometry, directory, and (for span
/// parses) the payload region the directory's archive offsets index into.
struct chunk_container_view {
  chunk_header_v3 hdr{};
  dims3 dims;
  u64 payload_bytes = 0;  // between header and directory
  u64 tail_bytes = 0;     // directory entries + u64 directory digest
  /// Header self-digest and directory digest both matched. Always
  /// computed; a mismatch throws only when the parse checks digests.
  bool digests_ok = true;
  std::span<const u8> payload;  // set by parse_chunk_container only
  std::vector<chunk_dir_entry> entries;
};

/// Header step of the v3 parse. Reads the 56-byte header from `head` (the
/// container's leading bytes) and checks it against `container_bytes`:
/// magic, version, padding, self-digest (throws on mismatch when
/// `check_digests`), dtype, dims, chunk count, and room for the directory.
/// Fills everything but the entries and the payload span.
[[nodiscard]] inline chunk_container_view parse_chunk_header(
    std::span<const u8> head, u64 container_bytes, bool check_digests) {
  FZMOD_REQUIRE(container_bytes >= sizeof(chunk_header_v3) &&
                    head.size() >= sizeof(chunk_header_v3),
                status::corrupt_archive, "chunk container too small");
  chunk_container_view cv;
  std::memcpy(&cv.hdr, head.data(), sizeof(cv.hdr));
  FZMOD_REQUIRE(cv.hdr.magic == chunk_magic_v3 &&
                    cv.hdr.version == chunk_container_version,
                status::corrupt_archive, "bad chunk container header");
  FZMOD_REQUIRE(cv.hdr.pad == 0, status::corrupt_archive,
                "chunk container: nonzero padding");
  cv.digests_ok = chunk_header_digest(cv.hdr) == cv.hdr.digest_header;
  FZMOD_REQUIRE(cv.digests_ok || !check_digests, status::corrupt_archive,
                "chunk container: header digest mismatch");
  FZMOD_REQUIRE(cv.hdr.type <= static_cast<u8>(dtype::f64),
                status::corrupt_archive, "chunk container: unknown dtype");
  cv.dims = dims3{cv.hdr.dims[0], cv.hdr.dims[1], cv.hdr.dims[2]};
  FZMOD_REQUIRE(!cv.dims.len_invalid(), status::corrupt_archive,
                "chunk container dims out of supported range");
  FZMOD_REQUIRE(cv.hdr.nchunks >= 1 && cv.hdr.nchunks <= cv.dims.len(),
                status::corrupt_archive,
                "chunk container: implausible chunk count");
  cv.tail_bytes = cv.hdr.nchunks * sizeof(chunk_dir_entry) + sizeof(u64);
  FZMOD_REQUIRE(container_bytes - sizeof(chunk_header_v3) >= cv.tail_bytes,
                status::corrupt_archive,
                "chunk container: directory truncated");
  cv.payload_bytes = container_bytes - sizeof(chunk_header_v3) -
                     cv.tail_bytes;
  return cv;
}

/// Directory step of the v3 parse: `tail` is the container's last
/// `cv.tail_bytes` bytes. Reads the entries, compares the directory digest
/// (throws on mismatch when `check_digests`), and requires the directory
/// to tile the field and the payload. Per-chunk archive digests are the
/// decode driver's job, so it can report *which* chunk is damaged.
inline void parse_chunk_directory(chunk_container_view& cv,
                                  std::span<const u8> tail,
                                  bool check_digests) {
  const bool dir_ok = read_directory(tail, cv.hdr.nchunks, cv.entries,
                                     check_digests, "chunk container");
  cv.digests_ok = cv.digests_ok && dir_ok;
  validate_chunk_directory(cv.entries, cv.dims.len(), cv.payload_bytes);
}

/// Both steps over a memory-resident container. Pass `verify_enabled()`
/// as `check_digests`; verify_chunked passes false and reports
/// `digests_ok` instead.
[[nodiscard]] inline chunk_container_view parse_chunk_container(
    std::span<const u8> archive, bool check_digests) {
  chunk_container_view cv =
      parse_chunk_header(archive, archive.size(), check_digests);
  parse_chunk_directory(cv, archive.last(cv.tail_bytes), check_digests);
  cv.payload = archive.subspan(sizeof(chunk_header_v3), cv.payload_bytes);
  return cv;
}

[[nodiscard]] inline chunk_container_view parse_chunk_container(
    std::span<const u8> archive) {
  return parse_chunk_container(archive, verify_enabled());
}

/// One chunk's archive bytes within a parsed container.
[[nodiscard]] inline std::span<const u8> chunk_archive(
    const chunk_container_view& cv, const chunk_dir_entry& e) {
  return cv.payload.subspan(e.archive_offset, e.archive_bytes);
}

/// Per-chunk archive digest check of a chunk's archive bytes (gated like
/// every digest comparison). Returns false instead of throwing so callers
/// can name the chunk.
[[nodiscard]] inline bool chunk_digest_ok(const chunk_dir_entry& e,
                                          std::span<const u8> chunk_bytes) {
  if (!verify_enabled()) return true;
  return kernels::chunked_hash(chunk_bytes) == e.digest;
}

// --- multi-field container ("FZMF") ----------------------------------------
//
// One archive, many named fields: a dataset snapshot. Layout mirrors the
// v3 container's streaming-friendly design — fixed header first, payload
// as it is produced, directory at the tail so field archive sizes need not
// be known up front (docs/FORMAT.md and docs/STREAMING.md are normative):
//
//   multi := multi_header | field archives | field directory | u64 dir_digest
//
// Each field archive is a complete, self-contained v2 archive or v3 chunk
// container, byte-identical to what a single-field compression of that
// field would produce — `select_field()` hands back a span any existing
// decoder accepts unchanged. Old single-field archives are unaffected:
// every consumer dispatches on the outer magic first, and "FZMF" is a new
// magic, not a change to v1/v2/v3. Two writers share the builders below:
// `core::snapshot_writer` assembles the container in memory, and
// `compress_files_stream` (core/stream_io.hh) streams it to a file.

inline constexpr u32 multi_magic = 0x465a4d46;  // "FZMF"
inline constexpr u16 multi_container_version = 1;
inline constexpr std::size_t multi_name_bytes = 40;  // incl. NUL
/// Field-count ceiling: a directory is read whole before validation, so
/// an implausible count must not drive a giant allocation.
inline constexpr u64 multi_max_fields = 4096;

#pragma pack(push, 1)
/// Fixed-size container header (16 bytes), written before the first field
/// compresses. The field count is known up front (callers pass the full
/// field list); everything variable-length lives in the tail directory.
struct multi_header {
  u32 magic;    // multi_magic
  u16 version;  // multi_container_version
  u16 nfields;  // >= 1
  u64 digest_header;  // self-digest with this slot zeroed
};

/// One field directory entry (96 bytes). `archive_offset` is relative to
/// the end of multi_header, so entries are independent of header size.
struct field_dir_entry {
  char name[multi_name_bytes];  // NUL-terminated, nonempty, unique
  u8 type;                      // dtype of the field
  u8 pad[7];                    // must be zero
  u64 dims[3];                  // field extents
  u64 archive_offset;           // field archive start, bytes past header
  u64 archive_bytes;            // field archive size
  u64 digest;                   // chunked_hash of the field archive bytes
};
#pragma pack(pop)

static_assert(sizeof(multi_header) == 16 && sizeof(field_dir_entry) == 96,
              "multi-field container layout must stay byte-stable");

[[nodiscard]] inline u64 multi_header_digest(multi_header hdr) {
  hdr.digest_header = 0;
  return common::xxhash64(&hdr, sizeof(hdr), 0);
}

/// The one FZMF header builder, shared by both writers.
[[nodiscard]] inline multi_header make_multi_header(std::size_t nfields) {
  FZMOD_REQUIRE(nfields >= 1 && nfields <= multi_max_fields,
                status::invalid_argument,
                "multi-field container: need 1.." +
                    std::to_string(multi_max_fields) + " fields");
  multi_header h{};
  h.magic = multi_magic;
  h.version = multi_container_version;
  h.nfields = static_cast<u16>(nfields);
  h.digest_header = multi_header_digest(h);
  return h;
}

/// The one FZMF entry builder, shared by both writers, which call it
/// before compressing the field. It enforces the field-name rule — 1..39
/// bytes, no NUL (parsers read names as C strings, so an embedded NUL
/// would cut the name short and could collide with another field), unique
/// among `prior` — and the field-count ceiling, throwing invalid_argument.
/// The writer fills archive_offset, archive_bytes and digest once the
/// field's archive exists.
[[nodiscard]] inline field_dir_entry make_field_entry(
    std::string_view name, dtype type, dims3 dims,
    std::span<const field_dir_entry> prior) {
  FZMOD_REQUIRE(!name.empty() && name.size() < multi_name_bytes &&
                    name.find('\0') == std::string_view::npos,
                status::invalid_argument,
                "multi-field container: field names must be 1.." +
                    std::to_string(multi_name_bytes - 1) +
                    " bytes with no NUL");
  FZMOD_REQUIRE(prior.size() < multi_max_fields, status::invalid_argument,
                "multi-field container: more than " +
                    std::to_string(multi_max_fields) + " fields");
  for (const field_dir_entry& e : prior) {
    FZMOD_REQUIRE(std::string_view(e.name) != name, status::invalid_argument,
                  "multi-field container: duplicate field name '" +
                      std::string(name) + "'");
  }
  field_dir_entry e{};
  std::memcpy(e.name, name.data(), name.size());
  e.type = static_cast<u8>(type);
  e.dims[0] = dims.x;
  e.dims[1] = dims.y;
  e.dims[2] = dims.z;
  return e;
}

/// Cheap dispatch: does this blob carry the multi-field magic? Single-
/// field archives (v1/v2/v3) and garbage answer false.
[[nodiscard]] inline bool is_multi_container(std::span<const u8> archive) {
  if (archive.size() < sizeof(u32)) return false;
  u32 magic;
  std::memcpy(&magic, archive.data(), sizeof(magic));
  return magic == multi_magic;
}

/// Validate a field directory against a payload size: names well-formed
/// and unique, dims/dtype plausible, archive extents tiling the payload
/// contiguously, so a forged directory can never slice out of bounds.
inline void validate_field_directory(
    std::span<const field_dir_entry> entries, u64 payload_bytes) {
  u64 arch_at = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const field_dir_entry& e = entries[i];
    const std::size_t nlen =
        ::strnlen(e.name, multi_name_bytes);
    FZMOD_REQUIRE(nlen >= 1 && nlen < multi_name_bytes,
                  status::corrupt_archive,
                  "multi container: field name not NUL-terminated or empty");
    for (const u8 p : e.pad) {
      FZMOD_REQUIRE(p == 0, status::corrupt_archive,
                    "multi container: nonzero entry padding");
    }
    FZMOD_REQUIRE(e.type <= 1, status::corrupt_archive,
                  "multi container: unknown field dtype");
    const dims3 fd{e.dims[0], e.dims[1], e.dims[2]};
    FZMOD_REQUIRE(!fd.len_invalid(), status::corrupt_archive,
                  "multi container: field dims out of supported range");
    FZMOD_REQUIRE(e.archive_offset == arch_at &&
                      e.archive_bytes >= 1 &&
                      e.archive_bytes <= payload_bytes - arch_at,
                  status::corrupt_archive,
                  "multi container: directory does not tile the payload");
    arch_at += e.archive_bytes;
    for (std::size_t j = 0; j < i; ++j) {
      FZMOD_REQUIRE(std::string_view(entries[j].name) !=
                        std::string_view(e.name),
                    status::corrupt_archive,
                    "multi container: duplicate field name");
    }
  }
  FZMOD_REQUIRE(arch_at == payload_bytes, status::corrupt_archive,
                "multi container: directory leaves a tail uncovered");
}

/// Parsed multi-field container: header, directory geometry, directory,
/// and (for span parses) the payload region the directory's archive
/// offsets index into.
struct multi_view {
  multi_header hdr{};
  u64 payload_bytes = 0;  // between header and directory
  u64 tail_bytes = 0;     // directory entries + u64 directory digest
  std::span<const u8> payload;  // set by parse_multi_container only
  std::vector<field_dir_entry> entries;
};

/// Header step of the FZMF parse: reads the 16-byte header from `head`
/// (the container's leading bytes) and checks it against
/// `container_bytes` — magic, version, self-digest (throws on mismatch
/// when `check_digests`), field count, and room for the directory.
[[nodiscard]] inline multi_view parse_multi_header(std::span<const u8> head,
                                                   u64 container_bytes,
                                                   bool check_digests) {
  FZMOD_REQUIRE(container_bytes >= sizeof(multi_header) &&
                    head.size() >= sizeof(multi_header),
                status::corrupt_archive, "multi container too small");
  multi_view mv;
  std::memcpy(&mv.hdr, head.data(), sizeof(mv.hdr));
  FZMOD_REQUIRE(mv.hdr.magic == multi_magic &&
                    mv.hdr.version == multi_container_version,
                status::corrupt_archive, "bad multi container header");
  FZMOD_REQUIRE(!check_digests ||
                    multi_header_digest(mv.hdr) == mv.hdr.digest_header,
                status::corrupt_archive,
                "multi container: header digest mismatch");
  FZMOD_REQUIRE(mv.hdr.nfields >= 1 && mv.hdr.nfields <= multi_max_fields,
                status::corrupt_archive,
                "multi container: implausible field count");
  mv.tail_bytes =
      static_cast<u64>(mv.hdr.nfields) * sizeof(field_dir_entry) +
      sizeof(u64);
  FZMOD_REQUIRE(container_bytes - sizeof(multi_header) >= mv.tail_bytes,
                status::corrupt_archive,
                "multi container: directory truncated");
  mv.payload_bytes = container_bytes - sizeof(multi_header) - mv.tail_bytes;
  return mv;
}

/// Directory step of the FZMF parse: `tail` is the container's last
/// `mv.tail_bytes` bytes. Reads the entries, compares the directory digest
/// (throws on mismatch when `check_digests`), and screens the entries with
/// validate_field_directory. Per-field archive digests are checked on
/// selection, so the caller learns *which* field is damaged.
inline void parse_multi_directory(multi_view& mv, std::span<const u8> tail,
                                  bool check_digests) {
  read_directory(tail, mv.hdr.nfields, mv.entries, check_digests,
                 "multi container");
  validate_field_directory(mv.entries, mv.payload_bytes);
}

/// Both steps over a memory-resident container.
[[nodiscard]] inline multi_view parse_multi_container(
    std::span<const u8> archive, bool check_digests) {
  multi_view mv = parse_multi_header(archive, archive.size(), check_digests);
  parse_multi_directory(mv, archive.last(mv.tail_bytes), check_digests);
  mv.payload = archive.subspan(sizeof(multi_header), mv.payload_bytes);
  return mv;
}

[[nodiscard]] inline multi_view parse_multi_container(
    std::span<const u8> archive) {
  return parse_multi_container(archive, verify_enabled());
}

/// One field's archive bytes within a parsed container.
[[nodiscard]] inline std::span<const u8> field_archive(
    const multi_view& mv, const field_dir_entry& e) {
  return mv.payload.subspan(static_cast<std::size_t>(e.archive_offset),
                            static_cast<std::size_t>(e.archive_bytes));
}

/// Format a container's field names for an error message ("a, b, c").
[[nodiscard]] inline std::string field_name_list(const multi_view& mv) {
  std::string out;
  for (const field_dir_entry& e : mv.entries) {
    if (!out.empty()) out += ", ";
    out += e.name;
  }
  return out;
}

/// Find a field by name; null when absent.
[[nodiscard]] inline const field_dir_entry* find_field(
    const multi_view& mv, std::string_view name) {
  for (const field_dir_entry& e : mv.entries) {
    if (std::string_view(e.name) == name) return &e;
  }
  return nullptr;
}

// The field-selection rule, shared by select_field and
// reader::open_field: a single-field archive requires an empty name
// (naming a field there is a caller error); a multi-field container with
// exactly one field tolerates an empty name; otherwise the name must match
// and errors list what is available. The chosen field's archive digest is
// then checked (gated like every digest) so damage is pinned to the field.

inline void require_no_field_name(std::string_view name) {
  FZMOD_REQUIRE(name.empty(), status::invalid_argument,
                "field selection: archive is single-field; --field only "
                "applies to multi-field containers");
}

[[nodiscard]] inline const field_dir_entry& pick_field(
    const multi_view& mv, std::string_view name) {
  if (name.empty()) {
    FZMOD_REQUIRE(mv.entries.size() == 1, status::invalid_argument,
                  "multi-field archive holds " +
                      std::to_string(mv.entries.size()) +
                      " fields; pick one with --field (available: " +
                      field_name_list(mv) + ")");
    return mv.entries[0];
  }
  const field_dir_entry* e = find_field(mv, name);
  FZMOD_REQUIRE(e != nullptr, status::invalid_argument,
                "multi-field archive: no field named '" + std::string(name) +
                    "' (available: " + field_name_list(mv) + ")");
  return *e;
}

/// `digest()` hashes the field's archive bytes; it only runs when
/// verification is on.
template <class DigestFn>
inline void verify_field_digest(const field_dir_entry& e, DigestFn&& digest) {
  if (!verify_enabled()) return;
  FZMOD_REQUIRE(digest() == e.digest, status::corrupt_archive,
                "multi container: field '" + std::string(e.name) +
                    "' archive digest mismatch");
}

/// One field's archive bytes within a span-parsed container, after the
/// field's digest check.
[[nodiscard]] inline std::span<const u8> checked_field_archive(
    const multi_view& mv, const field_dir_entry& e) {
  const std::span<const u8> fa = field_archive(mv, e);
  verify_field_digest(e, [&] { return kernels::chunked_hash(fa); });
  return fa;
}

/// Resolve a (possibly multi-field) archive span to one field's archive
/// bytes, which any existing v1/v2/v3 decoder accepts unchanged. The
/// returned span aliases `archive`.
[[nodiscard]] inline std::span<const u8> select_field(
    std::span<const u8> archive, std::string_view name) {
  if (!is_multi_container(archive)) {
    require_no_field_name(name);
    return archive;
  }
  const multi_view mv = parse_multi_container(archive);
  return checked_field_archive(mv, pick_field(mv, name));
}

// --- resume journal ("FZR1") ------------------------------------------------
//
// Crash-safe streaming compression writes a sidecar journal next to the
// output (`out + ".fzr"`): a header binding the journal to one exact
// compression configuration, then one appended record per committed
// chunk. After a crash (SIGKILL included), `--resume` replays the journal
// against the partial output file: a record counts only while its
// directory entry is in-range for the file, its per-record digest checks
// out, AND the chunk bytes on disk hash to the entry's digest — so the
// kernel's independent flush ordering of the two files cannot corrupt a
// resume, only shorten the salvaged prefix. Compression restarts from the
// first chunk that fails this validation. The journal is deleted when the
// archive finalizes; its presence marks an interrupted run.

inline constexpr u32 fzr_magic = 0x465a5231;  // "FZR1"
inline constexpr u16 fzr_journal_version = 1;

#pragma pack(push, 1)
/// Fixed-size journal header (64 bytes). `config_digest` hashes the full
/// pipeline identity (canonical spec text + error bound + mode + dtype +
/// dims + chunk_elems): resuming with ANY differing knob must recompress
/// from scratch rather than splice incompatible chunks.
struct fzr_header {
  u32 magic;          // fzr_magic
  u16 version;        // fzr_journal_version
  u8 type;            // dtype of the field
  u8 pad;             // must be zero
  u64 dims[3];        // full-field extents
  u64 nchunks;        // planned chunk count
  u64 chunk_elems;    // nominal elements per chunk
  u64 config_digest;  // pipeline identity digest
  u64 digest_header;  // self-digest with this slot zeroed
};

/// One committed-chunk record (48 bytes). `record_digest` covers the
/// entry seeded with the record's index, so a record replayed at the
/// wrong position fails validation.
struct fzr_record {
  chunk_dir_entry entry;
  u64 record_digest;
};
#pragma pack(pop)

static_assert(sizeof(fzr_header) == 64 && sizeof(fzr_record) == 48,
              "resume journal layout must stay byte-stable");

[[nodiscard]] inline u64 fzr_header_digest(fzr_header hdr) {
  hdr.digest_header = 0;
  return common::xxhash64(&hdr, sizeof(hdr), 0);
}

[[nodiscard]] inline u64 fzr_record_digest(const chunk_dir_entry& e,
                                           u64 index) {
  return common::xxhash64(&e, sizeof(e), index);
}

/// Parse a journal defensively: a damaged or torn journal yields the
/// longest valid record prefix, never an exception — resume then simply
/// salvages less. Returns false only if the header itself is unusable.
struct fzr_view {
  fzr_header hdr{};
  std::vector<chunk_dir_entry> records;  // validated prefix, in order
};

[[nodiscard]] inline bool parse_resume_journal(std::span<const u8> bytes,
                                               fzr_view& out) {
  if (bytes.size() < sizeof(fzr_header)) return false;
  std::memcpy(&out.hdr, bytes.data(), sizeof(out.hdr));
  if (out.hdr.magic != fzr_magic ||
      out.hdr.version != fzr_journal_version || out.hdr.pad != 0 ||
      fzr_header_digest(out.hdr) != out.hdr.digest_header) {
    return false;
  }
  const std::size_t nrec =
      (bytes.size() - sizeof(fzr_header)) / sizeof(fzr_record);
  out.records.reserve(nrec);
  for (std::size_t i = 0; i < nrec && i < out.hdr.nchunks; ++i) {
    fzr_record r;
    std::memcpy(&r, bytes.data() + sizeof(fzr_header) +
                        i * sizeof(fzr_record),
                sizeof(r));
    if (fzr_record_digest(r.entry, i) != r.record_digest) break;
    out.records.push_back(r.entry);
  }
  return true;
}

// --- varint / outlier unpacking (continued) -------------------------------

/// Unpack a delta-coded outlier list. `index_limit` bounds every decoded
/// index (pass the field length): a delta that wraps the u64 accumulator
/// or lands outside the field throws instead of producing an index a
/// scatter loop could write through.
inline std::vector<kernels::outlier> unpack_outliers(
    std::span<const u8> bytes, u64 count, u64 index_limit) {
  std::vector<kernels::outlier> out;
  out.reserve(count);
  const u8* p = bytes.data();
  const u8* end = p + bytes.size();
  u64 prev = 0;
  for (u64 k = 0; k < count; ++k) {
    const u64 delta = get_varint(p, end);
    // prev < index_limit holds inductively, so this also rules out u64
    // wraparound of the accumulated index.
    FZMOD_REQUIRE(delta < index_limit - prev, status::corrupt_archive,
                  "archive: outlier index out of range");
    prev += delta;
    const i64 value = zigzag_decode64(get_varint(p, end));
    out.push_back({prev, value});
  }
  return out;
}

}  // namespace fzmod::core::fmt
