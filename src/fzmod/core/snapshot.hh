// FZModules — in-memory multi-field snapshots.
//
// Simulations dump snapshots of many named fields at once (CESM-ATM: 33
// fields; HACC: 6). A snapshot bundles one compressed archive per field
// into a single blob with random access per field. Each field may use its
// own pipeline configuration — the per-variable tailoring the framework
// exists for.
//
// The blob is the "FZMF" multi-field container (archive_format.hh,
// docs/FORMAT.md), built with the same header, entry and directory
// builders as the streaming writer `compress_files_stream`, so a snapshot
// is readable by `fzmod decompress --field`, `fmt::select_field` and
// `reader::open_field`. Field archives are the self-describing pipeline
// format, so a reader needs no configuration.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fzmod/core/chunked.hh"
#include "fzmod/core/pipeline.hh"
#include "fzmod/core/reader.hh"

namespace fzmod::core {

struct snapshot_entry {
  std::string name;
  dims3 dims;
  dtype type = dtype::f32;
  u64 offset = 0;  // into the snapshot blob
  u64 bytes = 0;   // archive size
};

/// Incrementally compress fields into a snapshot blob.
class snapshot_writer {
 public:
  /// `defaults` is the pipeline used for fields added without an override.
  explicit snapshot_writer(pipeline_config defaults = {});

  /// Compress and append a named f32 field. Names follow the FZMF rule
  /// (1..39 bytes, no NUL, unique), checked before anything is compressed;
  /// a bad name throws status::invalid_argument.
  void add(std::string_view name, std::span<const f32> data, dims3 dims,
           std::optional<pipeline_config> override = std::nullopt);

  /// Opt in to chunk-parallel compression for subsequently added fields:
  /// fields spanning more than one chunk are stored as v3 chunk
  /// containers (read()/verify() handle both forms transparently);
  /// single-chunk fields stay plain v2 archives.
  void set_chunking(chunked_options opt) { chunking_ = opt; }

  [[nodiscard]] std::size_t field_count() const { return dir_.size(); }

  /// Serialize the container. An FZMF container holds at least one field,
  /// so finishing an empty writer throws status::invalid_argument. The
  /// writer can keep adding afterwards (finish is non-destructive).
  [[nodiscard]] std::vector<u8> finish() const;

 private:
  pipeline_config defaults_;
  std::optional<chunked_options> chunking_;
  std::vector<fmt::field_dir_entry> dir_;
  std::vector<std::vector<u8>> archives_;
  u64 payload_bytes_ = 0;
};

/// Random-access reader over a snapshot blob (borrowed; the blob must
/// outlive the reader): a view over the FZMF parse. Opening checks the
/// container's header and directory; reads check the field's directory
/// digest before decoding (both gated like every digest).
class snapshot_reader {
 public:
  explicit snapshot_reader(std::span<const u8> blob);

  [[nodiscard]] const std::vector<snapshot_entry>& entries() const {
    return entries_;
  }
  [[nodiscard]] bool contains(std::string_view name) const;

  /// Decompress one field by name. Throws status::invalid_argument for
  /// unknown names.
  [[nodiscard]] std::vector<f32> read(std::string_view name) const;

  /// Open a seekable reader over one field's archive (LRU chunk cache +
  /// prefetch; see core/reader.hh) — the way to read a sub-extent. The
  /// snapshot blob must outlive the reader, which borrows the field's
  /// archive bytes.
  [[nodiscard]] reader<f32> make_reader(std::string_view name,
                                        reader_options opt = {},
                                        pipeline_config cfg = {}) const;

  /// The raw archive bytes of one field (for re-packing or inspection).
  [[nodiscard]] std::span<const u8> archive(std::string_view name) const;

  /// Integrity-check one field's archive without decoding it (see
  /// core::verify_archive); the field's directory digest folds into
  /// `body_ok`. Throws status::invalid_argument for unknown names,
  /// status::corrupt_archive for structural damage.
  [[nodiscard]] archive_verify_report verify(std::string_view name) const;

  /// Integrity-check every field. Returns true iff all digests match.
  [[nodiscard]] bool verify_all() const;

 private:
  const fmt::field_dir_entry& find(std::string_view name) const;
  fmt::multi_view mv_;
  std::vector<snapshot_entry> entries_;
};

}  // namespace fzmod::core
