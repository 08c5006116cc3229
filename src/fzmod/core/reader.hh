// FZModules — seekable reader: the serving-side view of a compressed field
// and the library's one random-access engine (`fzmod decompress --range`,
// snapshot_reader::make_reader and the reader bench all read through it).
// A read-heavy consumer (visualization slicing a field, a query engine
// fetching extents) needs to parse once, cache decoded chunks, and
// predict what gets read next. This reader is that primitive, shaped
// after rapidgzip's ParallelGzipReader / chunk-fetcher split:
//
//   - **open once** — the container's own trailing chunk directory is
//     parsed and validated exactly once per reader, by the same header and
//     directory steps a span parse runs (archive_format.hh). Every open
//     (span, span + field name, byte_source, open_field) takes that one
//     path, and a streaming open of a container fetches only those bytes;
//   - **LRU chunk cache** — decoded chunks are kept under a byte budget
//     (`reader_options::cache_bytes` / `FZMOD_READER_CACHE_MB`), keyed by
//     chunk id; repeated or overlapping reads hit memory instead of the
//     decoder;
//   - **N-way prefetcher** — each read predicts the next chunks from its
//     access pattern (sequential or strided at chunk granularity) and
//     decodes them speculatively as device-pool jobs, at most `jobs` at
//     once (`reader_options::prefetch` / `FZMOD_READER_PREFETCH`), so a
//     scan streams at decode throughput without ever blocking on a cold
//     chunk;
//   - **decodes on the pool, no threads of its own** — a demand miss
//     decodes on the thread that asked for it, as pool work, so its stream
//     ops run in place: one `parallel_for` over up to `jobs` slots (the
//     chunk scheduler's shape: one pipeline + one stream + one device
//     buffer each, built per call), the caller running one. A read that
//     finds its chunk queued for speculation but not started decodes it
//     itself, so no read waits on work queued behind it.
//
// Reads are byte-identical to the same slice of a full decompress; plain
// v1/v2 archives open as one implicit chunk, after their sealed body
// digest is checked (before any LZ parse of the body). Under
// FZMOD_TRACE=1 every read emits a span and cumulative
// `reader.cache.{hit,miss,evict}` / `reader.prefetch.{issued,used,wasted}`
// counters, and a container open emits an `open.dirscan` instant —
// docs/OBSERVABILITY.md documents the surface, docs/RUNTIME.md the knobs.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "fzmod/core/chunked.hh"

namespace fzmod::core {

/// Reader knobs. Zero (or -1 for prefetch) means "resolve from the
/// environment, then fall back to the default".
struct reader_options {
  /// Decoded-chunk budget in bytes; 0 takes FZMOD_READER_CACHE_MB (MiB).
  std::size_t cache_bytes = 0;
  int prefetch = -1;   ///< chunks to decode ahead; 0 disables speculation
  /// Decode concurrency: slots a multi-chunk miss decodes on (the reading
  /// thread runs one), and prefetch jobs in flight at once.
  unsigned jobs = 0;

  [[nodiscard]] std::size_t resolve_cache_bytes() const;
  [[nodiscard]] unsigned resolve_prefetch() const;
  [[nodiscard]] unsigned resolve_jobs() const;
};

/// Cumulative per-reader counters (a value snapshot; see stats()).
/// Cache hits/misses count per covering chunk, not per read() call.
struct reader_stats {
  u64 reads = 0;            ///< read() / cursor-step calls served
  u64 hits = 0;             ///< covering chunk was cached or in flight
  u64 misses = 0;           ///< covering chunk needed a demand decode
  u64 evictions = 0;        ///< chunks dropped to fit the byte budget
  u64 prefetch_issued = 0;  ///< speculative decodes enqueued
  u64 prefetch_used = 0;    ///< speculative chunks later consumed by a read
  u64 prefetch_wasted = 0;  ///< speculative chunks evicted unconsumed

  [[nodiscard]] f64 hit_rate() const {
    const u64 total = hits + misses;
    return total ? static_cast<f64>(hits) / static_cast<f64>(total) : 0.0;
  }
};

template <class T>
class reader {
 public:
  /// Pull `n` container bytes starting at byte `offset` into `dst`.
  /// Called on the reading thread for a demand miss and on pool workers
  /// (prefetch jobs, a multi-chunk miss's other slots), possibly
  /// concurrently for disjoint ranges — sources must be thread-safe for
  /// reads. Never called once the reader's destructor has returned.
  using byte_source =
      std::function<void(u8* dst, u64 offset, std::size_t n)>;

  /// Open a memory-resident container (borrowed; must outlive the
  /// reader). Accepts v3 containers and plain v1/v2 archives (one
  /// implicit chunk).
  explicit reader(std::span<const u8> archive, reader_options opt = {},
                  pipeline_config cfg = {});

  /// Open one named field of a (possibly multi-field) archive. Selection
  /// follows fmt::select_field: single-field archives require an empty
  /// name, a one-field container tolerates one, and errors list what is
  /// available. The selected span aliases `archive`.
  reader(std::span<const u8> archive, std::string_view field,
         reader_options opt = {}, pipeline_config cfg = {});

  /// Open a streaming source of `container_bytes` total bytes (a file a
  /// reader must not map whole, a remote object). Only the directory and
  /// the chunks a read touches are ever fetched.
  reader(byte_source src, u64 container_bytes, reader_options opt = {},
         pipeline_config cfg = {});

  /// Streaming-source analogue of the field-selecting open: for a
  /// multi-field container only the 16-byte header and the tail directory
  /// are fetched up front (plus, when digests are enabled, one streaming
  /// hash of the selected field), then the reader sees the field archive
  /// through an offset view of `src` — the other fields are never read.
  [[nodiscard]] static reader open_field(byte_source src,
                                         u64 container_bytes,
                                         std::string_view field,
                                         reader_options opt = {},
                                         pipeline_config cfg = {});

  reader(reader&&) noexcept;
  reader& operator=(reader&&) noexcept;
  reader(const reader&) = delete;
  reader& operator=(const reader&) = delete;
  /// Waits only for prefetch decodes already running; queued ones are
  /// dropped. Safe to run from pool work.
  ~reader();

  [[nodiscard]] dims3 dims() const;
  [[nodiscard]] u64 size() const;     ///< field length in elements
  [[nodiscard]] u64 nchunks() const;

  /// Read `elem_count` elements starting at `elem_offset`. Byte-identical
  /// to the same slice of a full decompress. Zero-length and out-of-range
  /// requests throw invalid_argument before any decode. A damaged covering
  /// chunk throws corrupt_archive naming the chunk — and keeps throwing on
  /// retry; chunks the range does not cover are never read, so damage
  /// elsewhere is invisible.
  [[nodiscard]] std::vector<T> read(u64 elem_offset, u64 elem_count);

  /// One decoded chunk's worth of a cursor walk: `data` is the chunk's
  /// intersection with the requested range, `offset` its position in the
  /// field. The span stays valid until the next next()/destruction.
  struct chunk_view {
    u64 index = 0;   ///< chunk id
    u64 offset = 0;  ///< first field element of `data`
    std::span<const T> data;
  };

  /// Forward cursor over the chunks covering a range: decodes one chunk
  /// per step (prefetching ahead), so walking a huge extent holds one
  /// chunk plus the prefetch window instead of the whole range.
  class chunk_cursor {
   public:
    /// Advance to the next covering chunk. Returns false when done.
    [[nodiscard]] bool next(chunk_view& out);

   private:
    friend class reader;
    chunk_cursor(reader& r, u64 lo, u64 hi, std::size_t first_chunk);
    reader* r_;
    u64 lo_, hi_;
    std::size_t at_;  // next chunk id to decode
    std::shared_ptr<const T[]> held_;  // keeps the span alive
  };

  /// Cursor over the chunks covering [elem_offset, elem_offset +
  /// elem_count). Range validation matches read().
  [[nodiscard]] chunk_cursor chunks(u64 elem_offset, u64 elem_count);

  /// Snapshot of the cumulative counters (thread-safe value copy).
  [[nodiscard]] reader_stats stats() const;

 private:
  struct impl;
  std::shared_ptr<const T[]> fetch_chunk(std::size_t id);
  // Shared with queued prefetch jobs, which outlive the reader harmlessly:
  // the destructor waits only for decodes already running.
  std::shared_ptr<impl> impl_;
};

}  // namespace fzmod::core

namespace fzmod {
using core::reader;
using core::reader_options;
using core::reader_stats;
}  // namespace fzmod
