// FZModules — chunk-parallel execution layer (the rapidgzip-shaped driver).
//
// Both classic drivers (`core::pipeline`, `core::stf_pipeline`) process a
// field as one monolithic unit: one stream, stages serialized along the
// critical path, peak memory proportional to the field. This driver slices
// the field into independent chunks, runs every chunk through the full
// predict→quantize→encode→secondary pipeline on its own `device::stream`
// (each slot drawing scratch from the caching memory pool), and overlaps
// stages *across* chunks through a bounded in-flight window — chunk B
// predicts while chunk A Huffman-encodes. The output is the v3 chunk
// container (archive_format.hh / docs/FORMAT.md), which buys three things
// block-parallel codecs like rapidgzip and indexed_bzip2 demonstrate:
//
//   (a) parallel decompression — chunks decode concurrently on their own
//       streams;
//   (b) random access — `core::reader` (core/reader.hh) reads a sub-extent
//       touching only the chunks that cover it;
//   (c) streaming compression — `compress_stream()` holds at most the
//       in-flight window of chunks in memory, so inputs larger than
//       memory compress through a source/sink pair.
//
// Chunks are whole slabs of the slowest-varying dimension (x-y planes of a
// 3-D field, rows of a 2-D field, element runs of a 1-D field), so every
// chunk is a contiguous linear range AND a well-formed dims3 field — the
// predictor keeps its full dimensionality inside a chunk and only loses
// cross-chunk prediction at slab boundaries. A relative error bound
// resolves per chunk against the chunk's own value range, which is at most
// the field's range: every chunk therefore satisfies the field-level bound.
//
// Slots are pool work, not threads of their own: a call runs its `jobs`
// slots through `thread_pool::parallel_for`, so the caller runs one and
// free pool workers run the others (at most pool size + 1 at once). A slot
// builds its pipeline, stream and buffers when it claims its first chunk
// and drops them when the call returns; its stream ops run in place on the
// slot's thread (device/runtime.hh), so kernels never wait for a worker.
//
// When the plan yields a single chunk the container is bypassed entirely
// and the output is the standard v2 archive, byte-identical to
// `core::pipeline` — existing readers and tests see no difference.
//
// Under FZMOD_TRACE=1 the scheduler emits per-chunk "chunk#N"/"dechunk#N"
// spans, commit instants, and "chunked.inflight" window-occupancy counter
// samples (docs/OBSERVABILITY.md) — the trace summary's occupancy line is
// how the bounded window is observed in practice.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "fzmod/core/archive_format.hh"
#include "fzmod/core/pipeline.hh"

namespace fzmod::core {

/// Chunking/scheduling knobs. Zero means "resolve from the environment,
/// then fall back to the default": FZMOD_CHUNK_MB (default 16) sizes
/// chunks, FZMOD_JOBS (default 4) bounds concurrent streams. The explicit
/// element override wins over the byte knob (tests use it to force ragged
/// tails and 1-element chunks).
struct chunked_options {
  std::size_t chunk_mb = 0;     // nominal chunk size in MiB
  std::size_t chunk_elems = 0;  // explicit element override (wins)
  unsigned jobs = 0;            // max concurrent per-chunk streams
  /// Peak-memory cap for streaming compression in MiB (FZMOD_STREAM_MEM_MB;
  /// 0 = uncapped). When set, the in-flight window is throttled to fit the
  /// cap instead of scaling with `jobs` — see docs/STREAMING.md.
  std::size_t stream_mem_mb = 0;

  [[nodiscard]] std::size_t resolve_chunk_elems(std::size_t elem_size) const;
  [[nodiscard]] unsigned resolve_jobs() const;
  [[nodiscard]] u64 resolve_stream_mem_bytes() const;
};

/// Resolved streaming-memory plan. The budget model charges each in-flight
/// chunk ~4x its raw bytes (staging slot, host stage copy, device lattice,
/// compressed output) and splits a cap C as C/2 compute window, C/4 read
/// staging, C/4 write queue; docs/STREAMING.md derives the arithmetic.
/// Pure function of its inputs so tests pin the semantics directly.
struct stream_budget {
  u64 window = 0;       // max claimed-but-uncommitted chunks
  unsigned workers = 0; // chunk slots (run as pool work)
  u64 read_slots = 0;   // staging buffers the file source fills ahead
  u64 write_bytes = 0;  // writer queue byte budget
};

[[nodiscard]] stream_budget resolve_stream_budget(u64 cap_bytes,
                                                  u64 chunk_bytes,
                                                  unsigned jobs);

/// Cumulative counters for one streaming-compression run, filled by the
/// scheduler and the file IO threads (core/stream_io.hh). The stall
/// counters also surface as `stream.stall.{read,write}` trace counters
/// and the accounted peak as `stream.peak_bytes` (docs/OBSERVABILITY.md).
struct stream_io_stats {
  u64 window = 0;          // resolved in-flight window
  unsigned workers = 0;    // resolved chunk slots
  u64 read_slots = 0;      // resolved staging depth
  u64 chunks_total = 0;    // planned chunks
  u64 chunks_resumed = 0;  // chunks salvaged from a prior interrupted run
  u64 read_stalls = 0;     // consumer waits on an unfilled staging slot
  u64 write_stalls = 0;    // sink waits on a full writer queue
  u64 bytes_read = 0;      // raw field bytes pulled from the source
  u64 bytes_written = 0;   // archive bytes pushed to the sink
  u64 peak_bytes = 0;      // accounted peak of scheduler+staging+queue
};

/// One planned chunk: a contiguous element range plus the dims3 shape the
/// per-chunk pipeline sees.
struct chunk_extent {
  u64 offset = 0;  // first element in the full field
  u64 len = 0;     // element count
  dims3 dims;      // chunk shape (slab-aligned)
};

/// Slab-aligned chunk plan for a field. Chunks cover [0, dims.len())
/// contiguously; all but the last hold the same whole number of slabs.
[[nodiscard]] std::vector<chunk_extent> plan_chunks(dims3 dims,
                                                    std::size_t chunk_elems);

/// Container introspection without decoding. For v1/v2 archives reports
/// one implicit chunk covering the whole field (`chunked == false`).
struct chunked_info {
  bool chunked = false;
  dims3 dims;
  dtype type = dtype::f32;
  u64 nchunks = 1;
  u64 chunk_elems = 0;
  std::vector<fmt::chunk_dir_entry> chunks;  // empty for v1/v2
};

[[nodiscard]] chunked_info inspect_chunked(std::span<const u8> archive);

/// verify_archive's container analogue: per-chunk digest + inner report.
struct chunk_verify_entry {
  u64 index = 0;
  bool digest_ok = true;             // directory-level archive digest
  archive_verify_report inner;       // the chunk archive's own digests
  [[nodiscard]] bool ok() const { return digest_ok && inner.ok(); }
};

struct chunked_verify_report {
  bool container_ok = true;  // header/directory digests + structure
  std::vector<chunk_verify_entry> chunks;
  [[nodiscard]] bool ok() const {
    if (!container_ok) return false;
    for (const auto& c : chunks) {
      if (!c.ok()) return false;
    }
    return true;
  }
};

/// Check every digest a v3 container carries (and, per chunk, every digest
/// the chunk archive carries) without decoding payloads. Works on v1/v2
/// archives too — the report then holds one entry wrapping verify_archive.
[[nodiscard]] chunked_verify_report verify_chunked(
    std::span<const u8> archive);

template <class T>
class chunked_pipeline {
 public:
  /// Pull `n` elements starting at `elem_offset` into `dst`. Called from
  /// chunk slots (the caller and pool workers), possibly concurrently for
  /// different chunks: sources must be safe for concurrent reads of
  /// disjoint ranges.
  using source_fn =
      std::function<void(T* dst, u64 elem_offset, std::size_t n)>;
  /// Ordered output writer: receives the container bytes front to back.
  using sink_fn = std::function<void(std::span<const u8>)>;

  explicit chunked_pipeline(pipeline_config cfg, chunked_options opt = {});

  /// Compress a host-resident field. Single-chunk plans return the plain
  /// v2 archive (byte-identical to core::pipeline); larger fields return
  /// the v3 container.
  [[nodiscard]] std::vector<u8> compress(std::span<const T> data,
                                         dims3 dims);

  /// Streaming compression: chunks are pulled from `src` on demand (at
  /// most the in-flight window is resident) and container bytes are pushed
  /// to `sink` strictly in order. On error the sink's output is invalid.
  void compress_stream(const source_fn& src, dims3 dims,
                       const sink_fn& sink);

  /// Resume/observability hooks for the out-of-core driver
  /// (core/stream_io.hh). Compression starts at chunk `first_chunk` with
  /// `committed` holding the directory entries of chunks [0, first_chunk)
  /// salvaged from a prior run; the final directory covers both. The
  /// header is suppressed when resuming (it is already on disk).
  struct stream_progress {
    u64 first_chunk = 0;
    std::vector<fmt::chunk_dir_entry> committed;
    /// Called under the commit lock, after the sink, once per chunk in
    /// commit order — the resume journal append point.
    std::function<void(u64 index, const fmt::chunk_dir_entry&)> on_commit;
    bool emit_header = true;
    stream_io_stats* io = nullptr;  // optional counter sink
  };

  /// Streaming compression with resume + counters. The plain overload is
  /// equivalent to a default-constructed progress. Requires a multi-chunk
  /// plan when first_chunk > 0 (single-chunk outputs have no directory to
  /// splice into).
  void compress_stream(const source_fn& src, dims3 dims,
                       const sink_fn& sink, stream_progress progress);

  /// Decompress any archive version: v3 containers decode chunk-parallel,
  /// v1/v2 delegate to core::pipeline.
  [[nodiscard]] std::vector<T> decompress(std::span<const u8> archive);

  [[nodiscard]] const pipeline_config& config() const { return cfg_; }
  [[nodiscard]] const chunked_options& options() const { return opt_; }

 private:
  pipeline_config cfg_;
  chunked_options opt_;
};

/// Version-agnostic one-shot decode (snapshot/CLI entry point): v3 chunk
/// containers and plain v1/v2 archives both come back as the full field.
template <class T>
[[nodiscard]] std::vector<T> decompress_any(std::span<const u8> archive,
                                            const chunked_options& opt = {});

}  // namespace fzmod::core
