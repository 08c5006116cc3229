// FZModules — chunk-parallel driver implementation. See chunked.hh for the
// scheduling model and docs/FORMAT.md for the v3 container layout.

#include "fzmod/core/chunked.hh"

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <map>
#include <mutex>

#include "fzmod/common/env.hh"
#include "fzmod/kernels/chunked_hash.hh"
#include "fzmod/trace/trace.hh"

namespace fzmod::core {

namespace {

template <class T>
[[nodiscard]] dtype dtype_of();
template <>
dtype dtype_of<f32>() {
  return dtype::f32;
}
template <>
dtype dtype_of<f64>() {
  return dtype::f64;
}

/// Decode every chunk of a container into `out` (the full field) across
/// up to `jobs` slots run as pool work (the caller runs one), each with
/// its own stream + pipeline (per-slot scratch, no sharing).
template <class T>
void decode_chunks(const fmt::chunk_container_view& cv,
                   const pipeline_config& cfg, unsigned jobs, T* out) {
  const std::size_t total = cv.entries.size();
  const unsigned nslots =
      static_cast<unsigned>(std::min<std::size_t>(std::max(1u, jobs), total));
  trace::counter("chunked.slots", static_cast<f64>(nslots));

  std::atomic<u64> next{0};
  std::atomic<int> active{0};
  std::atomic<bool> failed{false};
  const auto claim = [&] {
    const u64 i = next.fetch_add(1, std::memory_order_relaxed);
    return failed.load(std::memory_order_relaxed) ? total : i;
  };

  device::runtime::instance().pool().parallel_for(
      nslots, 1, [&](std::size_t, std::size_t) {
        u64 i = claim();
        if (i >= total) return;
        // The slot's working set is built on its first claim. Stream
        // declared last: its dtor drains before the slot's buffers free,
        // so an exception mid-chunk can't strand a queued copy into a
        // block the pool has already rebinned.
        device::buffer<T> dev;
        pipeline<T> pipe(cfg);
        device::stream s;
        for (; i < total; i = claim()) {
          const fmt::chunk_dir_entry& e = cv.entries[i];
          const u64 t0 = trace::enabled() ? trace::now_ns() : 0;
          if (t0) {
            trace::counter(
                "chunked.inflight",
                static_cast<f64>(
                    1 + active.fetch_add(1, std::memory_order_relaxed)));
          }
          try {
            const std::span<const u8> bytes = fmt::chunk_archive(cv, e);
            FZMOD_REQUIRE(fmt::chunk_digest_ok(e, bytes),
                          status::corrupt_archive,
                          "chunk at element " + std::to_string(e.raw_offset) +
                              ": archive digest mismatch");
            dev.ensure(e.raw_len, device::space::device);
            pipe.decompress(bytes, dev, s);
            device::memcpy_async(out + e.raw_offset, dev.data(),
                                 e.raw_len * sizeof(T),
                                 device::copy_kind::d2h, s);
            s.sync();
          } catch (...) {
            if (t0) active.fetch_sub(1, std::memory_order_relaxed);
            failed.store(true, std::memory_order_relaxed);
            throw;  // parallel_for rethrows the first error on the caller
          }
          if (t0) {
            trace::complete("chunked", "dechunk#" + std::to_string(i), t0,
                            trace::now_ns() - t0, 0,
                            static_cast<f64>(e.raw_len));
            trace::counter(
                "chunked.inflight",
                static_cast<f64>(
                    active.fetch_sub(1, std::memory_order_relaxed) - 1));
          }
        }
      });
}

}  // namespace

std::size_t chunked_options::resolve_chunk_elems(std::size_t elem_size) const {
  if (chunk_elems) return chunk_elems;
  std::size_t mb = chunk_mb ? chunk_mb
                            : static_cast<std::size_t>(
                                  common::env_u64("FZMOD_CHUNK_MB", 16));
  if (mb == 0) mb = 16;
  return std::max<std::size_t>(1, mb * (std::size_t{1} << 20) / elem_size);
}

unsigned chunked_options::resolve_jobs() const {
  std::size_t j = jobs ? jobs
                       : static_cast<std::size_t>(
                             common::env_u64("FZMOD_JOBS", 4));
  if (j == 0) j = 1;
  return static_cast<unsigned>(std::min<std::size_t>(j, 64));
}

u64 chunked_options::resolve_stream_mem_bytes() const {
  const u64 mb = stream_mem_mb
                     ? stream_mem_mb
                     : common::env_u64("FZMOD_STREAM_MEM_MB", 0);
  return mb << 20;
}

stream_budget resolve_stream_budget(u64 cap_bytes, u64 chunk_bytes,
                                    unsigned jobs) {
  if (jobs == 0) jobs = 1;
  if (chunk_bytes == 0) chunk_bytes = 1;
  stream_budget b;
  if (cap_bytes == 0) {
    // Uncapped: the legacy shape — window scales with jobs, staging one
    // slot per worker plus a fill-ahead, writer queue bounded only as a
    // slow-disk backstop.
    b.window = 2 * static_cast<u64>(jobs);
    b.workers = jobs;
    b.read_slots = static_cast<u64>(jobs) + 1;
    b.write_bytes = u64{256} << 20;
    return b;
  }
  // Capped: each in-flight chunk is charged 4x its raw bytes; the cap
  // splits C/2 compute window, C/4 read staging, C/4 write queue. The
  // window never exceeds the uncapped 2*jobs (a cap only shrinks), never
  // drops below 1 (a cap smaller than one chunk degrades to serial
  // streaming rather than failing).
  const u64 per_chunk = 4 * chunk_bytes;
  b.window = std::clamp<u64>((cap_bytes / 2) / per_chunk, 1,
                             2 * static_cast<u64>(jobs));
  b.workers = static_cast<unsigned>(
      std::min<u64>(static_cast<u64>(jobs), b.window));
  b.read_slots =
      std::clamp<u64>((cap_bytes / 4) / chunk_bytes, 1, b.window + 1);
  b.write_bytes = std::max<u64>(cap_bytes / 4, u64{1} << 20);
  return b;
}

std::vector<chunk_extent> plan_chunks(dims3 dims, std::size_t chunk_elems) {
  FZMOD_REQUIRE(!dims.len_invalid(), status::invalid_argument,
                "plan_chunks: invalid dims");
  FZMOD_REQUIRE(chunk_elems >= 1, status::invalid_argument,
                "plan_chunks: chunk_elems must be >= 1");
  // Slab unit: whole extents of the slowest-varying dimension, so every
  // chunk is contiguous in memory and a well-formed dims3 field.
  const int r = dims.rank();
  u64 slab = 1, nslabs = dims.x;
  if (r == 3) {
    slab = static_cast<u64>(dims.x) * dims.y;
    nslabs = dims.z;
  } else if (r == 2) {
    slab = dims.x;
    nslabs = dims.y;
  }
  const u64 per = std::max<u64>(1, chunk_elems / slab);
  std::vector<chunk_extent> out;
  out.reserve(static_cast<std::size_t>((nslabs + per - 1) / per));
  for (u64 s0 = 0; s0 < nslabs; s0 += per) {
    const u64 sc = std::min(per, nslabs - s0);
    chunk_extent e;
    e.offset = s0 * slab;
    e.len = sc * slab;
    e.dims = r == 3   ? dims3{dims.x, dims.y, sc}
             : r == 2 ? dims3{dims.x, sc, 1}
                      : dims3{sc, 1, 1};
    out.push_back(e);
  }
  return out;
}

chunked_info inspect_chunked(std::span<const u8> archive) {
  chunked_info info;
  if (!fmt::is_chunk_container(archive)) {
    const archive_info ai = inspect_archive(archive);
    info.chunked = false;
    info.dims = ai.dims;
    info.type = ai.type;
    info.nchunks = 1;
    info.chunk_elems = ai.dims.len();
    return info;
  }
  const fmt::chunk_container_view cv = fmt::parse_chunk_container(archive);
  info.chunked = true;
  info.dims = cv.dims;
  info.type = static_cast<dtype>(cv.hdr.type);
  info.nchunks = cv.hdr.nchunks;
  info.chunk_elems = cv.hdr.chunk_elems;
  info.chunks = cv.entries;
  return info;
}

chunked_verify_report verify_chunked(std::span<const u8> archive) {
  chunked_verify_report rep;
  if (!fmt::is_chunk_container(archive)) {
    chunk_verify_entry e;
    e.index = 0;
    e.digest_ok = true;
    e.inner = verify_archive(archive);
    rep.chunks.push_back(std::move(e));
    return rep;
  }
  // Structural corruption still throws (same contract as verify_archive);
  // digest mismatches — container-level and per-chunk — are reported.
  const fmt::chunk_container_view cv =
      fmt::parse_chunk_container(archive, /*check_digests=*/false);
  rep.container_ok = cv.digests_ok;
  rep.chunks.reserve(cv.entries.size());
  for (u64 i = 0; i < cv.entries.size(); ++i) {
    chunk_verify_entry ce;
    ce.index = i;
    const std::span<const u8> ab = fmt::chunk_archive(cv, cv.entries[i]);
    ce.digest_ok = kernels::chunked_hash(ab) == cv.entries[i].digest;
    ce.inner = verify_archive(ab);
    rep.chunks.push_back(std::move(ce));
  }
  return rep;
}

template <class T>
chunked_pipeline<T>::chunked_pipeline(pipeline_config cfg, chunked_options opt)
    : cfg_(std::move(cfg)), opt_(opt) {
  // Resolve module names once up front so a bad config throws here, not
  // in a chunk slot mid-stream.
  pipeline<T> probe(cfg_);
  (void)probe;
}

template <class T>
std::vector<u8> chunked_pipeline<T>::compress(std::span<const T> data,
                                              dims3 dims) {
  FZMOD_REQUIRE(!dims.len_invalid() && data.size() == dims.len(),
                status::invalid_argument,
                "chunked compress: data size does not match dims");
  std::vector<u8> out;
  compress_stream(
      [&](T* dst, u64 elem_offset, std::size_t n) {
        std::memcpy(dst, data.data() + elem_offset, n * sizeof(T));
      },
      dims,
      [&](std::span<const u8> bytes) {
        out.insert(out.end(), bytes.begin(), bytes.end());
      });
  return out;
}

namespace {

/// Accounted-memory ledger for the streaming peak counter: every byte a
/// streaming compression holds (stage copies, device lattices, finished
/// archives awaiting commit) is added while held; the high-water mark is
/// the `stream.peak_bytes` surface. Lock-free so workers account from
/// any thread.
struct mem_ledger {
  std::atomic<u64> cur{0};
  std::atomic<u64> peak{0};
  void add(u64 n) {
    const u64 c = cur.fetch_add(n, std::memory_order_relaxed) + n;
    u64 p = peak.load(std::memory_order_relaxed);
    while (c > p &&
           !peak.compare_exchange_weak(p, c, std::memory_order_relaxed)) {
    }
  }
  void sub(u64 n) { cur.fetch_sub(n, std::memory_order_relaxed); }
};

}  // namespace

template <class T>
void chunked_pipeline<T>::compress_stream(const source_fn& src, dims3 dims,
                                          const sink_fn& sink) {
  compress_stream(src, dims, sink, stream_progress{});
}

template <class T>
void chunked_pipeline<T>::compress_stream(const source_fn& src, dims3 dims,
                                          const sink_fn& sink,
                                          stream_progress progress) {
  FZMOD_REQUIRE(!dims.len_invalid(), status::invalid_argument,
                "chunked compress: invalid dims");
  const std::size_t chunk_elems = opt_.resolve_chunk_elems(sizeof(T));
  const std::vector<chunk_extent> extents = plan_chunks(dims, chunk_elems);
  const u64 nchunks = extents.size();
  FZMOD_REQUIRE(progress.first_chunk <= nchunks &&
                    progress.committed.size() == progress.first_chunk,
                status::invalid_argument,
                "compress_stream: resume state inconsistent with the plan");

  if (nchunks == 1) {
    FZMOD_REQUIRE(progress.first_chunk == 0, status::invalid_argument,
                  "compress_stream: cannot resume a single-chunk plan");
  }
  if (nchunks == 1) {
    // Single-chunk plan: bypass the container so the output is the plain
    // v2 archive, byte-identical to core::pipeline.
    std::vector<T> field(dims.len());
    src(field.data(), 0, field.size());
    pipeline<T> pipe(cfg_);
    const std::vector<u8> arch =
        pipe.compress(std::span<const T>(field), dims);
    sink(arch);
    return;
  }

  if (progress.emit_header) {
    const fmt::chunk_header_v3 hdr =
        fmt::make_chunk_header(dtype_of<T>(), dims, nchunks, chunk_elems);
    sink(std::span<const u8>(reinterpret_cast<const u8*>(&hdr),
                             sizeof(hdr)));
  }

  // Bounded in-flight window: a slot may only claim chunk c while
  // c < committed + window, so a slow chunk cannot let the finished-but-
  // uncommitted backlog (and therefore memory) grow without bound. With a
  // memory cap (FZMOD_STREAM_MEM_MB) the window shrinks to fit the cap
  // instead of scaling with jobs — resolve_stream_budget is the model.
  const stream_budget budget = resolve_stream_budget(
      opt_.resolve_stream_mem_bytes(),
      static_cast<u64>(chunk_elems) * sizeof(T), opt_.resolve_jobs());
  const u64 window = budget.window;
  const u64 remaining = nchunks - progress.first_chunk;
  const unsigned nslots = static_cast<unsigned>(
      std::min<u64>(budget.workers, std::max<u64>(remaining, 1)));
  trace::counter("chunked.slots", static_cast<f64>(nslots));
  if (progress.io) {
    progress.io->window = window;
    progress.io->workers = nslots;
    progress.io->chunks_total = nchunks;
    progress.io->chunks_resumed = progress.first_chunk;
  }

  struct shared_state {
    std::mutex mu;
    std::condition_variable cv;
    u64 next = 0;       // next chunk index to claim
    u64 committed = 0;  // chunks already pushed to the sink, in order
    u64 arch_at = 0;    // payload bytes emitted so far
    std::map<u64, std::vector<u8>> done;  // finished, awaiting commit
    std::vector<fmt::chunk_dir_entry> entries;
    std::exception_ptr err;
  } sh;
  sh.entries.resize(nchunks);
  sh.next = progress.first_chunk;
  sh.committed = progress.first_chunk;
  for (u64 k = 0; k < progress.first_chunk; ++k) {
    sh.entries[k] = progress.committed[k];
    sh.arch_at += progress.committed[k].archive_bytes;
  }
  mem_ledger ledger;

  // Claim the next chunk once the window admits it; false when no chunk
  // is left or a slot has failed.
  const auto claim = [&](u64& c, u64& inflight) {
    std::unique_lock lk(sh.mu);
    sh.cv.wait(lk, [&] {
      return sh.err || sh.next >= nchunks || sh.next < sh.committed + window;
    });
    if (sh.err || sh.next >= nchunks) return false;
    c = sh.next++;
    inflight = sh.next - sh.committed;  // claimed-but-uncommitted
    return true;
  };

  const auto slot = [&](std::size_t, std::size_t) {
    u64 c = 0;
    u64 inflight = 0;
    if (!claim(c, inflight)) return;
    // Per-slot working set, built on the slot's first claim: the chunk
    // pipelines never share scratch. The stream is declared last so it
    // drains before the slot's buffers free on an exception path.
    device::buffer<T> dev;
    std::vector<T> stage;
    pipeline<T> pipe(cfg_);
    device::stream s;
    do {
      const u64 t0 = trace::enabled() ? trace::now_ns() : 0;
      if (t0) trace::counter("chunked.inflight", static_cast<f64>(inflight));
      const chunk_extent& e = extents[c];
      try {
        // Ledger: the stage copy + device lattice while compressing, plus
        // the finished archive until its commit releases all three.
        ledger.add(2 * e.len * sizeof(T));
        stage.resize(e.len);
        src(stage.data(), e.offset, e.len);
        dev.ensure(e.len, device::space::device);
        device::memcpy_async(dev.data(), stage.data(), e.len * sizeof(T),
                             device::copy_kind::h2d, s);
        std::vector<u8> arch = pipe.compress(dev, e.dims, s);
        ledger.add(arch.size());
        if (t0) {
          trace::complete("chunked", "chunk#" + std::to_string(c), t0,
                          trace::now_ns() - t0, 0, static_cast<f64>(e.len));
        }

        std::unique_lock lk(sh.mu);
        sh.done.emplace(c, std::move(arch));
        // Commit every consecutive finished chunk. Holding the lock
        // through the sink keeps the output strictly ordered; commit work
        // is small next to per-chunk compression.
        for (auto it = sh.done.find(sh.committed);
             it != sh.done.end() && !sh.err;
             it = sh.done.find(sh.committed)) {
          const std::vector<u8> bytes = std::move(it->second);
          sh.done.erase(it);
          const chunk_extent& ce = extents[sh.committed];
          fmt::chunk_dir_entry de;
          de.raw_offset = ce.offset;
          de.raw_len = ce.len;
          de.archive_offset = sh.arch_at;
          de.archive_bytes = bytes.size();
          de.digest = kernels::chunked_hash(bytes);
          sh.entries[sh.committed] = de;
          sh.arch_at += bytes.size();
          sink(bytes);
          if (progress.on_commit) progress.on_commit(sh.committed, de);
          ledger.sub(2 * ce.len * sizeof(T) + bytes.size());
          trace::instant("chunked", "commit", 0,
                         static_cast<f64>(sh.committed));
          ++sh.committed;
        }
        if (t0) {
          trace::counter("chunked.inflight",
                         static_cast<f64>(sh.next - sh.committed));
        }
        sh.cv.notify_all();
      } catch (...) {
        std::lock_guard lk(sh.mu);
        if (!sh.err) sh.err = std::current_exception();
        sh.cv.notify_all();
        return;
      }
    } while (claim(c, inflight));
  };

  // Slots run as pool work: the caller runs one, free workers the others.
  if (remaining > 0) {
    device::runtime::instance().pool().parallel_for(nslots, 1, slot);
  }
  if (sh.err) std::rethrow_exception(sh.err);
  const u64 peak = ledger.peak.load(std::memory_order_relaxed);
  trace::counter("stream.peak_bytes", static_cast<f64>(peak));
  if (progress.io) {
    progress.io->peak_bytes = std::max(progress.io->peak_bytes, peak);
  }

  sink(fmt::build_directory(sh.entries));
}

template <class T>
std::vector<T> chunked_pipeline<T>::decompress(std::span<const u8> archive) {
  if (!fmt::is_chunk_container(archive)) {
    pipeline<T> pipe(cfg_);
    return pipe.decompress(archive);
  }
  const fmt::chunk_container_view cv = fmt::parse_chunk_container(archive);
  FZMOD_REQUIRE(cv.hdr.type == static_cast<u8>(dtype_of<T>()),
                status::invalid_argument,
                "chunk container holds a different dtype");
  std::vector<T> out(cv.dims.len());
  decode_chunks<T>(cv, cfg_, opt_.resolve_jobs(), out.data());
  return out;
}

template <class T>
std::vector<T> decompress_any(std::span<const u8> archive,
                              const chunked_options& opt) {
  chunked_pipeline<T> p(pipeline_config{}, opt);
  return p.decompress(archive);
}

template class chunked_pipeline<f32>;
template class chunked_pipeline<f64>;
template std::vector<f32> decompress_any<f32>(std::span<const u8>,
                                              const chunked_options&);
template std::vector<f64> decompress_any<f64>(std::span<const u8>,
                                              const chunked_options&);

}  // namespace fzmod::core
