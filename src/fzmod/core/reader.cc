// FZModules — seekable reader implementation. See reader.hh for the model:
// one parse of the container's trailing directory per open, an LRU cache
// of decoded chunks under a byte budget, and an N-way stride prefetcher
// feeding a bounded worker pool. All shared state lives under one mutex;
// decoded chunks publish as immutable shared_ptrs, so copies out of the
// cache run outside the lock.

#include "fzmod/core/reader.hh"

#include <condition_variable>
#include <cstring>
#include <deque>
#include <list>
#include <mutex>
#include <thread>
#include <unordered_map>

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

/// Element-range validation for read() and chunks(). Runs BEFORE any
/// decode work: a malformed request must fail as invalid_argument with the
/// numbers in the message — never cost a decode first, and never get
/// masked by a corruption error from a chunk the request should not have
/// touched. Zero-length ranges are rejected (a serving read of nothing is
/// a caller bug), as is an offset at or past the field end. The
/// subtraction form of the end check is immune to elem_offset + elem_count
/// wrapping u64.
void require_range(u64 elem_offset, u64 elem_count, u64 field_len,
                   const char* who) {
  FZMOD_REQUIRE(elem_count >= 1, status::invalid_argument,
                std::string(who) + ": zero-length range at offset " +
                    std::to_string(elem_offset));
  FZMOD_REQUIRE(elem_offset < field_len, status::invalid_argument,
                std::string(who) + ": offset " +
                    std::to_string(elem_offset) +
                    " is at or past the field end (" +
                    std::to_string(field_len) + " elements)");
  FZMOD_REQUIRE(elem_count <= field_len - elem_offset,
                status::invalid_argument,
                std::string(who) + ": range [" +
                    std::to_string(elem_offset) + ", " +
                    std::to_string(elem_offset) + "+" +
                    std::to_string(elem_count) +
                    ") overruns the field (" + std::to_string(field_len) +
                    " elements)");
}

/// Pull `len` bytes at `off` from a byte source into a fresh buffer.
template <class Src>
[[nodiscard]] std::vector<u8> fetch_bytes(const Src& src, u64 off, u64 len) {
  std::vector<u8> out(static_cast<std::size_t>(len));
  if (len) src(out.data(), off, out.size());
  return out;
}

}  // namespace

std::size_t reader_options::resolve_cache_bytes() const {
  if (cache_bytes) return cache_bytes;
  const u64 mb = common::env_u64("FZMOD_READER_CACHE_MB", 256);
  return static_cast<std::size_t>(std::max<u64>(mb, 1)) << 20;
}

unsigned reader_options::resolve_prefetch() const {
  const u64 ways =
      prefetch >= 0 ? static_cast<u64>(prefetch)
                    : common::env_u64("FZMOD_READER_PREFETCH", 2);
  return static_cast<unsigned>(std::min<u64>(ways, 64));
}

unsigned reader_options::resolve_jobs() const {
  std::size_t j = jobs ? jobs
                       : static_cast<std::size_t>(
                             common::env_u64("FZMOD_JOBS", 4));
  if (j == 0) j = 1;
  return static_cast<unsigned>(std::min<std::size_t>(j, 64));
}

template <class T>
struct reader<T>::impl {
  // --- immutable after open ------------------------------------------------
  pipeline_config cfg;
  std::size_t cache_budget = 0;
  unsigned ways = 0;
  unsigned njobs = 1;
  byte_source fetch;        // unified byte access (span or stream)
  u64 total_bytes = 0;      // container size
  bool plain = false;       // v1/v2 archive: one implicit chunk, no digest
  dims3 fdims;
  u64 n = 0;                // field elements
  u64 payload_off = 0;      // byte offset of the chunk payload region
  /// The v3 header and directory (no payload span: bytes are fetched);
  /// a plain archive holds just its one implicit entry.
  fmt::chunk_container_view cv;

  // --- shared state (everything below lives under `mu`) --------------------
  struct entry {
    std::shared_ptr<const std::vector<T>> data;  // null while decoding
    std::exception_ptr err;   // sticky decode failure
    bool ready = false;
    bool speculative = false;  // prefetched, not yet consumed by a read
    unsigned pinned = 0;       // reads waiting on it (blocks eviction)
    bool in_lru = false;
    std::list<std::size_t>::iterator lru_it{};
  };

  std::mutex mu;
  std::condition_variable cv_ready;  // an entry became ready
  std::condition_variable cv_work;   // a queue became nonempty / shutdown
  std::unordered_map<std::size_t, entry> cache;
  std::list<std::size_t> lru;  // front = most recently used
  std::size_t cached_bytes = 0;
  std::deque<std::size_t> demand_q;    // served first
  std::deque<std::size_t> prefetch_q;  // speculation, served when idle
  bool shutdown = false;
  reader_stats st;
  bool have_prev = false;     // stride predictor state
  std::size_t prev_first = 0;
  i64 last_delta = 0;

  std::vector<std::thread> workers;

  ~impl() {
    {
      std::lock_guard lk(mu);
      shutdown = true;
    }
    cv_work.notify_all();
    for (auto& w : workers) w.join();
  }

  // --- open ----------------------------------------------------------------

  void open(const reader_options& opt) {
    cache_budget = opt.resolve_cache_bytes();
    ways = opt.resolve_prefetch();
    njobs = opt.resolve_jobs();
    // Resolve module names up front so a bad config throws here, not on a
    // worker thread mid-read (same contract as chunked_pipeline).
    pipeline<T> probe(cfg);
    (void)probe;

    const std::vector<u8> head = fetch_bytes(
        fetch, 0, std::min<u64>(total_bytes, sizeof(fmt::chunk_header_v3)));
    const dtype type = fmt::is_chunk_container(head)
                           ? open_container(head)
                           : open_plain();
    FZMOD_REQUIRE(type == dtype_of<T>(), status::invalid_argument,
                  "reader: archive holds a different dtype");
    workers.reserve(njobs);
    for (unsigned w = 0; w < njobs; ++w) {
      workers.emplace_back([this] { worker(); });
    }
  }

  /// v3 container open: the header step over the fetched header, then the
  /// directory step over the fetched tail. Returns the field's dtype.
  dtype open_container(std::span<const u8> head) {
    const bool verify = fmt::verify_enabled();
    cv = fmt::parse_chunk_header(head, total_bytes, verify);
    fmt::parse_chunk_directory(
        cv, fetch_bytes(fetch, total_bytes - cv.tail_bytes, cv.tail_bytes),
        verify);
    fdims = cv.dims;
    n = fdims.len();
    payload_off = sizeof(fmt::chunk_header_v3);
    trace::instant("reader", "open.dirscan");
    return static_cast<dtype>(cv.hdr.type);
  }

  /// v1/v2 archive: the whole archive is one implicit chunk. Streaming
  /// sources are materialized (plain archives are not the huge-container
  /// case the streaming open exists for). Returns the field's dtype.
  dtype open_plain() {
    const std::vector<u8> whole = fetch_bytes(fetch, 0, total_bytes);
    // The sealed whole-body digest comes first: inspect_archive LZ-parses
    // a secondary body, and the LZ parser must only see verified bytes.
    fmt::verify_outer(fmt::parse_outer(whole));
    const archive_info ai = inspect_archive(whole);
    plain = true;
    fdims = ai.dims;
    n = fdims.len();
    payload_off = 0;
    fmt::chunk_dir_entry e{};
    e.raw_len = n;
    e.archive_bytes = total_bytes;
    // e.digest stays 0: the inner archive carries its own digests.
    cv.entries.push_back(e);
    return ai.type;
  }

  // --- cache machinery (all *_locked methods require `mu`) -----------------

  [[nodiscard]] std::size_t find_chunk(u64 elem) const {
    std::size_t at = 0;
    // Entries tile the field contiguously; binary search the run start.
    std::size_t lo = 0, hi = cv.entries.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (cv.entries[mid].raw_offset + cv.entries[mid].raw_len <= elem) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    at = lo;
    return at;
  }

  /// Record interest in a chunk. Demand requests pin the entry (the
  /// caller must wait_locked or unpin it) and count hit/miss; speculative
  /// requests only enqueue if the chunk is absent.
  void request_locked(std::size_t id, bool demand) {
    auto it = cache.find(id);
    if (it != cache.end()) {
      entry& e = it->second;
      if (demand) {
        ++st.hits;
        ++e.pinned;
        if (e.speculative) {
          e.speculative = false;
          ++st.prefetch_used;
        }
        if (e.in_lru) lru.splice(lru.begin(), lru, e.lru_it);
      }
      return;
    }
    if (!demand) {
      entry e;
      e.speculative = true;
      cache.emplace(id, std::move(e));
      prefetch_q.push_back(id);
      ++st.prefetch_issued;
      return;
    }
    ++st.misses;
    entry e;
    e.pinned = 1;
    cache.emplace(id, std::move(e));
    demand_q.push_back(id);
  }

  /// Stride predictor: speculate only on a confirmed pattern (two equal
  /// consecutive first-chunk deltas), plus plain sequential-ahead on the
  /// very first read — random access then costs nothing, scans prefetch
  /// from the second read onward.
  void issue_prefetch_locked(std::size_t first, std::size_t last) {
    if (ways == 0 || cv.entries.size() <= 1) return;
    i64 step = 0;
    if (!have_prev) {
      step = 1;
    } else {
      const i64 d = static_cast<i64>(first) - static_cast<i64>(prev_first);
      if (d != 0 && d == last_delta) step = d;
      last_delta = d;
    }
    have_prev = true;
    prev_first = first;
    if (step == 0) return;
    if (step == static_cast<i64>(last - first)) {
      // Contiguous forward scan: the next reads touch every chunk past
      // the current run, so speculate densely.
      for (unsigned k = 0; k < ways; ++k) {
        const std::size_t t = last + k;
        if (t >= cv.entries.size()) break;
        request_locked(t, /*demand=*/false);
      }
    } else {
      // Strided access: speculate on the predicted first chunks of the
      // next reads (forward or backward).
      for (unsigned k = 1; k <= ways; ++k) {
        const i64 t = static_cast<i64>(first) + static_cast<i64>(k) * step;
        if (t < 0 || t >= static_cast<i64>(cv.entries.size())) break;
        request_locked(static_cast<std::size_t>(t), /*demand=*/false);
      }
    }
  }

  /// Wait for a demand-requested chunk, unpin it, and hand back its data.
  /// Sticky decode failures rethrow here (and on every retry).
  [[nodiscard]] std::shared_ptr<const std::vector<T>> wait_locked(
      std::unique_lock<std::mutex>& lk, std::size_t id) {
    cv_ready.wait(lk, [&] {
      auto it = cache.find(id);
      return it != cache.end() && it->second.ready;
    });
    entry& e = cache.find(id)->second;
    if (e.pinned) --e.pinned;
    if (e.err) std::rethrow_exception(e.err);
    return e.data;
  }

  void unpin_locked(std::size_t id) {
    auto it = cache.find(id);
    if (it != cache.end() && it->second.pinned) --it->second.pinned;
  }

  /// Drop least-recently-used chunks until the budget holds. Pinned
  /// entries (a read is between request and copy) are skipped; evicting a
  /// never-consumed speculative chunk counts as wasted prefetch.
  void evict_locked() {
    while (cached_bytes > cache_budget && !lru.empty()) {
      auto it = std::prev(lru.end());
      while (cache.find(*it)->second.pinned) {
        if (it == lru.begin()) return;  // everything pinned: over budget
        --it;
      }
      const std::size_t id = *it;
      entry& e = cache.find(id)->second;
      cached_bytes -= e.data->size() * sizeof(T);
      ++st.evictions;
      if (e.speculative) ++st.prefetch_wasted;
      lru.erase(it);
      cache.erase(id);
    }
  }

  void sample_counters_locked() {
    if (!trace::enabled()) return;
    trace::counter("reader.cache.hit", static_cast<f64>(st.hits));
    trace::counter("reader.cache.miss", static_cast<f64>(st.misses));
    trace::counter("reader.cache.evict", static_cast<f64>(st.evictions));
    trace::counter("reader.prefetch.issued",
                   static_cast<f64>(st.prefetch_issued));
    trace::counter("reader.prefetch.used",
                   static_cast<f64>(st.prefetch_used));
    trace::counter("reader.prefetch.wasted",
                   static_cast<f64>(st.prefetch_wasted));
  }

  // --- decode workers ------------------------------------------------------

  void worker() {
    // Per-slot working set, chunk-scheduler shape: the stream is declared
    // last so it drains before the slot's buffers free on unwind.
    device::buffer<T> dev;
    std::vector<u8> scratch;
    pipeline<T> pipe(cfg);
    device::stream s;
    std::unique_lock lk(mu);
    for (;;) {
      cv_work.wait(lk, [&] {
        return shutdown || !demand_q.empty() || !prefetch_q.empty();
      });
      if (shutdown) break;
      std::size_t id;
      if (!demand_q.empty()) {
        id = demand_q.front();
        demand_q.pop_front();
      } else {
        id = prefetch_q.front();
        prefetch_q.pop_front();
      }
      auto it = cache.find(id);
      if (it == cache.end() || it->second.ready) continue;
      lk.unlock();
      std::shared_ptr<std::vector<T>> data;
      std::exception_ptr err;
      const u64 t0 = trace::enabled() ? trace::now_ns() : 0;
      try {
        data = decode_one(id, dev, scratch, pipe, s);
      } catch (...) {
        err = std::current_exception();
      }
      if (t0) {
        trace::complete("reader", "decode#" + std::to_string(id), t0,
                        trace::now_ns() - t0, 0,
                        static_cast<f64>(cv.entries[id].raw_len));
      }
      lk.lock();
      it = cache.find(id);
      if (it == cache.end()) continue;  // cancelled while decoding
      entry& e = it->second;
      e.ready = true;
      if (err) {
        e.err = err;
      } else {
        e.data = std::move(data);
        cached_bytes += e.data->size() * sizeof(T);
        lru.push_front(id);
        e.lru_it = lru.begin();
        e.in_lru = true;
        evict_locked();
      }
      cv_ready.notify_all();
    }
  }

  [[nodiscard]] std::shared_ptr<std::vector<T>> decode_one(
      std::size_t id, device::buffer<T>& dev, std::vector<u8>& scratch,
      pipeline<T>& pipe, device::stream& s) {
    const fmt::chunk_dir_entry& e = cv.entries[id];
    scratch.resize(static_cast<std::size_t>(e.archive_bytes));
    fetch(scratch.data(), payload_off + e.archive_offset, scratch.size());
    const std::span<const u8> bytes(scratch.data(), scratch.size());
    FZMOD_REQUIRE(plain || fmt::chunk_digest_ok(e, bytes),
                  status::corrupt_archive,
                  "reader: chunk " + std::to_string(id) +
                      " archive digest mismatch");
    auto out = std::make_shared<std::vector<T>>(
        static_cast<std::size_t>(e.raw_len));
    dev.ensure(e.raw_len, device::space::device);
    pipe.decompress(bytes, dev, s);
    device::memcpy_async(out->data(), dev.data(), e.raw_len * sizeof(T),
                         device::copy_kind::d2h, s);
    s.sync();
    return out;
  }
};

// --- public surface --------------------------------------------------------

template <class T>
reader<T>::reader(std::span<const u8> archive, reader_options opt,
                  pipeline_config cfg)
    : reader(
          [archive](u8* dst, u64 off, std::size_t len) {
            std::memcpy(dst, archive.data() + off, len);
          },
          archive.size(), std::move(opt), std::move(cfg)) {}

template <class T>
reader<T>::reader(std::span<const u8> archive, std::string_view field,
                  reader_options opt, pipeline_config cfg)
    : reader(fmt::select_field(archive, field), std::move(opt),
             std::move(cfg)) {}

template <class T>
reader<T>::reader(byte_source src, u64 container_bytes, reader_options opt,
                  pipeline_config cfg)
    : impl_(std::make_unique<impl>()) {
  impl_->cfg = std::move(cfg);
  impl_->fetch = std::move(src);
  impl_->total_bytes = container_bytes;
  impl_->open(opt);
}

template <class T>
reader<T> reader<T>::open_field(byte_source src, u64 container_bytes,
                                std::string_view field, reader_options opt,
                                pipeline_config cfg) {
  // The span parse's two steps and selection rule, over fetched bytes.
  const bool verify = fmt::verify_enabled();
  const std::vector<u8> head = fetch_bytes(
      src, 0, std::min<u64>(container_bytes, sizeof(fmt::multi_header)));
  if (!fmt::is_multi_container(head)) {
    fmt::require_no_field_name(field);
    return reader(std::move(src), container_bytes, std::move(opt),
                  std::move(cfg));
  }
  fmt::multi_view mv = fmt::parse_multi_header(head, container_bytes, verify);
  fmt::parse_multi_directory(
      mv, fetch_bytes(src, container_bytes - mv.tail_bytes, mv.tail_bytes),
      verify);
  const fmt::field_dir_entry& e = fmt::pick_field(mv, field);
  const u64 base = sizeof(fmt::multi_header) + e.archive_offset;
  byte_source sub = [src = std::move(src), base](u8* dst, u64 off,
                                                 std::size_t len) {
    src(dst, base + off, len);
  };
  fmt::verify_field_digest(
      e, [&] { return kernels::chunked_hash_stream(e.archive_bytes, sub); });
  return reader(std::move(sub), e.archive_bytes, std::move(opt),
                std::move(cfg));
}

template <class T>
reader<T>::reader(reader&&) noexcept = default;
template <class T>
reader<T>& reader<T>::operator=(reader&&) noexcept = default;
template <class T>
reader<T>::~reader() = default;

template <class T>
dims3 reader<T>::dims() const {
  return impl_->fdims;
}
template <class T>
u64 reader<T>::size() const {
  return impl_->n;
}
template <class T>
u64 reader<T>::nchunks() const {
  return impl_->cv.entries.size();
}

template <class T>
std::vector<T> reader<T>::read(u64 elem_offset, u64 elem_count) {
  impl& im = *impl_;
  require_range(elem_offset, elem_count, im.n, "reader::read");
  FZMOD_TRACE_SPAN("reader", "read");
  const u64 lo = elem_offset, hi = elem_offset + elem_count;
  const std::size_t first = im.find_chunk(lo);
  std::size_t last = first;
  while (last < im.cv.entries.size() && im.cv.entries[last].raw_offset < hi)
    ++last;

  std::vector<std::shared_ptr<const std::vector<T>>> datas(last - first);
  {
    std::unique_lock lk(im.mu);
    ++im.st.reads;
    for (std::size_t id = first; id < last; ++id) {
      im.request_locked(id, /*demand=*/true);
    }
    im.issue_prefetch_locked(first, last);
    im.cv_work.notify_all();
    std::size_t at = first;
    try {
      for (; at < last; ++at) {
        datas[at - first] = im.wait_locked(lk, at);
      }
    } catch (...) {
      for (std::size_t id = at + 1; id < last; ++id) im.unpin_locked(id);
      im.sample_counters_locked();
      throw;
    }
    im.sample_counters_locked();
  }

  // Slice copies run outside the lock: the shared_ptrs keep the decoded
  // chunks alive even if the cache evicts them meanwhile.
  std::vector<T> out(static_cast<std::size_t>(elem_count));
  for (std::size_t id = first; id < last; ++id) {
    const fmt::chunk_dir_entry& e = im.cv.entries[id];
    const u64 a = std::max(lo, e.raw_offset);
    const u64 b = std::min(hi, e.raw_offset + e.raw_len);
    std::memcpy(out.data() + (a - lo),
                datas[id - first]->data() + (a - e.raw_offset),
                static_cast<std::size_t>(b - a) * sizeof(T));
  }
  return out;
}

template <class T>
std::shared_ptr<const std::vector<T>> reader<T>::fetch_chunk(
    std::size_t id) {
  impl& im = *impl_;
  FZMOD_TRACE_SPAN("reader", "cursor-step");
  std::unique_lock lk(im.mu);
  ++im.st.reads;
  im.request_locked(id, /*demand=*/true);
  // Cursor walks are sequential by construction: prefetch straight ahead.
  for (unsigned k = 1; k <= im.ways; ++k) {
    if (id + k >= im.cv.entries.size()) break;
    im.request_locked(id + k, /*demand=*/false);
  }
  im.cv_work.notify_all();
  auto data = im.wait_locked(lk, id);
  im.sample_counters_locked();
  return data;
}

template <class T>
reader<T>::chunk_cursor::chunk_cursor(reader& r, u64 lo, u64 hi,
                                      std::size_t first_chunk)
    : r_(&r), lo_(lo), hi_(hi), at_(first_chunk) {}

template <class T>
bool reader<T>::chunk_cursor::next(chunk_view& out) {
  const auto& entries = r_->impl_->cv.entries;
  if (at_ >= entries.size() || entries[at_].raw_offset >= hi_) {
    held_.reset();
    return false;
  }
  held_ = r_->fetch_chunk(at_);
  const fmt::chunk_dir_entry& e = entries[at_];
  const u64 a = std::max(lo_, e.raw_offset);
  const u64 b = std::min(hi_, e.raw_offset + e.raw_len);
  out.index = at_;
  out.offset = a;
  out.data = std::span<const T>(held_->data() + (a - e.raw_offset),
                                static_cast<std::size_t>(b - a));
  ++at_;
  return true;
}

template <class T>
typename reader<T>::chunk_cursor reader<T>::chunks(u64 elem_offset,
                                                   u64 elem_count) {
  require_range(elem_offset, elem_count, impl_->n, "reader::chunks");
  return chunk_cursor(*this, elem_offset, elem_offset + elem_count,
                      impl_->find_chunk(elem_offset));
}

template <class T>
reader_stats reader<T>::stats() const {
  std::lock_guard lk(impl_->mu);
  return impl_->st;
}

template class reader<f32>;
template class reader<f64>;

}  // namespace fzmod::core
