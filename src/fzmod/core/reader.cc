// FZModules — seekable reader implementation. See reader.hh for the model:
// one parse of the container's trailing directory per open, an LRU cache
// of decoded chunks under a byte budget, and an N-way stride prefetcher
// whose speculation runs as pool jobs. A demand miss decodes on the
// reading thread, as pool work. All shared state lives under one mutex;
// decoded chunks publish as immutable shared_ptrs, so copies out of the
// cache run outside the lock.

#include "fzmod/core/reader.hh"

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <list>
#include <mutex>
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
struct reader<T>::impl : std::enable_shared_from_this<impl> {
  // --- immutable after open ------------------------------------------------
  pipeline_config cfg;
  std::size_t cache_budget = 0;
  unsigned ways = 0;
  unsigned njobs = 1;
  byte_source fetch;        // unified byte access; close() drops it
  u64 total_bytes = 0;      // container size
  bool plain = false;       // v1/v2 archive: one implicit chunk, no digest
  dims3 fdims;
  u64 n = 0;                // field elements
  u64 payload_off = 0;      // byte offset of the chunk payload region
  /// The v3 header and directory (no payload span: bytes are fetched);
  /// a plain archive holds just its one implicit entry.
  fmt::chunk_container_view cv;

  // --- shared state (everything below lives under `mu`) --------------------
  /// A chunk waits `queued` until one thread claims it, stays `decoding`
  /// while that thread runs the decode, and is `ready` once its data or
  /// its sticky error is published.
  enum class phase : u8 { queued, decoding, ready };
  struct entry {
    std::shared_ptr<const T[]> data;  // set once ready (null on failure)
    std::exception_ptr err;   // sticky decode failure
    phase at = phase::queued;
    bool speculative = false;  // prefetched, not yet consumed by a read
    unsigned pinned = 0;       // reads waiting on it (blocks eviction)
    bool in_lru = false;
    std::list<std::size_t>::iterator lru_it{};
  };

  std::mutex mu;
  std::condition_variable cv_ready;  // a decode finished
  std::unordered_map<std::size_t, entry> cache;
  std::list<std::size_t> lru;  // front = most recently used
  std::size_t cached_bytes = 0;
  std::deque<std::size_t> prefetch_q;  // speculation awaiting a pool job
  unsigned spec_jobs = 0;     // prefetch jobs submitted and not yet done
  unsigned spec_running = 0;  // prefetch decodes under way
  bool shutdown = false;
  reader_stats st;
  bool have_prev = false;     // stride predictor state
  std::size_t prev_first = 0;
  i64 last_delta = 0;

  /// Stop speculation. Queued prefetch jobs hold a reference to this state
  /// and exit when they run; only decodes already under way are waited
  /// for, so a reader destroyed from pool work never waits on work queued
  /// behind it. The cache and the byte source go before this returns.
  void close() {
    std::unique_lock lk(mu);
    shutdown = true;
    cv_ready.wait(lk, [&] { return spec_running == 0; });
    prefetch_q.clear();
    lru.clear();
    cache.clear();
    cached_bytes = 0;
    fetch = nullptr;
  }

  // --- open ----------------------------------------------------------------

  void open(const reader_options& opt) {
    cache_budget = opt.resolve_cache_bytes();
    ways = opt.resolve_prefetch();
    njobs = opt.resolve_jobs();
    // Resolve module names up front so a bad config throws here, not in a
    // decode mid-read (same contract as chunked_pipeline).
    pipeline<T> probe(cfg);
    (void)probe;

    const std::vector<u8> head = fetch_bytes(
        fetch, 0, std::min<u64>(total_bytes, sizeof(fmt::chunk_header_v3)));
    const dtype type = fmt::is_chunk_container(head)
                           ? open_container(head)
                           : open_plain();
    FZMOD_REQUIRE(type == dtype_of<T>(), status::invalid_argument,
                  "reader: archive holds a different dtype");
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
    return lo;
  }

  [[nodiscard]] std::size_t chunk_bytes(std::size_t id) const {
    return static_cast<std::size_t>(cv.entries[id].raw_len) * sizeof(T);
  }

  /// Pin a chunk a read covers (the caller must wait_locked or unpin it)
  /// and count the hit or miss. True when no thread had started the chunk:
  /// the caller has claimed it and decodes it.
  [[nodiscard]] bool demand_locked(std::size_t id) {
    auto [it, fresh] = cache.try_emplace(id);
    entry& e = it->second;
    ++e.pinned;
    if (fresh) {
      ++st.misses;
    } else {
      ++st.hits;
      if (e.speculative) {
        e.speculative = false;
        ++st.prefetch_used;
      }
      if (e.in_lru) lru.splice(lru.begin(), lru, e.lru_it);
      if (e.at != phase::queued) return false;
    }
    e.at = phase::decoding;
    return true;
  }

  /// Queue an absent chunk for speculation.
  void speculate_locked(std::size_t id) {
    auto [it, fresh] = cache.try_emplace(id);
    if (!fresh) return;
    it->second.speculative = true;
    prefetch_q.push_back(id);
    ++st.prefetch_issued;
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
        speculate_locked(t);
      }
    } else {
      // Strided access: speculate on the predicted first chunks of the
      // next reads (forward or backward).
      for (unsigned k = 1; k <= ways; ++k) {
        const i64 t = static_cast<i64>(first) + static_cast<i64>(k) * step;
        if (t < 0 || t >= static_cast<i64>(cv.entries.size())) break;
        speculate_locked(static_cast<std::size_t>(t));
      }
    }
  }

  /// Start prefetch jobs for queued speculation, at most `njobs` at once.
  /// Each job pops the queue when it runs, so a chunk a demand read has
  /// claimed meanwhile is simply skipped.
  void launch_prefetch_locked() {
    auto& pool = device::runtime::instance().pool();
    for (std::size_t k = 0; k < prefetch_q.size() && spec_jobs < njobs; ++k) {
      ++spec_jobs;
      pool.submit_detached(
          [self = this->shared_from_this()] { self->prefetch_job(); });
    }
  }

  /// Wait for a demand-requested chunk, unpin it, and hand back its data.
  /// Sticky decode failures rethrow here (and on every retry). Whoever
  /// decodes the chunk is already running: a read never waits on queued
  /// work.
  [[nodiscard]] std::shared_ptr<const T[]> wait_locked(
      std::unique_lock<std::mutex>& lk, std::size_t id) {
    cv_ready.wait(lk, [&] {
      auto it = cache.find(id);
      return it != cache.end() && it->second.at == phase::ready;
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
      cached_bytes -= chunk_bytes(id);
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

  // --- decodes -------------------------------------------------------------

  /// One decoder's working set, the chunk scheduler's slot shape: built on
  /// its first decode and reused for the rest it claims. The stream is
  /// declared last so it drains before the buffers free on unwind.
  struct slot {
    explicit slot(const pipeline_config& c) : pipe(c) {}
    device::buffer<T> dev;
    std::vector<u8> scratch;
    pipeline<T> pipe;
    device::stream s;
  };

  struct decoded {
    std::shared_ptr<const T[]> data;
    std::exception_ptr err;
  };

  /// Decode one claimed chunk (`mu` not held). Runs as pool work, so the
  /// pipeline's stream ops run in place on this thread. A failure comes
  /// back as the chunk's sticky error.
  [[nodiscard]] decoded decode(std::size_t id, std::unique_ptr<slot>& ws) {
    const fmt::chunk_dir_entry& e = cv.entries[id];
    decoded d;
    const u64 t0 = trace::enabled() ? trace::now_ns() : 0;
    try {
      if (!ws) ws = std::make_unique<slot>(cfg);
      ws->scratch.resize(static_cast<std::size_t>(e.archive_bytes));
      fetch(ws->scratch.data(), payload_off + e.archive_offset,
            ws->scratch.size());
      const std::span<const u8> bytes(ws->scratch);
      FZMOD_REQUIRE(plain || fmt::chunk_digest_ok(e, bytes),
                    status::corrupt_archive,
                    "reader: chunk " + std::to_string(id) +
                        " archive digest mismatch");
      // The d2h copy writes every element, so nothing is initialised first.
      std::shared_ptr<T[]> out = std::make_shared_for_overwrite<T[]>(
          static_cast<std::size_t>(e.raw_len));
      ws->dev.ensure(e.raw_len, device::space::device);
      ws->pipe.decompress(bytes, ws->dev, ws->s);
      device::memcpy_async(out.get(), ws->dev.data(), e.raw_len * sizeof(T),
                           device::copy_kind::d2h, ws->s);
      ws->s.sync();
      d.data = std::move(out);
    } catch (...) {
      d.err = std::current_exception();
    }
    if (t0) {
      trace::complete("reader", "decode#" + std::to_string(id), t0,
                      trace::now_ns() - t0, 0, static_cast<f64>(e.raw_len));
    }
    return d;
  }

  /// Publish a finished decode: mark the entry ready, cache its data (or
  /// keep its error, sticky) and wake the reads waiting on it. A claimed
  /// entry is never evicted, and close() waits for running decodes, so
  /// the entry is still there.
  void publish_locked(std::size_t id, decoded d) {
    entry& e = cache.at(id);
    e.at = phase::ready;
    if (d.err) {
      e.err = std::move(d.err);
    } else {
      e.data = std::move(d.data);
      cached_bytes += chunk_bytes(id);
      lru.push_front(id);
      e.lru_it = lru.begin();
      e.in_lru = true;
      evict_locked();
    }
    cv_ready.notify_all();
  }

  /// Decode the chunks a read claimed, on the reading thread as pool work:
  /// one parallel_for over min(jobs, claimed) slots, the caller running
  /// one, each slot claiming chunks until none is left.
  void decode_claimed(const std::vector<std::size_t>& ids) {
    if (ids.empty()) return;
    std::atomic<std::size_t> next{0};
    const std::size_t nslots = std::min<std::size_t>(njobs, ids.size());
    device::runtime::instance().pool().parallel_for(
        nslots, 1, [&](std::size_t, std::size_t) {
          std::unique_ptr<slot> ws;
          for (std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
               k < ids.size();
               k = next.fetch_add(1, std::memory_order_relaxed)) {
            decoded d = decode(ids[k], ws);
            std::lock_guard lk(mu);
            publish_locked(ids[k], std::move(d));
          }
        });
  }

  /// A prefetch job: pops speculation until the queue is empty or the
  /// reader closes, skipping chunks a demand read has claimed.
  void prefetch_job() {
    std::unique_ptr<slot> ws;
    std::unique_lock lk(mu);
    while (!shutdown && !prefetch_q.empty()) {
      const std::size_t id = prefetch_q.front();
      prefetch_q.pop_front();
      auto it = cache.find(id);
      if (it == cache.end() || it->second.at != phase::queued) continue;
      it->second.at = phase::decoding;
      ++spec_running;
      lk.unlock();
      decoded d = decode(id, ws);
      lk.lock();
      publish_locked(id, std::move(d));
      --spec_running;
    }
    --spec_jobs;
  }

  /// Serve a demand for chunks [first, last): pin them and let `speculate`
  /// queue prefetch under the lock, decode every chunk no thread had
  /// started, then wait for the rest. Returns the chunks' data in order.
  template <class Speculate>
  [[nodiscard]] std::vector<std::shared_ptr<const T[]>> demand(
      std::size_t first, std::size_t last, Speculate&& speculate) {
    std::vector<std::size_t> claimed;
    {
      std::lock_guard lk(mu);
      ++st.reads;
      for (std::size_t id = first; id < last; ++id) {
        if (demand_locked(id)) claimed.push_back(id);
      }
      speculate();
      launch_prefetch_locked();
    }
    decode_claimed(claimed);

    std::vector<std::shared_ptr<const T[]>> datas(last - first);
    std::unique_lock lk(mu);
    std::size_t at = first;
    try {
      for (; at < last; ++at) datas[at - first] = wait_locked(lk, at);
    } catch (...) {
      for (std::size_t id = at + 1; id < last; ++id) unpin_locked(id);
      sample_counters_locked();
      throw;
    }
    sample_counters_locked();
    return datas;
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
    : impl_(std::make_shared<impl>()) {
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
reader<T>& reader<T>::operator=(reader&& o) noexcept {
  if (this != &o) {
    if (impl_) impl_->close();
    impl_ = std::move(o.impl_);
  }
  return *this;
}

template <class T>
reader<T>::~reader() {
  if (impl_) impl_->close();
}

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

  const auto datas = im.demand(
      first, last, [&] { im.issue_prefetch_locked(first, last); });

  // Slice copies run outside the lock: the shared_ptrs keep the decoded
  // chunks alive even if the cache evicts them meanwhile.
  std::vector<T> out;
  out.reserve(static_cast<std::size_t>(elem_count));
  for (std::size_t id = first; id < last; ++id) {
    const fmt::chunk_dir_entry& e = im.cv.entries[id];
    const u64 a = std::max(lo, e.raw_offset);
    const u64 b = std::min(hi, e.raw_offset + e.raw_len);
    const T* chunk = datas[id - first].get();
    out.insert(out.end(), chunk + (a - e.raw_offset),
               chunk + (b - e.raw_offset));
  }
  return out;
}

template <class T>
std::shared_ptr<const T[]> reader<T>::fetch_chunk(std::size_t id) {
  impl& im = *impl_;
  FZMOD_TRACE_SPAN("reader", "cursor-step");
  // Cursor walks are sequential by construction: prefetch straight ahead.
  return im.demand(id, id + 1, [&] {
    for (unsigned k = 1; k <= im.ways; ++k) {
      if (id + k >= im.cv.entries.size()) break;
      im.speculate_locked(id + k);
    }
  })[0];
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
  out.data = std::span<const T>(held_.get() + (a - e.raw_offset),
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
