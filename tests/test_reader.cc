// Tests for the seekable reader (core/reader.hh), the library's one
// random-access engine: read() equality with a full-decode slice on random
// and chunk-boundary extents, cache hit-rate under a zipfian access
// trace, LRU eviction under a tiny byte budget, the sequential prefetcher,
// corrupted-chunk isolation (sticky errors), forged v3 directories that
// carry a recomputed digest, the chunk cursor, the exact bytes a streaming
// byte_source open and read fetch, plain v2 archives (sealed body digest
// checked before the LZ parser runs), range validation, concurrent
// readers, and where decodes run: a demand miss on the reading thread, a
// queued prefetch claimed by the read that needs it, reads and reader
// destruction from pool work while every worker is busy (this test runs
// under TSan in CI, and under ASan+UBSan with the hostile-input suites).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fzmod/common/rng.hh"
#include "fzmod/core/chunked.hh"
#include "fzmod/core/reader.hh"
#include "fzmod/core/snapshot.hh"
#include "fzmod/device/runtime.hh"

namespace fzmod::core {
namespace {

std::vector<f32> smooth_field(dims3 d, u64 seed = 7) {
  rng r(seed);
  std::vector<f32> v(d.len());
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<f32>(std::sin(0.003 * static_cast<f64>(i)) * 40 +
                            0.05 * r.normal());
  }
  return v;
}

/// A multi-chunk v3 container plus its full decode, shared across tests.
struct fixture {
  dims3 d;
  u64 chunk_elems;
  std::vector<f32> original;
  std::vector<u8> arch;
  std::vector<f32> full;

  explicit fixture(dims3 dims = {64, 8, 10}, u64 slabs_per_chunk = 2,
                   u64 seed = 11)
      : d(dims), chunk_elems(slabs_per_chunk * dims.x * dims.y) {
    chunked_options opt;
    opt.chunk_elems = chunk_elems;
    chunked_pipeline<f32> cp(pipeline_config{}, opt);
    original = smooth_field(d, seed);
    arch = cp.compress(original, d);
    EXPECT_TRUE(fmt::is_chunk_container(arch));
    full = cp.decompress(arch);
  }
};

/// Small deterministic reader: no prefetch, one decode slot, roomy cache.
reader_options quiet_opts() {
  reader_options o;
  o.cache_bytes = std::size_t{64} << 20;
  o.prefetch = 0;
  o.jobs = 1;
  return o;
}

/// True when `part` equals fx.full[off, off + part.size()).
bool matches_full(const fixture& fx, u64 off, const std::vector<f32>& part) {
  return off + part.size() <= fx.full.size() &&
         std::equal(part.begin(), part.end(), fx.full.begin() + off);
}

/// Holds `n` pool workers (default: all of them) in jobs that wait for
/// release(). A watchdog releases them after 20 s, so work that waits on a
/// held worker fails the test instead of hanging the suite.
class pool_blocker {
 public:
  explicit pool_blocker(
      unsigned n = device::runtime::instance().pool().size())
      : st_(std::make_shared<state>()) {
    st_->n = n;
    for (unsigned w = 0; w < n; ++w) {
      device::runtime::instance().pool().submit_detached([st = st_] {
        std::unique_lock lk(st->mu);
        ++st->blocked;
        st->cv.notify_all();
        st->cv.wait(lk, [&] { return st->released; });
        ++st->exited;
        st->cv.notify_all();
      });
    }
    std::unique_lock lk(st_->mu);
    st_->cv.wait(lk, [&] { return st_->blocked == n; });
    watchdog_ = std::thread([st = st_] {
      std::unique_lock wlk(st->mu);
      if (!st->cv.wait_for(wlk, std::chrono::seconds(20),
                           [&] { return st->released; })) {
        st->timed_out = true;
        st->released = true;
        st->cv.notify_all();
      }
    });
  }
  pool_blocker(const pool_blocker&) = delete;
  pool_blocker& operator=(const pool_blocker&) = delete;
  ~pool_blocker() { (void)release(); }

  /// Release the workers and wait until every blocking job has returned.
  /// False when the watchdog had to release them.
  bool release() {
    {
      std::lock_guard lk(st_->mu);
      st_->released = true;
      st_->cv.notify_all();
    }
    if (watchdog_.joinable()) watchdog_.join();
    std::unique_lock lk(st_->mu);
    st_->cv.wait(lk, [&] { return st_->exited == st_->n; });
    return !st_->timed_out;
  }

 private:
  struct state {
    std::mutex mu;
    std::condition_variable cv;
    unsigned n = 0, blocked = 0, exited = 0;
    bool released = false, timed_out = false;
  };
  std::shared_ptr<state> st_;
  std::thread watchdog_;
};

TEST(Reader, RandomExtentsMatchFullDecodeSlice) {
  fixture fx;
  reader<f32> r(fx.arch, quiet_opts());
  EXPECT_EQ(r.size(), fx.d.len());
  EXPECT_EQ(r.dims().x, fx.d.x);
  EXPECT_EQ(r.nchunks(), 5u);

  rng rnd(101);
  for (int it = 0; it < 64; ++it) {
    const u64 off = rnd.next_below(fx.d.len());
    const u64 cnt = 1 + rnd.next_below(fx.d.len() - off);
    const auto part = r.read(off, cnt);
    ASSERT_EQ(part.size(), cnt);
    for (u64 i = 0; i < cnt; ++i) {
      ASSERT_EQ(part[i], fx.full[off + i]) << "off=" << off << " i=" << i;
    }
  }
  // Edge extents: single first/last element, whole field, chunk-interior
  // (700+300 inside chunk 0 of 1024 elements), one exact chunk, and
  // chunk-straddling runs.
  for (const auto& [off, cnt] :
       {std::pair<u64, u64>{0, 1},
        {fx.d.len() - 1, 1},
        {0, fx.d.len()},
        {700, 300},
        {fx.chunk_elems, fx.chunk_elems},
        {fx.chunk_elems / 2, fx.chunk_elems},
        {100, 2000}}) {
    const auto part = r.read(off, cnt);
    ASSERT_EQ(part.size(), cnt);
    for (u64 i = 0; i < cnt; ++i) ASSERT_EQ(part[i], fx.full[off + i]);
  }
}

TEST(Reader, RangeValidationRejectsDegenerateRequests) {
  // Zero-length ranges, offsets at or past the field end, overruns and
  // offset + count overflowing u64 all throw invalid_argument before any
  // decode — on a v3 container and on a plain v2 archive.
  const auto expect_invalid = [](reader<f32>& r, u64 off, u64 cnt) {
    try {
      (void)r.read(off, cnt);
      FAIL() << "expected invalid_argument for off=" << off
             << " cnt=" << cnt;
    } catch (const error& e) {
      EXPECT_EQ(e.code(), status::invalid_argument) << e.what();
    }
  };
  fixture fx;
  reader<f32> r(fx.arch, quiet_opts());
  const u64 n = fx.d.len();
  expect_invalid(r, 100, 0);         // zero-length
  expect_invalid(r, n, 1);           // offset at field end
  expect_invalid(r, n + 5, 1);       // offset past field end
  expect_invalid(r, 0, n + 1);       // overrun
  expect_invalid(r, n - 1, 2);       // tail overrun
  expect_invalid(r, 5, ~u64{0});     // offset + count overflows u64
  expect_invalid(r, ~u64{0}, 2);
  // Same requests keep throwing from chunks() too.
  EXPECT_THROW((void)r.chunks(100, 0), error);
  EXPECT_THROW((void)r.chunks(5, ~u64{0}), error);
  // Nothing above decoded anything.
  EXPECT_EQ(r.stats().misses, 0u);

  // A plain v2 archive whose payload is damaged still answers a bad range
  // with invalid_argument, not corrupt_archive: validation runs first.
  pipeline<f32> plain(pipeline_config{});
  const dims3 pd{40, 5, 1};
  auto parch = plain.compress(smooth_field(pd, 5), pd);
  reader<f32> pr(parch, quiet_opts());
  expect_invalid(pr, pd.len(), 1);
  expect_invalid(pr, 10, 0);
  parch[parch.size() / 2] ^= 0x40;  // damage the payload
  reader<f32> damaged(parch, quiet_opts());
  expect_invalid(damaged, pd.len() + 3, 4);
  expect_invalid(damaged, 5, ~u64{0});
  try {
    (void)damaged.read(0, 1);
    FAIL() << "a damaged payload decoded";
  } catch (const error& e) {
    EXPECT_EQ(e.code(), status::corrupt_archive) << e.what();
  }
}

TEST(Reader, ZipfianTraceHitsCache) {
  // 20 chunks of one slab each; cache holds half of them. A zipfian
  // access pattern concentrates on the head ranks, so the hit rate must
  // clear the same floor the bench gates on (60%).
  fixture fx({64, 8, 20}, 1, 23);
  const u64 nchunks = 20;
  const std::size_t chunk_bytes = fx.chunk_elems * sizeof(f32);
  reader_options opt;
  opt.cache_bytes = 10 * chunk_bytes;
  opt.prefetch = 0;
  opt.jobs = 2;
  reader<f32> r(fx.arch, opt);

  // Zipf(s=1) CDF over chunk ranks.
  std::vector<f64> cdf(nchunks);
  f64 mass = 0;
  for (u64 k = 0; k < nchunks; ++k) {
    mass += 1.0 / static_cast<f64>(k + 1);
    cdf[k] = mass;
  }
  rng rnd(77);
  for (int it = 0; it < 400; ++it) {
    const f64 u = rnd.next_f64() * mass;
    u64 chunk = 0;
    while (chunk + 1 < nchunks && cdf[chunk] < u) ++chunk;
    const u64 off =
        chunk * fx.chunk_elems + rnd.next_below(fx.chunk_elems - 8);
    const auto part = r.read(off, 8);
    for (u64 i = 0; i < 8; ++i) ASSERT_EQ(part[i], fx.full[off + i]);
  }
  const auto st = r.stats();
  EXPECT_EQ(st.reads, 400u);
  EXPECT_GE(st.hit_rate(), 0.60) << "hits=" << st.hits
                                 << " misses=" << st.misses;
}

TEST(Reader, TinyCacheEvictsAndStaysCorrect) {
  fixture fx;
  reader_options opt;
  opt.cache_bytes = 1;  // nothing fits: every chunk evicts after its read
  opt.prefetch = 0;
  opt.jobs = 1;
  reader<f32> r(fx.arch, opt);
  for (int pass = 0; pass < 2; ++pass) {
    for (u64 c = 0; c < r.nchunks(); ++c) {
      const u64 off = c * fx.chunk_elems;
      const u64 cnt = std::min(fx.chunk_elems, fx.d.len() - off);
      const auto part = r.read(off, cnt);
      for (u64 i = 0; i < cnt; ++i) ASSERT_EQ(part[i], fx.full[off + i]);
    }
  }
  const auto st = r.stats();
  EXPECT_GT(st.evictions, 0u);
  // Second pass re-decodes everything: no room to hit.
  EXPECT_EQ(st.misses, 2 * r.nchunks());
}

TEST(Reader, SequentialScanUsesPrefetch) {
  fixture fx({64, 8, 12}, 1, 41);
  reader_options opt;
  opt.cache_bytes = std::size_t{64} << 20;
  opt.prefetch = 2;
  opt.jobs = 2;
  reader<f32> r(fx.arch, opt);
  for (u64 c = 0; c < r.nchunks(); ++c) {
    const u64 off = c * fx.chunk_elems;
    const auto part = r.read(off, fx.chunk_elems);
    for (u64 i = 0; i < fx.chunk_elems; ++i) {
      ASSERT_EQ(part[i], fx.full[off + i]);
    }
  }
  const auto st = r.stats();
  EXPECT_GT(st.prefetch_issued, 0u);
  EXPECT_GT(st.prefetch_used, 0u);
  // Every chunk past the first should have been speculated into the
  // cache before its demand read arrived (or was at least in flight).
  EXPECT_GT(st.hits, 0u);
}

TEST(Reader, CorruptChunkIsIsolatedAndSticky) {
  fixture fx({256, 16, 6}, 2, 31);  // 3 chunks
  auto arch = fx.arch;
  const auto info = inspect_chunked(arch);
  ASSERT_EQ(info.nchunks, 3u);
  const auto& e1 = info.chunks[1];
  arch[sizeof(fmt::chunk_header_v3) + e1.archive_offset +
       e1.archive_bytes / 2] ^= 0x10;

  reader<f32> r(arch, quiet_opts());
  // Chunks 0 and 2 never touch chunk 1's bytes.
  const auto head = r.read(0, info.chunks[0].raw_len);
  for (u64 i = 0; i < head.size(); ++i) ASSERT_EQ(head[i], fx.full[i]);
  const u64 off2 = info.chunks[2].raw_offset;
  const auto tail = r.read(off2, info.chunks[2].raw_len);
  for (u64 i = 0; i < tail.size(); ++i) {
    ASSERT_EQ(tail[i], fx.full[off2 + i]);
  }
  // A range covering chunk 1 throws — and keeps throwing on retry (the
  // error is sticky; no half-decoded data can ever be served).
  const u64 off1 = info.chunks[1].raw_offset;
  EXPECT_THROW((void)r.read(off1, 16), error);
  EXPECT_THROW((void)r.read(off1, 16), error);
  try {
    (void)r.read(0, fx.d.len());  // whole field covers the bad chunk
    FAIL() << "expected corrupt_archive";
  } catch (const error& e) {
    EXPECT_EQ(e.code(), status::corrupt_archive);
  }
  // The good chunks still serve after the failures.
  const auto again = r.read(0, 64);
  for (u64 i = 0; i < 64; ++i) ASSERT_EQ(again[i], fx.full[i]);
}

TEST(Reader, ChunkCursorWalksCoveringChunksOnce) {
  fixture fx;
  reader<f32> r(fx.arch, quiet_opts());
  const u64 off = fx.chunk_elems / 2;
  const u64 cnt = 3 * fx.chunk_elems;  // straddles 4 chunks
  auto cur = r.chunks(off, cnt);
  std::vector<f32> got;
  reader<f32>::chunk_view v;
  u64 expect_at = off;
  std::size_t steps = 0;
  while (cur.next(v)) {
    EXPECT_EQ(v.offset, expect_at);  // contiguous, in order
    got.insert(got.end(), v.data.begin(), v.data.end());
    expect_at = v.offset + v.data.size();
    ++steps;
  }
  EXPECT_EQ(steps, 4u);
  ASSERT_EQ(got.size(), cnt);
  for (u64 i = 0; i < cnt; ++i) ASSERT_EQ(got[i], fx.full[off + i]);
  // Exhausted cursor stays exhausted.
  EXPECT_FALSE(cur.next(v));
}

TEST(Reader, ForgedDirectoryWithRecomputedDigestFailsClosed) {
  // The directory digest only detects damage; a forger recomputes it. Each
  // forgery below carries a valid digest, so only the directory's tiling
  // check stands between its entries and an out-of-bounds fetch — on the
  // span parse, the chunked decoder, and both reader opens.
  fixture fx({256, 16, 6}, 2, 31);  // 3 chunks
  const fmt::chunk_container_view cv = fmt::parse_chunk_container(fx.arch);
  ASSERT_EQ(cv.entries.size(), 3u);
  const auto forge = [&](auto&& edit) {
    std::vector<fmt::chunk_dir_entry> entries = cv.entries;
    edit(entries);
    const std::vector<u8> tail = fmt::build_directory(entries);
    std::vector<u8> bad = fx.arch;
    std::copy(tail.begin(), tail.end(), bad.end() - tail.size());
    return bad;
  };
  const std::vector<std::pair<const char*, std::vector<u8>>> forgeries = {
      {"overlapping raw extents",
       forge([](auto& e) {
         e[1].raw_offset -= 8;  // chunk 1 re-covers chunk 0's last 8
         e[1].raw_len += 8;
       })},
      {"archive extent past the payload",
       forge([](auto& e) { e[2].archive_bytes += 64; })},
      {"raw gap",
       forge([](auto& e) {
         e[1].raw_offset += 8;  // nothing covers chunk 1's first 8
         e[1].raw_len -= 8;
       })},
  };
  const auto expect_corrupt = [](const char* what, const char* path,
                                 auto&& open) {
    try {
      open();
      ADD_FAILURE() << what << ": " << path << " accepted the directory";
    } catch (const error& e) {
      EXPECT_EQ(e.code(), status::corrupt_archive)
          << what << ": " << path << ": " << e.what();
    }
  };
  for (const auto& [what, bad] : forgeries) {
    // The digest was recomputed: the directory step's digest check passes.
    const auto tail = std::span<const u8>(bad).last(cv.tail_bytes);
    std::vector<fmt::chunk_dir_entry> entries;
    ASSERT_TRUE(fmt::read_directory(tail, 3, entries, true, "forged")) << what;
    expect_corrupt(what, "parse_chunk_container",
                   [&] { (void)fmt::parse_chunk_container(bad); });
    expect_corrupt(what, "chunked_pipeline::decompress", [&] {
      chunked_pipeline<f32> cp(pipeline_config{}, chunked_options{});
      (void)cp.decompress(bad);
    });
    expect_corrupt(what, "reader(span)",
                   [&] { reader<f32> r(bad, quiet_opts()); });
    expect_corrupt(what, "reader(byte_source)", [&] {
      reader<f32>::byte_source src = [&](u8* dst, u64 off, std::size_t n) {
        ASSERT_LE(off + n, bad.size());
        std::copy_n(bad.data() + off, n, dst);
      };
      reader<f32> r(src, bad.size(), quiet_opts());
    });
  }
}

TEST(Reader, PlainV2ArchiveOpensAsOneChunk) {
  const dims3 d{40, 5, 1};
  pipeline<f32> plain(pipeline_config{});
  const auto v = smooth_field(d, 5);
  const auto arch = plain.compress(v, d);
  ASSERT_FALSE(fmt::is_chunk_container(arch));

  reader<f32> r(arch, quiet_opts());
  EXPECT_EQ(r.nchunks(), 1u);
  EXPECT_EQ(r.size(), d.len());
  const auto full = plain.decompress(arch);
  const auto part = r.read(30, 50);
  for (u64 i = 0; i < 50; ++i) ASSERT_EQ(part[i], full[30 + i]);
}

TEST(Reader, SealedBodyDigestCheckedBeforeLzParses) {
  // An LZ-wrapped v2 archive carries a sealed digest of its stored body.
  // The reader must check it before anything parses the LZ blob, so every
  // stored-body flip reads as a body digest mismatch, never an LZ error.
  const dims3 d{64, 16, 4};
  pipeline_config cfg;
  cfg.secondary = true;
  pipeline<f32> plain(cfg);
  const auto arch = plain.compress(smooth_field(d, 9), d);
  ASSERT_TRUE(inspect_archive(arch).secondary);
  const std::size_t body_at = sizeof(fmt::outer_header_v2);
  for (const std::size_t at :
       {body_at, body_at + 1, body_at + 7, (arch.size() + body_at) / 2,
        arch.size() - 1}) {
    auto bad = arch;
    bad[at] ^= 0x04;
    try {
      reader<f32> r(bad, quiet_opts());
      FAIL() << "damaged body at byte " << at << " opened";
    } catch (const error& e) {
      EXPECT_EQ(e.code(), status::corrupt_archive) << e.what();
      EXPECT_NE(std::string(e.what()).find("body digest"), std::string::npos)
          << "byte " << at << ": " << e.what();
    }
  }
}

TEST(Reader, StreamingByteSourceFetchesOnDemand) {
  // The lazy-fetch contract, byte for byte: an open pulls the header and
  // the trailing directory and nothing else; a read pulls exactly the
  // covering chunk's archive bytes; a cached chunk pulls nothing.
  fixture fx({64, 8, 16}, 1, 19);  // 16 chunks
  const fmt::chunk_container_view cv = fmt::parse_chunk_container(fx.arch);
  ASSERT_EQ(cv.entries.size(), 16u);
  std::atomic<u64> bytes_pulled{0};
  reader<f32>::byte_source src = [&](u8* dst, u64 off, std::size_t n) {
    ASSERT_LE(off + n, fx.arch.size());
    std::copy_n(fx.arch.data() + off, n, dst);
    bytes_pulled.fetch_add(n, std::memory_order_relaxed);
  };
  reader<f32> r(src, fx.arch.size(), quiet_opts());
  const u64 at_open = sizeof(fmt::chunk_header_v3) +
                      cv.entries.size() * sizeof(fmt::chunk_dir_entry) +
                      sizeof(u64);
  EXPECT_EQ(at_open, 704u);
  EXPECT_EQ(bytes_pulled.load(), at_open);

  u64 expect = at_open;
  for (const std::size_t k : {0, 7, 15}) {
    const fmt::chunk_dir_entry& e = cv.entries[k];
    const u64 off = e.raw_offset + e.raw_len / 3;
    const auto part = r.read(off, 16);  // inside chunk k
    for (u64 i = 0; i < 16; ++i) ASSERT_EQ(part[i], fx.full[off + i]);
    expect += e.archive_bytes;
    EXPECT_EQ(bytes_pulled.load(), expect) << "chunk " << k;
  }
  // A second read of a cached chunk fetches nothing.
  (void)r.read(cv.entries[7].raw_offset, 4);
  EXPECT_EQ(bytes_pulled.load(), expect);
}

TEST(Reader, ConcurrentReadersShareTheCache) {
  // Exercises the lock/cv protocol under contention: four threads hammer
  // overlapping extents while the prefetcher speculates. Runs under TSan
  // in CI, where any cache/LRU/pin race surfaces as a hard failure.
  fixture fx({64, 8, 16}, 1, 53);
  reader_options opt;
  opt.cache_bytes = 6 * fx.chunk_elems * sizeof(f32);  // force eviction
  opt.prefetch = 2;
  opt.jobs = 3;
  reader<f32> r(fx.arch, opt);

  std::atomic<int> failures{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&, t] {
      rng rnd(1000 + static_cast<u64>(t));
      for (int it = 0; it < 60; ++it) {
        const u64 off = rnd.next_below(fx.d.len() - 32);
        const auto part = r.read(off, 32);
        for (u64 i = 0; i < 32; ++i) {
          if (part[i] != fx.full[off + i]) {
            failures.fetch_add(1, std::memory_order_relaxed);
            return;
          }
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(r.stats().reads, 240u);
}

TEST(Reader, SnapshotMakeReaderMatchesFullReadSlice) {
  const dims3 d{64, 8, 10};
  snapshot_writer w;
  chunked_options copt;
  copt.chunk_elems = 2 * 64 * 8;
  w.set_chunking(copt);
  const auto v = smooth_field(d, 71);
  w.add("density", v, d);
  const auto blob = w.finish();

  snapshot_reader snap(blob);
  const auto full = snap.read("density");
  auto r = snap.make_reader("density", quiet_opts());
  EXPECT_EQ(r.nchunks(), 5u);
  const auto part = r.read(700, 300);
  ASSERT_EQ(part.size(), 300u);
  for (u64 i = 0; i < 300; ++i) ASSERT_EQ(part[i], full[700 + i]);
  EXPECT_THROW((void)r.read(700, 0), error);
  EXPECT_THROW((void)snap.make_reader("missing"), error);
}

TEST(Reader, DemandMissFetchesOnTheReadingThread) {
  // A demand miss decodes where it was asked for: each single-chunk read
  // below misses once, and its byte-source call runs on this thread, with
  // four decode slots available.
  fixture fx({64, 8, 16}, 1, 61);  // 16 chunks
  std::mutex mu;
  std::vector<std::thread::id> callers;
  reader<f32>::byte_source src = [&](u8* dst, u64 off, std::size_t n) {
    std::copy_n(fx.arch.data() + off, n, dst);
    std::lock_guard lk(mu);
    callers.push_back(std::this_thread::get_id());
  };
  reader_options opt = quiet_opts();
  opt.jobs = 4;
  reader<f32> r(src, fx.arch.size(), opt);
  {
    std::lock_guard lk(mu);
    callers.clear();  // the open's header and directory fetches
  }
  for (const u64 k : {0, 5, 11}) {
    const u64 off = k * fx.chunk_elems + 40;
    EXPECT_TRUE(matches_full(fx, off, r.read(off, 64))) << "chunk " << k;
  }
  EXPECT_EQ(r.stats().misses, 3u);
  std::lock_guard lk(mu);
  ASSERT_EQ(callers.size(), 3u);
  for (const std::thread::id id : callers) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

TEST(Reader, QueuedPrefetchDecodesOnTheReaderWhileWorkersAreHeld) {
  // The first read queues chunks 1 and 2 for speculation, but every pool
  // worker is held, so no prefetch job can start. The read that needs
  // chunk 1 must claim it and decode it itself instead of waiting on work
  // queued behind the held workers.
  fixture fx({64, 8, 12}, 1, 43);
  reader_options opt;
  opt.cache_bytes = std::size_t{64} << 20;
  opt.prefetch = 2;
  opt.jobs = 2;
  reader<f32> r(fx.arch, opt);
  pool_blocker held;
  EXPECT_TRUE(matches_full(fx, 0, r.read(0, fx.chunk_elems)));
  EXPECT_TRUE(matches_full(fx, fx.chunk_elems + 7,
                           r.read(fx.chunk_elems + 7, 100)));
  const reader_stats st = r.stats();
  EXPECT_TRUE(held.release()) << "a read waited on a held pool worker";
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.prefetch_issued, 2u);
  EXPECT_EQ(st.prefetch_used, 1u);
}

TEST(Reader, DestroyWithPrefetchQueuedOrRunningReturns) {
  fixture fx({64, 8, 12}, 1, 47);
  reader_options opt;
  opt.cache_bytes = std::size_t{64} << 20;
  opt.prefetch = 2;
  opt.jobs = 2;
  auto& pool = device::runtime::instance().pool();

  // Queued: a pool job opens a reader, reads chunk 0 and destroys the
  // reader while the prefetch jobs for chunks 1 and 2 are queued behind it
  // (every other worker is held). The destructor must not wait for them,
  // and it releases the byte source before it returns.
  {
    auto token = std::make_shared<int>(0);
    const std::weak_ptr<int> source_alive = token;
    pool_blocker held(pool.size() - 1);
    std::promise<bool> done;
    std::future<bool> finished = done.get_future();
    pool.submit_detached([&, token = std::move(token),
                          done = std::move(done)]() mutable {
      bool ok = false;
      {
        reader<f32> r(
            [&fx, token = std::move(token)](u8* dst, u64 off,
                                            std::size_t n) {
              std::copy_n(fx.arch.data() + off, n, dst);
            },
            fx.arch.size(), opt);
        ok = matches_full(fx, 0, r.read(0, fx.chunk_elems));
      }
      ok = ok && source_alive.expired();
      done.set_value(ok);
    });
    const bool in_time = finished.wait_for(std::chrono::seconds(20)) ==
                         std::future_status::ready;
    EXPECT_TRUE(held.release());
    EXPECT_TRUE(finished.get()) << "wrong read, or the source outlived it";
    EXPECT_TRUE(in_time) << "destroying a reader from pool work waited on "
                            "its queued prefetch";
  }

  // Running: a prefetch job is inside the byte source for chunk 1 when
  // the reader is destroyed. The destructor waits for that decode, and
  // only for it.
  {
    const fmt::chunk_dir_entry c1 =
        fmt::parse_chunk_container(fx.arch).entries[1];
    const u64 c1_at = sizeof(fmt::chunk_header_v3) + c1.archive_offset;
    std::mutex mu;
    std::condition_variable cv;
    bool in_fetch = false, gate_open = false;
    auto token = std::make_shared<int>(0);
    const std::weak_ptr<int> source_alive = token;
    auto r = std::make_unique<reader<f32>>(
        [&, token = std::move(token)](u8* dst, u64 off, std::size_t n) {
          if (off == c1_at) {
            std::unique_lock lk(mu);
            in_fetch = true;
            cv.notify_all();
            cv.wait(lk, [&] { return gate_open; });
          }
          std::copy_n(fx.arch.data() + off, n, dst);
        },
        fx.arch.size(), opt);
    EXPECT_TRUE(matches_full(fx, 0, r->read(0, fx.chunk_elems)));
    {
      std::unique_lock lk(mu);
      ASSERT_TRUE(cv.wait_for(lk, std::chrono::seconds(20),
                              [&] { return in_fetch; }));
    }
    std::atomic<bool> destroyed{false};
    std::thread closer([&] {
      r.reset();
      destroyed = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(destroyed.load()) << "returned during a running decode";
    {
      std::lock_guard lk(mu);
      gate_open = true;
      cv.notify_all();
    }
    closer.join();
    EXPECT_TRUE(source_alive.expired());
  }
}

TEST(Reader, ReadFromPoolWorkWithEveryWorkerHeldCompletes) {
  // Reads issued from parallel_for bodies while every pool worker is held:
  // each covers four chunks, so its own slots' helpers queue behind the
  // held workers and the body decodes every chunk it claimed itself.
  fixture fx({64, 8, 12}, 1, 59);
  reader_options opt;
  opt.cache_bytes = std::size_t{64} << 20;
  opt.prefetch = 2;
  opt.jobs = 3;
  reader<f32> r(fx.arch, opt);
  const u64 offs[2] = {fx.chunk_elems / 2, 6 * fx.chunk_elems + 9};
  std::vector<f32> got[2];
  {
    pool_blocker held;
    device::runtime::instance().pool().parallel_for(
        2, 1, [&](std::size_t lo, std::size_t) {
          got[lo] = r.read(offs[lo], 3 * fx.chunk_elems);
        });
    EXPECT_TRUE(held.release()) << "a read waited on a held pool worker";
  }
  for (int k = 0; k < 2; ++k) {
    ASSERT_EQ(got[k].size(), 3 * fx.chunk_elems);
    EXPECT_TRUE(matches_full(fx, offs[k], got[k])) << "read " << k;
  }
}

TEST(ReaderOptions, EnvResolutionAndOverrides) {
  reader_options o;
  o.cache_bytes = 4096;
  EXPECT_EQ(o.resolve_cache_bytes(), 4096u);  // explicit bytes win
  setenv("FZMOD_READER_CACHE_MB", "7", 1);
  EXPECT_EQ(o.resolve_cache_bytes(), 4096u);  // ...over the environment too
  unsetenv("FZMOD_READER_CACHE_MB");
  o.prefetch = 3;
  EXPECT_EQ(o.resolve_prefetch(), 3u);
  o.prefetch = 0;
  EXPECT_EQ(o.resolve_prefetch(), 0u);
  o.jobs = 5;
  EXPECT_EQ(o.resolve_jobs(), 5u);

  // Environment path: strict parse, garbage throws naming the variable.
  setenv("FZMOD_READER_CACHE_MB", "3", 1);
  setenv("FZMOD_READER_PREFETCH", "9", 1);
  reader_options env_opt;
  env_opt.prefetch = -1;
  EXPECT_EQ(env_opt.resolve_cache_bytes(), 3u << 20);
  EXPECT_EQ(env_opt.resolve_prefetch(), 9u);
  setenv("FZMOD_READER_CACHE_MB", "lots", 1);
  EXPECT_THROW((void)env_opt.resolve_cache_bytes(), error);
  setenv("FZMOD_READER_PREFETCH", "-2", 1);
  EXPECT_THROW((void)env_opt.resolve_prefetch(), error);
  unsetenv("FZMOD_READER_CACHE_MB");
  unsetenv("FZMOD_READER_PREFETCH");
  EXPECT_EQ(env_opt.resolve_cache_bytes(), 256u << 20);  // defaults
  EXPECT_EQ(env_opt.resolve_prefetch(), 2u);
}

}  // namespace
}  // namespace fzmod::core
