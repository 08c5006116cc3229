// Tests for the chunk-parallel driver and the v3 chunk container:
// chunk planning, ragged tails, v2 byte-identity for single-chunk plans,
// 1-element chunks, damage isolation (a bit flip in one chunk must only
// damage that chunk, and range reads of the others still succeed),
// streaming compression, snapshot integration, and the pipeline busy
// guard. Range-read equality and validation live in test_reader.cc.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <set>
#include <string_view>
#include <thread>

#include "fzmod/common/rng.hh"
#include "fzmod/core/chunked.hh"
#include "fzmod/core/reader.hh"
#include "fzmod/core/snapshot.hh"
#include "fzmod/metrics/metrics.hh"
#include "fzmod/trace/trace.hh"

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

void expect_within_bound(std::span<const f32> a, std::span<const f32> b,
                         f64 rel_eb) {
  ASSERT_EQ(a.size(), b.size());
  const auto err = metrics::compare(a, b);
  EXPECT_LE(err.max_abs_err,
            metrics::f32_bound_slack(rel_eb * err.range, err.range));
}

TEST(ChunkPlan, SlabAlignedAndContiguous) {
  const dims3 d{16, 8, 10};  // slab = 128 elems, 10 slabs
  const auto plan = plan_chunks(d, 300);  // 2 slabs per chunk
  ASSERT_EQ(plan.size(), 5u);
  u64 at = 0;
  for (const auto& e : plan) {
    EXPECT_EQ(e.offset, at);
    EXPECT_EQ(e.len, 256u);
    EXPECT_EQ(e.dims.x, 16u);
    EXPECT_EQ(e.dims.y, 8u);
    EXPECT_EQ(e.dims.z, 2u);
    at += e.len;
  }
  EXPECT_EQ(at, d.len());
}

TEST(ChunkPlan, RaggedTail) {
  const dims3 d{10, 7, 1};  // rows of 10, 7 rows
  const auto plan = plan_chunks(d, 25);  // 2 rows per chunk -> 4 chunks
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan.back().len, 10u);  // one leftover row
  EXPECT_EQ(plan.back().dims.y, 1u);
  u64 total = 0;
  for (const auto& e : plan) total += e.len;
  EXPECT_EQ(total, d.len());
}

TEST(ChunkPlan, ChunkSmallerThanSlabClampsToOneSlab) {
  const dims3 d{64, 64, 4};
  const auto plan = plan_chunks(d, 1);  // < one slab -> one slab per chunk
  ASSERT_EQ(plan.size(), 4u);
  for (const auto& e : plan) EXPECT_EQ(e.len, 64u * 64u);
}

TEST(ChunkedOptions, EnvAndOverrideResolution) {
  chunked_options o;
  o.chunk_elems = 123;
  EXPECT_EQ(o.resolve_chunk_elems(4), 123u);  // explicit override wins
  o.chunk_elems = 0;
  o.chunk_mb = 2;
  EXPECT_EQ(o.resolve_chunk_elems(4), (2u << 20) / 4);
  o.jobs = 3;
  EXPECT_EQ(o.resolve_jobs(), 3u);
}

TEST(ChunkedOptions, MalformedEnvThrowsInsteadOfSilentFallback) {
  // Regression: these used to fall back to the default on garbage (the
  // old atoi-style parse), silently masking typos like "16MB".
  chunked_options o;
  setenv("FZMOD_CHUNK_MB", "16MB", 1);
  EXPECT_THROW((void)o.resolve_chunk_elems(4), error);
  setenv("FZMOD_CHUNK_MB", "8", 1);
  EXPECT_EQ(o.resolve_chunk_elems(4), (8u << 20) / 4);
  unsetenv("FZMOD_CHUNK_MB");
  setenv("FZMOD_JOBS", "four", 1);
  EXPECT_THROW((void)o.resolve_jobs(), error);
  setenv("FZMOD_JOBS", "6", 1);
  EXPECT_EQ(o.resolve_jobs(), 6u);
  unsetenv("FZMOD_JOBS");
}

TEST(Chunked, SingleChunkIsByteIdenticalToV2) {
  const dims3 d{60, 40, 1};
  const auto v = smooth_field(d);
  pipeline<f32> plain(pipeline_config{});
  const auto v2 = plain.compress(v, d);

  chunked_options opt;
  opt.chunk_elems = d.len();  // chunk = whole field
  chunked_pipeline<f32> cp(pipeline_config{}, opt);
  const auto out = cp.compress(v, d);
  ASSERT_EQ(out.size(), v2.size());
  EXPECT_EQ(out, v2);
  EXPECT_FALSE(fmt::is_chunk_container(out));
}

TEST(Chunked, RoundTrip3DWithRaggedTail) {
  const dims3 d{32, 16, 11};  // 11 slabs of 512
  chunked_options opt;
  opt.chunk_elems = 3 * 32 * 16;  // 3 slabs/chunk -> 4 chunks, ragged tail
  opt.jobs = 4;
  const auto v = smooth_field(d);
  chunked_pipeline<f32> cp(pipeline_config{}, opt);
  const auto arch = cp.compress(v, d);
  ASSERT_TRUE(fmt::is_chunk_container(arch));
  const auto info = inspect_chunked(arch);
  EXPECT_TRUE(info.chunked);
  EXPECT_EQ(info.nchunks, 4u);
  EXPECT_EQ(info.chunks.back().raw_len, 2u * 32 * 16);
  const auto back = cp.decompress(arch);
  expect_within_bound(v, back, 1e-4);
}

TEST(Chunked, RoundTrip2D) {
  const dims3 d{100, 60, 1};
  chunked_options opt;
  opt.chunk_elems = 1700;  // 17 rows per chunk
  opt.jobs = 2;
  const auto v = smooth_field(d, 21);
  chunked_pipeline<f32> cp(pipeline_config{}, opt);
  const auto arch = cp.compress(v, d);
  ASSERT_TRUE(fmt::is_chunk_container(arch));
  expect_within_bound(v, cp.decompress(arch), 1e-4);
}

TEST(Chunked, OneElementChunksOn1DField) {
  const dims3 d{17, 1, 1};
  chunked_options opt;
  opt.chunk_elems = 1;  // 17 chunks of one element each
  opt.jobs = 4;
  const auto v = smooth_field(d, 3);
  chunked_pipeline<f32> cp(pipeline_config{}, opt);
  const auto arch = cp.compress(v, d);
  ASSERT_TRUE(fmt::is_chunk_container(arch));
  EXPECT_EQ(inspect_chunked(arch).nchunks, 17u);
  expect_within_bound(v, cp.decompress(arch), 1e-4);
}

TEST(Chunked, BitFlipDamagesOnlyItsChunk) {
  const dims3 d{256, 16, 6};
  chunked_options opt;
  opt.chunk_elems = 2 * 256 * 16;  // 3 chunks of 2 slabs
  chunked_pipeline<f32> cp(pipeline_config{}, opt);
  const auto v = smooth_field(d, 31);
  auto arch = cp.compress(v, d);
  ASSERT_TRUE(fmt::is_chunk_container(arch));
  const auto info = inspect_chunked(arch);
  ASSERT_EQ(info.nchunks, 3u);

  // Flip one bit in the middle of chunk 0's archive bytes.
  const auto& e0 = info.chunks[0];
  arch[sizeof(fmt::chunk_header_v3) + e0.archive_offset +
       e0.archive_bytes / 2] ^= 0x10;

  // Full decode must fail: chunk 0's digest no longer matches.
  EXPECT_THROW((void)cp.decompress(arch), error);
  // verify_chunked reports exactly chunk 0 as damaged.
  const auto rep = verify_chunked(arch);
  EXPECT_TRUE(rep.container_ok);  // directory + header are intact
  ASSERT_EQ(rep.chunks.size(), 3u);
  EXPECT_FALSE(rep.chunks[0].digest_ok);
  EXPECT_TRUE(rep.chunks[1].ok());
  EXPECT_TRUE(rep.chunks[2].ok());

  // Random access to chunks 1 and 2 never reads chunk 0's bytes, so it
  // still succeeds and still matches the original data.
  reader<f32> r(arch);
  const u64 lo = info.chunks[1].raw_offset;
  const u64 cnt = info.chunks[1].raw_len + info.chunks[2].raw_len;
  expect_within_bound(std::span<const f32>(v).subspan(lo, cnt),
                      r.read(lo, cnt), 1e-4);
  // ...while a range touching chunk 0 throws.
  EXPECT_THROW((void)r.read(0, 16), error);
}

TEST(Chunked, StreamingEqualsInMemoryCompression) {
  const dims3 d{128, 32, 8};
  chunked_options opt;
  opt.chunk_elems = 3 * 128 * 32;
  opt.jobs = 3;
  chunked_pipeline<f32> cp(pipeline_config{}, opt);
  const auto v = smooth_field(d, 99);
  const auto whole = cp.compress(v, d);

  std::vector<u8> streamed;
  std::atomic<std::size_t> pulls{0};
  cp.compress_stream(
      [&](f32* dst, u64 off, std::size_t n) {
        pulls.fetch_add(1, std::memory_order_relaxed);
        std::copy_n(v.data() + off, n, dst);
      },
      d, [&](std::span<const u8> b) {
        streamed.insert(streamed.end(), b.begin(), b.end());
      });
  EXPECT_EQ(whole, streamed);
  EXPECT_EQ(pulls.load(), 3u);  // one pull per chunk
}

TEST(Chunked, DecompressAnyHandlesBothForms) {
  const dims3 d{64, 24, 1};
  const auto v = smooth_field(d, 42);
  pipeline<f32> plain(pipeline_config{});
  const auto v2 = plain.compress(v, d);
  chunked_options opt;
  opt.chunk_elems = 64 * 6;
  chunked_pipeline<f32> cp(pipeline_config{}, opt);
  const auto v3 = cp.compress(v, d);
  ASSERT_TRUE(fmt::is_chunk_container(v3));
  expect_within_bound(v, decompress_any<f32>(v2), 1e-4);
  expect_within_bound(v, decompress_any<f32>(v3), 1e-4);
}

TEST(Chunked, DtypeMismatchThrows) {
  const dims3 d{64, 24, 1};
  chunked_options opt;
  opt.chunk_elems = 64 * 6;
  chunked_pipeline<f32> cp(pipeline_config{}, opt);
  const auto arch = cp.compress(smooth_field(d), d);
  chunked_pipeline<f64> cp64(pipeline_config{});
  EXPECT_THROW((void)cp64.decompress(arch), error);
}

TEST(Chunked, VerifyChunkedOnCleanContainerAndPlainArchive) {
  const dims3 d{64, 24, 1};
  chunked_options opt;
  opt.chunk_elems = 64 * 8;
  chunked_pipeline<f32> cp(pipeline_config{}, opt);
  const auto v3 = cp.compress(smooth_field(d), d);
  EXPECT_TRUE(verify_chunked(v3).ok());

  pipeline<f32> plain(pipeline_config{});
  const auto v2 = plain.compress(smooth_field(d), d);
  const auto rep = verify_chunked(v2);
  EXPECT_TRUE(rep.ok());
  ASSERT_EQ(rep.chunks.size(), 1u);
  EXPECT_EQ(rep.chunks[0].inner.version, 2u);
}

TEST(Chunked, TruncatedContainerThrows) {
  const dims3 d{64, 24, 1};
  chunked_options opt;
  opt.chunk_elems = 64 * 6;
  chunked_pipeline<f32> cp(pipeline_config{}, opt);
  const auto arch = cp.compress(smooth_field(d), d);
  for (const std::size_t keep :
       {std::size_t{5}, sizeof(fmt::chunk_header_v3), arch.size() - 9}) {
    EXPECT_THROW(
        (void)cp.decompress(std::span<const u8>(arch.data(), keep)), error);
  }
}

TEST(Snapshot, ChunkedFieldsRoundTripThroughSnapshot) {
  const dims3 d{64, 16, 6};
  const auto v = smooth_field(d, 77);
  snapshot_writer w;
  chunked_options opt;
  opt.chunk_elems = 2 * 64 * 16;
  w.set_chunking(opt);
  w.add("temperature", v, d);
  const auto blob = w.finish();

  snapshot_reader r(blob);
  ASSERT_TRUE(fmt::is_chunk_container(r.archive("temperature")));
  EXPECT_TRUE(r.verify_all());
  EXPECT_TRUE(r.verify("temperature").ok());
  expect_within_bound(v, r.read("temperature"), 1e-4);
}

TEST(Pipeline, ConcurrentUseOfOnePipelineThrows) {
  const dims3 d{96, 64, 4};
  const auto v = smooth_field(d, 13);
  pipeline<f32> pipe(pipeline_config{});
  std::atomic<int> busy_errors{0};
  std::atomic<int> successes{0};
  std::vector<std::thread> threads;
  // Hammer one pipeline from several threads: every call must either run
  // exclusively or throw the busy error — never corrupt scratch silently.
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int k = 0; k < 8; ++k) {
        try {
          const auto arch = pipe.compress(v, d);
          expect_within_bound(v, decompress_any<f32>(arch), 1e-4);
          successes.fetch_add(1);
        } catch (const error&) {
          busy_errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GE(successes.load(), 1);
  EXPECT_EQ(successes.load() + busy_errors.load(), 32);
}

TEST(Chunked, TraceSlotOccupancyMatchesJobs) {
  // The slot scheduler publishes its occupancy through the trace
  // recorder: one "chunk#N" span per chunk, a chunked.slots counter
  // equal to the worker count, and chunked.inflight samples that never
  // exceed the claim window (2 x jobs).
  trace::set_enabled(true);
  trace::clear();
  const dims3 d{64, 16, 12};
  const auto v = smooth_field(d, 23);
  chunked_options opt;
  opt.chunk_elems = 2 * 64 * 16;  // 6 chunks of 2 slabs
  opt.jobs = 3;
  chunked_pipeline<f32> pipe(pipeline_config{}, opt);
  const auto arch = pipe.compress(v, d);
  const u64 nchunks = inspect_chunked(arch).nchunks;
  ASSERT_EQ(nchunks, 6u);

  const auto evs = trace::snapshot();
  std::set<std::string> chunk_spans;
  f64 slots = -1, max_inflight = 0;
  u64 commits = 0;
  for (const auto& e : evs) {
    if (e.k == trace::kind::span && std::string_view(e.cat) == "chunked") {
      chunk_spans.insert(e.name);
    } else if (e.k == trace::kind::counter &&
               std::string_view(e.name) == "chunked.slots") {
      slots = e.value;
    } else if (e.k == trace::kind::counter &&
               std::string_view(e.name) == "chunked.inflight") {
      max_inflight = std::max(max_inflight, e.value);
    } else if (e.k == trace::kind::instant &&
               std::string_view(e.cat) == "chunked" &&
               std::string_view(e.name) == "commit") {
      ++commits;
    }
  }
  trace::set_enabled(false);
  trace::clear();

  // One span per chunk, uniquely named chunk#0..chunk#5.
  EXPECT_EQ(chunk_spans.size(), nchunks);
  for (u64 c = 0; c < nchunks; ++c) {
    EXPECT_TRUE(chunk_spans.count("chunk#" + std::to_string(c)));
  }
  // Worker count = min(jobs, nchunks) = 3; every chunk commits once;
  // in-flight occupancy is bounded by the 2x window.
  EXPECT_EQ(slots, 3.0);
  EXPECT_EQ(commits, nchunks);
  EXPECT_GE(max_inflight, 1.0);
  EXPECT_LE(max_inflight, 2.0 * 3.0);

  // The traced run still round-trips.
  expect_within_bound(v, decompress_any<f32>(arch), 1e-4);
}

}  // namespace
}  // namespace fzmod::core
