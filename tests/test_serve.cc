// Tests for the serving layer (fzmod/serve): pipeline pool checkout /
// checkin under thread stress, leaked-lease detection, admission control
// (queue-full, deadline expiry, shutdown), byte identity of co-queued
// compresses, bounded memory under distinct per-request specs,
// tenant-fair scheduling, strict FZMOD_SERVE_* env parsing, the
// busy-guard's exception safety, and the daemon's framed protocol
// handler. Runs in the TSan CI job.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "fzmod/common/rng.hh"
#include "fzmod/core/pipeline.hh"
#include "fzmod/device/runtime.hh"
#include "fzmod/metrics/metrics.hh"
#include "fzmod/serve/daemon.hh"
#include "fzmod/serve/serve.hh"

namespace fzmod::serve {
namespace {

std::vector<f32> smooth_field(dims3 d, u64 seed = 11) {
  rng r(seed);
  std::vector<f32> v(d.len());
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<f32>(std::sin(0.004 * static_cast<f64>(i)) * 25 +
                            0.05 * r.normal());
  }
  return v;
}

core::pipeline_config test_config(f64 eb = 1e-4) {
  return core::pipeline_config::preset_default({eb, eb_mode::rel});
}

void expect_within_bound(std::span<const f32> a, std::span<const f32> b,
                         f64 rel_eb) {
  ASSERT_EQ(a.size(), b.size());
  const auto err = metrics::compare(a, b);
  EXPECT_LE(err.max_abs_err,
            metrics::f32_bound_slack(rel_eb * err.range, err.range));
}

/// A field big enough that one compress occupies a worker for many
/// milliseconds — used to hold the single worker busy while the queue is
/// loaded deterministically. Small requests submit in microseconds.
std::vector<f32> blocker_field(dims3& d_out) {
  d_out = dims3{256, 256, 48};  // ~3.1M values
  return smooth_field(d_out, 3);
}

// ---------------------------------------------------------------------------
// Pool

TEST(ServePool, StressCheckoutRespectsCapAndLeaksNothing) {
  pool_options popt;
  popt.cap = 3;
  pipeline_pool<f32> pool(test_config(), popt);

  const dims3 d{64, 32, 1};
  const auto field = smooth_field(d);
  const u64 leaked_before = pool_leaked_leases();

  constexpr int kThreads = 8, kIters = 12;
  std::atomic<int> failures{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        auto lease = pool.acquire();
        const auto archive =
            lease->compress(std::span<const f32>(field), d);
        if (lease->decompress(archive).size() != d.len()) ++failures;
      }
    });
  }
  for (auto& t : ts) t.join();

  EXPECT_EQ(failures.load(), 0);
  const auto st = pool.stats();
  EXPECT_LE(st.created, 3u);
  EXPECT_LE(st.peak_outstanding, 3u);
  EXPECT_EQ(st.outstanding, 0u);
  // Every acquire either reused an idle pipeline or constructed one; the
  // pipeline built with the pool was constructed without an acquire.
  EXPECT_EQ((st.created - 1) + st.reuses, u64{kThreads} * kIters);
  EXPECT_EQ(pool_leaked_leases(), leaked_before);
}

TEST(ServePool, TryAcquireReportsExhaustion) {
  pool_options popt;
  popt.cap = 1;
  pipeline_pool<f32> pool(test_config(), popt);
  auto held = pool.acquire();
  EXPECT_FALSE(pool.try_acquire().has_value());
  // Returning the lease makes the pipeline available again.
  {
    auto drop = std::move(held);
  }
  auto again = pool.try_acquire();
  ASSERT_TRUE(again.has_value());
  EXPECT_TRUE(static_cast<bool>(*again));
}

TEST(ServePool, LeakedLeaseIsDetectedOnceNotTwice) {
  const u64 before = pool_leaked_leases();
  std::optional<pipeline_pool<f32>::lease> escaped;
  {
    pool_options popt;
    popt.cap = 2;
    pipeline_pool<f32> pool(test_config(), popt);
    escaped = pool.acquire();
  }  // pool destroyed with one lease outstanding
  EXPECT_EQ(pool_leaked_leases(), before + 1);
  // The escaped lease still works (shared state keeps it alive) and its
  // late checkin must not count a second leak or crash.
  const dims3 d{32, 1, 1};
  const auto field = smooth_field(d);
  EXPECT_NO_THROW({
    auto archive = (*escaped)->compress(std::span<const f32>(field), d);
    (void)(*escaped)->decompress(archive);
  });
  escaped.reset();
  EXPECT_EQ(pool_leaked_leases(), before + 1);
}

TEST(ServePool, WarmUpPopulatesScratch) {
  pool_options popt;
  popt.cap = 2;
  pipeline_pool<f32> pool(test_config(), popt);
  EXPECT_EQ(pool.stats().created, 1u);
  // warm_up grows the pool to its cap and warms every pipeline.
  EXPECT_NO_THROW(pool.warm_up(dims3{64, 64, 4}));
  const auto st = pool.stats();
  EXPECT_EQ(st.created, 2u);
  EXPECT_EQ(st.outstanding, 0u);
}

TEST(ServePool, FailedWarmUpKeepsThePoolUsable) {
  // The log preprocessor rejects the warm-up field's negative values.
  core::pipeline_config cfg = test_config();
  cfg.preprocessor = core::preprocess_log;
  pool_options popt;
  popt.cap = 1;
  pipeline_pool<f32> pool(cfg, popt);
  EXPECT_THROW(pool.warm_up(dims3{64, 64, 4}), error);
  // The pipeline went back to the pool: a checkout does not block.
  EXPECT_TRUE(pool.try_acquire().has_value());
  EXPECT_EQ(pool.stats().created, 1u);
}

// ---------------------------------------------------------------------------
// Busy guard (satellite: RAII exception safety)

TEST(ServeBusyGuard, PipelineUsableAfterMidCallThrow) {
  core::pipeline<f32> p(test_config());
  const std::vector<u8> garbage{'n', 'o', 't', ' ', 'a', 'n', ' ',
                                'a', 'r', 'c', 'h', 'i', 'v', 'e'};
  EXPECT_THROW((void)p.decompress(garbage), error);
  // The busy flag must have been released on unwind: the same object
  // serves a normal request afterwards.
  const dims3 d{48, 16, 1};
  const auto field = smooth_field(d);
  const auto archive = p.compress(std::span<const f32>(field), d);
  expect_within_bound(field, p.decompress(archive), 1e-4);
}

// ---------------------------------------------------------------------------
// Server admission control

TEST(ServeServer, CompressDecompressRoundTrip) {
  server_options sopt;
  sopt.workers = 2;
  sopt.queue_depth = 16;
  server srv(test_config(), sopt);

  const dims3 d{100, 50, 2};
  const auto field = smooth_field(d);
  request c;
  c.kind = request::op::compress;
  c.data = field;
  c.dims = d;
  response rc = srv.execute(std::move(c));
  ASSERT_TRUE(rc.ok) << rc.error;
  EXPECT_FALSE(rc.archive.empty());

  request dreq;
  dreq.kind = request::op::decompress;
  dreq.archive = rc.archive;
  response rd = srv.execute(std::move(dreq));
  ASSERT_TRUE(rd.ok) << rd.error;
  expect_within_bound(field, rd.data, 1e-4);

  const auto st = srv.stats();
  EXPECT_EQ(st.admitted, 2u);
  EXPECT_EQ(st.completed, 2u);
  EXPECT_EQ(st.queue_depth, 0u);
}

TEST(ServeServer, BadRequestsRejectSynchronously) {
  server_options sopt;
  sopt.workers = 1;
  server srv(test_config(), sopt);

  request mismatched;
  mismatched.kind = request::op::compress;
  mismatched.dims = dims3{16, 16, 1};
  mismatched.data.resize(5);  // != dims.len()
  response r1 = srv.execute(std::move(mismatched));
  EXPECT_FALSE(r1.ok);
  EXPECT_EQ(r1.reason, reject_reason::bad_request);

  request empty;
  empty.kind = request::op::decompress;
  response r2 = srv.execute(std::move(empty));
  EXPECT_FALSE(r2.ok);
  EXPECT_EQ(r2.reason, reject_reason::bad_request);
  EXPECT_EQ(srv.stats().rejected_bad, 2u);
}

/// Submit a compress request for `field` with shape `d`.
std::future<response> submit_compress(server& srv, const std::vector<f32>& f,
                                      dims3 d, std::string tenant = "",
                                      u64 deadline_ms = 0) {
  request r;
  r.kind = request::op::compress;
  r.data = f;
  r.dims = d;
  r.tenant = std::move(tenant);
  r.deadline_ms = deadline_ms;
  return srv.submit(std::move(r));
}

/// Park the single worker on a multi-millisecond compress and wait until
/// it has actually been picked up (queue observed empty after admission).
std::future<response> occupy_worker(server& srv, const std::vector<f32>& bf,
                                    dims3 bd) {
  auto fut = submit_compress(srv, bf, bd);
  while (srv.stats().queue_depth != 0) {
    std::this_thread::yield();
  }
  return fut;
}

/// The blocker-based tests assume the worker is still busy while the test
/// thread loads the queue. Under heavy machine load (parallel ctest) the
/// test thread can be descheduled long enough for the blocker to retire
/// first — that voids the premise, not the property. Each such test runs
/// the scenario against a fresh server (so counters are exact per attempt)
/// and retries up to this many times; a server with the property actually
/// broken fails every attempt deterministically.
constexpr int kPremiseAttempts = 5;

TEST(ServeServer, QueueFullRejectsWithReason) {
  dims3 bd;
  const auto bf = blocker_field(bd);
  const dims3 d{64, 8, 1};
  const auto small = smooth_field(d);

  bool saw_queue_full = false;
  for (int a = 0; a < kPremiseAttempts && !saw_queue_full; ++a) {
    server_options sopt;
    sopt.workers = 1;
    sopt.queue_depth = 3;
    server srv(test_config(), sopt);

    auto blocker = occupy_worker(srv, bf, bd);
    std::vector<std::future<response>> admitted;
    for (int i = 0; i < 3; ++i) {
      admitted.push_back(submit_compress(srv, small, d));
    }
    // Queue is at depth 3 == cap while the worker chews the blocker.
    response overflow = submit_compress(srv, small, d).get();
    if (!overflow.ok) {
      saw_queue_full = true;
      EXPECT_EQ(overflow.reason, reject_reason::queue_full);
      EXPECT_STREQ(to_string(overflow.reason), "queue_full");
      EXPECT_EQ(srv.stats().rejected_full, 1u);
      EXPECT_EQ(srv.stats().peak_depth, 3u);
    }
    EXPECT_TRUE(blocker.get().ok);
    for (auto& f : admitted) EXPECT_TRUE(f.get().ok);
  }
  ASSERT_TRUE(saw_queue_full)
      << "overflow was never rejected across " << kPremiseAttempts
      << " attempts";
}

TEST(ServeServer, DeadlineExpiresInQueue) {
  dims3 bd;
  const auto bf = blocker_field(bd);
  const dims3 d{64, 8, 1};
  const auto small = smooth_field(d);

  bool saw_deadline = false;
  for (int a = 0; a < kPremiseAttempts && !saw_deadline; ++a) {
    server_options sopt;
    sopt.workers = 1;
    sopt.queue_depth = 8;
    server srv(test_config(), sopt);

    auto blocker = occupy_worker(srv, bf, bd);
    // The blocker runs for many ms; a 1 ms deadline expires in the queue.
    response late = submit_compress(srv, small, d, "", 1).get();
    EXPECT_TRUE(blocker.get().ok);
    if (!late.ok) {
      saw_deadline = true;
      EXPECT_EQ(late.reason, reject_reason::deadline);
      EXPECT_EQ(srv.stats().rejected_deadline, 1u);
    }
  }
  ASSERT_TRUE(saw_deadline)
      << "deadline never expired in queue across " << kPremiseAttempts
      << " attempts";
}

TEST(ServeServer, StopDrainsThenRejectsNewWork) {
  server_options sopt;
  sopt.workers = 1;
  sopt.queue_depth = 16;
  server srv(test_config(), sopt);

  const dims3 d{64, 32, 1};
  const auto field = smooth_field(d);
  std::vector<std::future<response>> futs;
  for (int i = 0; i < 4; ++i) futs.push_back(submit_compress(srv, field, d));
  srv.stop();
  for (auto& f : futs) {
    const response r = f.get();
    EXPECT_TRUE(r.ok) << r.error;  // queued work drains across stop()
  }
  response refused = submit_compress(srv, field, d).get();
  EXPECT_FALSE(refused.ok);
  EXPECT_EQ(refused.reason, reject_reason::shutdown);
}

// ---------------------------------------------------------------------------
// Per-request pipeline specs

TEST(ServeServer, PerRequestSpecOverridesBoundPipeline) {
  server_options sopt;
  sopt.workers = 1;
  server srv(test_config(), sopt);

  const dims3 d{80, 40, 1};
  const auto field = smooth_field(d);
  request c;
  c.kind = request::op::compress;
  c.data = field;
  c.dims = d;
  c.spec = "delta+fixed-block";
  response rc = srv.execute(std::move(c));
  ASSERT_TRUE(rc.ok) << rc.error;
  // The spec rode into the archive: it self-describes as the override,
  // not as the server's bound preset.
  EXPECT_EQ(core::inspect_archive(rc.archive).spec, "delta+fixed-block");

  // Decompression needs no spec — the same server decodes it.
  request dreq;
  dreq.kind = request::op::decompress;
  dreq.archive = rc.archive;
  response rd = srv.execute(std::move(dreq));
  ASSERT_TRUE(rd.ok) << rd.error;
  expect_within_bound(field, rd.data, 1e-4);
  EXPECT_EQ(srv.stats().spec_requests, 1u);

  // A malformed spec rejects synchronously with the parse error's text.
  request bad;
  bad.kind = request::op::compress;
  bad.data = field;
  bad.dims = d;
  bad.spec = "lorenzo+hufman";
  response rb = srv.execute(std::move(bad));
  EXPECT_FALSE(rb.ok);
  EXPECT_EQ(rb.reason, reject_reason::bad_request);
  EXPECT_NE(rb.error.find("hufman"), std::string::npos) << rb.error;
  EXPECT_EQ(srv.stats().spec_requests, 1u);  // rejected specs don't count
}

TEST(ServeServer, DistinctSpecsDoNotGrowDeviceMemory) {
  server_options sopt;
  sopt.workers = 1;
  server srv(test_config(), sopt);
  const dims3 d{64, 64, 12};
  const auto field = smooth_field(d);
  // Every radius makes a distinct canonical spec; a server that kept a
  // pipeline per spec would hold one more set of scratch per request.
  const auto serve_radii = [&](int from, int to) {
    for (int radius = from; radius < to; ++radius) {
      request c;
      c.kind = request::op::compress;
      c.data = field;
      c.dims = d;
      c.spec = "lorenzo(radius=" + std::to_string(radius) + ")+huffman";
      const response r = srv.execute(std::move(c));
      EXPECT_TRUE(r.ok) << r.error;
    }
  };
  auto& rt = device::runtime::instance();
  serve_radii(100, 108);
  const u64 after_8 = rt.stats_snapshot().device_bytes_in_use;
  serve_radii(108, 172);
  const u64 after_72 = rt.stats_snapshot().device_bytes_in_use;
  EXPECT_LE(after_72, after_8);
  EXPECT_EQ(srv.stats().spec_requests, 72u);
}

// ---------------------------------------------------------------------------
// Co-queued requests

TEST(ServeServer, CoQueuedCompressesAreByteIdenticalToIndividualRuns) {
  dims3 bd;
  const auto bf = blocker_field(bd);
  const dims3 d{50, 20, 4};
  std::vector<std::vector<f32>> fields;
  for (int i = 0; i < 4; ++i) {
    fields.push_back(smooth_field(d, 100 + static_cast<u64>(i)));
  }
  core::pipeline<f32> reference(test_config());

  bool coqueued = false;
  for (int a = 0; a < kPremiseAttempts && !coqueued; ++a) {
    server_options sopt;
    sopt.workers = 1;
    sopt.queue_depth = 32;
    server srv(test_config(), sopt);

    auto blocker = occupy_worker(srv, bf, bd);
    // Four same-shaped small requests queue behind the blocker.
    std::vector<std::future<response>> futs;
    for (int i = 0; i < 4; ++i) {
      futs.push_back(submit_compress(srv, fields[i], d, "t"));
    }
    EXPECT_TRUE(blocker.get().ok);

    for (std::size_t i = 0; i < futs.size(); ++i) {
      const response r = futs[i].get();
      ASSERT_TRUE(r.ok) << r.error;
      const auto individual =
          reference.compress(std::span<const f32>(fields[i]), d);
      ASSERT_EQ(r.archive.size(), individual.size());
      EXPECT_EQ(0, std::memcmp(r.archive.data(), individual.data(),
                               individual.size()));
      expect_within_bound(fields[i], reference.decompress(r.archive), 1e-4);
    }
    // peak_depth >= 4 proves all four were co-queued (the single worker
    // removes nothing mid-load). Below 4 the blocker retired mid-load:
    // premise void, retry.
    coqueued = srv.stats().peak_depth >= 4;
  }
  ASSERT_TRUE(coqueued)
      << "four requests were never co-queued across " << kPremiseAttempts
      << " attempts";
}

TEST(ServeServer, CoQueuedBadRequestFailsOnlyItself) {
  dims3 bd;
  const auto bf = blocker_field(bd);
  const dims3 d{50, 20, 4};
  std::vector<std::vector<f32>> fields;
  for (int i = 0; i < 4; ++i) {
    fields.push_back(smooth_field(d, 200 + static_cast<u64>(i)));
  }
  // No finite bound is a fraction of an infinite range: request 2 alone
  // must fail, the other three must not notice it was queued beside them.
  constexpr std::size_t bad = 2;
  fields[bad][17] = std::numeric_limits<f32>::infinity();
  core::pipeline<f32> reference(test_config());

  bool coqueued = false;
  for (int a = 0; a < kPremiseAttempts && !coqueued; ++a) {
    server_options sopt;
    sopt.workers = 1;
    sopt.queue_depth = 32;
    server srv(test_config(), sopt);

    auto blocker = occupy_worker(srv, bf, bd);
    std::vector<std::future<response>> futs;
    for (std::size_t i = 0; i < fields.size(); ++i) {
      futs.push_back(submit_compress(srv, fields[i], d,
                                     "t" + std::to_string(i)));
    }
    EXPECT_TRUE(blocker.get().ok);

    for (std::size_t i = 0; i < futs.size(); ++i) {
      const response r = futs[i].get();
      if (i == bad) {
        EXPECT_FALSE(r.ok);
        EXPECT_NE(r.error.find("non-finite value range"), std::string::npos)
            << r.error;
        continue;
      }
      ASSERT_TRUE(r.ok) << r.error;
      const auto individual =
          reference.compress(std::span<const f32>(fields[i]), d);
      ASSERT_EQ(r.archive.size(), individual.size());
      EXPECT_EQ(0, std::memcmp(r.archive.data(), individual.data(),
                               individual.size()));
    }
    // Co-queued: see CoQueuedCompressesAreByteIdenticalToIndividualRuns.
    coqueued = srv.stats().peak_depth >= 4;
  }
  ASSERT_TRUE(coqueued)
      << "four requests were never co-queued across " << kPremiseAttempts
      << " attempts";
}

// ---------------------------------------------------------------------------
// Tenant fairness

TEST(ServeServer, RoundRobinAcrossTenants) {
  dims3 bd;
  const auto bf = blocker_field(bd);
  const dims3 d{64, 16, 1};
  const auto field = smooth_field(d);

  bool co_queued = false;
  for (int a = 0; a < kPremiseAttempts && !co_queued; ++a) {
    server_options sopt;
    sopt.workers = 1;
    sopt.queue_depth = 32;
    server srv(test_config(), sopt);

    auto blocker = occupy_worker(srv, bf, bd);
    // Tenant A floods four requests, then tenant B trickles two. Fair
    // round-robin must interleave: A B A B A A — B never waits behind the
    // whole flood.
    std::vector<std::future<response>> a_futs, b_futs;
    for (int i = 0; i < 4; ++i) {
      a_futs.push_back(submit_compress(srv, field, d, "tenant-a"));
    }
    for (int i = 0; i < 2; ++i) {
      b_futs.push_back(submit_compress(srv, field, d, "tenant-b"));
    }
    EXPECT_TRUE(blocker.get().ok);

    std::vector<u64> a_order, b_order;
    for (auto& f : a_futs) {
      response r = f.get();
      ASSERT_TRUE(r.ok) << r.error;
      a_order.push_back(r.order);
    }
    for (auto& f : b_futs) {
      response r = f.get();
      ASSERT_TRUE(r.ok) << r.error;
      b_order.push_back(r.order);
    }
    // FIFO within a tenant holds regardless of when the blocker retired.
    EXPECT_LT(a_order[0], a_order[1]);
    EXPECT_LT(a_order[1], a_order[2]);
    EXPECT_LT(b_order[0], b_order[1]);
    // The interleaving claim needs all six co-queued before the first
    // dequeue — proven by peak_depth >= 6 (the single worker removes
    // nothing mid-load). Below 6 the blocker retired early: retry.
    if (srv.stats().peak_depth >= 6) {
      co_queued = true;
      // B's first completes before A's third, B's second before A's fourth.
      EXPECT_LT(b_order[0], a_order[2]);
      EXPECT_LT(b_order[1], a_order[3]);
    }
  }
  ASSERT_TRUE(co_queued)
      << "six requests were never co-queued across " << kPremiseAttempts
      << " attempts";
}

// ---------------------------------------------------------------------------
// Strict env parsing

TEST(ServeEnv, GarbageKnobThrowsNamingTheVariable) {
  setenv("FZMOD_SERVE_QUEUE", "lots", 1);
  try {
    server_options sopt;
    server srv(test_config(), sopt);
    unsetenv("FZMOD_SERVE_QUEUE");
    FAIL() << "garbage FZMOD_SERVE_QUEUE must throw";
  } catch (const error& e) {
    unsetenv("FZMOD_SERVE_QUEUE");
    EXPECT_EQ(e.code(), status::invalid_argument);
    EXPECT_NE(std::string(e.what()).find("FZMOD_SERVE_QUEUE"),
              std::string::npos);
  }
}

TEST(ServeEnv, EnvKnobsResolveAndClampWhenUnset) {
  for (const char* v : {"FZMOD_SERVE_POOL", "FZMOD_SERVE_QUEUE",
                        "FZMOD_SERVE_DEADLINE_MS", "FZMOD_SERVE_WORKERS"}) {
    unsetenv(v);
  }
  server_options sopt;
  EXPECT_EQ(sopt.resolve_queue_depth(), 64u);
  EXPECT_EQ(sopt.resolve_deadline_ms(), 0u);
  EXPECT_EQ(sopt.resolve_workers(), 2u);
  EXPECT_EQ(sopt.pool.resolve_cap(), 4u);
  // Explicit values win over the environment and clamp.
  setenv("FZMOD_SERVE_WORKERS", "9", 1);
  sopt.workers = 3;
  EXPECT_EQ(sopt.resolve_workers(), 3u);
  unsetenv("FZMOD_SERVE_WORKERS");
  sopt.pool.cap = 1000;
  EXPECT_EQ(sopt.pool.resolve_cap(), 256u);
}

// ---------------------------------------------------------------------------
// Daemon protocol handler (the wire format, minus the sockets)

std::vector<u8> frame_compress(dims3 d, std::span<const f32> data,
                               std::string_view tenant = "") {
  std::vector<u8> body;
  body.push_back(op_compress);
  body.push_back(static_cast<u8>(tenant.size()));
  body.insert(body.end(), tenant.begin(), tenant.end());
  const u64 dims[3] = {d.x, d.y, d.z};
  const u8* dp = reinterpret_cast<const u8*>(dims);
  body.insert(body.end(), dp, dp + sizeof(dims));
  const u8* fp = reinterpret_cast<const u8*>(data.data());
  body.insert(body.end(), fp, fp + data.size_bytes());
  return body;
}

TEST(ServeDaemon, ProtocolRoundTripAndErrors) {
  server_options sopt;
  sopt.workers = 1;
  server srv(test_config(), sopt);
  bool want_shutdown = false;

  // ping
  const std::vector<u8> ping{op_ping, 0};
  auto pong = handle_request_body(srv, ping, want_shutdown);
  ASSERT_FALSE(pong.empty());
  EXPECT_EQ(pong[0], wire_ok);
  EXPECT_FALSE(want_shutdown);

  // compress then decompress through the wire encoding
  const dims3 d{60, 25, 2};
  const auto field = smooth_field(d);
  auto creq = frame_compress(d, field, "wire");
  auto cresp = handle_request_body(srv, creq, want_shutdown);
  ASSERT_GT(cresp.size(), 1u);
  ASSERT_EQ(cresp[0], wire_ok);

  std::vector<u8> dreq;
  dreq.push_back(op_decompress);
  dreq.push_back(0);
  dreq.insert(dreq.end(), cresp.begin() + 1, cresp.end());
  auto dresp = handle_request_body(srv, dreq, want_shutdown);
  ASSERT_GT(dresp.size(), 1u);
  ASSERT_EQ(dresp[0], wire_ok);
  ASSERT_EQ(dresp.size() - 1, d.len() * sizeof(f32));
  std::vector<f32> recon(d.len());
  std::memcpy(recon.data(), dresp.data() + 1, dresp.size() - 1);
  expect_within_bound(field, recon, 1e-4);

  // payload/dims mismatch
  auto bad = frame_compress(d, std::span<const f32>(field).subspan(1));
  auto badresp = handle_request_body(srv, bad, want_shutdown);
  ASSERT_FALSE(badresp.empty());
  EXPECT_EQ(badresp[0], static_cast<u8>(reject_reason::bad_request));

  // unknown op, truncated header
  const std::vector<u8> unknown{99, 0};
  EXPECT_EQ(handle_request_body(srv, unknown, want_shutdown)[0],
            static_cast<u8>(reject_reason::bad_request));
  const std::vector<u8> truncated{op_compress};
  EXPECT_EQ(handle_request_body(srv, truncated, want_shutdown)[0],
            static_cast<u8>(reject_reason::bad_request));
  EXPECT_FALSE(want_shutdown);

  // shutdown raises the flag and still acks
  const std::vector<u8> bye{op_shutdown, 0};
  auto byeresp = handle_request_body(srv, bye, want_shutdown);
  EXPECT_EQ(byeresp[0], wire_ok);
  EXPECT_TRUE(want_shutdown);
}

std::vector<u8> frame_compress_spec(std::string_view spec, dims3 d,
                                    std::span<const f32> data) {
  std::vector<u8> body;
  body.push_back(op_compress_spec);
  body.push_back(0);  // no tenant
  const u16 spec_len = static_cast<u16>(spec.size());
  const u8* sp = reinterpret_cast<const u8*>(&spec_len);
  body.insert(body.end(), sp, sp + sizeof(spec_len));
  body.insert(body.end(), spec.begin(), spec.end());
  const u64 dims[3] = {d.x, d.y, d.z};
  const u8* dp = reinterpret_cast<const u8*>(dims);
  body.insert(body.end(), dp, dp + sizeof(dims));
  const u8* fp = reinterpret_cast<const u8*>(data.data());
  body.insert(body.end(), fp, fp + data.size_bytes());
  return body;
}

TEST(ServeDaemon, SpecFrameRoundTripAndRejection) {
  server_options sopt;
  sopt.workers = 1;
  server srv(test_config(), sopt);
  bool want_shutdown = false;

  const dims3 d{50, 20, 2};
  const auto field = smooth_field(d);
  auto creq = frame_compress_spec("delta+huffman", d, field);
  auto cresp = handle_request_body(srv, creq, want_shutdown);
  ASSERT_GT(cresp.size(), 1u);
  ASSERT_EQ(cresp[0], wire_ok);
  const std::vector<u8> archive(cresp.begin() + 1, cresp.end());
  EXPECT_EQ(core::inspect_archive(archive).spec, "delta+huffman");

  // The archive self-describes: a default-constructed local pipeline
  // (no spec, no flags) reconstructs it.
  core::pipeline<f32> p{core::pipeline_config{}};
  expect_within_bound(field, p.decompress(archive), 1e-4);

  // Malformed spec text → bad_request echoing the offending token.
  auto bad = frame_compress_spec("lorenzo+hufman", d, field);
  auto badresp = handle_request_body(srv, bad, want_shutdown);
  ASSERT_FALSE(badresp.empty());
  EXPECT_EQ(badresp[0], static_cast<u8>(reject_reason::bad_request));
  const std::string err(badresp.begin() + 1, badresp.end());
  EXPECT_NE(err.find("hufman"), std::string::npos) << err;

  // Spec length running past the frame → bad_request, no crash.
  std::vector<u8> trunc{op_compress_spec, 0, 0xFF, 0xFF};
  auto truncresp = handle_request_body(srv, trunc, want_shutdown);
  ASSERT_FALSE(truncresp.empty());
  EXPECT_EQ(truncresp[0], static_cast<u8>(reject_reason::bad_request));
  EXPECT_FALSE(want_shutdown);
}

}  // namespace
}  // namespace fzmod::serve
