// Unit tests: software device runtime — buffers, streams, kernel
// launches, transfer accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <future>
#include <numeric>
#include <thread>

#include "fzmod/device/runtime.hh"

namespace fzmod::device {
namespace {

TEST(Buffer, AllocatesInRequestedSpace) {
  buffer<f32> h(16, space::host);
  buffer<f32> d(16, space::device);
  EXPECT_EQ(h.where(), space::host);
  EXPECT_EQ(d.where(), space::device);
  EXPECT_EQ(h.size(), 16u);
  EXPECT_EQ(d.bytes(), 64u);
  EXPECT_NO_THROW(h.assert_space(space::host));
  EXPECT_THROW(h.assert_space(space::device), error);
}

TEST(Buffer, DeviceAccountingTracksPeak) {
  auto& st = runtime::instance().stats();
  const u64 before = st.device_bytes_in_use.load();
  {
    buffer<u8> d(1 << 20, space::device);
    EXPECT_EQ(st.device_bytes_in_use.load(), before + (1u << 20));
    EXPECT_GE(st.device_bytes_peak.load(), before + (1u << 20));
  }
  EXPECT_EQ(st.device_bytes_in_use.load(), before);
}

TEST(Buffer, MoveTransfersOwnership) {
  buffer<i32> a(8, space::host);
  a.data()[3] = 42;
  buffer<i32> b = std::move(a);
  EXPECT_EQ(b.size(), 8u);
  EXPECT_EQ(b.data()[3], 42);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move)
}

TEST(Stream, OpsRunInFifoOrder) {
  stream s;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    s.enqueue([&order, i] { order.push_back(i); });
  }
  s.sync();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST(Stream, SyncIsIdempotentAndReusable) {
  stream s;
  int x = 0;
  s.enqueue([&x] { x = 1; });
  s.sync();
  s.sync();
  s.enqueue([&x] { x = 2; });
  s.sync();
  EXPECT_EQ(x, 2);
}

TEST(Stream, ErrorPropagatesThroughSyncAndClearsQueue) {
  stream s;
  std::atomic<bool> later_ran{false};
  // Gate the first op so both later ops sit queued behind the throwing one
  // (ops enqueued after it has run are covered below).
  std::mutex gate;
  gate.lock();
  s.enqueue([&gate] { std::lock_guard lk(gate); });
  s.enqueue([] { throw error(status::internal, "kernel died"); });
  s.enqueue([&later_ran] { later_ran = true; });
  gate.unlock();
  EXPECT_THROW(s.sync(), error);
  EXPECT_FALSE(later_ran.load());
  // The stream is usable again after the error was consumed.
  int x = 0;
  s.enqueue([&x] { x = 7; });
  s.sync();
  EXPECT_EQ(x, 7);
}

// The post-failure contract, checked without gating: the throwing op has
// run before the next op is enqueued, so nothing keeps that op queued
// behind it. It must still be skipped, the next sync() reports the error,
// and the stream works again afterwards.
void check_error_skips_ops_until_sync() {
  stream s;
  std::atomic<bool> threw{false};
  s.enqueue([&threw] {
    threw = true;
    throw error(status::internal, "kernel died");
  });
  while (!threw.load()) std::this_thread::yield();
  // Let a queued drain go idle first, so the next op cannot be cleared
  // with the failed drain's queue: only the stream's error state may skip
  // it.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::atomic<bool> later_ran{false};
  s.enqueue([&later_ran] { later_ran = true; });
  EXPECT_THROW(s.sync(), error);
  EXPECT_FALSE(later_ran.load());
  EXPECT_NO_THROW(s.sync());  // the error was reported once
  int x = 0;
  s.enqueue([&x] { x = 7; });
  s.sync();
  EXPECT_EQ(x, 7);
}

TEST(Stream, ErrorSkipsOpsEnqueuedAfterItUntilSync) {
  EXPECT_FALSE(thread_pool::in_pool_work());
  check_error_skips_ops_until_sync();
}

/// Run `fn` as a pool job and wait for it. The job owns the promise, so
/// its shared state outlives set_value on the worker, and a job that
/// throws breaks the promise instead of leaving get() waiting.
template <class F>
void run_on_pool_worker(F fn) {
  std::promise<void> done;
  std::future<void> finished = done.get_future();
  runtime::instance().pool().submit_detached(
      [&fn, done = std::move(done)]() mutable {
        fn();
        done.set_value();
      });
  finished.get();
}

TEST(Stream, ErrorSkipsOpsEnqueuedAfterItUntilSyncInPoolWork) {
  run_on_pool_worker([] {
    EXPECT_TRUE(thread_pool::in_pool_work());
    check_error_skips_ops_until_sync();
  });
}

struct enqueue_probe {
  bool done_at_return = false;  // the op had run when enqueue returned
  bool same_thread = false;     // ...on the enqueueing thread
};

enqueue_probe probe_enqueue() {
  stream s;
  std::atomic<bool> ran{false};
  std::thread::id ran_on;  // written by the op, read after sync
  s.enqueue([&] {
    ran_on = std::this_thread::get_id();
    ran = true;
  });
  enqueue_probe p;
  p.done_at_return = ran.load();
  s.sync();
  p.same_thread = ran_on == std::this_thread::get_id();
  return p;
}

TEST(Stream, PoolWorkRunsOpsInPlace) {
  // A plain thread hands the stream to a drain on a pool worker.
  EXPECT_FALSE(probe_enqueue().same_thread);
  // Pool work runs an op on an idle stream in place, before enqueue
  // returns.
  enqueue_probe in_task;
  run_on_pool_worker([&] { in_task = probe_enqueue(); });
  EXPECT_TRUE(in_task.done_at_return);
  EXPECT_TRUE(in_task.same_thread);
  // A parallel_for caller is pool work while it runs chunks, and only then.
  std::atomic<int> in_place{0};
  runtime::instance().pool().parallel_for(
      8, 1, [&](std::size_t, std::size_t) {
        const enqueue_probe p = probe_enqueue();
        if (p.done_at_return && p.same_thread) in_place++;
      });
  EXPECT_EQ(in_place.load(), 8);
  EXPECT_FALSE(thread_pool::in_pool_work());
}

TEST(Memcpy, MovesBytesAndCountsDirections) {
  auto& st = runtime::instance().stats();
  st.reset_transfers();
  buffer<u32> h(256, space::host);
  buffer<u32> d(256, space::device);
  std::iota(h.data(), h.data() + 256, 0u);
  stream s;
  copy_async(d, h, s);  // h2d
  buffer<u32> h2(256, space::host);
  copy_async(h2, d, s);  // d2h
  s.sync();
  for (u32 i = 0; i < 256; ++i) EXPECT_EQ(h2.data()[i], i);
  EXPECT_EQ(st.h2d_bytes.load(), 1024u);
  EXPECT_EQ(st.d2h_bytes.load(), 1024u);
}

TEST(Launch, CoversFullIndexSpace) {
  const std::size_t n = 100000;
  buffer<u32> d(n, space::device);
  stream s;
  u32* p = d.data();
  launch(s, n, [p](std::size_t i) { p[i] = static_cast<u32>(i * 2); });
  s.sync();
  for (std::size_t i = 0; i < n; i += 997) {
    EXPECT_EQ(d.data()[i], static_cast<u32>(i * 2));
  }
}

TEST(Launch, BlocksPartitionExactly) {
  const std::size_t n = 1000;
  std::atomic<std::size_t> covered{0};
  stream s;
  launch_blocks(s, n, 64,
                [&covered](std::size_t, std::size_t lo, std::size_t hi) {
                  covered += hi - lo;
                });
  s.sync();
  EXPECT_EQ(covered.load(), n);
}

TEST(Launch, KernelCounterIncrements) {
  auto& st = runtime::instance().stats();
  const u64 before = st.kernels_launched.load();
  stream s;
  launch(s, 10, [](std::size_t) {});
  launch(s, 10, [](std::size_t) {});
  s.sync();
  EXPECT_EQ(st.kernels_launched.load(), before + 2);
}

TEST(ThreadPool, ParallelForHandlesTinyAndHugeGrains) {
  auto& pool = runtime::instance().pool();
  std::atomic<u64> sum{0};
  pool.parallel_for(100, 1, [&sum](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) sum += i;
  });
  EXPECT_EQ(sum.load(), 4950u);
  sum = 0;
  pool.parallel_for(100, 1000, [&sum](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) sum += i;
  });
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  auto& pool = runtime::instance().pool();
  std::atomic<u64> total{0};
  pool.parallel_for(8, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      pool.parallel_for(100, 10, [&](std::size_t l2, std::size_t h2) {
        total += h2 - l2;
      });
    }
  });
  EXPECT_EQ(total.load(), 800u);
}

TEST(Pool, BinRounding) {
  EXPECT_EQ(memory_pool::bin_bytes(1), 64u);
  EXPECT_EQ(memory_pool::bin_bytes(64), 64u);
  EXPECT_EQ(memory_pool::bin_bytes(65), 128u);
  EXPECT_EQ(memory_pool::bin_bytes(1000), 1024u);
  EXPECT_EQ(memory_pool::bin_bytes(1024), 1024u);
}

TEST(Pool, BinReuseReturnsSamePointer) {
  pool_stats st;
  memory_pool pool(st, /*enabled=*/true);
  void* p1 = pool.allocate(100);  // bin 128
  pool.deallocate(p1, 100);
  void* p2 = pool.allocate(80);  // same bin -> cached block comes back
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(st.hits.load(), 1u);
  EXPECT_EQ(st.misses.load(), 1u);
  void* p3 = pool.allocate(200);  // different bin -> fresh block
  EXPECT_NE(p3, p2);
  pool.deallocate(p2, 80);
  pool.deallocate(p3, 200);
}

TEST(Pool, AlignmentPreservedOnFreshAndReusedBlocks) {
  pool_stats st;
  memory_pool pool(st, /*enabled=*/true);
  for (const std::size_t sz : {1u, 63u, 100u, 1000u, 4097u}) {
    void* fresh = pool.allocate(sz);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(fresh) % 64, 0u) << sz;
    pool.deallocate(fresh, sz);
    void* reused = pool.allocate(sz);
    EXPECT_EQ(reused, fresh);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(reused) % 64, 0u) << sz;
    pool.deallocate(reused, sz);
  }
}

TEST(Pool, TrimReturnsCachedBytesAndZeroesCounter) {
  pool_stats st;
  memory_pool pool(st, /*enabled=*/true);
  pool.deallocate(pool.allocate(100), 100);    // caches 128
  pool.deallocate(pool.allocate(1000), 1000);  // caches 1024
  EXPECT_EQ(st.bytes_cached.load(), 128u + 1024u);
  const u64 released = pool.trim();
  EXPECT_EQ(released, 128u + 1024u);
  EXPECT_EQ(st.bytes_cached.load(), 0u);
  EXPECT_EQ(st.bytes_trimmed.load(), 128u + 1024u);
  EXPECT_GE(st.trims.load(), 1u);
  // A second trim with nothing cached releases nothing.
  EXPECT_EQ(pool.trim(), 0u);
}

TEST(Pool, ConcurrentAllocFreeIsRaceFree) {
  pool_stats st;
  memory_pool pool(st, /*enabled=*/true);
  constexpr int n_threads = 8, iters = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < n_threads; ++t) {
    threads.emplace_back([&pool, t] {
      for (int i = 0; i < iters; ++i) {
        const std::size_t sz = 64u << ((i + t) % 4);  // 64..512
        void* p = pool.allocate(sz);
        *static_cast<volatile char*>(p) = static_cast<char>(i);
        pool.deallocate(p, sz);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(st.hits.load() + st.misses.load(),
            static_cast<u64>(n_threads) * iters);
  // Everything was freed, so the cache holds exactly what trim releases.
  const u64 cached = st.bytes_cached.load();
  EXPECT_EQ(pool.trim(), cached);
  EXPECT_EQ(st.bytes_cached.load(), 0u);
}

TEST(Pool, DeviceAccountingStaysExactWithPoolEnabled) {
  // The pool rounds 1000 bytes up to a 1024-byte bin internally, but the
  // runtime ledger must charge the requested size only.
  auto& st = runtime::instance().stats();
  const u64 before = st.device_bytes_in_use.load();
  {
    buffer<u8> d(1000, space::device);
    EXPECT_EQ(st.device_bytes_in_use.load(), before + 1000);
  }
  EXPECT_EQ(st.device_bytes_in_use.load(), before);
}

TEST(Pool, RuntimeReusesBufferBlocks) {
  auto& rt = runtime::instance();
  if (!rt.pool_enabled()) GTEST_SKIP() << "FZMOD_POOL=0";
  auto& ps = rt.stats().device_pool;
  void* first = nullptr;
  {
    buffer<u8> d(4096, space::device);
    first = d.data();
  }
  const u64 hits_before = ps.hits.load();
  buffer<u8> d2(4096, space::device);
  EXPECT_EQ(d2.data(), first);
  EXPECT_EQ(ps.hits.load(), hits_before + 1);
}

TEST(RuntimeStats, ResetPeakRebasesToCurrentUse) {
  auto& st = runtime::instance().stats();
  {
    buffer<u8> big(1 << 20, space::device);
    EXPECT_GE(st.device_bytes_peak.load(), st.device_bytes_in_use.load());
  }
  // Peak still remembers the dead buffer...
  EXPECT_GE(st.device_bytes_peak.load(),
            st.device_bytes_in_use.load() + (1u << 20));
  st.reset_peak();
  // ...until rebased to what is actually live now.
  EXPECT_EQ(st.device_bytes_peak.load(), st.device_bytes_in_use.load());
  buffer<u8> d(1 << 10, space::device);
  EXPECT_GE(st.device_bytes_peak.load(), st.device_bytes_in_use.load());
}

TEST(Buffer, FillZeroAsyncZeroesDeviceDataAndCountsKernel) {
  auto& st = runtime::instance().stats();
  buffer<u32> d(100000, space::device);
  for (std::size_t i = 0; i < d.size(); ++i) d.data()[i] = 0xdeadbeefu;
  const u64 before = st.kernels_launched.load();
  stream s;
  d.fill_zero_async(s);
  s.sync();
  EXPECT_EQ(st.kernels_launched.load(), before + 1);
  for (std::size_t i = 0; i < d.size(); i += 499) {
    ASSERT_EQ(d.data()[i], 0u) << i;
  }
}

TEST(Buffer, EnsureReusesCapacityInPlace) {
  buffer<f32> b(100, space::device);
  f32* p = b.data();
  const std::size_t cap = b.capacity_bytes();
  b.ensure(50);  // shrink: same block, smaller view
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b.size(), 50u);
  EXPECT_EQ(b.capacity_bytes(), cap);
  b.ensure(100);  // regrow within capacity: still the same block
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b.size(), 100u);
  b.ensure(500);  // beyond capacity: reallocates
  EXPECT_EQ(b.size(), 500u);
  EXPECT_GE(b.capacity_bytes(), 500 * sizeof(f32));
  // Space change always reallocates.
  b.ensure(500, space::host);
  EXPECT_EQ(b.where(), space::host);
}

TEST(Streams, ConcurrentStreamsMakeIndependentProgress) {
  stream a, b;
  std::atomic<int> done{0};
  for (int i = 0; i < 20; ++i) {
    a.enqueue([&done] { done++; });
    b.enqueue([&done] { done++; });
  }
  a.sync();
  b.sync();
  EXPECT_EQ(done.load(), 40);
}

}  // namespace
}  // namespace fzmod::device
