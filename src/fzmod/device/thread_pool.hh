// FZModules — worker pool backing the software device runtime.
//
// The pool plays the role of the GPU's SM array in this reproduction: kernel
// launches are decomposed into block-sized chunks and executed by pool
// workers. Stream drains, STF task bodies, the chunk scheduler's slots
// (core/chunked.cc) and the seekable reader's decodes (core/reader.cc) all
// run as pool work. It stays small — fixed worker count, one shared FIFO,
// condition-variable wakeup, and a `parallel_for` whose caller runs chunks
// too — and marks every thread that is running pool work
// (`in_pool_work()`), so streams can run that work's ops in place instead
// of blocking a worker on a drain queued behind it (device/runtime.hh).
//
// The job queue and completion signalling are allocation-free in steady
// state: jobs are `unique_task`s (small-buffer optimized, move-only) held
// in a capacity-retaining ring, and `parallel_for` recycles its completion
// blocks through a free list instead of make_shared-ing one per call.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "fzmod/common/types.hh"
#include "fzmod/device/task.hh"

namespace fzmod::device {

class thread_pool {
 public:
  /// `workers == 0` picks a default: hardware_concurrency, but at least 4
  /// so concurrency paths (streams, STF overlap) are exercised even on the
  /// single-core CI machines this reproduction targets.
  explicit thread_pool(unsigned workers = 0) {
    if (workers == 0) {
      workers = std::thread::hardware_concurrency();
      if (workers < 4) workers = 4;
    }
    workers_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  thread_pool(const thread_pool&) = delete;
  thread_pool& operator=(const thread_pool&) = delete;

  ~thread_pool() {
    {
      std::lock_guard lk(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (auto& t : workers_) t.join();
    pf_state* st = pf_free_;
    while (st) {
      pf_state* next = st->free_next;
      delete st;
      st = next;
    }
  }

  [[nodiscard]] unsigned size() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// True while the calling thread runs pool work: a worker for its whole
  /// life, a parallel_for caller while it runs chunks.
  [[nodiscard]] static bool in_pool_work() { return in_pool_work_; }

  /// Enqueue a fire-and-forget job. Jobs manage their own completion
  /// signalling (stream drains, STF tasks, reader prefetch) and contain
  /// their own errors. Move-only closures are fine; small ones stay inline
  /// in the ring.
  template <class F>
  void submit_detached(F&& fn) {
    {
      std::lock_guard lk(mu_);
      queue_.push(unique_task(std::forward<F>(fn)));
    }
    cv_.notify_one();
  }

  /// Blocking parallel-for: split [0, n) into ~grain-sized chunks, run them
  /// on the pool, and also help from the calling thread (so nested use from
  /// a pool worker cannot deadlock on a saturated queue). The caller is
  /// pool work while it runs chunks.
  template <class F>
  void parallel_for(std::size_t n, std::size_t grain, F&& body) {
    if (n == 0) return;
    const std::size_t nchunks =
        grain == 0 ? 1 : (n + grain - 1) / grain;
    if (nchunks <= 1) {
      const pool_work_scope as_pool_work;
      body(std::size_t{0}, n);
      return;
    }
    const unsigned helpers =
        static_cast<unsigned>(std::min<std::size_t>(size(), nchunks - 1));
    // The completion block outlives this frame (detached helpers can wake
    // after all chunks are claimed and must still find valid counters), so
    // it cannot live on the stack — but it need not be a fresh heap
    // object either: blocks are refcounted and recycled through pf_free_.
    pf_state* st = pf_acquire(static_cast<int>(helpers) + 1);
    auto run_chunks = [st, nchunks, grain, n, &body] {
      for (;;) {
        const std::size_t c =
            st->next.fetch_add(1, std::memory_order_relaxed);
        if (c >= nchunks) break;
        const std::size_t lo = c * grain;
        const std::size_t hi = std::min(n, lo + grain);
        // A throwing chunk must still count as done, or the caller waits
        // forever; the first error is rethrown on the caller's thread.
        try {
          body(lo, hi);
        } catch (...) {
          std::lock_guard lk(st->mu);
          if (!st->error) st->error = std::current_exception();
        }
        if (st->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            nchunks) {
          std::lock_guard lk(st->mu);
          st->cv.notify_all();
        }
      }
    };
    // Helpers must not touch `body` after completion is signalled: the
    // caller's frame (and body) may be gone. They claim chunks first and
    // only run body for claimed chunks, which is safe because completion
    // is only reached when every chunk has finished. Each helper holds a
    // reference on the block, so recycling waits for the last straggler.
    for (unsigned i = 0; i < helpers; ++i) {
      submit_detached([this, st, run_chunks] {
        run_chunks();
        pf_release(st);
      });
    }
    {
      const pool_work_scope as_pool_work;
      run_chunks();
    }
    {
      std::unique_lock lk(st->mu);
      st->cv.wait(lk, [&] {
        return st->done.load(std::memory_order_acquire) == nchunks;
      });
    }
    std::exception_ptr err = st->error;
    pf_release(st);
    if (err) std::rethrow_exception(err);
  }

 private:
  /// Marks the calling thread as running pool work for one scope,
  /// restoring the previous mark (a worker's stays set) on exit.
  class pool_work_scope {
   public:
    pool_work_scope() : prev_(in_pool_work_) { in_pool_work_ = true; }
    ~pool_work_scope() { in_pool_work_ = prev_; }
    pool_work_scope(const pool_work_scope&) = delete;
    pool_work_scope& operator=(const pool_work_scope&) = delete;

   private:
    bool prev_;
  };

  /// Completion block for one parallel_for. Pooled: acquire resets the
  /// counters, release returns the block to the free list once the caller
  /// and every helper have dropped their reference.
  struct pf_state {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex mu;
    std::condition_variable cv;
    std::exception_ptr error;  // first chunk failure, guarded by mu
    std::atomic<int> refs{0};
    pf_state* free_next = nullptr;
  };

  [[nodiscard]] pf_state* pf_acquire(int refs) {
    pf_state* st = nullptr;
    {
      std::lock_guard lk(pf_mu_);
      if (pf_free_) {
        st = pf_free_;
        pf_free_ = st->free_next;
      }
    }
    if (!st) st = new pf_state;
    st->next.store(0, std::memory_order_relaxed);
    st->done.store(0, std::memory_order_relaxed);
    st->error = nullptr;
    st->refs.store(refs, std::memory_order_relaxed);
    st->free_next = nullptr;
    return st;
  }

  void pf_release(pf_state* st) {
    if (st->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard lk(pf_mu_);
      st->free_next = pf_free_;
      pf_free_ = st;
    }
  }

  void worker_loop() {
    in_pool_work_ = true;
    for (;;) {
      unique_task job;
      {
        std::unique_lock lk(mu_);
        cv_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
        if (stopping_ && queue_.empty()) return;
        job = queue_.pop();
      }
      // Detached jobs are expected to contain their own errors (streams,
      // STF tasks, parallel_for chunks all do); anything that escapes
      // would terminate the process, so trap it as a last resort.
      try {
        job();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "fzmod: uncaught error in pool worker: %s\n",
                     e.what());
      } catch (...) {
        std::fprintf(stderr, "fzmod: uncaught error in pool worker\n");
      }
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  task_ring queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;

  std::mutex pf_mu_;
  pf_state* pf_free_ = nullptr;

  static inline thread_local bool in_pool_work_ = false;
};

}  // namespace fzmod::device
