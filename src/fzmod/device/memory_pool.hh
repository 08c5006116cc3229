// FZModules — stream-ordered caching memory pool.
//
// The software device runtime used to forward every buffer allocation to
// the system allocator, which is exactly the per-call overhead that
// `cudaMallocAsync`-style stream-ordered pools exist to eliminate on real
// GPUs: a serving workload making many small compress/decompress calls
// pays an allocator round-trip (lock, size-class search, possibly an mmap)
// per scratch buffer per call. This pool keeps freed blocks in power-of-two
// size-binned free lists, so a steady-state pipeline re-acquires its whole
// scratch set in O(1) per buffer without touching `::operator new`.
//
// Semantics mirror the CUDA default memory pool:
//   - blocks are cached on free and reused for any request that rounds to
//     the same bin; reuse preserves the 64-byte alignment guarantee,
//   - `trim()` (aka `release_cached()`) returns every cached block to the
//     system — the `cudaMemPoolTrimTo(0)` / malloc_trim analogue,
//   - per-pool counters (hits, misses, bytes served, bytes cached) are
//     exposed through `runtime_stats` so benches can report hit rates.
//
// The pool can be disabled (pass-through to the system allocator) with the
// environment variable `FZMOD_POOL=0` or at runtime via `set_enabled` —
// the A/B knob bench_serving uses. Blocks are *always* sized to
// their bin, even while disabled, so toggling mid-run can never cache a
// block smaller than its bin claims.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <mutex>
#include <new>
#include <vector>

#include "fzmod/common/types.hh"
#include "fzmod/trace/trace.hh"

namespace fzmod::device {

/// Plain-value copy of pool_stats, taken atomically with respect to every
/// multi-field update (under the pool mutex): a reader can never observe
/// e.g. hits incremented but bytes_served not yet — the torn-pair hazard
/// the trace counter sampler would otherwise hit.
struct pool_stats_snapshot {
  u64 hits = 0;
  u64 misses = 0;
  u64 bytes_served = 0;
  u64 bytes_cached = 0;
  u64 trims = 0;
  u64 bytes_trimmed = 0;

  [[nodiscard]] f64 hit_rate() const {
    return hits + misses
               ? static_cast<f64>(hits) / static_cast<f64>(hits + misses)
               : 0.0;
  }
};

/// Cumulative counters for one memory pool. Monotonic except bytes_cached
/// (the current cache footprint). Individual fields stay readable as
/// atomics, but a *consistent* multi-field read must go through
/// memory_pool::snapshot() — every mutation happens under the pool mutex,
/// so the snapshot is torn-free.
struct pool_stats {
  std::atomic<u64> hits{0};          // allocations served from the cache
  std::atomic<u64> misses{0};        // allocations that hit the system
  std::atomic<u64> bytes_served{0};  // total bytes handed out (hits+misses)
  std::atomic<u64> bytes_cached{0};  // bytes currently held in free lists
  std::atomic<u64> trims{0};         // trim() calls
  std::atomic<u64> bytes_trimmed{0};  // total bytes returned by trim()

  [[nodiscard]] f64 hit_rate() const {
    const u64 h = hits.load(), m = misses.load();
    return h + m ? static_cast<f64>(h) / static_cast<f64>(h + m) : 0.0;
  }

  void reset_counters() {
    hits = 0;
    misses = 0;
    bytes_served = 0;
    trims = 0;
    bytes_trimmed = 0;
    // bytes_cached is live state, not a counter; it survives resets.
  }
};

class memory_pool {
 public:
  static constexpr std::size_t alignment = 64;
  /// Smallest bin: one cache line. Largest cached bin: 1 GiB — anything
  /// bigger passes straight through (caching multi-GiB one-offs would pin
  /// memory for little reuse benefit).
  static constexpr std::size_t min_bin_bytes = 64;
  static constexpr std::size_t max_bin_bytes = std::size_t{1} << 30;

  memory_pool(pool_stats& stats, bool enabled)
      : stats_(stats), enabled_(enabled) {}

  memory_pool(const memory_pool&) = delete;
  memory_pool& operator=(const memory_pool&) = delete;

  ~memory_pool() { trim(); }

  /// Requests round up to the bin size (callers still account their exact
  /// request; the rounding is pool-internal capacity).
  [[nodiscard]] static std::size_t bin_bytes(std::size_t bytes) {
    if (bytes <= min_bin_bytes) return min_bin_bytes;
    return std::bit_ceil(bytes);
  }

  [[nodiscard]] void* allocate(std::size_t bytes) {
    const std::size_t rounded = bin_bytes(bytes);
    if (enabled_.load(std::memory_order_relaxed) &&
        rounded <= max_bin_bytes) {
      const int b = bin_index(rounded);
      void* p = nullptr;
      {
        std::lock_guard lk(mu_);
        auto& list = bins_[b];
        if (!list.empty()) {
          p = list.back();
          list.pop_back();
          stats_.hits.fetch_add(1, std::memory_order_relaxed);
          stats_.bytes_served.fetch_add(rounded, std::memory_order_relaxed);
          stats_.bytes_cached.fetch_sub(rounded, std::memory_order_relaxed);
        }
      }
      if (p) {
        // Traced outside the critical section: the recorder takes its own
        // per-thread lock and must not nest inside the pool mutex.
        trace::instant("pool", "hit", 0, static_cast<f64>(rounded));
        return p;
      }
    }
    // Every path that reaches the system allocator counts as a miss — a
    // disabled pool misses everything — so `misses` always equals the
    // runtime allocator's system-allocation count, which is what the
    // serving bench reports for pool-on vs pool-off. The paired update
    // takes the mutex so snapshot() never sees a mid-update state; the
    // cost is noise next to the ::operator new this path is about to pay.
    {
      std::lock_guard lk(mu_);
      stats_.misses.fetch_add(1, std::memory_order_relaxed);
      stats_.bytes_served.fetch_add(rounded, std::memory_order_relaxed);
    }
    trace::instant("pool", "miss", 0, static_cast<f64>(rounded));
    // Bin-sized even on the pass-through path so a later pooled free can
    // trust the bin capacity regardless of when the pool was toggled.
    return ::operator new(rounded, std::align_val_t{alignment});
  }

  void deallocate(void* p, std::size_t bytes) noexcept {
    if (!p) return;
    const std::size_t rounded = bin_bytes(bytes);
    if (enabled_.load(std::memory_order_relaxed) &&
        rounded <= max_bin_bytes) {
      const int b = bin_index(rounded);
      std::lock_guard lk(mu_);
      bins_[b].push_back(p);
      stats_.bytes_cached.fetch_add(rounded, std::memory_order_relaxed);
      return;
    }
    ::operator delete(p, std::align_val_t{alignment});
  }

  /// Release every cached block to the system allocator; returns the byte
  /// count released. The malloc_trim / cudaMemPoolTrimTo(0) analogue.
  u64 trim() {
    std::vector<void*> victims;
    u64 released = 0;
    {
      std::lock_guard lk(mu_);
      for (int b = 0; b < n_bins; ++b) {
        const std::size_t sz = std::size_t{1} << b;
        released += static_cast<u64>(sz) * bins_[b].size();
        victims.insert(victims.end(), bins_[b].begin(), bins_[b].end());
        bins_[b].clear();
      }
      // Counter updates stay inside the critical section so snapshot()
      // sees the cache emptied and the trim tallied as one transition.
      stats_.bytes_cached.fetch_sub(released, std::memory_order_relaxed);
      stats_.trims.fetch_add(1, std::memory_order_relaxed);
      stats_.bytes_trimmed.fetch_add(released, std::memory_order_relaxed);
    }
    for (void* p : victims) {
      ::operator delete(p, std::align_val_t{alignment});
    }
    return released;
  }

  /// Consistent copy of this pool's counters (see pool_stats_snapshot).
  [[nodiscard]] pool_stats_snapshot snapshot() {
    std::lock_guard lk(mu_);
    pool_stats_snapshot s;
    s.hits = stats_.hits.load(std::memory_order_relaxed);
    s.misses = stats_.misses.load(std::memory_order_relaxed);
    s.bytes_served = stats_.bytes_served.load(std::memory_order_relaxed);
    s.bytes_cached = stats_.bytes_cached.load(std::memory_order_relaxed);
    s.trims = stats_.trims.load(std::memory_order_relaxed);
    s.bytes_trimmed = stats_.bytes_trimmed.load(std::memory_order_relaxed);
    return s;
  }

  /// Alias matching the mallopt-style naming used in the docs.
  u64 release_cached() { return trim(); }

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Runtime A/B switch (benches compare pool on/off in one process).
  /// Disabling trims so a "pool off" measurement starts cold.
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
    if (!on) trim();
  }

 private:
  // Bin b holds blocks of exactly 2^b bytes; 2^30 is the largest cached.
  static constexpr int n_bins = 31;

  [[nodiscard]] static int bin_index(std::size_t rounded) {
    return std::bit_width(rounded) - 1;
  }

  pool_stats& stats_;
  std::atomic<bool> enabled_;
  std::mutex mu_;
  std::vector<void*> bins_[n_bins];
};

}  // namespace fzmod::device
