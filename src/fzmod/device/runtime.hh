// FZModules — software device runtime (the CUDA substitute).
//
// This reproduction runs on machines without GPUs, so the heterogeneous
// substrate the paper builds on is simulated: there is a distinct "device"
// memory space with its own allocator and accounting, asynchronous streams
// that order work the way CUDA streams do, and a data-parallel kernel
// launcher that decomposes an index space over the worker pool the way a
// grid of thread blocks is decomposed over SMs.
//
// The discipline is enforced dynamically: host code must not dereference
// device buffers (and vice versa); transfers between the spaces are
// explicit, byte-copying, stream-ordered operations whose volume is
// tracked, so pipelines pay — and benches can report — real movement costs.
//
// Allocation in both spaces goes through stream-ordered caching pools
// (memory_pool.hh), so steady-state pipeline runs reuse their scratch
// blocks in O(1) instead of round-tripping the system allocator per call.
// See docs/RUNTIME.md for the pool design and the zero-steady-state-
// allocation contract.
//
// Every stream op (memcpy, kernel, memset, host_task) is a trace span when
// FZMOD_TRACE=1, tagged with its stream id and byte count; see
// docs/OBSERVABILITY.md. Disabled cost is one relaxed atomic load per op.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <span>

#include "fzmod/common/error.hh"
#include "fzmod/common/types.hh"
#include "fzmod/device/memory_pool.hh"
#include "fzmod/device/task.hh"
#include "fzmod/device/thread_pool.hh"
#include "fzmod/trace/trace.hh"

namespace fzmod::device {

/// Which memory space a buffer lives in (the host/device divide the
/// runtime enforces dynamically).
enum class space : u8 { host, device };

[[nodiscard]] inline const char* to_string(space s) {
  return s == space::host ? "host" : "device";
}

/// Direction of a stream-ordered copy; each direction is tallied
/// separately in runtime_stats.
enum class copy_kind : u8 { h2h, h2d, d2h, d2d };

[[nodiscard]] inline const char* to_string(copy_kind k) {
  switch (k) {
    case copy_kind::h2h: return "memcpy.h2h";
    case copy_kind::h2d: return "memcpy.h2d";
    case copy_kind::d2h: return "memcpy.d2h";
    case copy_kind::d2d: return "memcpy.d2d";
  }
  return "memcpy";
}

/// Torn-free plain-value copy of runtime_stats (see
/// runtime::stats_snapshot): pool sections are taken under each pool's
/// mutex, and the in-use/peak pair is clamped so peak >= in_use always
/// holds. This is what the trace counter sampler reads — it can never
/// observe a mid-update pair.
struct runtime_stats_snapshot {
  u64 h2d_bytes = 0;
  u64 d2h_bytes = 0;
  u64 d2d_bytes = 0;
  u64 kernels_launched = 0;
  u64 device_bytes_in_use = 0;
  u64 device_bytes_peak = 0;
  pool_stats_snapshot device_pool;
  pool_stats_snapshot host_pool;
};

/// Cumulative transfer/launch counters, readable by benches and tests.
/// Pool counters are per memory space (device and host caching pools).
/// Individual atomics are safe to read directly; for a consistent
/// multi-field view use runtime::stats_snapshot().
struct runtime_stats {
  std::atomic<u64> h2d_bytes{0};
  std::atomic<u64> d2h_bytes{0};
  std::atomic<u64> d2d_bytes{0};
  std::atomic<u64> kernels_launched{0};
  std::atomic<u64> device_bytes_in_use{0};
  std::atomic<u64> device_bytes_peak{0};
  pool_stats device_pool;
  pool_stats host_pool;

  void reset_transfers() {
    h2d_bytes = 0;
    d2h_bytes = 0;
    d2d_bytes = 0;
    kernels_launched = 0;
  }

  /// Rebase the device high-water mark to the memory currently live.
  /// Benches/tests that reset counters between sections call this so one
  /// section's peak does not leak into the next section's report.
  void reset_peak() {
    device_bytes_peak = device_bytes_in_use.load();
  }

  void reset_pool_counters() {
    device_pool.reset_counters();
    host_pool.reset_counters();
  }
};

/// Process-wide runtime: owns the worker pool, the device heap accounting,
/// and the per-space caching memory pools. Thread-safe.
class runtime {
 public:
  static runtime& instance() {
    static runtime rt;
    return rt;
  }

  thread_pool& pool() { return pool_; }
  runtime_stats& stats() { return stats_; }
  memory_pool& device_pool() { return device_pool_; }
  memory_pool& host_pool() { return host_pool_; }

  [[nodiscard]] void* device_alloc(std::size_t bytes) {
    void* p = device_pool_.allocate(bytes);
    // Accounting charges the caller's exact request; bin rounding is the
    // pool's internal capacity and never reaches these counters.
    const u64 in_use =
        stats_.device_bytes_in_use.fetch_add(bytes) + bytes;
    u64 peak = stats_.device_bytes_peak.load();
    while (in_use > peak &&
           !stats_.device_bytes_peak.compare_exchange_weak(peak, in_use)) {
    }
    return p;
  }

  void device_free(void* p, std::size_t bytes) {
    device_pool_.deallocate(p, bytes);
    stats_.device_bytes_in_use.fetch_sub(bytes);
  }

  [[nodiscard]] void* host_alloc(std::size_t bytes) {
    return host_pool_.allocate(bytes);
  }

  void host_free(void* p, std::size_t bytes) {
    host_pool_.deallocate(p, bytes);
  }

  /// Release every cached block in both pools back to the system;
  /// returns the total bytes released.
  u64 trim_pools() { return device_pool_.trim() + host_pool_.trim(); }

  /// Runtime A/B switch for both pools (FZMOD_POOL=0 sets the startup
  /// default; benches toggle this to measure pool-on vs pool-off).
  void set_pool_enabled(bool on) {
    device_pool_.set_enabled(on);
    host_pool_.set_enabled(on);
  }

  [[nodiscard]] bool pool_enabled() const { return device_pool_.enabled(); }

  /// Grain used when decomposing kernel launches ("block size").
  [[nodiscard]] std::size_t default_block() const { return 1u << 14; }

  /// Torn-free multi-field view of the cumulative counters (see
  /// runtime_stats_snapshot). Pool sections are copied under each pool's
  /// mutex; the peak is clamped so `peak >= in_use` holds even while
  /// allocations race the read.
  [[nodiscard]] runtime_stats_snapshot stats_snapshot() {
    runtime_stats_snapshot s;
    s.device_pool = device_pool_.snapshot();
    s.host_pool = host_pool_.snapshot();
    s.h2d_bytes = stats_.h2d_bytes.load(std::memory_order_relaxed);
    s.d2h_bytes = stats_.d2h_bytes.load(std::memory_order_relaxed);
    s.d2d_bytes = stats_.d2d_bytes.load(std::memory_order_relaxed);
    s.kernels_launched =
        stats_.kernels_launched.load(std::memory_order_relaxed);
    s.device_bytes_in_use =
        stats_.device_bytes_in_use.load(std::memory_order_relaxed);
    s.device_bytes_peak =
        std::max(stats_.device_bytes_peak.load(std::memory_order_relaxed),
                 s.device_bytes_in_use);
    return s;
  }

 private:
  [[nodiscard]] static bool pool_env_enabled() {
    const char* v = std::getenv("FZMOD_POOL");
    return !(v && v[0] == '0' && v[1] == '\0');
  }

  runtime()
      : device_pool_(stats_.device_pool, pool_env_enabled()),
        host_pool_(stats_.host_pool, pool_env_enabled()) {}

  // Declaration order fixes destruction order: the worker pool is declared
  // last so its destructor joins every worker before the memory pools (or
  // the stats they record into) are torn down.
  runtime_stats stats_;
  memory_pool device_pool_;
  memory_pool host_pool_;
  thread_pool pool_;
};

class stream;

/// Typed allocation pinned to one memory space. RAII; movable, not
/// copyable. Element access from the "wrong" side is a programming error
/// that `assert_space` makes loud in tests.
///
/// A buffer remembers its allocated capacity separately from its logical
/// size: `ensure()` shrinks/regrows the view in place whenever the
/// existing block is large enough, which (together with the caching pools)
/// is what lets pipeline scratch reach zero steady-state allocations.
template <class T>
class buffer {
 public:
  buffer() = default;

  explicit buffer(std::size_t n, space sp = space::device)
      : n_(n), space_(sp) {
    if (n_ == 0) return;
    cap_bytes_ = n_ * sizeof(T);
    if (space_ == space::device) {
      ptr_ = static_cast<T*>(runtime::instance().device_alloc(cap_bytes_));
    } else {
      ptr_ = static_cast<T*>(runtime::instance().host_alloc(cap_bytes_));
    }
  }

  buffer(buffer&& o) noexcept { swap(o); }
  buffer& operator=(buffer&& o) noexcept {
    if (this != &o) {
      release();
      swap(o);
    }
    return *this;
  }
  buffer(const buffer&) = delete;
  buffer& operator=(const buffer&) = delete;

  ~buffer() { release(); }

  [[nodiscard]] T* data() { return ptr_; }
  [[nodiscard]] const T* data() const { return ptr_; }
  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] std::size_t bytes() const { return n_ * sizeof(T); }
  [[nodiscard]] std::size_t capacity_bytes() const { return cap_bytes_; }
  [[nodiscard]] bool empty() const { return n_ == 0; }
  [[nodiscard]] space where() const { return space_; }

  [[nodiscard]] std::span<T> span() { return {ptr_, n_}; }
  [[nodiscard]] std::span<const T> span() const { return {ptr_, n_}; }

  /// Resize-discard: make the buffer view n elements in `sp`, reusing the
  /// current allocation when it is big enough and in the right space.
  /// Contents are unspecified afterwards (like a fresh buffer). This is
  /// the hot-path primitive for per-call scratch: steady-state calls with
  /// stable sizes never release or acquire memory.
  void ensure(std::size_t n, space sp = space::device) {
    if (ptr_ && space_ == sp && n * sizeof(T) <= cap_bytes_) {
      n_ = n;
      return;
    }
    *this = buffer<T>(n, sp);
  }

  void assert_space(space expected) const {
    FZMOD_REQUIRE(space_ == expected, status::invalid_argument,
                  std::string("buffer is in ") + to_string(space_) +
                      " memory, expected " + to_string(expected));
  }

  /// Immediate host-side zeroing. Host buffers only: zeroing a device
  /// buffer from the host thread would bypass stream ordering — use
  /// fill_zero_async for device-resident data.
  void fill_zero() {
    if (ptr_) std::memset(ptr_, 0, bytes());
  }

  /// Stream-ordered zeroing (the cudaMemsetAsync analogue). Counted as a
  /// kernel launch in runtime_stats. Defined after `launch` below.
  void fill_zero_async(stream& s);

 private:
  void release() {
    if (!ptr_) return;
    if (space_ == space::device) {
      runtime::instance().device_free(ptr_, cap_bytes_);
    } else {
      runtime::instance().host_free(ptr_, cap_bytes_);
    }
    ptr_ = nullptr;
    n_ = 0;
    cap_bytes_ = 0;
  }

  void swap(buffer& o) noexcept {
    std::swap(ptr_, o.ptr_);
    std::swap(n_, o.n_);
    std::swap(cap_bytes_, o.cap_bytes_);
    std::swap(space_, o.space_);
  }

  T* ptr_ = nullptr;
  std::size_t n_ = 0;
  std::size_t cap_bytes_ = 0;
  space space_ = space::device;
};

/// In-order asynchronous work queue, semantically a CUDA stream: operations
/// enqueue immediately and execute FIFO on the pool; `sync()` blocks until
/// the queue drains. Distinct streams run concurrently. Ops are SBO tasks
/// in a capacity-retaining ring — enqueueing a kernel is allocation-free
/// once the stream has warmed up.
///
/// Pool work (thread_pool::in_pool_work) that enqueues on a stream with
/// nothing queued or running runs the op in place, on its own thread: a
/// worker must never block in `sync()` on a drain queued behind it. Every
/// other enqueue hands the stream to a drain on the pool. Both paths share
/// one error contract: once an op throws, ops enqueued before the `sync()`
/// that reports the error are skipped; that `sync()` rethrows it and the
/// stream works again afterwards.
class stream {
 public:
  stream() : id_(next_id()) {}
  stream(const stream&) = delete;
  stream& operator=(const stream&) = delete;

  ~stream() { sync(); }

  /// Small process-unique id (1-based); trace events carry it so the
  /// exporter can lay work out on per-stream tracks and the summary can
  /// compute cross-stream overlap.
  [[nodiscard]] u32 id() const { return id_; }

  template <class F>
  void enqueue(F&& op) {
    trace::instant("stream", "enqueue", id_);
    std::unique_lock lk(mu_);
    if (pending_error_) return;  // skipped until sync() reports the error
    ops_.push(unique_task(std::forward<F>(op)));
    if (running_) return;
    running_ = true;
    lk.unlock();
    if (thread_pool::in_pool_work()) {
      drain();
    } else {
      runtime::instance().pool().submit_detached([this] { drain(); });
    }
  }

  void sync() {
    std::unique_lock lk(mu_);
    idle_cv_.wait(lk, [this] { return ops_.empty() && !running_; });
    if (pending_error_) {
      auto e = pending_error_;
      pending_error_ = nullptr;
      std::rethrow_exception(e);
    }
  }

 private:
  void drain() {
    for (;;) {
      unique_task op;
      {
        std::lock_guard lk(mu_);
        if (ops_.empty()) {
          running_ = false;
          idle_cv_.notify_all();
          return;
        }
        op = ops_.pop();
      }
      try {
        op();
      } catch (...) {
        std::lock_guard lk(mu_);
        // Later ops are abandoned (the queue is cleared, and enqueue drops
        // new ones until sync) so a failed kernel does not feed garbage
        // into its successors.
        pending_error_ = std::current_exception();
        ops_.clear();
      }
    }
  }

  [[nodiscard]] static u32 next_id() {
    static std::atomic<u32> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  u32 id_ = 0;
  std::mutex mu_;
  std::condition_variable idle_cv_;
  task_ring ops_;
  std::exception_ptr pending_error_ = nullptr;
  bool running_ = false;
};

/// Stream-ordered byte copy between spaces. The copy really moves bytes,
/// so D2H/H2D costs show up in wall-clock measurements; volumes are
/// tallied per direction in runtime_stats.
inline void memcpy_async(void* dst, const void* src, std::size_t bytes,
                         copy_kind kind, stream& s) {
  s.enqueue([=, sid = s.id()] {
    // t0 == 0 doubles as "tracing off": now_ns() is 0 only at the trace
    // epoch itself, so the disabled path costs exactly one branch here.
    const u64 t0 = trace::enabled() ? trace::now_ns() : 0;
    std::memcpy(dst, src, bytes);
    auto& st = runtime::instance().stats();
    switch (kind) {
      case copy_kind::h2d: st.h2d_bytes += bytes; break;
      case copy_kind::d2h: st.d2h_bytes += bytes; break;
      case copy_kind::d2d: st.d2d_bytes += bytes; break;
      case copy_kind::h2h: break;
    }
    if (t0) {
      trace::complete("stream", to_string(kind), t0, trace::now_ns() - t0,
                      sid, static_cast<f64>(bytes));
    }
  });
}

template <class T>
void copy_async(buffer<T>& dst, const buffer<T>& src, stream& s) {
  FZMOD_REQUIRE(dst.size() >= src.size(), status::invalid_argument,
                "copy_async: destination too small");
  const copy_kind kind =
      src.where() == space::host
          ? (dst.where() == space::host ? copy_kind::h2h : copy_kind::h2d)
          : (dst.where() == space::host ? copy_kind::d2h : copy_kind::d2d);
  memcpy_async(dst.data(), src.data(), src.bytes(), kind, s);
}

/// Data-parallel kernel launch: `body(i)` for each i in [0, n), decomposed
/// into block-sized chunks over the pool, stream-ordered. This is the shape
/// every "GPU" kernel in this repo is written against — the CUDA versions
/// would be grid-stride loops with the same bodies.
template <class F>
void launch(stream& s, std::size_t n, F body) {
  s.enqueue([n, body = std::move(body), sid = s.id()] {
    const u64 t0 = trace::enabled() ? trace::now_ns() : 0;
    auto& rt = runtime::instance();
    rt.stats().kernels_launched += 1;
    rt.pool().parallel_for(n, rt.default_block(),
                           [&](std::size_t lo, std::size_t hi) {
                             for (std::size_t i = lo; i < hi; ++i) body(i);
                           });
    if (t0) {
      trace::complete("stream", "kernel", t0, trace::now_ns() - t0, sid,
                      static_cast<f64>(n));
    }
  });
}

/// Block-cooperative launch: `body(block_index, lo, hi)` once per block.
/// Kernels that keep block-local state (histogram privatization, per-tile
/// bitshuffle, per-chunk Huffman) use this form.
template <class F>
void launch_blocks(stream& s, std::size_t n, std::size_t block, F body) {
  s.enqueue([n, block, body = std::move(body), sid = s.id()] {
    const u64 t0 = trace::enabled() ? trace::now_ns() : 0;
    auto& rt = runtime::instance();
    rt.stats().kernels_launched += 1;
    const std::size_t nblocks = block ? (n + block - 1) / block : 0;
    rt.pool().parallel_for(
        nblocks, 1, [&](std::size_t blo, std::size_t bhi) {
          for (std::size_t b = blo; b < bhi; ++b) {
            body(b, b * block, std::min(n, (b + 1) * block));
          }
        });
    if (t0) {
      trace::complete("stream", "kernel.blocks", t0, trace::now_ns() - t0,
                      sid, static_cast<f64>(n));
    }
  });
}

/// Run arbitrary host-side work stream-ordered (CPU stages of a hybrid
/// pipeline — e.g. FZMod-Default's CPU Huffman encode).
template <class F>
void host_task(stream& s, F body) {
  s.enqueue([body = std::move(body), sid = s.id()]() mutable {
    const u64 t0 = trace::enabled() ? trace::now_ns() : 0;
    body();
    if (t0) {
      trace::complete("stream", "host_task", t0, trace::now_ns() - t0, sid);
    }
  });
}

template <class T>
void buffer<T>::fill_zero_async(stream& s) {
  if (!ptr_) return;
  auto* p = reinterpret_cast<unsigned char*>(ptr_);
  const std::size_t nbytes = bytes();
  s.enqueue([p, nbytes, sid = s.id()] {
    const u64 t0 = trace::enabled() ? trace::now_ns() : 0;
    auto& rt = runtime::instance();
    rt.stats().kernels_launched += 1;
    rt.pool().parallel_for(nbytes, rt.default_block() * sizeof(T),
                           [p](std::size_t lo, std::size_t hi) {
                             std::memset(p + lo, 0, hi - lo);
                           });
    if (t0) {
      trace::complete("stream", "memset", t0, trace::now_ns() - t0, sid,
                      static_cast<f64>(nbytes));
    }
  });
}

/// Sample the runtime's cumulative counters into the trace as counter
/// tracks (one torn-free stats_snapshot per call). Instrumented drivers
/// call this at stage/commit boundaries; it is a single branch when
/// tracing is disabled.
inline void sample_trace_counters() {
  if (!trace::enabled()) return;
  const runtime_stats_snapshot s = runtime::instance().stats_snapshot();
  trace::counter("pool.device.hits", static_cast<f64>(s.device_pool.hits));
  trace::counter("pool.device.misses",
                 static_cast<f64>(s.device_pool.misses));
  trace::counter("pool.device.bytes_cached",
                 static_cast<f64>(s.device_pool.bytes_cached));
  trace::counter("pool.host.hits", static_cast<f64>(s.host_pool.hits));
  trace::counter("pool.host.misses", static_cast<f64>(s.host_pool.misses));
  trace::counter("runtime.kernels_launched",
                 static_cast<f64>(s.kernels_launched));
  trace::counter("runtime.device_bytes_in_use",
                 static_cast<f64>(s.device_bytes_in_use));
  trace::counter("runtime.h2d_bytes", static_cast<f64>(s.h2d_bytes));
  trace::counter("runtime.d2h_bytes", static_cast<f64>(s.d2h_bytes));
}

}  // namespace fzmod::device
