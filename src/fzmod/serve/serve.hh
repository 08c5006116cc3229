// FZModules — concurrent serving layer (docs/SERVING.md).
//
// A single `core::pipeline<T>` is deliberately not thread-safe: its stage
// scratch is retained in members so steady-state requests run at zero
// allocations, and its busy-flag guard turns accidental sharing into an
// immediate error. Production traffic (ROADMAP north star) needs many
// compress/decompress requests in flight at once, which this layer
// provides without giving up the zero-allocation contract:
//
//   - `pipeline_pool<T>` keeps a set of pre-warmed pipelines resident.
//     Checkout/checkin is an RAII `lease`; each pooled pipeline retains
//     its scratch (and its blocks in the runtime's caching allocator)
//     across requests, so a warm pool serves steady-state requests with
//     zero runtime allocations per op — the PR 1 contract, now concurrent.
//
//   - `server` puts a bounded, admission-controlled request queue in
//     front of the pool: configurable depth (`FZMOD_SERVE_QUEUE`),
//     per-request deadlines (`FZMOD_SERVE_DEADLINE_MS`), and
//     reject-with-reason when the queue is full, the deadline has passed,
//     or the server is shutting down. Scheduling across tenants (named
//     fields / users sharing the device runtime) is fair: one FIFO per
//     tenant, served round-robin, so one tenant's flood cannot starve
//     another's trickle.
//
// Every request runs exactly once, on its own: a compress on a pooled
// pipeline (or, with a per-request spec, on a pipeline built for that
// request), a decompress on a pooled pipeline or, for a v3 container, the
// chunked decoder. Served archives are therefore byte-identical to
// `core::pipeline::compress` of the same request.
//
// Everything is observable through the trace subsystem: per-request
// "serve" spans, `serve.queue.depth` occupancy samples, and cumulative
// `serve.admitted` / `serve.rejected` counters (docs/OBSERVABILITY.md).
#pragma once

#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fzmod/core/pipeline.hh"

namespace fzmod::serve {

// ---------------------------------------------------------------------------
// Pipeline pool

/// Pool sizing. Zero means "resolve from the environment, then fall back
/// to the default": FZMOD_SERVE_POOL caps resident pipelines (default 4).
struct pool_options {
  std::size_t cap = 0;

  [[nodiscard]] std::size_t resolve_cap() const;
};

/// Process-wide count of leases that outlived their pool (a served
/// request holding a pipeline past server shutdown is a bug; the pool
/// detects it instead of crashing). Monotonic; tests read deltas.
[[nodiscard]] u64 pool_leaked_leases();

template <class T>
class pipeline_pool {
 public:
  /// Construct with the pipeline configuration every pooled instance
  /// shares. Builds one pipeline eagerly, so a bad config throws here
  /// rather than on first checkout; the rest are built on demand.
  explicit pipeline_pool(core::pipeline_config cfg, pool_options opt = {});

  /// Destruction detects leaked leases (outstanding checkouts) rather
  /// than blocking on them: the shared state keeps their pipelines alive
  /// until the lease drops, and `pool_leaked_leases()` counts them.
  ~pipeline_pool();

  pipeline_pool(const pipeline_pool&) = delete;
  pipeline_pool& operator=(const pipeline_pool&) = delete;

  struct state;  // shared with leases so a lease can outlive the pool

  /// RAII checkout: holds exclusive use of one pooled pipeline, returns
  /// it on destruction. Movable; a moved-from lease is empty.
  class lease {
   public:
    lease() = default;
    lease(lease&&) noexcept = default;
    lease& operator=(lease&& other) noexcept {
      if (this != &other) {
        release();
        st_ = std::move(other.st_);
        p_ = std::move(other.p_);
      }
      return *this;
    }
    ~lease() { release(); }

    [[nodiscard]] core::pipeline<T>& operator*() const { return *p_; }
    [[nodiscard]] core::pipeline<T>* operator->() const { return p_.get(); }
    [[nodiscard]] explicit operator bool() const { return p_ != nullptr; }

   private:
    friend class pipeline_pool;
    lease(std::shared_ptr<state> st, std::unique_ptr<core::pipeline<T>> p)
        : st_(std::move(st)), p_(std::move(p)) {}
    void release();

    std::shared_ptr<state> st_;
    std::unique_ptr<core::pipeline<T>> p_;
  };

  /// Check out a pipeline: reuse an idle one, lazily construct while the
  /// pool is below its cap, otherwise block until a lease returns.
  /// Throws status::invalid_argument after the pool is destroyed.
  [[nodiscard]] lease acquire();

  /// Non-blocking acquire: empty optional when the pool is at its cap
  /// with every pipeline checked out.
  [[nodiscard]] std::optional<lease> try_acquire();

  /// Grow the pool to its cap, then run one synthetic compress+decompress
  /// of shape `dims` on every idle pipeline, sizing its retained scratch
  /// so the first real requests already hit warm paths. Pipelines checked
  /// out meanwhile are left alone.
  void warm_up(dims3 dims);

  struct stats_snapshot {
    u64 created = 0;       ///< pipelines constructed over the pool's life
    u64 reuses = 0;        ///< checkouts served by an idle pipeline
    u64 outstanding = 0;   ///< leases currently held
    u64 peak_outstanding = 0;
  };
  [[nodiscard]] stats_snapshot stats() const;

  [[nodiscard]] const core::pipeline_config& config() const;

 private:
  std::shared_ptr<state> st_;
};

// ---------------------------------------------------------------------------
// Server: admission-controlled request queue over the pool

/// Why a request was not served. `none` on success.
enum class reject_reason : u8 {
  none = 0,
  queue_full,   ///< bounded queue at FZMOD_SERVE_QUEUE depth
  deadline,     ///< expired in the queue before a worker picked it up
  shutdown,     ///< server stopping; no new admissions
  bad_request,  ///< malformed (size/dims mismatch, empty archive)
};
[[nodiscard]] const char* to_string(reject_reason r);

struct request {
  enum class op : u8 { compress, decompress };
  op kind = op::compress;
  /// Admission is FIFO within a tenant and round-robin across tenants;
  /// "" is the default tenant.
  std::string tenant;
  std::vector<f32> data;     ///< compress payload (owned)
  dims3 dims;                ///< compress shape; data.size() must match
  std::vector<u8> archive;   ///< decompress payload (owned)
  /// Optional per-request pipeline spec (docs/PIPELINES.md grammar or
  /// JSON) for compress: overrides the server's configured stages while
  /// keeping its error bound. A malformed or unknown-module spec is a
  /// bad_request whose response carries the parse error. Decompression
  /// never needs one — archives are self-describing.
  std::string spec;
  /// Per-request deadline override in ms from submission; 0 uses the
  /// server default (which may be "none").
  u64 deadline_ms = 0;
};

struct response {
  bool ok = false;
  reject_reason reason = reject_reason::none;
  std::string error;         ///< exception text when execution failed
  std::vector<u8> archive;   ///< compress result
  std::vector<f32> data;     ///< decompress result
  f64 queue_ms = 0;          ///< admission -> worker pickup
  f64 exec_ms = 0;           ///< pipeline execution
  u64 order = 0;             ///< global completion sequence number
};

/// Serving knobs. Zero means "resolve from the environment, then fall
/// back to the default" (all FZMOD_SERVE_* variables parse through the
/// strict common::env_u64 path — garbage throws, docs/SERVING.md):
///   queue_depth  FZMOD_SERVE_QUEUE        default 64
///   deadline_ms  FZMOD_SERVE_DEADLINE_MS  default 0 (no deadline)
///   workers      FZMOD_SERVE_WORKERS      default 2
struct server_options {
  pool_options pool;
  std::size_t queue_depth = 0;
  u64 deadline_ms = 0;
  unsigned workers = 0;

  [[nodiscard]] std::size_t resolve_queue_depth() const;
  [[nodiscard]] u64 resolve_deadline_ms() const;
  [[nodiscard]] unsigned resolve_workers() const;
};

/// The serving front end: N worker threads drain the admission queue
/// through a pipeline_pool. The payload type is f32 — the type every
/// SDRBench field and the wire protocol use; decompression accepts any
/// archive version (v3 containers route through the chunked driver).
class server {
 public:
  explicit server(core::pipeline_config cfg, server_options opt = {});
  /// Stops admissions, drains queued work, joins the workers.
  ~server();

  server(const server&) = delete;
  server& operator=(const server&) = delete;

  /// Admission control happens here, synchronously: a rejected request's
  /// future is already satisfied when submit returns. Admitted requests
  /// complete when a worker serves them.
  [[nodiscard]] std::future<response> submit(request r);

  /// Convenience for closed-loop callers: submit and wait.
  [[nodiscard]] response execute(request r) { return submit(std::move(r)).get(); }

  /// Stop admitting, serve everything already queued, then park the
  /// workers. Idempotent; the destructor calls it.
  void stop();

  /// Pre-warm for requests of shape `d`: `pool().warm_up(d)`. Call before
  /// taking traffic.
  void warm(dims3 d);

  struct stats_snapshot {
    u64 admitted = 0;
    u64 rejected_full = 0;
    u64 rejected_deadline = 0;
    u64 rejected_shutdown = 0;
    u64 rejected_bad = 0;
    u64 completed = 0;      ///< requests answered (served or failed)
    /// Always 0: requests are never coalesced. Kept because
    /// perfbench/serve_mix.cc reads it, and perfbench/ stays frozen so its
    /// numbers compare across commits.
    u64 batched = 0;
    u64 spec_requests = 0;  ///< compresses served with a per-request spec
    u64 queue_depth = 0;    ///< currently queued
    u64 peak_depth = 0;
  };
  [[nodiscard]] stats_snapshot stats() const;

  [[nodiscard]] pipeline_pool<f32>& pool();
  [[nodiscard]] const core::pipeline_config& config() const;

 private:
  struct impl;
  std::unique_ptr<impl> impl_;
};

}  // namespace fzmod::serve
