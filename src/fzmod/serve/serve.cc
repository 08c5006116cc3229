// FZModules — serving layer implementation. See serve.hh for the model
// and docs/SERVING.md for the operational guide.

#include "fzmod/serve/serve.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <thread>

#include "fzmod/common/env.hh"
#include "fzmod/core/chunked.hh"
#include "fzmod/spec/spec.hh"
#include "fzmod/trace/trace.hh"

namespace fzmod::serve {

namespace {
std::atomic<u64> g_leaked_leases{0};
}  // namespace

u64 pool_leaked_leases() { return g_leaked_leases.load(); }

const char* to_string(reject_reason r) {
  switch (r) {
    case reject_reason::none: return "none";
    case reject_reason::queue_full: return "queue_full";
    case reject_reason::deadline: return "deadline";
    case reject_reason::shutdown: return "shutdown";
    case reject_reason::bad_request: return "bad_request";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// pool_options / server_options resolution (strict env path: a malformed
// FZMOD_SERVE_* value throws naming the variable, common/env.hh semantics)

std::size_t pool_options::resolve_cap() const {
  const u64 c = cap ? cap : common::env_u64("FZMOD_SERVE_POOL", 4);
  return static_cast<std::size_t>(std::max<u64>(1, std::min<u64>(c, 256)));
}

std::size_t pool_options::resolve_warm() const {
  const u64 w = warm ? warm : common::env_u64("FZMOD_SERVE_WARM", 1);
  return static_cast<std::size_t>(std::min<u64>(w, resolve_cap()));
}

std::size_t server_options::resolve_queue_depth() const {
  const u64 d = queue_depth ? queue_depth
                            : common::env_u64("FZMOD_SERVE_QUEUE", 64);
  return static_cast<std::size_t>(std::max<u64>(1, d));
}

u64 server_options::resolve_deadline_ms() const {
  return deadline_ms ? deadline_ms
                     : common::env_u64("FZMOD_SERVE_DEADLINE_MS", 0);
}

std::size_t server_options::resolve_batch_elems() const {
  const u64 b = batch_elems ? batch_elems
                            : common::env_u64("FZMOD_SERVE_BATCH", 65536);
  return static_cast<std::size_t>(b);
}

std::size_t server_options::resolve_batch_max() const {
  const u64 m = batch_max ? batch_max
                          : common::env_u64("FZMOD_SERVE_BATCH_MAX", 8);
  return static_cast<std::size_t>(std::max<u64>(1, m));
}

unsigned server_options::resolve_workers() const {
  const u64 w = workers ? workers
                        : common::env_u64("FZMOD_SERVE_WORKERS", 2);
  return static_cast<unsigned>(std::max<u64>(1, std::min<u64>(w, 64)));
}

// ---------------------------------------------------------------------------
// pipeline_pool

template <class T>
struct pipeline_pool<T>::state {
  std::mutex mu;
  std::condition_variable cv;
  core::pipeline_config cfg;
  std::size_t cap = 1;
  bool closed = false;
  std::vector<std::unique_ptr<core::pipeline<T>>> idle;
  u64 created = 0;
  u64 reuses = 0;
  u64 outstanding = 0;
  u64 peak_outstanding = 0;
};

template <class T>
pipeline_pool<T>::pipeline_pool(core::pipeline_config cfg, pool_options opt)
    : st_(std::make_shared<state>()) {
  st_->cfg = std::move(cfg);
  st_->cap = opt.resolve_cap();
  const std::size_t warm = opt.resolve_warm();
  for (std::size_t i = 0; i < warm; ++i) {
    st_->idle.push_back(std::make_unique<core::pipeline<T>>(st_->cfg));
    ++st_->created;
  }
}

template <class T>
pipeline_pool<T>::~pipeline_pool() {
  u64 leaked = 0;
  {
    std::lock_guard lk(st_->mu);
    st_->closed = true;
    leaked = st_->outstanding;  // leases now orphaned: counted here, once
  }
  if (leaked) {
    g_leaked_leases.fetch_add(leaked, std::memory_order_relaxed);
    trace::instant("serve", "pool.leaked", 0, static_cast<f64>(leaked));
  }
  st_->cv.notify_all();
}

template <class T>
void pipeline_pool<T>::lease::release() {
  if (!p_) return;
  std::unique_ptr<core::pipeline<T>> p = std::move(p_);
  std::shared_ptr<state> st = std::move(st_);
  std::lock_guard lk(st->mu);
  --st->outstanding;
  // A checkin after the pool died was already counted as leaked by the
  // pool destructor; the pipeline just gets destroyed instead of reused.
  if (!st->closed) {
    st->idle.push_back(std::move(p));
    st->cv.notify_one();
  }
}

template <class T>
typename pipeline_pool<T>::lease pipeline_pool<T>::acquire() {
  std::unique_lock lk(st_->mu);
  for (;;) {
    FZMOD_REQUIRE(!st_->closed, status::invalid_argument,
                  "pipeline_pool: acquire after close");
    if (!st_->idle.empty()) {
      auto p = std::move(st_->idle.back());
      st_->idle.pop_back();
      ++st_->reuses;
      st_->peak_outstanding =
          std::max(st_->peak_outstanding, ++st_->outstanding);
      return lease(st_, std::move(p));
    }
    if (st_->created < st_->cap) {
      ++st_->created;
      st_->peak_outstanding =
          std::max(st_->peak_outstanding, ++st_->outstanding);
      // Construction is cheap (module-name resolution) but need not hold
      // the pool lock; on failure the slot is returned.
      lk.unlock();
      std::unique_ptr<core::pipeline<T>> p;
      try {
        p = std::make_unique<core::pipeline<T>>(st_->cfg);
      } catch (...) {
        std::lock_guard lg(st_->mu);
        --st_->created;
        --st_->outstanding;
        st_->cv.notify_one();
        throw;
      }
      return lease(st_, std::move(p));
    }
    st_->cv.wait(lk);
  }
}

template <class T>
std::optional<typename pipeline_pool<T>::lease> pipeline_pool<T>::try_acquire() {
  {
    std::lock_guard lk(st_->mu);
    FZMOD_REQUIRE(!st_->closed, status::invalid_argument,
                  "pipeline_pool: acquire after close");
    if (st_->idle.empty() && st_->created >= st_->cap) return std::nullopt;
  }
  return acquire();  // an idle pipeline or headroom existed; may block only
                     // on the rare race, which acquire resolves correctly
}

template <class T>
void pipeline_pool<T>::warm_up(dims3 dims) {
  FZMOD_REQUIRE(!dims.len_invalid(), status::invalid_argument,
                "pipeline_pool: warm_up dims invalid");
  std::vector<std::unique_ptr<core::pipeline<T>>> taken;
  {
    std::lock_guard lk(st_->mu);
    taken.swap(st_->idle);
  }
  std::vector<T> field(dims.len());
  for (std::size_t i = 0; i < field.size(); ++i) {
    field[i] = static_cast<T>(std::sin(0.05 * static_cast<f64>(i % 977)));
  }
  for (auto& p : taken) {
    const std::vector<u8> arch = p->compress(std::span<const T>(field), dims);
    (void)p->decompress(arch);
  }
  {
    std::lock_guard lk(st_->mu);
    for (auto& p : taken) st_->idle.push_back(std::move(p));
  }
  st_->cv.notify_all();
}

template <class T>
typename pipeline_pool<T>::stats_snapshot pipeline_pool<T>::stats() const {
  std::lock_guard lk(st_->mu);
  stats_snapshot s;
  s.created = st_->created;
  s.reuses = st_->reuses;
  s.outstanding = st_->outstanding;
  s.peak_outstanding = st_->peak_outstanding;
  return s;
}

template <class T>
const core::pipeline_config& pipeline_pool<T>::config() const {
  return st_->cfg;
}

template <class T>
std::size_t pipeline_pool<T>::capacity() const {
  return st_->cap;
}

template class pipeline_pool<f32>;
template class pipeline_pool<f64>;

// ---------------------------------------------------------------------------
// server

namespace {

using clock = std::chrono::steady_clock;

struct queued_item {
  request req;
  std::promise<response> prom;
  clock::time_point enqueued;
  clock::time_point deadline;  // time_point::max() when none
  // Per-request spec, resolved at admission so malformed specs are
  // rejected synchronously and workers never parse.
  bool has_spec = false;
  std::string spec_key;        // canonical spec text (pool map key)
  core::pipeline_config cfg;   // meaningful only when has_spec
};

f64 ms_between(clock::time_point a, clock::time_point b) {
  return std::chrono::duration<f64, std::milli>(b - a).count();
}

}  // namespace

struct server::impl {
  core::pipeline_config cfg;
  pipeline_pool<f32> pool;
  std::size_t queue_depth_cap;
  u64 default_deadline_ms;
  std::size_t batch_elems;
  std::size_t batch_max;
  unsigned nworkers;

  std::mutex mu;
  std::condition_variable cv;
  bool stopping = false;
  // One FIFO per tenant, served round-robin: rr holds the tenants that
  // currently have queued work, in service order.
  std::map<std::string, std::deque<queued_item>> queues;
  std::deque<std::string> rr;
  std::size_t depth = 0;

  // Cumulative counters (atomics so stats() never contends the queue).
  std::atomic<u64> admitted{0};
  std::atomic<u64> rejected_full{0};
  std::atomic<u64> rejected_deadline{0};
  std::atomic<u64> rejected_shutdown{0};
  std::atomic<u64> rejected_bad{0};
  std::atomic<u64> completed{0};
  std::atomic<u64> batched{0};
  std::atomic<u64> batches{0};
  std::atomic<u64> spec_requests{0};
  std::atomic<u64> peak_depth{0};
  std::atomic<u64> completion_order{0};

  std::vector<std::thread> workers;

  // Spec-carrying requests get a pipeline pool per canonical spec, built
  // lazily: the spec names the stages, the server's eb/radius knobs carry
  // over. Pools live for the server's lifetime so repeated specs reuse
  // warm pipelines.
  std::mutex spec_mu;
  std::map<std::string, std::unique_ptr<pipeline_pool<f32>>> spec_pools;
  pool_options pool_opt;

  explicit impl(core::pipeline_config c, const server_options& opt)
      : cfg(std::move(c)),
        pool(cfg, opt.pool),
        queue_depth_cap(opt.resolve_queue_depth()),
        default_deadline_ms(opt.resolve_deadline_ms()),
        batch_elems(opt.resolve_batch_elems()),
        batch_max(opt.resolve_batch_max()),
        nworkers(opt.resolve_workers()),
        pool_opt(opt.pool) {
    workers.reserve(nworkers);
    for (unsigned w = 0; w < nworkers; ++w) {
      workers.emplace_back([this] { worker_loop(); });
    }
  }

  ~impl() {
    stop();
    for (auto& t : workers) t.join();
  }

  void stop() {
    {
      std::lock_guard lk(mu);
      stopping = true;
    }
    cv.notify_all();
  }

  /// See server::warm. Holding every pool lease while the synthetic batch
  /// runs execute makes the allocator pressure here an upper bound on any
  /// later admissible traffic of this shape: at most `cap` pooled
  /// pipelines and `nworkers` coalesced runs can ever be live at once.
  void warm(dims3 d) {
    FZMOD_REQUIRE(!d.len_invalid(), status::invalid_argument,
                  "server: warm dims invalid");
    std::vector<f32> field(d.len());
    for (std::size_t i = 0; i < field.size(); ++i) {
      field[i] =
          static_cast<f32>(std::sin(0.05 * static_cast<f64>(i % 977)));
    }
    std::vector<typename pipeline_pool<f32>::lease> leases;
    for (std::size_t i = 0; i < pool.capacity(); ++i) {
      leases.push_back(pool.acquire());
      const auto archive =
          leases.back()->compress(std::span<const f32>(field), d);
      (void)leases.back()->decompress(archive);
    }
    if (batch_max > 1 && d.len() <= batch_elems) {
      const std::size_t k = batch_max;
      dims3 combined = d;
      switch (d.rank()) {
        case 3: combined.z *= k; break;
        case 2: combined.y *= k; break;
        default: combined.x *= k; break;
      }
      if (!combined.len_invalid()) {
        std::vector<std::thread> runs;
        for (unsigned w = 0; w < nworkers; ++w) {
          runs.emplace_back([&] {
            core::chunked_options copt;
            copt.chunk_elems = d.len();
            copt.jobs = static_cast<unsigned>(
                std::min<std::size_t>(k, pool.capacity() + 1));
            core::chunked_pipeline<f32> pipe(cfg, copt);
            pipe.compress_stream(
                [&](f32* dst, u64 elem_offset, std::size_t n) {
                  while (n) {
                    const std::size_t at = elem_offset % d.len();
                    const std::size_t take = std::min(n, d.len() - at);
                    std::copy_n(field.data() + at, take, dst);
                    dst += take;
                    elem_offset += take;
                    n -= take;
                  }
                },
                combined, [](std::span<const u8>) {});
          });
        }
        for (auto& t : runs) t.join();
      }
    }
  }

  void count_reject(reject_reason r) {
    switch (r) {
      case reject_reason::queue_full: ++rejected_full; break;
      case reject_reason::deadline: ++rejected_deadline; break;
      case reject_reason::shutdown: ++rejected_shutdown; break;
      case reject_reason::bad_request: ++rejected_bad; break;
      case reject_reason::none: break;
    }
    trace::counter("serve.rejected",
                   static_cast<f64>(rejected_full + rejected_deadline +
                                    rejected_shutdown + rejected_bad));
  }

  void finish(queued_item& it, response&& resp) {
    resp.order = ++completion_order;
    ++completed;
    it.prom.set_value(std::move(resp));
  }

  void reject(queued_item& it, reject_reason r,
              const std::string& detail = "") {
    count_reject(r);
    response resp;
    resp.ok = false;
    resp.reason = r;
    resp.error = detail.empty() ? to_string(r) : detail;
    finish(it, std::move(resp));
  }

  std::future<response> submit(request r) {
    queued_item it;
    it.prom = std::promise<response>();
    std::future<response> fut = it.prom.get_future();
    it.enqueued = clock::now();
    const u64 dl = r.deadline_ms ? r.deadline_ms : default_deadline_ms;
    it.deadline = dl ? it.enqueued + std::chrono::milliseconds(dl)
                     : clock::time_point::max();

    const bool valid =
        r.kind == request::op::compress
            ? (!r.dims.len_invalid() && r.data.size() == r.dims.len())
            : !r.archive.empty();
    it.req = std::move(r);
    if (!valid) {
      reject(it, reject_reason::bad_request);
      return fut;
    }
    if (it.req.kind == request::op::compress && !it.req.spec.empty()) {
      // Resolve the spec at admission: malformed specs answer
      // synchronously with the parse error, and workers never parse.
      try {
        const auto sp = spec::parse(it.req.spec);
        spec::validate<f32>(sp);
        it.cfg = spec::to_config(sp, cfg.eb);
        it.spec_key = spec::to_string(sp);
        it.has_spec = true;
      } catch (const error& e) {
        reject(it, reject_reason::bad_request, e.what());
        return fut;
      }
      ++spec_requests;
    }
    {
      std::lock_guard lk(mu);
      if (stopping) {
        reject(it, reject_reason::shutdown);
        return fut;
      }
      if (depth >= queue_depth_cap) {
        reject(it, reject_reason::queue_full);
        return fut;
      }
      const std::string tenant = it.req.tenant;
      auto& q = queues[tenant];
      if (q.empty()) rr.push_back(tenant);
      q.push_back(std::move(it));
      ++depth;
      u64 pk = peak_depth.load(std::memory_order_relaxed);
      while (depth > pk &&
             !peak_depth.compare_exchange_weak(pk, depth)) {
      }
      ++admitted;
      trace::counter("serve.admitted", static_cast<f64>(admitted.load()));
      trace::counter("serve.queue.depth", static_cast<f64>(depth));
    }
    cv.notify_one();
    return fut;
  }

  /// Pop the next item in tenant-fair order. Caller holds the lock and
  /// guarantees depth > 0.
  queued_item pop_next() {
    const std::string tenant = rr.front();
    rr.pop_front();
    auto& q = queues[tenant];
    queued_item it = std::move(q.front());
    q.pop_front();
    if (q.empty()) {
      queues.erase(tenant);
    } else {
      rr.push_back(tenant);
    }
    --depth;
    trace::counter("serve.queue.depth", static_cast<f64>(depth));
    return it;
  }

  [[nodiscard]] bool batchable(const queued_item& it, dims3 d) const {
    // Spec-carrying requests are never coalesced: a batch runs one config.
    return it.req.kind == request::op::compress && !it.has_spec &&
           it.req.dims == d && it.req.data.size() <= batch_elems;
  }

  /// The lazily-built pool for one canonical spec. Same sizing knobs as
  /// the main pool.
  pipeline_pool<f32>& spec_pool(const std::string& key,
                                const core::pipeline_config& scfg) {
    std::lock_guard lk(spec_mu);
    auto it = spec_pools.find(key);
    if (it == spec_pools.end()) {
      it = spec_pools
               .emplace(key,
                        std::make_unique<pipeline_pool<f32>>(scfg, pool_opt))
               .first;
    }
    return *it->second;
  }

  /// Gather further same-shaped small compress requests for a coalesced
  /// run. Only queue fronts are popped (per-tenant FIFO holds) and at
  /// most one per tenant per sweep (fairness holds). Expired fronts are
  /// rejected on the spot. Caller holds the lock.
  std::vector<queued_item> gather_batch(dims3 d, clock::time_point now,
                                        std::vector<queued_item>& expired) {
    std::vector<queued_item> more;
    bool progress = true;
    while (more.size() + 1 < batch_max && progress) {
      progress = false;
      for (std::size_t i = 0;
           i < rr.size() && more.size() + 1 < batch_max;) {
        auto& q = queues[rr[i]];
        if (!q.empty() && batchable(q.front(), d)) {
          queued_item it = std::move(q.front());
          q.pop_front();
          --depth;
          progress = true;
          if (now > it.deadline) {
            expired.push_back(std::move(it));
          } else {
            more.push_back(std::move(it));
          }
          if (q.empty()) {
            queues.erase(rr[i]);
            rr.erase(rr.begin() + static_cast<std::ptrdiff_t>(i));
            continue;  // same index now names the next tenant
          }
        }
        ++i;
      }
    }
    if (!more.empty() || !expired.empty()) {
      trace::counter("serve.queue.depth", static_cast<f64>(depth));
    }
    return more;
  }

  void worker_loop() {
    for (;;) {
      std::vector<queued_item> batch;
      std::vector<queued_item> expired;
      queued_item head;
      {
        std::unique_lock lk(mu);
        cv.wait(lk, [&] { return stopping || depth > 0; });
        if (depth == 0) return;  // stopping and drained
        head = pop_next();
        const clock::time_point now = clock::now();
        if (now > head.deadline) {
          lk.unlock();
          reject(head, reject_reason::deadline);
          continue;
        }
        if (batch_max > 1 && batchable(head, head.req.dims)) {
          batch = gather_batch(head.req.dims, now, expired);
        }
      }
      for (auto& it : expired) reject(it, reject_reason::deadline);
      if (batch.empty()) {
        serve_single(head);
      } else {
        batch.insert(batch.begin(), std::move(head));
        serve_batch(batch);
      }
      cv.notify_one();  // a batch may have freed queue slots for others
    }
  }

  void serve_single(queued_item& it) {
    const clock::time_point picked = clock::now();
    response resp;
    resp.queue_ms = ms_between(it.enqueued, picked);
    const u64 t0 = trace::enabled() ? trace::now_ns() : 0;
    const bool is_compress = it.req.kind == request::op::compress;
    try {
      if (is_compress && it.has_spec) {
        auto lease = spec_pool(it.spec_key, it.cfg).acquire();
        resp.archive = lease->compress(
            std::span<const f32>(it.req.data), it.req.dims);
      } else if (is_compress) {
        auto lease = pool.acquire();
        resp.archive = lease->compress(
            std::span<const f32>(it.req.data), it.req.dims);
      } else if (core::fmt::is_chunk_container(it.req.archive)) {
        // v3 containers carry their own parallel decode path; pooled
        // pipelines only speak v1/v2.
        core::chunked_pipeline<f32> pipe(cfg);
        resp.data = pipe.decompress(it.req.archive);
      } else {
        auto lease = pool.acquire();
        resp.data = lease->decompress(it.req.archive);
      }
      resp.ok = true;
    } catch (const std::exception& e) {
      resp.ok = false;
      resp.error = e.what();
    }
    resp.exec_ms = ms_between(picked, clock::now());
    if (t0) {
      trace::complete("serve", is_compress ? "compress" : "decompress", t0,
                      trace::now_ns() - t0, 0,
                      static_cast<f64>(is_compress ? it.req.data.size()
                                                   : it.req.archive.size()));
    }
    finish(it, std::move(resp));
  }

  /// One coalesced chunked_pipeline run over K same-shaped requests: the
  /// requests stack along the slowest-varying axis and chunk_elems is one
  /// request's length, so chunk k IS request k and the demuxed per-chunk
  /// archive is byte-identical to an individual compress.
  void serve_batch(std::vector<queued_item>& items) {
    const clock::time_point picked = clock::now();
    const dims3 d = items[0].req.dims;
    const std::size_t k = items.size();
    dims3 combined = d;
    switch (d.rank()) {
      case 3: combined.z *= k; break;
      case 2: combined.y *= k; break;
      default: combined.x *= k; break;
    }
    if (combined.len_invalid()) {
      // Absurdly large coalition (can only happen with a huge batch_elems
      // knob); serve individually rather than fail.
      for (auto& it : items) serve_single(it);
      return;
    }
    const u64 t0 = trace::enabled() ? trace::now_ns() : 0;
    // Record the span before the first finish(): a client that joins its
    // futures and then turns tracing off must still find it.
    const auto record_span = [&] {
      if (!t0) return;
      trace::complete("serve", "batch", t0, trace::now_ns() - t0, 0,
                      static_cast<f64>(k));
    };
    const std::size_t per = d.len();
    // Every response is built before any promise is fulfilled, so a
    // failure anywhere in the coalesced run leaves all K unanswered.
    std::vector<response> resps(k);
    try {
      core::chunked_options copt;
      copt.chunk_elems = per;
      copt.jobs = static_cast<unsigned>(
          std::min<std::size_t>(k, pool.stats().created + 1));
      core::chunked_pipeline<f32> pipe(cfg, copt);
      std::vector<u8> container;
      pipe.compress_stream(
          [&](f32* dst, u64 elem_offset, std::size_t n) {
            // Chunk pulls are whole requests by construction, but copy
            // generally so a future planner change cannot corrupt data.
            while (n) {
              const std::size_t ri = elem_offset / per;
              const std::size_t at = elem_offset % per;
              const std::size_t take = std::min(n, per - at);
              std::copy_n(items[ri].req.data.data() + at, take, dst);
              dst += take;
              elem_offset += take;
              n -= take;
            }
          },
          combined,
          [&](std::span<const u8> bytes) {
            container.insert(container.end(), bytes.begin(), bytes.end());
          });

      const core::fmt::chunk_container_view cv =
          core::fmt::parse_chunk_container(container);
      FZMOD_REQUIRE(cv.entries.size() == k, status::internal,
                    "serve: batch produced a different chunk count");
      for (std::size_t i = 0; i < k; ++i) {
        const std::span<const u8> ab =
            core::fmt::chunk_archive(cv, cv.entries[i]);
        resps[i].ok = true;
        resps[i].batched = true;
        resps[i].archive.assign(ab.begin(), ab.end());
        resps[i].queue_ms = ms_between(items[i].enqueued, picked);
      }
    } catch (const std::exception&) {
      // One request's bad input (say an infinity under a relative bound)
      // fails the whole coalesced run. Serve each request alone so only
      // that request gets a not-ok response, exactly as without batching.
      record_span();
      for (auto& it : items) serve_single(it);
      return;
    }
    // Count the batch before fulfilling any promise: a client that has
    // already seen a batched=true response must also see it in stats().
    batched += k;
    ++batches;
    trace::counter("serve.batched", static_cast<f64>(batched.load()));
    record_span();
    for (std::size_t i = 0; i < k; ++i) {
      resps[i].exec_ms = ms_between(picked, clock::now());
      finish(items[i], std::move(resps[i]));
    }
  }
};

server::server(core::pipeline_config cfg, server_options opt)
    : impl_(std::make_unique<impl>(std::move(cfg), opt)) {}

server::~server() = default;

std::future<response> server::submit(request r) {
  return impl_->submit(std::move(r));
}

void server::stop() { impl_->stop(); }

void server::warm(dims3 d) { impl_->warm(d); }

server::stats_snapshot server::stats() const {
  stats_snapshot s;
  s.admitted = impl_->admitted.load();
  s.rejected_full = impl_->rejected_full.load();
  s.rejected_deadline = impl_->rejected_deadline.load();
  s.rejected_shutdown = impl_->rejected_shutdown.load();
  s.rejected_bad = impl_->rejected_bad.load();
  s.completed = impl_->completed.load();
  s.batched = impl_->batched.load();
  s.batches = impl_->batches.load();
  s.spec_requests = impl_->spec_requests.load();
  {
    std::lock_guard lk(impl_->mu);
    s.queue_depth = impl_->depth;
  }
  s.peak_depth = impl_->peak_depth.load();
  return s;
}

pipeline_pool<f32>& server::pool() { return impl_->pool; }

const core::pipeline_config& server::config() const { return impl_->cfg; }

}  // namespace fzmod::serve
