// FZModules — serving layer implementation. See serve.hh for the model
// and docs/SERVING.md for the operational guide.

#include "fzmod/serve/serve.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <exception>
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

std::size_t server_options::resolve_queue_depth() const {
  const u64 d = queue_depth ? queue_depth
                            : common::env_u64("FZMOD_SERVE_QUEUE", 64);
  return static_cast<std::size_t>(std::max<u64>(1, d));
}

u64 server_options::resolve_deadline_ms() const {
  return deadline_ms ? deadline_ms
                     : common::env_u64("FZMOD_SERVE_DEADLINE_MS", 0);
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
  st_->idle.push_back(std::make_unique<core::pipeline<T>>(st_->cfg));
  st_->created = 1;
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
  std::size_t grow = 0;
  {
    std::lock_guard lk(st_->mu);
    taken.swap(st_->idle);
    // Claim the missing slots up front so a concurrent acquire cannot
    // build past the cap; unbuilt claims are handed back below.
    grow = st_->cap - st_->created;
    st_->created = st_->cap;
  }
  std::size_t built = 0;
  std::exception_ptr err;
  try {
    for (; built < grow; ++built) {
      taken.push_back(std::make_unique<core::pipeline<T>>(st_->cfg));
    }
    std::vector<T> field(dims.len());
    for (std::size_t i = 0; i < field.size(); ++i) {
      field[i] = static_cast<T>(std::sin(0.05 * static_cast<f64>(i % 977)));
    }
    for (auto& p : taken) {
      const std::vector<u8> arch =
          p->compress(std::span<const T>(field), dims);
      (void)p->decompress(arch);
    }
  } catch (...) {
    err = std::current_exception();
  }
  {
    std::lock_guard lk(st_->mu);
    st_->created -= grow - built;
    for (auto& p : taken) st_->idle.push_back(std::move(p));
  }
  st_->cv.notify_all();
  if (err) std::rethrow_exception(err);
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
  std::optional<core::pipeline_config> spec_cfg;
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
  std::atomic<u64> spec_requests{0};
  std::atomic<u64> peak_depth{0};
  std::atomic<u64> completion_order{0};

  std::vector<std::thread> workers;

  explicit impl(core::pipeline_config c, const server_options& opt)
      : cfg(std::move(c)),
        pool(cfg, opt.pool),
        queue_depth_cap(opt.resolve_queue_depth()),
        default_deadline_ms(opt.resolve_deadline_ms()) {
    const unsigned nworkers = opt.resolve_workers();
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
        it.spec_cfg = spec::to_config(sp, cfg.eb);
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

  void worker_loop() {
    for (;;) {
      queued_item it;
      {
        std::unique_lock lk(mu);
        cv.wait(lk, [&] { return stopping || depth > 0; });
        if (depth == 0) return;  // stopping and drained
        it = pop_next();
      }
      if (clock::now() > it.deadline) {
        reject(it, reject_reason::deadline);
      } else {
        serve(it);
      }
    }
  }

  void serve(queued_item& it) {
    const clock::time_point picked = clock::now();
    response resp;
    resp.queue_ms = ms_between(it.enqueued, picked);
    const u64 t0 = trace::enabled() ? trace::now_ns() : 0;
    const bool is_compress = it.req.kind == request::op::compress;
    try {
      if (is_compress && it.spec_cfg) {
        // Built per request, as the v3 decoder below is: pooling one
        // pipeline per distinct spec would grow memory without bound.
        core::pipeline<f32> pipe(*it.spec_cfg);
        resp.archive =
            pipe.compress(std::span<const f32>(it.req.data), it.req.dims);
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
};

server::server(core::pipeline_config cfg, server_options opt)
    : impl_(std::make_unique<impl>(std::move(cfg), opt)) {}

server::~server() = default;

std::future<response> server::submit(request r) {
  return impl_->submit(std::move(r));
}

void server::stop() { impl_->stop(); }

void server::warm(dims3 d) { impl_->pool.warm_up(d); }

server::stats_snapshot server::stats() const {
  stats_snapshot s;
  s.admitted = impl_->admitted.load();
  s.rejected_full = impl_->rejected_full.load();
  s.rejected_deadline = impl_->rejected_deadline.load();
  s.rejected_shutdown = impl_->rejected_shutdown.load();
  s.rejected_bad = impl_->rejected_bad.load();
  s.completed = impl_->completed.load();
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
