// Serving bench: the allocation profile of one pipeline, then a
// closed-loop load generator over `serve::server`. Both parts use the same
// 64x64x16 f32 field at FZMod-Default, 1e-3 relative bound.
//
// Part 1, one pipeline, repeated compress + decompress (the request shape
// a serving deployment sees), with the device runtime's memory pool off
// and then on:
//
//   - system allocs/op       every ::operator new in the process, counted
//                            by the replacement operators below (archive
//                            assembly and codec internals included)
//   - runtime allocs/op      pool misses per op; the zero-steady-state-
//                            allocation contract says this is 0 after
//                            warm-up with the pool on
//   - pool lookups/op        blocks requested from the caching pool
//   - pool hit rate          over the measured window (a window with no
//                            lookup counts as 100 %: nothing missed)
//   - throughput             ops/s and GB/s, plus the on/off ratio
//
// Part 2, the end-to-end path production traffic takes (admission queue
// -> tenant-fair scheduling -> pipeline pool), at concurrency 1 and 4
// with a 3:1 compress:decompress mix:
//
//   - p50 / p99 request latency (ms, measured at the client)
//   - RPS (completed requests / wall time of the measured window)
//   - runtime allocs/op over the measured window; with the pool warm the
//     serving steady state must stay at 0
//   - rejected count from the server's own stats
//
// Self-gates (FZMOD_BENCH_CHECK=1 exits nonzero on violation):
//   part 1: pool hit rate with the pool on must be >= 90 %
//   part 2: FZMOD_SERVE_MIN_RPS     floor on per-level RPS    (default 20)
//           FZMOD_SERVE_MAX_P99_MS  ceiling on per-level p99  (default 2000)
//           plus: runtime allocs/op must be 0, and nothing may be rejected
//           (the bench sizes its queue so admission never trips).
//
// Other knobs: FZMOD_SERVE_BENCH_OPS measured ops per pool mode and per
// client thread (default 120), FZMOD_SERVE_BENCH_WARMUP warm-up ops
// likewise (default 16), FZMOD_POOL=0 starts with the pool off (part 1
// toggles it itself and restores it for part 2), FZMOD_BENCH_JSON appends
// one machine-readable line per pool mode and per level (the committed
// bench_serving_evidence.json is this output).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "fzmod/core/pipeline.hh"
#include "fzmod/device/runtime.hh"
#include "fzmod/serve/serve.hh"

// ---- allocation counting ------------------------------------------------
// Replacement global operators: count every heap request the process
// makes. Counting is what part 1 reports, so the override lives here and
// nowhere else in the repo.

namespace {
std::atomic<unsigned long long> g_allocs{0};

void* counted_alloc(std::size_t sz, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (align <= alignof(std::max_align_t)) {
    void* p = std::malloc(sz ? sz : 1);
    if (!p) throw std::bad_alloc();
    return p;
  }
  const std::size_t rounded = (sz + align - 1) / align * align;
  void* p = std::aligned_alloc(align, rounded ? rounded : align);
  if (!p) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t sz) {
  return counted_alloc(sz, alignof(std::max_align_t));
}
void* operator new[](std::size_t sz) {
  return counted_alloc(sz, alignof(std::max_align_t));
}
void* operator new(std::size_t sz, std::align_val_t al) {
  return counted_alloc(sz, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t sz, std::align_val_t al) {
  return counted_alloc(sz, static_cast<std::size_t>(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace fzmod {
namespace {

core::pipeline_config bench_config() {
  return core::pipeline_config::preset_default({1e-3, eb_mode::rel});
}

u64 runtime_misses() {
  const auto& st = device::runtime::instance().stats();
  return st.device_pool.misses.load() + st.host_pool.misses.load();
}

// ---- part 1: one pipeline, pool off vs on --------------------------------

struct mode_report {
  f64 allocs_per_op = 0;
  f64 runtime_allocs_per_op = 0;
  f64 lookups_per_op = 0;
  f64 hit_rate = 0;
  f64 ops_per_s = 0;
  f64 gbps = 0;
};

mode_report run_mode(core::pipeline<f32>& p, const device::buffer<f32>& dev,
                     device::buffer<f32>& out, dims3 dims, bool pool_on,
                     int warmup_ops, int measured_ops) {
  auto& rt = device::runtime::instance();
  rt.set_pool_enabled(pool_on);

  device::stream s;
  auto one_op = [&] {
    const auto archive = p.compress(dev, dims, s);
    p.decompress(archive, out, s);
  };

  for (int i = 0; i < warmup_ops; ++i) one_op();

  auto& st = rt.stats();
  st.reset_transfers();
  st.reset_peak();
  st.reset_pool_counters();
  const unsigned long long allocs0 = g_allocs.load();
  const u64 miss0 = runtime_misses();
  stopwatch sw;
  for (int i = 0; i < measured_ops; ++i) one_op();
  const f64 secs = sw.seconds();
  const unsigned long long allocs1 = g_allocs.load();
  const u64 misses = runtime_misses() - miss0;

  mode_report r;
  r.allocs_per_op = static_cast<f64>(allocs1 - allocs0) / measured_ops;
  r.runtime_allocs_per_op = static_cast<f64>(misses) / measured_ops;
  const u64 hits = st.device_pool.hits.load() + st.host_pool.hits.load();
  r.lookups_per_op = static_cast<f64>(hits + misses) / measured_ops;
  // A window with no pool lookup missed nothing: a warm pipeline that
  // reuses all of its scratch never reaches the pool.
  r.hit_rate = hits + misses
                   ? static_cast<f64>(hits) / static_cast<f64>(hits + misses)
                   : 1.0;
  r.ops_per_s = measured_ops / secs;
  r.gbps = throughput_gbps(dev.bytes() * measured_ops, secs);
  return r;
}

/// Part 1; returns the pool-on report its gate reads.
mode_report pipeline_part(const std::vector<f32>& field, dims3 dims,
                          int warmup_ops, int measured_ops) {
  const std::size_t n = dims.len();
  core::pipeline<f32> p(bench_config());
  device::stream s;
  device::buffer<f32> dev(n, device::space::device);
  device::buffer<f32> out(n, device::space::device);
  device::memcpy_async(dev.data(), field.data(), n * sizeof(f32),
                       device::copy_kind::h2d, s);
  s.sync();

  std::printf("one pipeline, repeated compress+decompress\n");
  std::printf("%-10s %14s %16s %14s %10s %12s %10s\n", "pool", "allocs/op",
              "runtime allocs", "pool lookups", "hit rate", "ops/s", "GB/s");
  bench::print_rule(92);

  auto& rt = device::runtime::instance();
  const bool pool_was_on = rt.pool_enabled();
  const auto off = run_mode(p, dev, out, dims, /*pool_on=*/false,
                            warmup_ops, measured_ops);
  std::printf("%-10s %14.1f %16.2f %14s %10s %12.1f %10.3f\n", "off",
              off.allocs_per_op, off.runtime_allocs_per_op, "-", "-",
              off.ops_per_s, off.gbps);
  const auto on = run_mode(p, dev, out, dims, /*pool_on=*/true, warmup_ops,
                           measured_ops);
  std::printf("%-10s %14.1f %16.2f %14.2f %9.1f%% %12.1f %10.3f\n", "on",
              on.allocs_per_op, on.runtime_allocs_per_op, on.lookups_per_op,
              100.0 * on.hit_rate, on.ops_per_s, on.gbps);
  rt.set_pool_enabled(pool_was_on);

  bench::print_rule(92);
  std::printf(
      "pool on vs off: %.1fx ops/s, %.1f -> %.1f system allocs/op, "
      "%.2f -> %.2f runtime allocs/op (steady-state target: 0)\n\n",
      on.ops_per_s / off.ops_per_s, off.allocs_per_op, on.allocs_per_op,
      off.runtime_allocs_per_op, on.runtime_allocs_per_op);

  for (const auto* m : {&off, &on}) {
    bench::json_line()
        .field("pool", m == &on)
        .field("allocs_per_op", m->allocs_per_op)
        .field("runtime_allocs_per_op", m->runtime_allocs_per_op)
        .field("pool_lookups_per_op", m->lookups_per_op)
        .field("hit_rate", m->hit_rate)
        .field("ops_per_s", m->ops_per_s)
        .field("gbps", m->gbps)
        .field("measured_ops", measured_ops)
        .emit();
  }
  return on;
}

// ---- part 2: closed-loop clients over serve::server ----------------------

struct level_report {
  int concurrency = 0;
  u64 ops = 0;
  f64 p50_ms = 0;
  f64 p99_ms = 0;
  f64 rps = 0;
  f64 runtime_allocs_per_op = 0;
  u64 rejected = 0;
  serve::server::stats_snapshot srv;
};

f64 percentile(std::vector<f64>& v, f64 p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t at = static_cast<std::size_t>(
      p * static_cast<f64>(v.size() - 1) + 0.5);
  return v[std::min(at, v.size() - 1)];
}

/// One closed-loop client: submit, wait, repeat. Three compresses then a
/// decompress — the read-mostly-write mix a compression service sees.
void client_loop(serve::server& srv, const std::vector<f32>& field, dims3 d,
                 const std::vector<u8>& archive, const std::string& tenant,
                 int ops, std::vector<f64>& latencies_ms, int& failures) {
  latencies_ms.reserve(static_cast<std::size_t>(ops));
  for (int i = 0; i < ops; ++i) {
    serve::request r;
    r.tenant = tenant;
    if (i % 4 == 3) {
      r.kind = serve::request::op::decompress;
      r.archive = archive;
    } else {
      r.kind = serve::request::op::compress;
      r.data = field;
      r.dims = d;
    }
    stopwatch sw;
    const serve::response resp = srv.execute(std::move(r));
    latencies_ms.push_back(1e3 * sw.seconds());
    if (!resp.ok) ++failures;
  }
}

/// `concurrency` clients, each running `ops` requests; returns per-client
/// latencies and fails the bench on any failed request.
std::vector<std::vector<f64>> run_clients(serve::server& srv, int concurrency,
                                          const std::vector<f32>& field,
                                          dims3 d,
                                          const std::vector<u8>& archive,
                                          int ops) {
  const auto nc = static_cast<std::size_t>(concurrency);
  std::vector<std::vector<f64>> lat(nc);
  std::vector<int> failures(nc, 0);
  {
    std::vector<std::jthread> clients;
    for (std::size_t c = 0; c < nc; ++c) {
      clients.emplace_back([&, c] {
        client_loop(srv, field, d, archive, "client-" + std::to_string(c),
                    ops, lat[c], failures[c]);
      });
    }
  }
  for (const int f : failures) {
    if (f) {
      std::fprintf(stderr, "bench_serving: %d failed requests\n", f);
      std::exit(1);
    }
  }
  return lat;
}

level_report run_level(int concurrency, const std::vector<f32>& field,
                       dims3 d, int warmup_ops, int ops_per_client) {
  serve::server_options sopt;
  sopt.pool.cap = static_cast<std::size_t>(concurrency);
  sopt.workers = static_cast<unsigned>(concurrency);
  // Closed-loop clients have at most `concurrency` requests in flight, so
  // this queue can never fill; any rejection is a bug the gate catches.
  sopt.queue_depth = static_cast<std::size_t>(4 * concurrency + 8);
  serve::server srv(bench_config(), sopt);
  srv.warm(d);

  // A reference archive for the decompress share of the mix.
  serve::request cr;
  cr.kind = serve::request::op::compress;
  cr.data = field;
  cr.dims = d;
  const serve::response cresp = srv.execute(std::move(cr));
  if (!cresp.ok) {
    std::fprintf(stderr, "bench_serving: seed compress failed: %s\n",
                 cresp.error.c_str());
    std::exit(1);
  }
  const std::vector<u8>& archive = cresp.archive;

  // Warm-up with the measured window's exact shape — same concurrency,
  // same mix — so every steady-state path has populated the caching
  // allocator before counters reset.
  (void)run_clients(srv, concurrency, field, d, archive, warmup_ops);

  device::runtime::instance().stats().reset_pool_counters();
  const u64 miss0 = runtime_misses();
  stopwatch sw;
  const auto lat =
      run_clients(srv, concurrency, field, d, archive, ops_per_client);
  const f64 secs = sw.seconds();

  level_report rep;
  rep.concurrency = concurrency;
  std::vector<f64> all;
  for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  rep.ops = all.size();
  rep.p50_ms = percentile(all, 0.50);
  rep.p99_ms = percentile(all, 0.99);
  rep.rps = static_cast<f64>(rep.ops) / secs;
  rep.runtime_allocs_per_op =
      static_cast<f64>(runtime_misses() - miss0) / static_cast<f64>(rep.ops);
  rep.srv = srv.stats();
  rep.rejected = rep.srv.rejected_full + rep.srv.rejected_deadline +
                 rep.srv.rejected_shutdown + rep.srv.rejected_bad;
  return rep;
}

std::vector<level_report> server_part(const std::vector<f32>& field, dims3 d,
                                      int warmup_ops, int ops_per_client) {
  std::printf("closed-loop clients over serve::server, 3:1 "
              "compress:decompress\n");
  std::printf("%-12s %10s %10s %10s %10s %14s %9s\n", "concurrency", "ops",
              "p50 ms", "p99 ms", "RPS", "rt allocs/op", "rejected");
  bench::print_rule(82);

  std::vector<level_report> reports;
  for (const int conc : {1, 4}) {
    const auto rep = run_level(conc, field, d, warmup_ops, ops_per_client);
    std::printf("%-12d %10llu %10.3f %10.3f %10.1f %14.3f %9llu\n",
                rep.concurrency, static_cast<unsigned long long>(rep.ops),
                rep.p50_ms, rep.p99_ms, rep.rps, rep.runtime_allocs_per_op,
                static_cast<unsigned long long>(rep.rejected));
    bench::json_line()
        .field("concurrency", rep.concurrency)
        .field("ops", rep.ops)
        .field("p50_ms", rep.p50_ms)
        .field("p99_ms", rep.p99_ms)
        .field("rps", rep.rps)
        .field("runtime_allocs_per_op", rep.runtime_allocs_per_op)
        .field("rejected", rep.rejected)
        .field("admitted", rep.srv.admitted)
        .field("peak_queue_depth", rep.srv.peak_depth)
        .emit();
    reports.push_back(rep);
  }
  bench::print_rule(82);
  std::printf("scaling 1 -> %d clients: %.2fx RPS\n",
              reports[1].concurrency, reports[1].rps / reports[0].rps);
  return reports;
}

int check(const mode_report& pool_on, const std::vector<level_report>& levels) {
  const f64 min_rps =
      static_cast<f64>(bench::env_int("FZMOD_SERVE_MIN_RPS", 20));
  const f64 max_p99 =
      static_cast<f64>(bench::env_int("FZMOD_SERVE_MAX_P99_MS", 2000));
  int rc = 0;
  if (pool_on.hit_rate < 0.90) {
    std::fprintf(stderr,
                 "FZMOD_BENCH_CHECK: pool hit rate %.1f%% below 90%%\n",
                 100.0 * pool_on.hit_rate);
    rc = 1;
  }
  for (const auto& rep : levels) {
    if (rep.rps < min_rps) {
      std::fprintf(stderr,
                   "FZMOD_BENCH_CHECK: c=%d RPS %.1f below floor %.1f\n",
                   rep.concurrency, rep.rps, min_rps);
      rc = 1;
    }
    if (rep.p99_ms > max_p99) {
      std::fprintf(
          stderr,
          "FZMOD_BENCH_CHECK: c=%d p99 %.1f ms above ceiling %.1f ms\n",
          rep.concurrency, rep.p99_ms, max_p99);
      rc = 1;
    }
    if (rep.runtime_allocs_per_op != 0.0) {
      std::fprintf(stderr,
                   "FZMOD_BENCH_CHECK: c=%d runtime allocs/op %.4f != 0 "
                   "with a warm pool\n",
                   rep.concurrency, rep.runtime_allocs_per_op);
      rc = 1;
    }
    if (rep.rejected) {
      std::fprintf(stderr,
                   "FZMOD_BENCH_CHECK: c=%d rejected %llu requests from "
                   "an unsaturatable queue\n",
                   rep.concurrency,
                   static_cast<unsigned long long>(rep.rejected));
      rc = 1;
    }
  }
  if (rc == 0) {
    std::printf(
        "FZMOD_BENCH_CHECK: pool hit rate %.1f%% >= 90%%; RPS >= %.0f, "
        "p99 <= %.0f ms, 0 runtime allocs/op, 0 rejections — ok\n",
        100.0 * pool_on.hit_rate, min_rps, max_p99);
  }
  return rc;
}

int serving_bench_main() {
  bench::bench_json_name() = "serving";
  const dims3 d{64, 64, 16};
  std::vector<f32> field(d.len());
  for (std::size_t i = 0; i < field.size(); ++i) {
    const f64 x = static_cast<f64>(i % d.x) / d.x;
    const f64 y = static_cast<f64>((i / d.x) % d.y) / d.y;
    const f64 z = static_cast<f64>(i / (d.x * d.y)) / d.z;
    field[i] = static_cast<f32>(std::sin(6.0 * x) * std::cos(4.0 * y) +
                                0.3 * std::sin(9.0 * z));
  }
  const int warmup_ops = bench::env_int("FZMOD_SERVE_BENCH_WARMUP", 16);
  const int ops = bench::env_int("FZMOD_SERVE_BENCH_OPS", 120);

  bench::print_header(
      "serving bench — one pipeline's allocations, then closed-loop "
      "clients over serve::server (FZMod-Default, 64x64x16 f32)");
  const mode_report pool_on = pipeline_part(field, d, warmup_ops, ops);
  const auto levels = server_part(field, d, warmup_ops, ops);

  if (bench::env_int("FZMOD_BENCH_CHECK", 0)) return check(pool_on, levels);
  return 0;
}

}  // namespace
}  // namespace fzmod

int main() { return fzmod::serving_bench_main(); }
