// serve_mix: a compression service under load. Four closed-loop clients
// (each its own tenant, each waiting for a reply before sending again)
// drive serve::server with a 3:1 mix of compress and decompress requests
// on 64x64x12 f32 tiles (192 KiB, small enough to be coalesced) cut at
// seeded positions from CESM-ATM temperature-like and HURR wind and
// pressure fields, at the FZMod-Default preset and a relative bound of
// 1e-3. Admission, tenant scheduling, the pipeline pool and request
// coalescing carry the time.
//
// Correctness: each field's reference archive and reconstruction come from
// set-up and must meet the error bound; every served compress must return
// that archive byte for byte (coalesced or not) and every served
// decompress that reconstruction.
#include <memory>
#include <thread>

#include "fzmod/serve/serve.hh"
#include "perfbench.hh"

namespace perfbench {

namespace {

constexpr dims3 request_dims{64, 64, 12};
constexpr f64 eb = 1e-3;
constexpr int clients = 4;
constexpr int fields_per_client = 2;
constexpr int requests_per_epoch = 40;  // per client
constexpr int setup_reps = 5;

struct ref {
  std::vector<f32> field;
  std::vector<u8> archive;
  std::vector<f32> decoded;
};

struct client_log {
  std::vector<f64> latency_ms;
  f64 queue_ms = 0;
  u64 ops = 0, failed = 0;
  std::string error;
};

/// Request `i` of client `c`: every fourth decompresses, the rest compress,
/// cycling over the client's fields.
bool is_compress(int i) { return i % 4 != 3; }
const ref& field_of(const std::vector<ref>& refs, int c, int i) {
  return refs[static_cast<std::size_t>(c * fields_per_client +
                                       (i / 4 + i) % fields_per_client)];
}

void client_requests(fzmod::serve::server& srv, const std::vector<ref>& refs,
                     int c, int n, client_log& log) {
  namespace serve = fzmod::serve;
  for (int i = 0; i < n; ++i) {
    const ref& rf = field_of(refs, c, i);
    serve::request rq;
    rq.tenant = "client-" + std::to_string(c);
    const bool compress = is_compress(i);
    if (compress) {
      rq.kind = serve::request::op::compress;
      rq.data = rf.field;
      rq.dims = request_dims;
    } else {
      rq.kind = serve::request::op::decompress;
      rq.archive = rf.archive;
    }
    serve::response resp;
    ++log.ops;
    timed_op(log.latency_ms, [&] { resp = srv.execute(std::move(rq)); });
    log.queue_ms += resp.queue_ms;
    const bool ok = resp.ok && (compress ? resp.archive == rf.archive
                                         : resp.data == rf.decoded);
    if (!ok) {
      ++log.failed;
      if (log.error.empty()) {
        log.error = resp.ok ? "response differs from the reference"
                            : "request failed: " + resp.error;
      }
    }
  }
}

}  // namespace

measurement run_serve_mix(const options& o) {
  namespace core = fzmod::core;
  namespace serve = fzmod::serve;
  measurement m;

  // Tiles alternate CESM temperature, HURR wind and HURR pressure, each
  // at a seeded position inside its field's catalog extent.
  std::vector<ref> refs;
  prng where(o.seed);
  for (int i = 0; i < clients * fields_per_client; ++i) {
    const dataset ds = i % 3 == 0 ? dataset::cesm : dataset::hurr;
    const dims3 full = catalog_dims(ds);
    const dims3 org{where.below(full.x - request_dims.x + 1),
                    where.below(full.y - request_dims.y + 1),
                    where.below(full.z - request_dims.z + 1)};
    const int var = i % 3 == 2 ? 1 : 0;
    refs.push_back({make_field(ds, var, o.seed, request_dims, org), {}, {}});
  }

  serve::server_options sopt;
  sopt.pool.cap = clients;
  sopt.workers = 2;
  sopt.queue_depth = 4 * clients;  // closed loop: never fills
  const auto cfg = core::pipeline_config::preset_default(
      {eb, fzmod::eb_mode::rel});

  std::unique_ptr<serve::server> srv;
  f64 queue_ms = 0;  // summed over the requests of finished epochs
  if (o.trace) {
    m.layers.enable([&] {
      counters c = runtime_counters();
      const auto s = srv->stats();
      c.served = static_cast<f64>(s.completed);
      c.batched = static_cast<f64>(s.batched);
      c.queue_ms = queue_ms;
      return c;
    });
  }
  for (int rep = 0; rep < setup_reps; ++rep) {
    srv.reset();
    const auto t0 = clock_type::now();
    srv = std::make_unique<serve::server>(cfg, sopt);
    srv->warm(request_dims);  // what a service does before taking traffic
    for (ref& rf : refs) {
      serve::request c;
      c.kind = serve::request::op::compress;
      c.data = rf.field;
      c.dims = request_dims;
      serve::response cr = srv->execute(std::move(c));
      serve::request d;
      d.kind = serve::request::op::decompress;
      d.archive = cr.archive;
      serve::response dr = srv->execute(std::move(d));
      if (!cr.ok || !dr.ok) {
        m.fail("serve_mix: set-up request failed: " + cr.error + dr.error);
        return m;
      }
      if (rep == 0) {
        rf.archive = std::move(cr.archive);
        rf.decoded = std::move(dr.data);
        if (!within_rel_bound(rf.field, rf.decoded, eb)) {
          m.fail("serve_mix: reconstruction violates the error bound");
        }
      } else if (cr.archive != rf.archive || dr.data != rf.decoded) {
        m.fail("serve_mix: repeated set-up request differs");
      }
    }
    m.setup_s.push_back(seconds_since(t0));
  }
  // Compression ratio of the request mix's compresses.
  for (int i = 0; i < requests_per_epoch; ++i) {
    if (!is_compress(i)) continue;
    for (int c = 0; c < clients; ++c) {
      const ref& rf = field_of(refs, c, i);
      m.raw_bytes += static_cast<f64>(rf.field.size() * sizeof(f32));
      m.archive_bytes += static_cast<f64>(rf.archive.size());
    }
  }

  auto epoch = [&](bool record) {
    std::vector<client_log> logs(clients);
    const auto t0 = clock_type::now();
    {
      std::vector<std::jthread> threads;
      for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          client_requests(*srv, refs, c, requests_per_epoch,
                          logs[static_cast<std::size_t>(c)]);
        });
      }
    }
    epoch_result r;
    r.busy_s = seconds_since(t0);
    for (const client_log& log : logs) {
      if (!log.error.empty()) m.fail("serve_mix: " + log.error);
      if (!record) continue;
      m.attempted += log.ops;
      m.failed += log.failed;
      queue_ms += log.queue_ms;
      m.latency_ms.insert(m.latency_ms.end(), log.latency_ms.begin(),
                          log.latency_ms.end());
      r.ops += log.ops;
    }
    r.bytes = static_cast<f64>(r.ops * request_dims.len() * sizeof(f32));
    return r;
  };
  (void)epoch(false);  // warm the pool and coalescing paths under load
  run_epochs(o, m, [&] { return epoch(true); });
  return m;
}

}  // namespace perfbench
