// Per-layer ledger: turns one epoch's trace events into wall-time and
// self-time attribution, and the library's own counters into per-layer work
// counts (see perfbench.hh).
#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <string_view>

#include "fzmod/device/runtime.hh"
#include "perfbench.hh"

namespace perfbench {
namespace {

using fzmod::trace::event;
using fzmod::trace::kind;

layer classify(std::string_view cat, std::string_view name) {
  if (cat == "stream") {
    if (name.starts_with("memcpy")) return layer::memcpy;
    if (name == "host_task") return layer::host_task;
    return layer::kernel;
  }
  if (cat == "pipeline") {
    return name == "compress" || name == "decompress" ? layer::pipeline
                                                      : layer::stage;
  }
  if (cat == "chunked") return layer::chunked;
  if (cat == "reader") return layer::reader;
  if (cat == "serve") return layer::serve;
  if (cat == "bench") return layer::client;
  return layer::other;
}

int stage_index(std::string_view name) {
  for (std::size_t i = 0; i < n_stages; ++i) {
    if (name == stage_names[i]) return static_cast<int>(i);
  }
  return -1;
}

struct span {
  u32 tid = 0;
  u64 lo = 0, hi = 0;  // clipped to the epoch
  layer l = layer::other;
  int stage = -1;
};

/// Length of the union of [lo, hi) intervals.
f64 union_ns(std::vector<std::pair<u64, u64>> iv) {
  std::sort(iv.begin(), iv.end());
  f64 total = 0;
  u64 cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (const auto& [lo, hi] : iv) {
    if (!open || lo > cur_hi) {
      if (open) total += static_cast<f64>(cur_hi - cur_lo);
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  if (open) total += static_cast<f64>(cur_hi - cur_lo);
  return total;
}

}  // namespace

counters runtime_counters() {
  const auto s = fzmod::device::runtime::instance().stats_snapshot();
  counters c;
  c.kernels = static_cast<f64>(s.kernels_launched);
  c.copy_bytes = static_cast<f64>(s.h2d_bytes + s.d2h_bytes + s.d2d_bytes);
  c.pool_hits = static_cast<f64>(s.device_pool.hits + s.host_pool.hits);
  c.pool_misses = static_cast<f64>(s.device_pool.misses + s.host_pool.misses);
  return c;
}

void ledger::begin_epoch() {
  if (!source_) return;
  start_ = source_();
  fzmod::device::runtime::instance().stats().reset_peak();
  fzmod::trace::clear();
  epoch_begin_ns_ = fzmod::trace::now_ns();
  fzmod::trace::set_enabled(true);
}

void ledger::end_epoch(u64 ops) {
  if (!source_) return;
  fzmod::trace::set_enabled(false);
  const u64 e0 = epoch_begin_ns_;
  const u64 e1 = fzmod::trace::now_ns();
  const counters c = source_();
  total_.kernels += c.kernels - start_.kernels;
  total_.copy_bytes += c.copy_bytes - start_.copy_bytes;
  total_.pool_hits += c.pool_hits - start_.pool_hits;
  total_.pool_misses += c.pool_misses - start_.pool_misses;
  total_.reads += c.reads - start_.reads;
  total_.cache_hits += c.cache_hits - start_.cache_hits;
  total_.cache_misses += c.cache_misses - start_.cache_misses;
  total_.served += c.served - start_.served;
  total_.batched += c.batched - start_.batched;
  total_.queue_ms += c.queue_ms - start_.queue_ms;
  device_peak_bytes_ = std::max(
      device_peak_bytes_,
      static_cast<f64>(fzmod::device::runtime::instance()
                           .stats_snapshot()
                           .device_bytes_peak));
  dropped_ += static_cast<f64>(fzmod::trace::dropped_count());
  const std::vector<event> evs = fzmod::trace::snapshot();
  ops_ += static_cast<f64>(ops);

  std::vector<span> spans;
  std::vector<std::pair<u64, u64>> chunk_iv;
  for (const event& e : evs) {
    if (e.k != kind::span) continue;
    const u64 lo = std::max(e.ts_ns, e0);
    const u64 hi = std::min(e.ts_ns + e.dur_ns, e1);
    if (hi <= lo) continue;
    const std::string_view cat(e.cat, strnlen(e.cat, event::cat_cap));
    const std::string_view name(e.name, strnlen(e.name, event::name_cap));
    span s{e.tid, lo, hi, classify(cat, name), -1};
    if (s.l == layer::stage) s.stage = stage_index(name);
    if (s.l == layer::chunked) {
      chunk_busy_ns_ += static_cast<f64>(hi - lo);
      chunk_iv.emplace_back(lo, hi);
    }
    spans.push_back(s);
  }
  chunk_union_ns_ += union_ns(std::move(chunk_iv));

  // Wall attribution: sweep all span boundaries; each elementary interval
  // goes to the deepest layer open anywhere.
  {
    std::vector<std::pair<u64, int>> edges;  // (time, +-(layer+1))
    edges.reserve(2 * spans.size());
    for (const span& s : spans) {
      const int l = static_cast<int>(s.l) + 1;
      edges.emplace_back(s.lo, l);
      edges.emplace_back(s.hi, -l);
    }
    std::sort(edges.begin(), edges.end());
    int open[n_layers] = {};
    u64 t = e0;
    for (const auto& [at, delta] : edges) {
      if (at > t) {
        const f64 dt = static_cast<f64>(at - t);
        std::size_t l = 0;
        while (l < n_layers && open[l] == 0) ++l;
        if (l < n_layers) {
          wall_layer_ns_[l] += dt;
        } else {
          idle_ns_ += dt;
        }
        t = at;
      }
      open[std::abs(delta) - 1] += delta > 0 ? 1 : -1;
    }
    idle_ns_ += static_cast<f64>(e1 - t);
  }

  // Self attribution: per thread, each elementary interval goes to the
  // innermost open span (latest begin; the shorter one on ties).
  {
    std::map<u32, std::vector<std::size_t>> by_tid;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      by_tid[spans[i].tid].push_back(i);
    }
    for (const auto& [tid, ids] : by_tid) {
      std::vector<std::pair<u64, long>> edges;  // (time, +-(index+1))
      edges.reserve(2 * ids.size());
      for (const std::size_t i : ids) {
        edges.emplace_back(spans[i].lo, static_cast<long>(i) + 1);
        edges.emplace_back(spans[i].hi, -(static_cast<long>(i) + 1));
      }
      std::sort(edges.begin(), edges.end());
      // Ordered so the innermost span is first: latest begin, earliest end.
      auto inner_first = [&](std::size_t a, std::size_t b) {
        if (spans[a].lo != spans[b].lo) return spans[a].lo > spans[b].lo;
        if (spans[a].hi != spans[b].hi) return spans[a].hi < spans[b].hi;
        return a < b;
      };
      std::set<std::size_t, decltype(inner_first)> open(inner_first);
      u64 t = 0;
      for (const auto& [at, code] : edges) {
        if (!open.empty() && at > t) {
          const span& s = spans[*open.begin()];
          const f64 dt = static_cast<f64>(at - t);
          self_layer_ns_[static_cast<std::size_t>(s.l)] += dt;
          if (s.stage >= 0) stage_self_ns_[s.stage] += dt;
        }
        t = at;
        const std::size_t i = static_cast<std::size_t>(std::labs(code)) - 1;
        if (code > 0) {
          open.insert(i);
        } else {
          open.erase(i);
        }
      }
    }
  }
}

std::vector<metric> ledger::metrics() const {
  const f64 ops = std::max(ops_, 1.0);
  auto per_op_ms = [&](f64 ns) { return ns / ops / 1e6; };
  auto ratio = [](f64 num, f64 den) { return den > 0 ? num / den : 0.0; };
  static constexpr const char* layer_names[] = {
      "kernel",  "memcpy", "host_task", "stage",  "pipeline",
      "chunked", "reader", "serve",     "client", "other"};
  static_assert(std::size(layer_names) == n_layers);

  std::vector<metric> out;
  for (std::size_t l = 0; l < n_layers; ++l) {
    out.push_back({std::string("wall_") + layer_names[l] + "_ms",
                   per_op_ms(wall_layer_ns_[l]), "ms"});
  }
  out.push_back({"wall_idle_ms", per_op_ms(idle_ns_), "ms"});
  for (std::size_t l = 0; l < n_layers; ++l) {
    out.push_back({std::string("self_") + layer_names[l] + "_ms",
                   per_op_ms(self_layer_ns_[l]), "ms"});
  }
  for (std::size_t s = 0; s < n_stages; ++s) {
    out.push_back({std::string("self_stage_") + stage_names[s] + "_ms",
                   per_op_ms(stage_self_ns_[s]), "ms"});
  }
  out.push_back({"kernel_launches", total_.kernels / ops, "count"});
  out.push_back({"memcpy_mb", total_.copy_bytes / ops / 1e6, "MB"});
  // Highest device-heap footprint of any epoch.
  out.push_back({"device_peak_mb", device_peak_bytes_ / 1e6, "MB"});
  // Mean number of chunks in flight while any is: the chunk scheduler's
  // achieved parallelism (its efficiency is this over `jobs`).
  out.push_back(
      {"chunk_parallelism", ratio(chunk_busy_ns_, chunk_union_ns_), "chunks"});
  out.push_back({"pool_hit_rate",
                 ratio(total_.pool_hits, total_.pool_hits + total_.pool_misses),
                 "ratio"});
  out.push_back({"reader_cache_hit_rate",
                 ratio(total_.cache_hits,
                       total_.cache_hits + total_.cache_misses),
                 "ratio"});
  // Prefetch is off, so every miss is one demand decode.
  out.push_back({"reader_decodes_per_read",
                 ratio(total_.cache_misses, total_.reads), "count"});
  out.push_back({"serve_batched_share", ratio(total_.batched, total_.served),
                 "ratio"});
  out.push_back({"serve_wait_ms", ratio(total_.queue_ms, total_.served), "ms"});
  out.push_back({"trace_dropped", dropped_, "count"});
  return out;
}

}  // namespace perfbench
