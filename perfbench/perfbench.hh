// End-to-end benchmark of FZModules: shared vocabulary of the driver.
//
// One process runs one workload for a fixed time and prints one JSON line
// (main.cc). A workload is a set of seeded inputs plus the calls a user of
// the library makes on them:
//
//   bulk_roundtrip  whole fields through core::chunked_pipeline
//   serve_mix       closed-loop clients against serve::server
//   reader_zipf     zipf-skewed extent reads through core::reader
//
// Work runs in epochs: a fixed batch of operations, after which all
// clients are idle. End-to-end figures are medians over epochs (latency
// percentiles: over sample windows), which keeps a run's figures steady;
// with tracing on each epoch's events and the library's counters go into
// the per-layer ledger while nothing is in flight, so no thread's trace
// ring overflows.
#pragma once

#include <chrono>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "fzmod/common/types.hh"
#include "fzmod/trace/trace.hh"

namespace perfbench {

using fzmod::dims3;
using fzmod::f32;
using fzmod::f64;
using fzmod::i64;
using fzmod::u32;
using fzmod::u64;
using fzmod::u8;

struct options {
  std::string workload;
  u64 seed = 1;
  f64 seconds = 10;
  bool trace = false;
};

/// Seeded xoshiro256** stream, owned by the benchmark so its inputs do not
/// change when the library's own generators do.
class prng {
 public:
  explicit prng(u64 seed);
  [[nodiscard]] u64 next_u64();
  [[nodiscard]] f64 uniform() {  ///< [0, 1)
    return static_cast<f64>(next_u64() >> 11) * 0x1.0p-53;
  }
  [[nodiscard]] u64 below(u64 n) { return n ? next_u64() % n : 0; }
  [[nodiscard]] f64 normal();  ///< Box-Muller, second value cached

 private:
  u64 s_[4];
  f64 cached_ = 0;
  bool have_cached_ = false;
};

/// The paper's datasets (Table 2), as the library's scaled catalog
/// synthesizes them (inputs.cc).
enum class dataset {
  cesm,  ///< climate: smooth lat-lon levels, or mostly-zero precipitation
  hacc,  ///< cosmology particles: 1-D, halo-ordered, barely predictable
  hurr,  ///< hurricane: vortex over multi-octave turbulence
  nyx,   ///< cosmology grid: log-normal density, huge dynamic range
};

/// The catalog's extent for `ds`: the coordinates its fields live in.
[[nodiscard]] dims3 catalog_dims(dataset ds);

/// The `ext` elements at `org` of variable `var` (0 or 1, numbered as the
/// library's data::generate numbers fields) of dataset `ds`. The seed
/// draws the noise and the particle halos' positions, so seeds change the
/// bytes, not the statistics; seed 0 over the whole catalog extent gives
/// the library's own field.
[[nodiscard]] std::vector<f32> make_field(dataset ds, int var, u64 seed,
                                          dims3 ext, dims3 org = {0, 0, 0});

/// Error-bound check on a reconstruction: |x - x̂| <= eb·range + f32
/// storage slack (half an ulp of the largest magnitude) for every element.
[[nodiscard]] bool within_rel_bound(const std::vector<f32>& orig,
                                    const std::vector<f32>& recon, f64 eb);

/// 64-bit digest of `n` bytes. Every step is a bijection of the state, so
/// inputs that differ in one 8-byte word never collide. Large references
/// are kept as digests, so the process holds inputs and library state
/// rather than copies of outputs.
[[nodiscard]] u64 digest(const void* data, std::size_t n);
template <class T>
[[nodiscard]] u64 digest(const std::vector<T>& v) {
  return digest(v.data(), v.size() * sizeof(T));
}

using clock_type = std::chrono::steady_clock;

[[nodiscard]] inline f64 seconds_since(clock_type::time_point t0) {
  return std::chrono::duration<f64>(clock_type::now() - t0).count();
}

struct metric {
  std::string name;
  f64 value = 0;
  std::string unit;
};

/// The library's layers as its trace categories name them, deepest first:
/// device work (stream ops), host pipeline stages, the pipeline call, the
/// chunk scheduler, the two outer drivers, and the benchmark's own client
/// spans around each call.
enum class layer {
  kernel,     ///< "stream" kernel / kernel.blocks / memset
  memcpy,     ///< "stream" memcpy.*
  host_task,  ///< "stream" host_task (host stages run stream-ordered)
  stage,      ///< "pipeline" preprocess / predict / encode / ...
  pipeline,   ///< "pipeline" compress / decompress (the whole call)
  chunked,    ///< "chunked" chunk#N / dechunk#N
  reader,     ///< "reader" read / decode#N
  serve,      ///< "serve" compress / decompress / batch
  client,     ///< "bench" op (this benchmark)
  other,      ///< any other category
  count
};
inline constexpr std::size_t n_layers = static_cast<std::size_t>(layer::count);
inline constexpr const char* stage_names[] = {"preprocess", "predict",
                                              "encode", "secondary", "verify"};
inline constexpr std::size_t n_stages = std::size(stage_names);

/// Work counts the library keeps itself: the device runtime's stats, and
/// core::reader::stats() / serve::server::stats() where a workload has a
/// reader or a server. All are cumulative; the ledger samples them around
/// each epoch and sums the differences.
struct counters {
  f64 kernels = 0;       ///< kernel launches
  f64 copy_bytes = 0;    ///< h2d + d2h + d2d copy bytes
  f64 pool_hits = 0;     ///< device + host caching-pool hits
  f64 pool_misses = 0;   ///< device + host caching-pool misses
  f64 reads = 0;         ///< reader read() calls
  f64 cache_hits = 0;    ///< reader chunk-cache hits
  f64 cache_misses = 0;  ///< reader demand decodes
  f64 served = 0;        ///< server requests completed
  f64 batched = 0;       ///< ... of which served by a coalesced run
  f64 queue_ms = 0;      ///< summed response queue_ms (admission -> pickup)
};
using counter_source = std::function<counters()>;

/// The device runtime's counters; the reader and server fields stay zero.
[[nodiscard]] counters runtime_counters();

/// Per-layer ledger over epochs (ledger.cc). Counts come from the
/// library's stats (counters above); the trace serves only to attribute
/// time, two ways side by side:
///   - wall: each instant of an epoch goes to the deepest layer with a span
///     open on any thread at that instant (idle if none), so the layers'
///     wall shares add up to the epoch's wall time and concurrent work is
///     never counted twice;
///   - self: per thread, each instant goes to that thread's innermost open
///     span, summed over threads — the classic profiler self time, which
///     shows contention and parallel work the wall view folds away.
class ledger {
 public:
  /// Record per-layer figures from now on, with `source` sampled at each
  /// epoch's ends (the ledger does nothing until this is called).
  void enable(counter_source source) { source_ = std::move(source); }
  /// Clear the trace and start recording.
  void begin_epoch();
  /// Stop recording and attribute the epoch; `ops` is the number of
  /// benchmark operations the epoch ran.
  void end_epoch(u64 ops);

  /// Per-layer metrics, per benchmark operation; every name always present.
  [[nodiscard]] std::vector<metric> metrics() const;

 private:
  counter_source source_;
  counters start_, total_;
  u64 epoch_begin_ns_ = 0;

  f64 ops_ = 0, idle_ns_ = 0, dropped_ = 0, device_peak_bytes_ = 0;
  f64 wall_layer_ns_[n_layers] = {};
  f64 self_layer_ns_[n_layers] = {};
  f64 stage_self_ns_[n_stages] = {};
  f64 chunk_busy_ns_ = 0, chunk_union_ns_ = 0;
};

/// One call into the system under test, timed by the benchmark. Records the
/// latency sample, and under tracing a "bench"-category span: the ledger's
/// client layer. Its wall share is call time no library span explains
/// (queueing, thread hand-off, result copies); its self time also holds the
/// calling thread's wait for work running on other threads.
template <class F>
void timed_op(std::vector<f64>& latency_ms, F&& call) {
  const u64 t0 = fzmod::trace::now_ns();
  const auto c0 = clock_type::now();
  call();
  latency_ms.push_back(1e3 * seconds_since(c0));
  if (fzmod::trace::enabled()) {
    fzmod::trace::complete("bench", "op", t0, fzmod::trace::now_ns() - t0);
  }
}

/// What a workload run measured; main.cc turns it into the JSON line.
struct measurement {
  bool correct = true;
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<f64> setup_s;      ///< one entry per set-up repetition
  std::vector<f64> epoch_mb_s;   ///< field MB/s delivered, per epoch
  std::vector<f64> latency_ms;   ///< every operation, pooled
  f64 raw_bytes = 0;             ///< compression-ratio numerator
  f64 archive_bytes = 0;         ///< compression-ratio denominator
  ledger layers;

  /// Record a failed correctness check, with a reason on stderr.
  void fail(const std::string& why);
};

using workload_fn = measurement (*)(const options&);
measurement run_bulk_roundtrip(const options& o);
measurement run_serve_mix(const options& o);
measurement run_reader_zipf(const options& o);

/// Run epochs until `o.seconds` have elapsed (at least one). `epoch()`
/// runs one epoch and returns {ops run, field bytes delivered, busy
/// seconds}; busy seconds is the time the library was working for the
/// epoch's throughput (wall time for concurrent clients, summed operation
/// time for a single client so that the benchmark's own result checks stay
/// out of it).
struct epoch_result {
  u64 ops = 0;
  f64 bytes = 0;
  f64 busy_s = 0;
};
template <class Epoch>
void run_epochs(const options& o, measurement& m, Epoch&& epoch) {
  const auto start = clock_type::now();
  do {
    m.layers.begin_epoch();
    const epoch_result r = epoch();
    m.layers.end_epoch(r.ops);
    if (r.busy_s > 0) m.epoch_mb_s.push_back(r.bytes / r.busy_s / 1e6);
  } while (seconds_since(start) < o.seconds);
}

}  // namespace perfbench
