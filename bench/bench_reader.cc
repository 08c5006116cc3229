// Seekable-reader serving bench: random reads against one v3 container
// through core::reader, reporting what a serving deployment cares about:
//
//   - per-read latency percentiles (p50/p90/p99) under a zipfian access
//     trace — the hot-chunk skew real slicing workloads show
//   - cache hit rate at a cache sized to half the chunk count (so the
//     LRU policy, not raw capacity, earns the rate)
//   - a cold sequential scan with the prefetcher on vs off
//
// Correctness is checked inline: sampled reads must match the same slice
// of one full decompress of the archive, byte for byte.
//
// Knobs:
//   FZMOD_READER_FIELD_MB=N    field size in MiB (default 32)
//   FZMOD_CHUNK_MB=N           chunk size in MiB (default 2 here)
//   FZMOD_READER_READS=N       zipfian reads (default 2000)
//   FZMOD_BENCH_JSON=path      append machine-readable lines
//   FZMOD_BENCH_CHECK=1        exit nonzero unless (a) sampled reads are
//                              byte-identical to the full-decode slice and
//                              (b) the zipfian hit rate >=
//                              FZMOD_READER_MIN_HITRATE (default 0.60)
#include <algorithm>
#include <cmath>

#include "bench_common.hh"
#include "fzmod/common/rng.hh"
#include "fzmod/core/chunked.hh"
#include "fzmod/core/reader.hh"

namespace fzmod {
namespace {

f64 percentile(std::vector<f64>& sorted_us, f64 p) {
  if (sorted_us.empty()) return 0;
  const std::size_t k = std::min(
      sorted_us.size() - 1,
      static_cast<std::size_t>(p * static_cast<f64>(sorted_us.size())));
  return sorted_us[k];
}

int reader_main() {
  const std::size_t field_mb = static_cast<std::size_t>(
      bench::env_int("FZMOD_READER_FIELD_MB", 32));
  const std::size_t chunk_mb =
      static_cast<std::size_t>(bench::env_int("FZMOD_CHUNK_MB", 2));
  const int nreads = bench::env_int("FZMOD_READER_READS", 2000);
  bench::bench_json_name() = "reader";

  const std::size_t slabs = field_mb * 4;  // 256 KiB of f32 per slab
  const dims3 dims{512, 128, slabs};
  std::vector<f32> field(dims.len());
  for (std::size_t i = 0; i < field.size(); ++i) {
    field[i] = static_cast<f32>(std::sin(0.0007 * static_cast<f64>(i)) * 25 +
                                std::cos(0.013 * static_cast<f64>(i % 512)));
  }

  const eb_config eb{1e-4, eb_mode::rel};
  const auto cfg = core::pipeline_config::preset_default(eb);
  core::chunked_options copt;
  copt.chunk_mb = chunk_mb;
  core::chunked_pipeline<f32> cp(cfg, copt);
  const std::vector<u8> archive = cp.compress(field, dims);
  const u64 nchunks = core::inspect_chunked(archive).nchunks;
  const std::vector<f32> reference = cp.decompress(archive);
  const u64 chunk_elems = copt.resolve_chunk_elems(sizeof(f32));

  bench::print_header(
      ("reader serving bench — " + std::to_string(field_mb) +
       " MiB f32 field, " + std::to_string(nchunks) + " chunks of " +
       std::to_string(chunk_mb) + " MiB")
          .c_str());

  // --- zipfian random reads, cache sized to half the chunks -------------
  core::reader_options ropt;
  ropt.cache_bytes =
      std::max<u64>(1, nchunks / 2) * chunk_elems * sizeof(f32);
  ropt.prefetch = 0;  // pure cache test: no speculation credit
  ropt.jobs = 2;
  core::reader<f32> r(archive, ropt, cfg);

  std::vector<f64> cdf(nchunks);
  f64 mass = 0;
  for (u64 k = 0; k < nchunks; ++k) {
    mass += 1.0 / static_cast<f64>(k + 1);
    cdf[k] = mass;
  }
  const u64 read_elems = 4096;  // 16 KiB extents
  rng rnd(4242);
  std::vector<f64> lat_us;
  lat_us.reserve(static_cast<std::size_t>(nreads));
  bool reads_ok = true;
  stopwatch total;
  for (int it = 0; it < nreads; ++it) {
    const f64 u = rnd.next_f64() * mass;
    u64 chunk = 0;
    while (chunk + 1 < nchunks && cdf[chunk] < u) ++chunk;
    const u64 lo = chunk * chunk_elems;
    const u64 span = std::min(chunk_elems, dims.len() - lo) - read_elems;
    const u64 off = lo + rnd.next_below(span);
    stopwatch sw;
    const auto part = r.read(off, read_elems);
    lat_us.push_back(sw.seconds() * 1e6);
    if (it % 256 == 0 &&  // sampled byte-identity vs the full decode
        !std::equal(part.begin(), part.end(), reference.begin() + off)) {
      reads_ok = false;
    }
  }
  const f64 zipf_s = total.seconds();
  const auto st = r.stats();
  std::sort(lat_us.begin(), lat_us.end());
  const f64 p50 = percentile(lat_us, 0.50);
  const f64 p90 = percentile(lat_us, 0.90);
  const f64 p99 = percentile(lat_us, 0.99);

  std::printf("zipfian x%d (16 KiB reads, cache %llu/%llu chunks):\n",
              nreads, static_cast<unsigned long long>(nchunks / 2),
              static_cast<unsigned long long>(nchunks));
  std::printf("  latency p50 %8.1f us   p90 %8.1f us   p99 %8.1f us\n",
              p50, p90, p99);
  std::printf(
      "  hit rate %5.1f%%  (%llu hits / %llu misses, %llu evictions)\n",
      100.0 * st.hit_rate(), static_cast<unsigned long long>(st.hits),
      static_cast<unsigned long long>(st.misses),
      static_cast<unsigned long long>(st.evictions));
  std::printf("  sampled byte-identity vs full decode: %s\n",
              reads_ok ? "ok" : "BROKEN");

  // --- cold sequential scan, prefetch off vs on -------------------------
  f64 scan_s[2] = {0, 0};
  u64 pf_used = 0;
  for (int pf = 0; pf <= 1; ++pf) {
    core::reader_options sopt;
    sopt.cache_bytes = (2 * field_mb) << 20;  // capacity out of the way
    sopt.prefetch = pf ? 2 : 0;
    sopt.jobs = 2;
    core::reader<f32> sr(archive, sopt, cfg);
    stopwatch sw;
    for (u64 c = 0; c < nchunks; ++c) {
      const u64 off = c * chunk_elems;
      const u64 cnt = std::min(chunk_elems, dims.len() - off);
      (void)sr.read(off, cnt);
    }
    scan_s[pf] = sw.seconds();
    if (pf) pf_used = sr.stats().prefetch_used;
  }
  std::printf(
      "sequential scan: %.3f GB/s cold, %.3f GB/s prefetch=2 "
      "(%llu speculative chunks consumed)\n",
      throughput_gbps(dims.len() * sizeof(f32), scan_s[0]),
      throughput_gbps(dims.len() * sizeof(f32), scan_s[1]),
      static_cast<unsigned long long>(pf_used));
  bench::print_rule();

  if (std::FILE* f = bench::bench_json_stream()) {
    std::fprintf(
        f,
        "{\"bench\":\"reader\",\"field_mb\":%zu,\"chunk_mb\":%zu,"
        "\"nchunks\":%llu,\"reads\":%d,\"read_bytes\":%llu,"
        "\"lat_p50_us\":%.2f,\"lat_p90_us\":%.2f,\"lat_p99_us\":%.2f,"
        "\"hit_rate\":%.4f,\"hits\":%llu,\"misses\":%llu,"
        "\"evictions\":%llu,\"zipf_wall_s\":%.4f,"
        "\"scan_gbps_cold\":%.4f,\"scan_gbps_prefetch\":%.4f,"
        "\"prefetch_used\":%llu,\"reads_ok\":%s}\n",
        field_mb, chunk_mb, static_cast<unsigned long long>(nchunks),
        nreads, static_cast<unsigned long long>(read_elems * sizeof(f32)),
        p50, p90, p99, st.hit_rate(),
        static_cast<unsigned long long>(st.hits),
        static_cast<unsigned long long>(st.misses),
        static_cast<unsigned long long>(st.evictions), zipf_s,
        throughput_gbps(dims.len() * sizeof(f32), scan_s[0]),
        throughput_gbps(dims.len() * sizeof(f32), scan_s[1]),
        static_cast<unsigned long long>(pf_used),
        reads_ok ? "true" : "false");
    std::fflush(f);
  }

  if (bench::env_int("FZMOD_BENCH_CHECK", 0)) {
    if (!reads_ok) {
      std::fprintf(stderr, "FZMOD_BENCH_CHECK: correctness failure\n");
      return 1;
    }
    const f64 floor = std::atof([&] {
      const char* v = std::getenv("FZMOD_READER_MIN_HITRATE");
      return v && *v ? v : "0.60";
    }());
    if (st.hit_rate() < floor) {
      std::fprintf(stderr,
                   "FZMOD_BENCH_CHECK: zipfian hit rate %.3f below floor "
                   "%.3f\n",
                   st.hit_rate(), floor);
      return 1;
    }
    std::printf(
        "FZMOD_BENCH_CHECK: hit rate %.3f >= %.3f, reads byte-identical\n",
        st.hit_rate(), floor);
  }
  return 0;
}

}  // namespace
}  // namespace fzmod

int main() { return fzmod::reader_main(); }
