// Chunk-parallel scaling bench: compress + decompress one synthetic field
// through core::chunked_pipeline at 1/2/4/8 streams and report, per jobs
// setting:
//
//   - chunks/s and end-to-end GB/s for compress and decompress
//   - speedup vs the 1-stream run of the same binary
//   - in-flight peak device memory (runtime_stats::device_bytes_peak over
//     the measured run — the bounded-window scheduler's memory footprint)
//   - the CPUs the process may run on (its affinity mask), so a run pinned
//     with `taskset -c 0` is the one-core denominator of scaling efficiency
//     (jobs-4 GB/s ÷ (4 × pinned GB/s); see EXPERIMENTS.md)
//
// The field defaults to 64 MiB of f32 (the ISSUE-3 evidence size); chunk
// size defaults to 4 MiB so even the smallest field splits into enough
// chunks for 8 streams to matter.
//
// Knobs:
//   FZMOD_CHUNKED_FIELD_MB=N   field size in MiB (default 64)
//   FZMOD_CHUNK_MB=N           chunk size in MiB (default 4 here)
//   FZMOD_BENCH_REPS=N         best-of repetitions (default 1)
//   FZMOD_BENCH_JSON=path      append machine-readable lines
//   FZMOD_BENCH_CHECK=1        exit nonzero unless (a) every round-trip
//                              stays inside the error bound, (b) the
//                              single-chunk plan is byte-identical to the
//                              plain v2 archive, and (c) compress speedup
//                              at 4 streams >= FZMOD_CHUNKED_MIN_SPEEDUP
//                              (default 0.75 — a functional floor; the
//                              2x scaling target needs >= 4 real cores,
//                              see docs/RUNTIME.md)
#include <sched.h>

#include <cmath>

#include "bench_common.hh"
#include "fzmod/core/chunked.hh"

namespace fzmod {
namespace {

struct jobs_report {
  unsigned jobs = 0;
  u64 nchunks = 0;
  f64 comp_s = 0;
  f64 decomp_s = 0;
  f64 comp_gbps = 0;
  f64 decomp_gbps = 0;
  f64 chunks_per_s = 0;
  u64 peak_device_bytes = 0;
  u64 archive_bytes = 0;
};

/// CPUs in this process's affinity mask (0 if it cannot be read).
int affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
}

int chunked_main() {
  const std::size_t field_mb = static_cast<std::size_t>(
      bench::env_int("FZMOD_CHUNKED_FIELD_MB", 64));
  const std::size_t chunk_mb =
      static_cast<std::size_t>(bench::env_int("FZMOD_CHUNK_MB", 4));
  const int reps = bench::timing_reps();
  bench::bench_json_name() = "chunked";

  // Slab-friendly 3-D shape: x*y = 256 KiB of f32 per slab, z scales with
  // the requested field size.
  const std::size_t slabs = field_mb * 4;
  const dims3 dims{512, 128, slabs};
  const u64 bytes = dims.len() * sizeof(f32);
  std::vector<f32> field(dims.len());
  for (std::size_t i = 0; i < field.size(); ++i) {
    field[i] = static_cast<f32>(std::sin(0.0007 * static_cast<f64>(i)) * 25 +
                                std::cos(0.013 * static_cast<f64>(i % 512)));
  }

  const eb_config eb{1e-4, eb_mode::rel};
  const auto cfg = core::pipeline_config::preset_default(eb);

  const int cpus = affinity_cpus();
  bench::print_header(
      ("chunked scaling bench — " + std::to_string(field_mb) +
       " MiB f32 field, " + std::to_string(chunk_mb) + " MiB chunks, " +
       std::to_string(cpus) + " CPUs")
          .c_str());
  std::printf("%6s %8s %10s %10s %12s %12s %14s\n", "jobs", "chunks",
              "comp GB/s", "dec GB/s", "chunks/s", "speedup", "peak dev MiB");
  bench::print_rule(80);

  auto& st = device::runtime::instance().stats();
  std::vector<jobs_report> reports;
  std::vector<f32> last_recon;
  for (const unsigned jobs : {1u, 2u, 4u, 8u}) {
    core::chunked_options opt;
    opt.chunk_mb = chunk_mb;
    opt.jobs = jobs;
    core::chunked_pipeline<f32> cp(cfg, opt);

    jobs_report r;
    r.jobs = jobs;
    r.comp_s = 1e300;
    r.decomp_s = 1e300;
    std::vector<u8> archive;
    for (int rep = 0; rep < reps; ++rep) {
      st.reset_peak();
      stopwatch sw;
      archive = cp.compress(field, dims);
      r.comp_s = std::min(r.comp_s, sw.seconds());
      r.peak_device_bytes =
          std::max(r.peak_device_bytes, st.device_bytes_peak.load());
      sw.reset();
      last_recon = cp.decompress(archive);
      r.decomp_s = std::min(r.decomp_s, sw.seconds());
    }
    r.nchunks = core::inspect_chunked(archive).nchunks;
    r.archive_bytes = archive.size();
    r.comp_gbps = throughput_gbps(bytes, r.comp_s);
    r.decomp_gbps = throughput_gbps(bytes, r.decomp_s);
    r.chunks_per_s = static_cast<f64>(r.nchunks) / r.comp_s;
    reports.push_back(r);

    const f64 speedup = reports.front().comp_s / r.comp_s;
    std::printf("%6u %8llu %10.3f %10.3f %12.1f %11.2fx %14.1f\n", jobs,
                static_cast<unsigned long long>(r.nchunks), r.comp_gbps,
                r.decomp_gbps, r.chunks_per_s, speedup,
                static_cast<f64>(r.peak_device_bytes) / (1 << 20));
  }
  bench::print_rule(80);

  // Correctness: the last reconstruction must respect the error bound.
  const auto err = metrics::compare(field, last_recon);
  const bool bound_ok =
      err.max_abs_err <=
      metrics::f32_bound_slack(eb.eb * err.range, err.range);
  std::printf("round-trip: max|err| %.3e (bound %.3e) — %s\n",
              err.max_abs_err, eb.eb * err.range,
              bound_ok ? "ok" : "VIOLATED");

  // Single-chunk plan must bypass the container byte-for-byte.
  core::chunked_options one;
  one.chunk_elems = dims.len();
  core::chunked_pipeline<f32> single(cfg, one);
  core::pipeline<f32> plain(cfg);
  const bool identity_ok =
      single.compress(field, dims) == plain.compress(field, dims);
  std::printf("single-chunk v2 byte-identity: %s\n",
              identity_ok ? "ok" : "BROKEN");

  const f64 speedup4 = reports.front().comp_s / reports[2].comp_s;
  if (std::FILE* f = bench::bench_json_stream()) {
    for (const auto& r : reports) {
      std::fprintf(
          f,
          "{\"bench\":\"chunked\",\"field_mb\":%zu,\"chunk_mb\":%zu,"
          "\"cpus\":%d,\"jobs\":%u,\"nchunks\":%llu,\"comp_gbps\":%.4f,"
          "\"decomp_gbps\":%.4f,\"chunks_per_s\":%.2f,"
          "\"speedup_vs_1\":%.4f,\"peak_device_bytes\":%llu,"
          "\"archive_bytes\":%llu,\"bound_ok\":%s,\"identity_ok\":%s}\n",
          field_mb, chunk_mb, cpus, r.jobs,
          static_cast<unsigned long long>(r.nchunks), r.comp_gbps,
          r.decomp_gbps, r.chunks_per_s,
          reports.front().comp_s / r.comp_s,
          static_cast<unsigned long long>(r.peak_device_bytes),
          static_cast<unsigned long long>(r.archive_bytes),
          bound_ok ? "true" : "false", identity_ok ? "true" : "false");
    }
    std::fflush(f);
  }

  if (bench::env_int("FZMOD_BENCH_CHECK", 0)) {
    if (!bound_ok || !identity_ok) {
      std::fprintf(stderr, "FZMOD_BENCH_CHECK: correctness failure\n");
      return 1;
    }
    const f64 floor =
        std::atof([&] {
          const char* v = std::getenv("FZMOD_CHUNKED_MIN_SPEEDUP");
          return v && *v ? v : "0.75";
        }());
    if (speedup4 < floor) {
      std::fprintf(stderr,
                   "FZMOD_BENCH_CHECK: compress speedup at 4 streams "
                   "%.2fx below floor %.2fx\n",
                   speedup4, floor);
      return 1;
    }
    std::printf(
        "FZMOD_BENCH_CHECK: speedup at 4 streams %.2fx >= %.2fx, "
        "round-trip + identity ok\n",
        speedup4, floor);
  }
  return 0;
}

}  // namespace
}  // namespace fzmod

int main() { return fzmod::chunked_main(); }
