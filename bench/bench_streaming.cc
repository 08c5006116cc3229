// Out-of-core streaming bench: compress a synthetic Nyx-class field many
// times larger than the memory cap straight from disk (core/stream_io.hh)
// and prove the footprint actually stayed bounded:
//
//   - the raw field is generated slab-by-slab to a temp file (a smooth
//     analytic baryon-density-like signal plus deterministic hash noise),
//     so the bench itself never holds the field either;
//   - compression runs under FZMOD_STREAM_MEM_MB with the process's peak
//     RSS (getrusage ru_maxrss) as the hard gate — not the library's own
//     accounting, the kernel's;
//   - sampled extents of the archive are decoded through the streaming
//     reader (only the touched chunks are ever fetched) and checked
//     against the regenerated analytic values within the error bound;
//   - read/write stall counters and the accounted peak land in the
//     evidence JSON's "trace" section.
//
// Knobs:
//   FZMOD_STREAM_FIELD_MB=N    raw field size in MiB (default 512; the
//                              field is 512x512xN slabs, so 512 = Nyx 512^3)
//   FZMOD_STREAM_MEM_MB=N      memory cap in MiB (default 64)
//   FZMOD_CHUNK_MB=N           chunk size in MiB (default 8 here)
//   FZMOD_JOBS=N               scheduler jobs (library default otherwise)
//   FZMOD_STREAM_MAX_RSS_MB=N  peak-RSS gate in MiB (default 8*cap + 512)
//   FZMOD_BENCH_JSON=path      append the machine-readable evidence line
//   FZMOD_BENCH_CHECK=1        exit nonzero unless (a) the field is >= 8x
//                              the cap, (b) every raw byte was read exactly
//                              once, (c) sampled decodes hold the error
//                              bound, and (d) peak RSS <= the gate
#include <sys/resource.h>

#include <cmath>
#include <cstring>
#include <filesystem>

#include "bench_common.hh"
#include "fzmod/common/rng.hh"
#include "fzmod/core/reader.hh"
#include "fzmod/core/stream_io.hh"
#include "fzmod/data/io.hh"

namespace fzmod {
namespace {

namespace fs = std::filesystem;

/// Peak resident set of this process in MiB (ru_maxrss is KiB on Linux).
[[nodiscard]] f64 peak_rss_mb() {
  struct ::rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<f64>(ru.ru_maxrss) / 1024.0;
}

/// Deterministic Nyx-class sample: large-scale smooth structure plus
/// small-scale hash noise, computable at any index without state — the
/// verification pass regenerates exact values for arbitrary extents.
[[nodiscard]] f32 field_value(u64 i) {
  const u64 x = i % 512, y = (i / 512) % 512, z = i / (512 * 512);
  const f64 s = std::sin(0.013 * static_cast<f64>(x)) *
                    std::cos(0.007 * static_cast<f64>(y)) +
                std::sin(0.003 * static_cast<f64>(z + x));
  u64 h = i * 0x9e3779b97f4a7c15ull;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  const f64 noise = static_cast<f64>(h >> 40) / 16777216.0 - 0.5;
  return static_cast<f32>(40.0 * s + 0.3 * noise);
}

int streaming_main() {
  const std::size_t field_mb = static_cast<std::size_t>(
      bench::env_int("FZMOD_STREAM_FIELD_MB", 512));
  const std::size_t cap_mb = static_cast<std::size_t>(
      bench::env_int("FZMOD_STREAM_MEM_MB", 64));
  const std::size_t chunk_mb =
      static_cast<std::size_t>(bench::env_int("FZMOD_CHUNK_MB", 8));
  const f64 max_rss_mb = bench::env_int(
      "FZMOD_STREAM_MAX_RSS_MB", static_cast<int>(8 * cap_mb + 512));
  const bool check = bench::env_int("FZMOD_BENCH_CHECK", 0) != 0;
  bench::bench_json_name() = "streaming";

  // One 512x512 slab is 1 MiB of f32, so z == field_mb; FZMOD_STREAM_
  // FIELD_MB=512 is exactly the paper's Nyx 512^3 shape.
  const dims3 dims{512, 512, field_mb};
  const u64 field_bytes = dims.len() * sizeof(f32);

  bench::print_header(
      ("streaming compression bench — " + std::to_string(field_mb) +
       " MiB field under a " + std::to_string(cap_mb) + " MiB cap (" +
       std::to_string(chunk_mb) + " MiB chunks)")
          .c_str());

  const fs::path dir = fs::temp_directory_path() / "fzmod_bench_streaming";
  fs::create_directories(dir);
  const std::string raw = (dir / "field.f32").string();
  const std::string out = (dir / "field.fzmod").string();

  // --- generate the raw field slab-by-slab ------------------------------
  f32 vmin = 0, vmax = 0;
  {
    stopwatch sw;
    std::FILE* f = std::fopen(raw.c_str(), "wb");
    if (!f) {
      std::fprintf(stderr, "cannot create %s\n", raw.c_str());
      return 1;
    }
    std::vector<f32> slab(512 * 512);
    for (u64 z = 0; z < dims.z; ++z) {
      for (u64 k = 0; k < slab.size(); ++k) {
        slab[k] = field_value(z * slab.size() + k);
        if (z == 0 && k == 0) vmin = vmax = slab[k];
        vmin = std::min(vmin, slab[k]);
        vmax = std::max(vmax, slab[k]);
      }
      if (std::fwrite(slab.data(), sizeof(f32), slab.size(), f) !=
          slab.size()) {
        std::fprintf(stderr, "short write to %s\n", raw.c_str());
        std::fclose(f);
        return 1;
      }
    }
    std::fclose(f);
    std::printf("generated %llu MiB raw field in %.1f s (range %.2f)\n",
                static_cast<unsigned long long>(field_bytes >> 20),
                sw.seconds(), static_cast<f64>(vmax - vmin));
  }

  // --- stream-compress under the cap ------------------------------------
  const f64 eb_rel = 1e-4;
  const auto cfg =
      core::pipeline_config::preset_default({eb_rel, eb_mode::rel});
  core::stream_options sopt;
  sopt.chunk.chunk_mb = chunk_mb;
  sopt.chunk.stream_mem_mb = cap_mb;

  stopwatch sw;
  const core::stream_io_stats st =
      core::compress_file_stream<f32>(raw, dims, out, cfg, sopt);
  const f64 comp_s = sw.seconds();
  const u64 archive_bytes = fs::file_size(out);

  std::printf(
      "compressed %llu -> %llu bytes (%.2fx) in %.1f s (%.3f GB/s)\n",
      static_cast<unsigned long long>(st.bytes_read),
      static_cast<unsigned long long>(st.bytes_written),
      metrics::compression_ratio(st.bytes_read, st.bytes_written), comp_s,
      throughput_gbps(field_bytes, comp_s));
  std::printf(
      "budget: window %llu, %u workers, %llu read slots; stalls %llu read "
      "/ %llu write; accounted peak %.1f MiB\n",
      static_cast<unsigned long long>(st.window), st.workers,
      static_cast<unsigned long long>(st.read_slots),
      static_cast<unsigned long long>(st.read_stalls),
      static_cast<unsigned long long>(st.write_stalls),
      static_cast<f64>(st.peak_bytes) / (1 << 20));

  // --- sampled verification through the streaming reader ----------------
  // The archive is opened as a byte_source (pread per request): only the
  // directory and the chunks the sampled extents cover are ever loaded,
  // so verification cannot mask an RSS blowout by mapping the archive.
  bool bound_ok = true;
  f64 max_err = 0;
  {
    std::FILE* af = std::fopen(out.c_str(), "rb");
    if (!af) {
      std::fprintf(stderr, "cannot reopen %s\n", out.c_str());
      return 1;
    }
    auto src = [af](u8* dst, u64 off, std::size_t n) {
      if (std::fseek(af, static_cast<long>(off), SEEK_SET) != 0 ||
          std::fread(dst, 1, n, af) != n) {
        throw error(status::invalid_argument, "bench: short archive read");
      }
    };
    core::reader_options ropt;
    ropt.cache_bytes = std::size_t{32} << 20;
    ropt.prefetch = 0;
    core::reader<f32> r(src, archive_bytes, ropt, cfg);
    const f64 bound = metrics::f32_bound_slack(
        eb_rel * static_cast<f64>(vmax - vmin),
        static_cast<f64>(vmax - vmin));
    rng rnd(99);
    const u64 extent = 8192;
    for (int s = 0; s < 64; ++s) {
      const u64 off = rnd.next_below(dims.len() - extent);
      const auto got = r.read(off, extent);
      for (u64 k = 0; k < extent; ++k) {
        const f64 e = std::abs(static_cast<f64>(got[k]) -
                               static_cast<f64>(field_value(off + k)));
        max_err = std::max(max_err, e);
        if (e > bound) bound_ok = false;
      }
    }
    std::fclose(af);
    std::printf("sampled verify: 64 x %llu elems, max |err| %.3e %s\n",
                static_cast<unsigned long long>(extent), max_err,
                bound_ok ? "(within bound)" : "EXCEEDS BOUND");
  }

  const f64 rss_mb = peak_rss_mb();
  const bool ratio_ok = field_bytes >= 8 * (static_cast<u64>(cap_mb) << 20);
  const bool read_ok = st.bytes_read == field_bytes;
  const bool rss_ok = rss_mb <= max_rss_mb;
  std::printf("peak RSS %.1f MiB (gate %.0f MiB): %s\n", rss_mb, max_rss_mb,
              rss_ok ? "ok" : "OVER");
  bench::print_rule();

  if (std::FILE* f = bench::bench_json_stream()) {
    std::fprintf(
        f,
        "{\"bench\":\"streaming\",\"field_mb\":%zu,\"cap_mb\":%zu,"
        "\"chunk_mb\":%zu,\"nchunks\":%llu,\"window\":%llu,\"workers\":%u,"
        "\"read_slots\":%llu,\"archive_bytes\":%llu,\"cr\":%.4f,"
        "\"comp_gbps\":%.4f,\"comp_wall_s\":%.3f,\"peak_rss_mb\":%.1f,"
        "\"max_rss_gate_mb\":%.0f,\"max_abs_err\":%.6g,"
        "\"field_over_cap\":%.1f,\"bound_ok\":%s,\"rss_ok\":%s,"
        "\"trace\":{\"stream.stall.read\":%llu,\"stream.stall.write\":%llu,"
        "\"stream.peak_bytes\":%llu}}\n",
        field_mb, cap_mb, chunk_mb,
        static_cast<unsigned long long>(st.chunks_total),
        static_cast<unsigned long long>(st.window), st.workers,
        static_cast<unsigned long long>(st.read_slots),
        static_cast<unsigned long long>(archive_bytes),
        metrics::compression_ratio(field_bytes, archive_bytes),
        throughput_gbps(field_bytes, comp_s), comp_s, rss_mb, max_rss_mb,
        max_err,
        static_cast<f64>(field_bytes) /
            static_cast<f64>(static_cast<u64>(cap_mb) << 20),
        bound_ok ? "true" : "false", rss_ok ? "true" : "false",
        static_cast<unsigned long long>(st.read_stalls),
        static_cast<unsigned long long>(st.write_stalls),
        static_cast<unsigned long long>(st.peak_bytes));
    std::fflush(f);
  }

  fs::remove_all(dir);

  if (check) {
    if (!ratio_ok) {
      std::fprintf(stderr,
                   "FZMOD_BENCH_CHECK: field (%llu MiB) is not >= 8x the "
                   "cap (%zu MiB)\n",
                   static_cast<unsigned long long>(field_bytes >> 20),
                   cap_mb);
      return 1;
    }
    if (!read_ok) {
      std::fprintf(stderr,
                   "FZMOD_BENCH_CHECK: bytes_read %llu != field bytes "
                   "%llu\n",
                   static_cast<unsigned long long>(st.bytes_read),
                   static_cast<unsigned long long>(field_bytes));
      return 1;
    }
    if (!bound_ok) {
      std::fprintf(stderr,
                   "FZMOD_BENCH_CHECK: sampled decode exceeds the error "
                   "bound (max %.3e)\n",
                   max_err);
      return 1;
    }
    if (!rss_ok) {
      std::fprintf(stderr,
                   "FZMOD_BENCH_CHECK: peak RSS %.1f MiB over the %.0f "
                   "MiB gate\n",
                   rss_mb, max_rss_mb);
      return 1;
    }
    std::printf(
        "FZMOD_BENCH_CHECK: %.0fx field/cap ratio, every byte read once, "
        "bound held, RSS %.1f <= %.0f MiB\n",
        static_cast<f64>(field_bytes) /
            static_cast<f64>(static_cast<u64>(cap_mb) << 20),
        rss_mb, max_rss_mb);
  }
  return 0;
}

}  // namespace
}  // namespace fzmod

int main() { return fzmod::streaming_main(); }
