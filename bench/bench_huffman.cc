// Huffman decode bench: quantize every Figure-1 dataset with the Lorenzo
// predictor (eb 1e-4 rel, the fig1 operating point), Huffman-encode the
// quant codes, then decode each blob with the production decoder (lookup
// table + canonical slow path) and the canonical-walk reference, and
// report MB/s for both plus the production-vs-reference speedup.
//
// This is the evidence bench for the table-driven decoder: the committed
// bench_huffman_evidence.json is regenerated from this binary, and CI runs
// it with FZMOD_BENCH_CHECK=1 so a regression that drops the decoder back
// to canonical throughput fails the build.
//
// Knobs:
//   FZMOD_BENCH_REPS=N         best-of repetitions (default 3 here)
//   FZMOD_BENCH_JSON=path      append machine-readable lines
//   FZMOD_BENCH_CHECK=1        exit nonzero unless (a) both decoders
//                              decode every blob back to the exact code
//                              stream and (b) aggregate production
//                              speedup over the reference >=
//                              FZMOD_HUFF_MIN_SPEEDUP (default 1.5)
//   FZMOD_HUFF_MIN_SPEEDUP=X   override the speedup floor
#include <algorithm>
#include <cmath>
#include <cstring>

#include "bench_common.hh"
#include "fzmod/encoders/huffman.hh"
#include "fzmod/predictors/lorenzo.hh"

namespace fzmod {
namespace {

struct workload {
  std::string name;
  std::vector<u16> codes;
  std::vector<u8> blob;
  f64 avg_bits = 0;  // payload bits per symbol
};

/// Quantize one field of `ds` and Huffman-encode the quant codes.
workload make_workload(const data::dataset_desc& ds) {
  const auto field = data::generate(ds, 0);
  f32 lo = field[0], hi = field[0];
  for (const f32 v : field) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const f64 ebx2 = 2.0 * 1e-4 * (static_cast<f64>(hi) - lo);

  device::buffer<f32> dev(field.size(), device::space::device);
  std::memcpy(dev.data(), field.data(), field.size() * sizeof(f32));
  predictors::quant_field qf;
  device::stream s;
  predictors::lorenzo_compress_async(dev, ds.dims, ebx2,
                                     predictors::default_radius, qf, s);
  s.sync();

  workload w;
  w.name = ds.name;
  w.codes.assign(qf.codes.data(), qf.codes.data() + qf.codes.size());
  std::vector<u32> hist(2 * predictors::default_radius, 0);
  for (const u16 c : w.codes) hist[c]++;
  w.blob = encoders::huffman_encode(w.codes, hist);
  const u64 payload =
      w.blob.size() > 24 + hist.size() ? w.blob.size() - 24 - hist.size() : 0;
  w.avg_bits = static_cast<f64>(payload) * 8.0 /
               static_cast<f64>(std::max<std::size_t>(w.codes.size(), 1));
  return w;
}

using decode_fn = void (*)(std::span<const u8>, std::span<u16>);

/// Best-of-`reps` decode of `w` through `decode`; returns seconds, sets
/// `ok` false if any decoded stream mismatches the original codes.
f64 time_decode(const workload& w, decode_fn decode, int reps, bool& ok) {
  std::vector<u16> out(w.codes.size());
  f64 best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    stopwatch sw;
    decode(w.blob, out);
    best = std::min(best, sw.seconds());
  }
  if (out != w.codes) ok = false;
  return best;
}

int huffman_main() {
  bench::bench_json_name() = "huffman";
  const int reps = std::max(3, bench::timing_reps());
  const auto catalog = data::catalog(data::fullscale_requested());

  std::vector<workload> work;
  for (const auto& ds : catalog) work.push_back(make_workload(ds));

  bench::print_header(
      "Huffman decode — production vs canonical reference, fig1 quant "
      "codes, eb=1e-4 rel");
  std::printf("%-10s %8s %9s %14s %15s %9s\n", "dataset", "MB", "avg bits",
              "reference MB/s", "production MB/s", "speedup");
  bench::print_rule(70);

  bool roundtrip_ok = true;
  f64 total_ref_s = 0, total_prod_s = 0;
  u64 total_bytes = 0;
  for (const auto& w : work) {
    const u64 bytes = w.codes.size() * sizeof(u16);
    const f64 ref_s = time_decode(w, &encoders::huffman_decode_reference,
                                  reps, roundtrip_ok);
    const f64 prod_s =
        time_decode(w, &encoders::huffman_decode, reps, roundtrip_ok);
    total_ref_s += ref_s;
    total_prod_s += prod_s;
    total_bytes += bytes;
    const f64 mb = static_cast<f64>(bytes) / (1 << 20);
    std::printf("%-10s %8.1f %9.2f %14.1f %15.1f %8.2fx\n", w.name.c_str(),
                mb, w.avg_bits, mb / ref_s, mb / prod_s, ref_s / prod_s);
    if (std::FILE* f = bench::bench_json_stream()) {
      std::fprintf(
          f,
          "{\"bench\":\"huffman\",\"label\":\"%s\",\"bytes\":%llu,"
          "\"avg_bits\":%.4f,\"reference_mbps\":%.2f,"
          "\"production_mbps\":%.2f,\"speedup\":%.4f}\n",
          w.name.c_str(), static_cast<unsigned long long>(bytes), w.avg_bits,
          mb / ref_s, mb / prod_s, ref_s / prod_s);
      std::fflush(f);
    }
  }
  bench::print_rule(70);

  const f64 speedup = total_ref_s / total_prod_s;
  std::printf("aggregate: %.1f MB decoded, production %.2fx vs reference\n",
              static_cast<f64>(total_bytes) / (1 << 20), speedup);
  std::printf("round-trip: %s\n", roundtrip_ok ? "ok" : "MISMATCH");

  if (std::FILE* f = bench::bench_json_stream()) {
    std::fprintf(
        f,
        "{\"bench\":\"huffman\",\"label\":\"aggregate\",\"bytes\":%llu,"
        "\"speedup_production_vs_reference\":%.4f,\"roundtrip_ok\":%s}\n",
        static_cast<unsigned long long>(total_bytes), speedup,
        roundtrip_ok ? "true" : "false");
    std::fflush(f);
  }

  if (bench::env_int("FZMOD_BENCH_CHECK", 0)) {
    if (!roundtrip_ok) {
      std::fprintf(stderr, "FZMOD_BENCH_CHECK: decode mismatch\n");
      return 1;
    }
    const f64 floor = std::atof([&] {
      const char* v = std::getenv("FZMOD_HUFF_MIN_SPEEDUP");
      return v && *v ? v : "1.5";
    }());
    if (speedup < floor) {
      std::fprintf(stderr,
                   "FZMOD_BENCH_CHECK: decoder speedup %.2fx below "
                   "floor %.2fx\n",
                   speedup, floor);
      return 1;
    }
    std::printf("FZMOD_BENCH_CHECK: decoder speedup %.2fx >= %.2fx, "
                "round-trip ok\n",
                speedup, floor);
  }
  return 0;
}

}  // namespace
}  // namespace fzmod

int main() { return fzmod::huffman_main(); }
