// Huffman encode + decode bench: quantize every Figure-1 dataset with the
// Lorenzo predictor (eb 1e-4 rel, the fig1 operating point), then time
// both directions of the Huffman stage on the quant codes:
//   - encode: the production encoder (size pass, scan, in-place word
//     pack) against the bit-at-a-time reference writer;
//   - decode: the production decoder (lookup table + canonical slow
//     path) against the canonical-walk reference.
// Each reports MB/s (of u16 codes) for both plus the production-vs-
// reference speedup, per dataset and in aggregate.
//
// This is the evidence bench for both production paths: the committed
// bench_huffman_evidence.json is regenerated from this binary, and CI runs
// it with FZMOD_BENCH_CHECK=1 so a regression that drops either back to
// reference throughput fails the build.
//
// Knobs:
//   FZMOD_BENCH_REPS=N         best-of repetitions (default 3 here)
//   FZMOD_BENCH_JSON=path      append machine-readable lines
//   FZMOD_BENCH_CHECK=1        exit nonzero unless (a) both encoders write
//                              byte-identical blobs, (b) both decoders
//                              decode every blob back to the exact code
//                              stream, (c) aggregate encode speedup >=
//                              kMinEncodeSpeedup (2.0) and (d) aggregate
//                              decode speedup >= FZMOD_HUFF_MIN_SPEEDUP
//                              (default 1.5)
//   FZMOD_HUFF_MIN_SPEEDUP=X   override the decode speedup floor
#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>

#include "bench_common.hh"
#include "fzmod/encoders/huffman.hh"
#include "fzmod/predictors/lorenzo.hh"

namespace fzmod {
namespace {

/// Floor on the aggregate production-encoder speedup over the reference.
constexpr f64 kMinEncodeSpeedup = 2.0;

struct workload {
  std::string name;
  std::vector<u16> codes;
  std::vector<u32> hist;
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
  w.hist.assign(2 * predictors::default_radius, 0);
  for (const u16 c : w.codes) w.hist[c]++;
  w.blob = encoders::huffman_encode(w.codes, w.hist);
  const u64 payload = w.blob.size() > 24 + w.hist.size()
                          ? w.blob.size() - 24 - w.hist.size()
                          : 0;
  w.avg_bits = static_cast<f64>(payload) * 8.0 /
               static_cast<f64>(std::max<std::size_t>(w.codes.size(), 1));
  return w;
}

/// Best-of-`reps` seconds of `run`.
f64 best_of(int reps, const std::function<void()>& run) {
  f64 best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    stopwatch sw;
    run();
    best = std::min(best, sw.seconds());
  }
  return best;
}

/// Time `reference` and `production` on every workload, print the table
/// and JSON lines for `stage`, and return the aggregate speedup.
f64 report_stage(const char* stage, const std::vector<workload>& work,
                 const std::function<f64(const workload&, bool)>& time_one) {
  std::printf("\n%s\n", stage);
  std::printf("%-10s %8s %9s %14s %15s %9s\n", "dataset", "MB", "avg bits",
              "reference MB/s", "production MB/s", "speedup");
  bench::print_rule(70);
  f64 total_ref_s = 0, total_prod_s = 0;
  u64 total_bytes = 0;
  for (const auto& w : work) {
    const u64 bytes = w.codes.size() * sizeof(u16);
    const f64 ref_s = time_one(w, false);
    const f64 prod_s = time_one(w, true);
    total_ref_s += ref_s;
    total_prod_s += prod_s;
    total_bytes += bytes;
    const f64 mb = static_cast<f64>(bytes) / (1 << 20);
    std::printf("%-10s %8.1f %9.2f %14.1f %15.1f %8.2fx\n", w.name.c_str(),
                mb, w.avg_bits, mb / ref_s, mb / prod_s, ref_s / prod_s);
    if (std::FILE* f = bench::bench_json_stream()) {
      std::fprintf(
          f,
          "{\"bench\":\"huffman\",\"stage\":\"%s\",\"label\":\"%s\","
          "\"bytes\":%llu,\"avg_bits\":%.4f,\"reference_mbps\":%.2f,"
          "\"production_mbps\":%.2f,\"speedup\":%.4f}\n",
          stage, w.name.c_str(), static_cast<unsigned long long>(bytes),
          w.avg_bits, mb / ref_s, mb / prod_s, ref_s / prod_s);
      std::fflush(f);
    }
  }
  bench::print_rule(70);
  const f64 speedup = total_ref_s / total_prod_s;
  std::printf("aggregate: %.1f MB, production %.2fx vs reference\n",
              static_cast<f64>(total_bytes) / (1 << 20), speedup);
  return speedup;
}

int huffman_main() {
  bench::bench_json_name() = "huffman";
  const int reps = std::max(3, bench::timing_reps());
  const auto catalog = data::catalog(data::fullscale_requested());

  std::vector<workload> work;
  for (const auto& ds : catalog) work.push_back(make_workload(ds));

  bench::print_header(
      "Huffman encode + decode — production vs reference, fig1 quant "
      "codes, eb=1e-4 rel");

  bool identical = true;
  const f64 encode_speedup =
      report_stage("encode", work, [&](const workload& w, bool production) {
        const auto encode = production ? &encoders::huffman_encode
                                       : &encoders::huffman_encode_reference;
        std::vector<u8> blob;
        const f64 s = best_of(reps, [&] { blob = encode(w.codes, w.hist); });
        if (blob != w.blob) identical = false;
        return s;
      });

  bool roundtrip_ok = true;
  const f64 decode_speedup =
      report_stage("decode", work, [&](const workload& w, bool production) {
        const auto decode = production ? &encoders::huffman_decode
                                       : &encoders::huffman_decode_reference;
        std::vector<u16> out(w.codes.size());
        const f64 s = best_of(reps, [&] { decode(w.blob, out); });
        if (out != w.codes) roundtrip_ok = false;
        return s;
      });

  std::printf("\nencoders: %s\n", identical ? "byte-identical" : "DIFFER");
  std::printf("round-trip: %s\n", roundtrip_ok ? "ok" : "MISMATCH");

  if (std::FILE* f = bench::bench_json_stream()) {
    u64 total_bytes = 0;
    for (const auto& w : work) total_bytes += w.codes.size() * sizeof(u16);
    std::fprintf(
        f,
        "{\"bench\":\"huffman\",\"label\":\"aggregate\",\"bytes\":%llu,"
        "\"encode_speedup\":%.4f,\"decode_speedup\":%.4f,"
        "\"encoders_identical\":%s,\"roundtrip_ok\":%s}\n",
        static_cast<unsigned long long>(total_bytes), encode_speedup,
        decode_speedup, identical ? "true" : "false",
        roundtrip_ok ? "true" : "false");
    std::fflush(f);
  }

  if (bench::env_int("FZMOD_BENCH_CHECK", 0)) {
    if (!identical) {
      std::fprintf(stderr, "FZMOD_BENCH_CHECK: encoder blobs differ\n");
      return 1;
    }
    if (!roundtrip_ok) {
      std::fprintf(stderr, "FZMOD_BENCH_CHECK: decode mismatch\n");
      return 1;
    }
    if (encode_speedup < kMinEncodeSpeedup) {
      std::fprintf(stderr,
                   "FZMOD_BENCH_CHECK: encoder speedup %.2fx below "
                   "floor %.2fx\n",
                   encode_speedup, kMinEncodeSpeedup);
      return 1;
    }
    const f64 floor = std::atof([&] {
      const char* v = std::getenv("FZMOD_HUFF_MIN_SPEEDUP");
      return v && *v ? v : "1.5";
    }());
    if (decode_speedup < floor) {
      std::fprintf(stderr,
                   "FZMOD_BENCH_CHECK: decoder speedup %.2fx below "
                   "floor %.2fx\n",
                   decode_speedup, floor);
      return 1;
    }
    std::printf("FZMOD_BENCH_CHECK: encoder speedup %.2fx >= %.2fx, "
                "decoder speedup %.2fx >= %.2fx, blobs identical, "
                "round-trip ok\n",
                encode_speedup, kMinEncodeSpeedup, decode_speedup, floor);
  }
  return 0;
}

}  // namespace
}  // namespace fzmod

int main() { return fzmod::huffman_main(); }
