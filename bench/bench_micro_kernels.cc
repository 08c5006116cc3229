// Microbenchmarks (google-benchmark) of the kernel primitives every
// pipeline stage is built from: histogram, scan, bitshuffle, Lorenzo, the
// spline (interpolation) predictor, Huffman, the LZ secondary codec. These
// are the per-stage numbers that explain the end-to-end Figure 1 ordering.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>

#include "fzmod/common/bits.hh"
#include "fzmod/common/rng.hh"
#include "fzmod/encoders/fixed_length.hh"
#include "fzmod/encoders/fzg.hh"
#include "fzmod/encoders/huffman.hh"
#include "fzmod/kernels/bitshuffle.hh"
#include "fzmod/kernels/histogram.hh"
#include "fzmod/kernels/scan.hh"
#include "fzmod/lossless/lz.hh"
#include "fzmod/predictors/interp.hh"
#include "fzmod/predictors/lorenzo.hh"

namespace {

using namespace fzmod;

std::vector<u16> make_codes(std::size_t n, f64 spread) {
  rng r(n);
  std::vector<u16> codes(n);
  for (auto& c : codes) {
    c = static_cast<u16>(
        std::clamp(r.normal() * spread + 512.0, 0.0, 1023.0));
  }
  return codes;
}

device::buffer<u16> to_device(const std::vector<u16>& v) {
  device::buffer<u16> d(v.size(), device::space::device);
  std::memcpy(d.data(), v.data(), v.size() * sizeof(u16));
  return d;
}

void BM_HistogramStandard(benchmark::State& state) {
  const auto codes = make_codes(1 << 20, 4.0);
  auto dev = to_device(codes);
  device::buffer<u32> bins(1024, device::space::device);
  for (auto _ : state) {
    device::stream s;
    kernels::histogram_async(dev, bins, s);
    s.sync();
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(codes.size() * 2));
}
BENCHMARK(BM_HistogramStandard)->UseRealTime();

// Single-bank reference body of the standard histogram (see
// docs/RUNTIME.md, "Fast paths and their references"). Same bins, one
// counter bank instead of four.
void BM_HistogramReference(benchmark::State& state) {
  const auto codes = make_codes(1 << 20, 4.0);
  auto dev = to_device(codes);
  device::buffer<u32> bins(1024, device::space::device);
  for (auto _ : state) {
    device::stream s;
    kernels::histogram_reference_async(dev, bins, s);
    s.sync();
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(codes.size() * 2));
}
BENCHMARK(BM_HistogramReference)->UseRealTime();

void BM_HistogramTopK(benchmark::State& state) {
  const auto codes = make_codes(1 << 20, 2.0);
  auto dev = to_device(codes);
  device::buffer<u32> bins(1024, device::space::device);
  for (auto _ : state) {
    device::stream s;
    kernels::histogram_topk_async(dev, bins, s);
    s.sync();
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(codes.size() * 2));
}
BENCHMARK(BM_HistogramTopK)->UseRealTime();

void BM_ExclusiveScan(benchmark::State& state) {
  const std::size_t n = 1 << 20;
  device::buffer<u32> in(n, device::space::device);
  device::buffer<u32> out(n, device::space::device);
  for (std::size_t i = 0; i < n; ++i) in.data()[i] = 3;
  u32 total = 0;
  for (auto _ : state) {
    device::stream s;
    kernels::exclusive_scan_async(in, out, &total, s);
    s.sync();
  }
  benchmark::DoNotOptimize(total);
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(n * 4));
}
BENCHMARK(BM_ExclusiveScan)->UseRealTime();

// Bitshuffle tile bodies, production vs the per-bit reference, over the
// symbols the FZG codec shuffles: codes re-centred around the radius and
// zigzagged (small magnitudes, a few planes in use). One thread walks
// every tile, so the rows time the bodies without the pool.
std::vector<u16> make_symbols(std::size_t n, f64 spread) {
  auto symbols = make_codes(n, spread);
  for (auto& c : symbols) {
    c = c ? static_cast<u16>(zigzag_encode(static_cast<i32>(c) - 512) + 1)
          : u16{0};
  }
  return symbols;
}

template <class Fwd>
void run_bitshuffle_fwd(benchmark::State& state, Fwd fwd) {
  const auto symbols = make_symbols(1 << 20, 3.0);
  const std::size_t n = symbols.size();
  std::vector<u32> planes(kernels::bitshuffle_words(n));
  for (auto _ : state) {
    for (std::size_t t = 0; t < kernels::bitshuffle_tiles(n); ++t) {
      fwd(symbols.data() + t * kernels::bitshuffle_tile,
          std::min(kernels::bitshuffle_tile,
                   n - t * kernels::bitshuffle_tile),
          planes.data() + t * kernels::bitshuffle_words_per_tile);
    }
    benchmark::DoNotOptimize(planes.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(n * 2));
}

template <class Inv>
void run_bitshuffle_inv(benchmark::State& state, Inv inv) {
  const auto symbols = make_symbols(1 << 20, 3.0);
  const std::size_t n = symbols.size();
  std::vector<u32> planes(kernels::bitshuffle_words(n));
  for (std::size_t t = 0; t < kernels::bitshuffle_tiles(n); ++t) {
    kernels::bitshuffle_tile_fwd_reference(
        symbols.data() + t * kernels::bitshuffle_tile,
        std::min(kernels::bitshuffle_tile, n - t * kernels::bitshuffle_tile),
        planes.data() + t * kernels::bitshuffle_words_per_tile);
  }
  std::vector<u16> out(n);
  for (auto _ : state) {
    for (std::size_t t = 0; t < kernels::bitshuffle_tiles(n); ++t) {
      inv(planes.data() + t * kernels::bitshuffle_words_per_tile,
          std::min(kernels::bitshuffle_tile,
                   n - t * kernels::bitshuffle_tile),
          out.data() + t * kernels::bitshuffle_tile);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(n * 2));
}

void BM_BitshuffleFwd(benchmark::State& state) {
  run_bitshuffle_fwd(state, [](const u16* in, std::size_t count, u32* out) {
    (void)kernels::bitshuffle_tile_fwd(in, count, out);
  });
}
BENCHMARK(BM_BitshuffleFwd)->UseRealTime();

void BM_BitshuffleFwdReference(benchmark::State& state) {
  run_bitshuffle_fwd(state, &kernels::bitshuffle_tile_fwd_reference);
}
BENCHMARK(BM_BitshuffleFwdReference)->UseRealTime();

void BM_BitshuffleInv(benchmark::State& state) {
  run_bitshuffle_inv(state, [](const u32* in, std::size_t count, u16* out) {
    kernels::bitshuffle_tile_inv(in, count, out);
  });
}
BENCHMARK(BM_BitshuffleInv)->UseRealTime();

void BM_BitshuffleInvReference(benchmark::State& state) {
  run_bitshuffle_inv(state, &kernels::bitshuffle_tile_inv_reference);
}
BENCHMARK(BM_BitshuffleInvReference)->UseRealTime();

// Lorenzo compress, production body vs the per-element reference. A 1-D
// field is one row, which the production kernel splits into block-sized
// segments; the 2-D and 3-D shapes have rows shorter than one segment.
using lorenzo_fn = void (*)(const device::buffer<f32>&, dims3, f64, int,
                            predictors::quant_field&, device::stream&);

void run_lorenzo(benchmark::State& state, dims3 d, lorenzo_fn compress) {
  // Smooth along the linear index, so every shape quantizes to in-range
  // codes with a sparse outlier tail.
  rng r(9);
  device::buffer<f32> dev(d.len(), device::space::device);
  for (std::size_t i = 0; i < d.len(); ++i) {
    dev.data()[i] = static_cast<f32>(
        std::sin(0.001 * static_cast<f64>(i)) * 50 + 0.1 * r.normal());
  }
  predictors::quant_field field;
  for (auto _ : state) {
    device::stream s;
    compress(dev, d, 2e-3, 512, field, s);
    s.sync();
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(d.len() * 4));
}

void BM_LorenzoCompress(benchmark::State& state, dims3 d) {
  run_lorenzo(state, d, &predictors::lorenzo_compress_async<f32>);
}

void BM_LorenzoCompressReference(benchmark::State& state, dims3 d) {
  run_lorenzo(state, d, &predictors::lorenzo_compress_reference_async<f32>);
}

BENCHMARK_CAPTURE(BM_LorenzoCompress, 1d_256k, dims3{1u << 18})
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_LorenzoCompressReference, 1d_256k, dims3{1u << 18})
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_LorenzoCompress, 1d_4m, dims3{1u << 22})
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_LorenzoCompressReference, 1d_4m, dims3{1u << 22})
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_LorenzoCompress, 2d_2048x2048, dims3{2048, 2048})
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_LorenzoCompressReference, 2d_2048x2048,
                  dims3{2048, 2048})
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_LorenzoCompress, 3d_256x256x64, dims3{256, 256, 64})
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_LorenzoCompressReference, 3d_256x256x64,
                  dims3{256, 256, 64})
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_LorenzoCompress, 3d_64x64x12, dims3{64, 64, 12})
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_LorenzoCompressReference, 3d_64x64x12,
                  dims3{64, 64, 12})
    ->UseRealTime();

// Spline predictor, production row-tile traversal vs the reference (flat
// per-target launch, one lock per outlier). Shapes: the four bulk_roundtrip
// chunk slabs (HACC, CESM, HURR, Nyx at 1 MiB chunks) and one whole HURR
// field.
using interp_compress_fn = void (*)(const device::buffer<f32>&, dims3, f64,
                                    int, predictors::quant_field&,
                                    predictors::interp_anchors&,
                                    device::stream&);
using interp_decompress_fn = void (*)(const predictors::quant_field&,
                                      const predictors::interp_anchors&,
                                      device::buffer<f32>&, device::stream&);

device::buffer<f32> interp_input(dims3 d) {
  // Smooth in every axis plus noise, so codes stay mostly in range with a
  // sparse outlier tail.
  rng r(11);
  device::buffer<f32> dev(d.len(), device::space::device);
  for (std::size_t z = 0; z < d.z; ++z) {
    for (std::size_t y = 0; y < d.y; ++y) {
      for (std::size_t x = 0; x < d.x; ++x) {
        dev.data()[d.at(x, y, z)] = static_cast<f32>(
            std::sin(0.013 * static_cast<f64>(x) +
                     0.7 * std::sin(0.021 * static_cast<f64>(y)) +
                     0.05 * static_cast<f64>(z)) *
                50 +
            0.1 * r.normal());
      }
    }
  }
  return dev;
}

void run_interp_compress(benchmark::State& state, dims3 d,
                         interp_compress_fn compress) {
  const auto dev = interp_input(d);
  predictors::quant_field field;
  predictors::interp_anchors anchors;
  for (auto _ : state) {
    device::stream s;
    compress(dev, d, 2e-3, 512, field, anchors, s);
    s.sync();
    benchmark::DoNotOptimize(field.codes.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(d.len() * 4));
}

void run_interp_decompress(benchmark::State& state, dims3 d,
                           interp_decompress_fn decompress) {
  const auto dev = interp_input(d);
  predictors::quant_field field;
  predictors::interp_anchors anchors;
  device::buffer<f32> out(d.len(), device::space::device);
  {
    device::stream s;
    predictors::interp_compress_async(dev, d, 2e-3, 512, field, anchors, s);
    s.sync();
  }
  for (auto _ : state) {
    device::stream s;
    decompress(field, anchors, out, s);
    s.sync();
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(d.len() * 4));
}

void BM_InterpCompress(benchmark::State& state, dims3 d) {
  run_interp_compress(state, d, &predictors::interp_compress_async<f32>);
}

void BM_InterpCompressReference(benchmark::State& state, dims3 d) {
  run_interp_compress(state, d,
                      &predictors::interp_compress_reference_async<f32>);
}

void BM_InterpDecompress(benchmark::State& state, dims3 d) {
  run_interp_decompress(state, d, &predictors::interp_decompress_async<f32>);
}

void BM_InterpDecompressReference(benchmark::State& state, dims3 d) {
  run_interp_decompress(state, d,
                        &predictors::interp_decompress_reference_async<f32>);
}

#define FZMOD_INTERP_BENCH(fn)                                             \
  BENCHMARK_CAPTURE(fn, 1d_256k, dims3{1u << 18})->UseRealTime();          \
  BENCHMARK_CAPTURE(fn, 3d_450x225x2, dims3{450, 225, 2})->UseRealTime();  \
  BENCHMARK_CAPTURE(fn, 3d_250x250x4, dims3{250, 250, 4})->UseRealTime();  \
  BENCHMARK_CAPTURE(fn, 3d_128x128x16, dims3{128, 128, 16})                \
      ->UseRealTime();                                                     \
  BENCHMARK_CAPTURE(fn, 3d_250x250x50, dims3{250, 250, 50})->UseRealTime();

FZMOD_INTERP_BENCH(BM_InterpCompress)
FZMOD_INTERP_BENCH(BM_InterpCompressReference)
FZMOD_INTERP_BENCH(BM_InterpDecompress)
FZMOD_INTERP_BENCH(BM_InterpDecompressReference)

#undef FZMOD_INTERP_BENCH

void BM_HuffmanEncode(benchmark::State& state) {
  const auto codes = make_codes(1 << 20, 4.0);
  std::vector<u32> hist(1024, 0);
  for (const u16 c : codes) hist[c]++;
  for (auto _ : state) {
    auto blob = encoders::huffman_encode(codes, hist);
    benchmark::DoNotOptimize(blob.data());
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(codes.size() * 2));
}
BENCHMARK(BM_HuffmanEncode)->UseRealTime();

// Bit-at-a-time reference encoder on the same codes as BM_HuffmanEncode.
void BM_HuffmanEncodeReference(benchmark::State& state) {
  const auto codes = make_codes(1 << 20, 4.0);
  std::vector<u32> hist(1024, 0);
  for (const u16 c : codes) hist[c]++;
  for (auto _ : state) {
    auto blob = encoders::huffman_encode_reference(codes, hist);
    benchmark::DoNotOptimize(blob.data());
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(codes.size() * 2));
}
BENCHMARK(BM_HuffmanEncodeReference)->UseRealTime();

void BM_HuffmanDecode(benchmark::State& state) {
  const auto codes = make_codes(1 << 20, 4.0);
  std::vector<u32> hist(1024, 0);
  for (const u16 c : codes) hist[c]++;
  const auto blob = encoders::huffman_encode(codes, hist);
  std::vector<u16> out(codes.size());
  for (auto _ : state) {
    encoders::huffman_decode(blob, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(codes.size() * 2));
}
BENCHMARK(BM_HuffmanDecode)->UseRealTime();

// Canonical-walk reference decoder on the same blob as BM_HuffmanDecode.
void BM_HuffmanDecodeReference(benchmark::State& state) {
  const auto codes = make_codes(1 << 20, 4.0);
  std::vector<u32> hist(1024, 0);
  for (const u16 c : codes) hist[c]++;
  const auto blob = encoders::huffman_encode(codes, hist);
  std::vector<u16> out(codes.size());
  for (auto _ : state) {
    encoders::huffman_decode_reference(blob, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(codes.size() * 2));
}
BENCHMARK(BM_HuffmanDecodeReference)->UseRealTime();

void BM_FixedLengthEncode(benchmark::State& state) {
  const auto codes = make_codes(1 << 20, 4.0);
  for (auto _ : state) {
    auto blob = encoders::fixed_length_encode(codes, 512);
    benchmark::DoNotOptimize(blob.data());
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(codes.size() * 2));
}
BENCHMARK(BM_FixedLengthEncode)->UseRealTime();

void BM_FzgEncode(benchmark::State& state) {
  const auto codes = make_codes(1 << 20, 3.0);
  auto dev = to_device(codes);
  for (auto _ : state) {
    encoders::fzg_result enc;
    device::stream s;
    encoders::fzg_encode_async(dev, 512, enc, s);
    s.sync();
    benchmark::DoNotOptimize(enc.packed_words);
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(codes.size() * 2));
}
BENCHMARK(BM_FzgEncode)->UseRealTime();

void BM_FzgDecode(benchmark::State& state) {
  const auto codes = make_codes(1 << 20, 3.0);
  auto dev = to_device(codes);
  encoders::fzg_result enc;
  {
    device::stream s;
    encoders::fzg_encode_async(dev, 512, enc, s);
    s.sync();
  }
  device::buffer<u16> out(codes.size(), device::space::device);
  for (auto _ : state) {
    device::stream s;
    encoders::fzg_decode_async(enc, out, s);
    s.sync();
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(codes.size() * 2));
}
BENCHMARK(BM_FzgDecode)->UseRealTime();

void BM_LzCompress(benchmark::State& state) {
  const auto codes = make_codes(1 << 19, 2.0);
  std::vector<u8> raw(codes.size() * 2);
  std::memcpy(raw.data(), codes.data(), raw.size());
  for (auto _ : state) {
    auto blob = lossless::compress(raw);
    benchmark::DoNotOptimize(blob.data());
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(raw.size()));
}
BENCHMARK(BM_LzCompress)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
