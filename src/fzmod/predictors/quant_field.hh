// FZModules — the intermediate representation every predictor produces and
// every primary lossless codec consumes.
//
// A predictor turns a floating-point field into:
//   - a dense stream of bounded quantization codes (u16, centred on
//     `radius`, with 0 reserved as the outlier sentinel),
//   - a compact list of integer outliers (points whose prediction delta
//     did not fit the code range),
//   - a (practically empty) list of value outliers: points whose magnitude
//     is too large to pre-quantize at all; their raw value is kept exactly
//     so the error bound holds unconditionally.
//
// This is the seam of the framework: any predictor module and any codec
// module that agree on this struct compose into a pipeline.
#pragma once

#include <utility>
#include <vector>

#include "fzmod/common/types.hh"
#include "fzmod/device/runtime.hh"
#include "fzmod/kernels/compact.hh"

namespace fzmod::predictors {

/// Default quantizer radius: codes live in [0, 2*radius), bin 0 is the
/// outlier sentinel. 512 matches cuSZ's default (1024-entry codebooks).
inline constexpr int default_radius = 512;

/// Pre-quantized values are clamped to |q| < value_outlier_limit so that
/// every downstream integer (prediction deltas, partial prefix sums) fits
/// comfortably in i32. Values beyond it are stored raw.
inline constexpr i64 value_outlier_limit = i64{1} << 27;

struct quant_field {
  device::buffer<u16> codes;                 // length dims.len(), device
  device::buffer<kernels::outlier> outliers; // device, first n_outliers used
  u64 n_outliers = 0;
  std::vector<std::pair<u64, f64>> value_outliers;  // host, exact raw values
  dims3 dims;
  int radius = default_radius;
  f64 ebx2 = 0;  // 2 * absolute error bound used at quantization

  // Predictor-internal scratch (the pre-quantized integer lattice). Lives
  // here so a pipeline that reuses its quant_field across calls reaches
  // zero steady-state allocations; callers never read it. Like `codes`,
  // it is only valid once the stream that filled it has been synced, and
  // the field must outlive that sync. Mutable because decompression takes
  // the field const and reuses it too.
  mutable device::buffer<i32> lattice_scratch;
};

}  // namespace fzmod::predictors
