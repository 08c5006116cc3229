// FZModules — multidimensional Lorenzo predictor with dual quantization
// (the cuSZ compression kernel; Tian et al., PACT'20).
//
// Dual quantization first snaps every value to the integer lattice
// q = round(x / 2eb), then takes the exact integer Lorenzo finite
// difference of q. Because the difference operates on already-quantized
// integers, compression is embarrassingly parallel (no dependence on
// reconstructed neighbours) and decompression is a chain of inclusive
// prefix sums — one per dimension — which is exactly the operator inverse.
//
// Error bound: |x - q*2eb| <= eb holds per element by construction;
// everything after the pre-quantization is lossless in integer arithmetic.
#pragma once

#include "fzmod/device/runtime.hh"
#include "fzmod/predictors/quant_field.hh"

namespace fzmod::predictors {

/// Compress `data` (device) into a quant_field. `ebx2` is 2x the resolved
/// absolute error bound. Asynchronous: complete after `s.sync()`.
/// The difference pass walks rows, split into segments of at most
/// `default_block()` elements so long rows (1-D fields) still spread
/// over every worker.
template <class T>
void lorenzo_compress_async(const device::buffer<T>& data, dims3 dims,
                            f64 ebx2, int radius, quant_field& out,
                            device::stream& s);

/// Reference body for `lorenzo_compress_async`: per-element grid-stride
/// loops with a guarded stencil. Produces identical codes and the same
/// outlier sets; tests and benches compare the production kernel against
/// it, no pipeline path runs it.
template <class T>
void lorenzo_compress_reference_async(const device::buffer<T>& data,
                                      dims3 dims, f64 ebx2, int radius,
                                      quant_field& out, device::stream& s);

/// Reconstruct into `data` (device, presized to field.dims.len()). Works
/// in `field.lattice_scratch`, so `field` must outlive the stream's sync.
template <class T>
void lorenzo_decompress_async(const quant_field& field,
                              device::buffer<T>& data, device::stream& s);

}  // namespace fzmod::predictors
