// FZModules — multi-level interpolation predictor (the G-Interp module of
// cuSZ-i; Liu, Tian et al., SC'24 — itself derived from SZ3's dynamic
// spline interpolation).
//
// The field is reconstructed coarse-to-fine: anchor points on a stride-A
// lattice are stored (quantized to the error-bound lattice, so they also
// honour the bound), then each level halves the spacing, predicting the
// new points by cubic (fallback linear) interpolation along one dimension
// at a time from already-reconstructed values. Prediction errors are
// quantized exactly like Lorenzo deltas, so the same codec modules apply.
//
// Within a level+dimension sub-step every target point depends only on
// points of earlier sub-steps (and the anchors), never on another target
// of its own sub-step. That is what makes the GPU parallelization of
// cuSZ-i possible — and what our kernel launches exploit: each sub-step is
// one launch over row tiles, in any order.
//
// Compared to Lorenzo this predictor is slower (multiple passes, gather
// patterns) but markedly more accurate, which is exactly the trade
// FZMod-Quality makes (paper §3.3).
#pragma once

#include "fzmod/device/runtime.hh"
#include "fzmod/predictors/quant_field.hh"

namespace fzmod::predictors {

/// Anchor lattice stride (2^6): one raw-lattice anchor per 64^rank points.
inline constexpr std::size_t interp_anchor_stride = 64;

/// Anchor payload produced by the interpolation predictor, carried next to
/// the quant_field through the codec stage (it is tiny and incompressible).
struct interp_anchors {
  std::vector<i32> lattice;  // host; q = round(x / ebx2) per anchor point
  std::size_t stride = interp_anchor_stride;
};

/// Compress `data` (device) into a quant_field plus anchors. `ebx2` is 2x
/// the resolved absolute error bound. Asynchronous: complete after
/// `s.sync()`; `out` and `anchors` must outlive it. Each sub-step sweeps
/// row tiles, and each launched range gathers its outliers locally.
template <class T>
void interp_compress_async(const device::buffer<T>& data, dims3 dims,
                           f64 ebx2, int radius, quant_field& out,
                           interp_anchors& anchors, device::stream& s);

/// Reference body for `interp_compress_async`: a flat launch per sub-step
/// with a per-target index decomposition and checked stencil, and one
/// shared lock per outlier. Produces identical codes and anchors and the
/// same outlier sets; tests and benches compare the production path
/// against it, no pipeline path runs it.
template <class T>
void interp_compress_reference_async(const device::buffer<T>& data,
                                     dims3 dims, f64 ebx2, int radius,
                                     quant_field& out,
                                     interp_anchors& anchors,
                                     device::stream& s);

/// Reconstruct into `data` (device, presized to field.dims.len()). Throws
/// `corrupt_archive` unless `anchors.stride == interp_anchor_stride`.
/// Reconstruction precedence per point: a non-zero code, else a value
/// outlier, else an integer outlier, else 0; at anchors a value outlier,
/// else the anchor lattice value.
template <class T>
void interp_decompress_async(const quant_field& field,
                             const interp_anchors& anchors,
                             device::buffer<T>& data, device::stream& s);

/// Reference body for `interp_decompress_async` (dense fallback array and
/// a hash lookup per sentinel code); tests and benches only.
template <class T>
void interp_decompress_reference_async(const quant_field& field,
                                       const interp_anchors& anchors,
                                       device::buffer<T>& data,
                                       device::stream& s);

}  // namespace fzmod::predictors
