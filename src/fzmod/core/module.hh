// FZModules — stage-module interfaces (the framework's extension points).
//
// The paper decomposes a compressor into four stages. Each stage is a
// small virtual interface; implementations wrap the algorithm kernels in
// src/predictors, src/encoders, src/kernels. A custom module is: derive,
// implement, register under a name (see examples/custom_module.cc), then
// reference the name from a pipeline_config. Archives record module names,
// so decompression re-resolves through the registry.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "fzmod/core/config.hh"
#include "fzmod/device/runtime.hh"
#include "fzmod/predictors/interp.hh"
#include "fzmod/predictors/quant_field.hh"

namespace fzmod::core {

/// Stage 1 — preprocessing. Two responsibilities:
///  - resolve the user's error bound to an absolute quantizer step (the
///    paper's main use: value-range relative bounds need the field range);
///  - optionally transform values before prediction (and invert after
///    reconstruction). The built-in "log" module uses this to deliver
///    pointwise-relative error bounds: an absolute bound in log space is
///    a relative bound in linear space.
///
/// A transforming preprocessor's bound applies in the *transformed*
/// domain; decompression re-resolves the module by name from the archive
/// and applies the inverse after the predictor reconstructs.
template <class T>
class preprocessor_module {
 public:
  virtual ~preprocessor_module() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Resolve the user bound to an absolute ebx2 (= 2 * abs bound), with
  /// respect to the (transformed, if transforms()) data. May launch
  /// device work; must sync `s` before returning the value.
  [[nodiscard]] virtual f64 resolve_ebx2(const device::buffer<T>& data,
                                         const eb_config& eb,
                                         device::stream& s) = 0;

  /// Whether forward()/inverse() apply a value transform.
  [[nodiscard]] virtual bool transforms() const { return false; }

  /// Transform values into `out` (presized, device) before prediction.
  virtual void forward(const device::buffer<T>& in, device::buffer<T>& out,
                       device::stream& s) {
    (void)in;
    (void)out;
    (void)s;
    throw error(status::unsupported,
                "preprocessor does not implement forward()");
  }

  /// Invert the transform in place after reconstruction.
  virtual void inverse(device::buffer<T>& data, device::stream& s) {
    (void)data;
    (void)s;
    throw error(status::unsupported,
                "preprocessor does not implement inverse()");
  }
};

/// Stage 2 — prediction + quantization. Produces the quant_field IR (and
/// an anchor payload, which non-hierarchical predictors leave empty).
template <class T>
class predictor_module {
 public:
  virtual ~predictor_module() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;

  virtual void compress(const device::buffer<T>& data, dims3 dims, f64 ebx2,
                        int radius, predictors::quant_field& out,
                        predictors::interp_anchors& anchors,
                        device::stream& s) = 0;

  virtual void decompress(const predictors::quant_field& field,
                          const predictors::interp_anchors& anchors,
                          device::buffer<T>& out, device::stream& s) = 0;
};

/// Stage 3 — primary lossless codec over the quantization-code stream.
/// encode() returns a self-contained host blob (archives are host bytes);
/// where the work runs — and therefore what crosses the PCIe boundary —
/// is the module's defining characteristic (Huffman moves raw codes D2H
/// and encodes on the CPU; FZG encodes on the device and moves only the
/// compressed payload).
class codec_module {
 public:
  virtual ~codec_module() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;

  [[nodiscard]] virtual std::vector<u8> encode(
      const device::buffer<u16>& codes, int radius,
      const pipeline_config& cfg, device::stream& s) = 0;

  /// Decode a blob into a presized device code buffer.
  virtual void decode(std::span<const u8> blob, int radius,
                      device::buffer<u16>& codes, device::stream& s) = 0;
};

}  // namespace fzmod::core
