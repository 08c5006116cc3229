// FZModules — fundamental types shared by every module.
//
// Everything in the framework is expressed over a small vocabulary:
// fixed-width integer aliases, a 3-D extent descriptor (`dims3`), and the
// error-bound configuration (`eb_config`) that the paper's pipelines thread
// through preprocessing, prediction and quantization.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>

#include "fzmod/common/error.hh"

namespace fzmod {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i8 = std::int8_t;
using i16 = std::int16_t;
using i32 = std::int32_t;
using i64 = std::int64_t;
using f32 = float;
using f64 = double;

/// Extent of a field, up to 3 dimensions. A 1-D field is {n, 1, 1}; a 2-D
/// field {nx, ny, 1}. `x` is the fastest-varying (contiguous) dimension,
/// matching SDRBench's raw layout.
struct dims3 {
  std::size_t x = 1;
  std::size_t y = 1;
  std::size_t z = 1;

  constexpr dims3() = default;
  constexpr dims3(std::size_t x_, std::size_t y_ = 1, std::size_t z_ = 1)
      : x(x_), y(y_), z(z_) {}

  [[nodiscard]] constexpr std::size_t len() const { return x * y * z; }

  /// Number of dimensions with extent > 1 (used to pick the 1/2/3-D
  /// specialization of a predictor).
  [[nodiscard]] constexpr int rank() const {
    if (z > 1) return 3;
    if (y > 1) return 2;
    return 1;
  }

  /// Whether x*y*z overflows or exceeds the decoder resource cap
  /// (`max_field_elements`). Every decoder calls this before sizing
  /// buffers from an untrusted header.
  [[nodiscard]] bool len_invalid() const;

  /// Linearized index of (ix, iy, iz).
  [[nodiscard]] constexpr std::size_t at(std::size_t ix, std::size_t iy,
                                         std::size_t iz) const {
    return ix + x * (iy + y * iz);
  }

  constexpr bool operator==(const dims3&) const = default;
};

/// How the user-supplied error bound is interpreted.
///
/// - `abs`: the bound is an absolute tolerance: |x - x̂| <= eb.
/// - `rel`: value-range relative ("value-range-based relative error bound"
///   in the paper): |x - x̂| <= eb * (max - min). Resolving a relative
///   bound requires a range scan over the input, which is why the paper's
///   preprocessing stage exists.
enum class eb_mode { abs, rel };

/// Error-bound configuration carried by every pipeline/compressor.
struct eb_config {
  double eb = 1e-4;
  eb_mode mode = eb_mode::rel;

  /// Resolve to an absolute bound given the data range (max - min). A zero
  /// range (constant field) degrades to the raw eb so quantization stays
  /// well defined, as does a negative one (no ordered value: all NaN).
  /// An infinity in the input makes the range +Inf, or NaN when every
  /// ordered value is the same infinity, and max - min of finite f64
  /// values near ±DBL_MAX overflows to +Inf; no finite bound is a fraction
  /// of that, so relative mode rejects it (DESIGN.md §6).
  [[nodiscard]] double resolve(double range) const {
    if (mode == eb_mode::abs) return eb;
    // False for +Inf and for NaN.
    FZMOD_REQUIRE(range < std::numeric_limits<double>::infinity(),
                  status::invalid_argument,
                  "relative error bound over a non-finite value range (an "
                  "infinity in the input, or a range that overflows "
                  "double); use an absolute bound");
    return range > 0 ? eb * range : eb;
  }
};

/// Element type of a field. The paper's evaluation is f32-only (SDRBench
/// fields are single precision); f64 is supported by the core pipeline via
/// templates and exercised in tests.
enum class dtype : u8 { f32 = 0, f64 = 1 };

[[nodiscard]] inline std::size_t dtype_size(dtype t) {
  return t == dtype::f32 ? 4 : 8;
}

[[nodiscard]] inline const char* to_string(dtype t) {
  return t == dtype::f32 ? "f32" : "f64";
}

[[nodiscard]] inline const char* to_string(eb_mode m) {
  return m == eb_mode::abs ? "abs" : "rel";
}

/// Decoder resource caps: archives are untrusted, and a corrupted header
/// must not be able to request an unbounded allocation. The caps are far
/// above any real field (the paper's largest is HACC at 2.8e8 elements).
inline constexpr u64 max_field_elements = u64{1} << 33;  // 8G values
inline constexpr u64 max_decode_bytes = u64{1} << 34;    // 16 GiB

inline bool dims3::len_invalid() const {
  if (x == 0 || y == 0 || z == 0) return true;
  const auto p = static_cast<unsigned __int128>(x) * y * z;
  return p > max_field_elements;
}

}  // namespace fzmod
