#include "fzmod/predictors/interp.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace fzmod::predictors {
namespace {

/// Count of lattice points {0, m, 2m, ...} inside [0, ext).
[[nodiscard]] std::size_t lattice_count(std::size_t ext, std::size_t m) {
  return (ext - 1) / m + 1;
}

/// Count of odd multiples of h ({h, 3h, 5h, ...}) inside [0, ext).
[[nodiscard]] std::size_t odd_count(std::size_t ext, std::size_t h) {
  return ext > h ? (ext - h - 1) / (2 * h) + 1 : 0;
}

/// Finest level of the traversal: half-spacing 2^(top_level - 1) refines
/// the anchor lattice.
[[nodiscard]] int top_level() {
  int l = 0;
  while ((std::size_t{1} << (l + 1)) <= interp_anchor_stride) ++l;
  return l;
}

/// Cubic (fallback linear / nearest) interpolation along one axis of the
/// evolving reconstruction. `c` is the target coordinate, `h` the current
/// half-spacing, `stride` the element stride of the axis, `ext` its extent.
/// Neighbours at c±h and c±3h are even multiples of h, hence already
/// reconstructed; c-h >= 0 always holds because targets start at h.
[[nodiscard]] f64 interp_1d(const f64* rec, std::size_t base_idx,
                            std::size_t c, std::size_t h, std::size_t stride,
                            std::size_t ext) {
  const f64 a = rec[base_idx - h * stride];
  if (c + h >= ext) return a;
  const f64 b = rec[base_idx + h * stride];
  if (c >= 3 * h && c + 3 * h < ext) {
    const f64 a2 = rec[base_idx - 3 * h * stride];
    const f64 b2 = rec[base_idx + 3 * h * stride];
    return (-a2 + 9.0 * a + 9.0 * b - b2) * (1.0 / 16.0);
  }
  return 0.5 * (a + b);
}

// ---------------------------------------------------------------------------
// Production traversal: row tiles.

/// The three branches of `interp_1d`, as a compile-time choice.
enum class stencil : u8 { nearest, linear, cubic };

[[nodiscard]] stencil stencil_at(std::size_t c, std::size_t h,
                                 std::size_t ext) {
  if (c + h >= ext) return stencil::nearest;
  if (c >= 3 * h && c + 3 * h < ext) return stencil::cubic;
  return stencil::linear;
}

/// `interp_1d` with its branch resolved: `off` is h times the element
/// stride of the refined axis. The f64 expressions are the same, so both
/// traversals predict bit-identical values.
template <stencil S>
[[nodiscard, gnu::always_inline]] inline f64 predict(const f64* rec,
                                                     std::size_t idx,
                                                     std::size_t off) {
  const f64 a = rec[idx - off];
  if constexpr (S == stencil::nearest) {
    return a;
  } else {
    const f64 b = rec[idx + off];
    if constexpr (S == stencil::linear) {
      return 0.5 * (a + b);
    } else {
      const f64 a2 = rec[idx - 3 * off];
      const f64 b2 = rec[idx + 3 * off];
      return (-a2 + 9.0 * a + 9.0 * b - b2) * (1.0 / 16.0);
    }
  }
}

/// Visit `len` targets idx, idx + step, ... with one stencil.
template <stencil S, class Visit>
void sweep(const f64* rec, std::size_t idx, std::size_t step,
           std::size_t len, std::size_t off, Visit& visit) {
  for (std::size_t j = 0; j < len; ++j, idx += step) {
    visit(idx, predict<S>(rec, idx, off));
  }
}

template <class Visit>
void sweep(stencil s, const f64* rec, std::size_t idx, std::size_t step,
           std::size_t len, std::size_t off, Visit& visit) {
  switch (s) {
    case stencil::nearest:
      sweep<stencil::nearest>(rec, idx, step, len, off, visit);
      break;
    case stencil::linear:
      sweep<stencil::linear>(rec, idx, step, len, off, visit);
      break;
    case stencil::cubic:
      sweep<stencil::cubic>(rec, idx, step, len, off, visit);
      break;
  }
}

/// Targets per row segment, and per launched range. A 1-D field is one
/// row per sub-step, so segments are what spread it over the pool.
constexpr std::size_t segment_targets = 1u << 12;
constexpr std::size_t range_targets = 1u << 12;

/// Walk every (level, dimension) sub-step coarse-to-fine, visiting each
/// target point exactly once with its prediction. Compression and
/// decompression run this identical traversal, so a prediction mismatch
/// between the two sides is structurally impossible.
///
/// Each sub-step is one launch over tiles: a tile is a segment of a row of
/// targets along x at fixed (y, z) lattice coordinates. The stencil is
/// fixed per row when the refined axis is y or z; when it is x, only the
/// row ends leave the cubic stencil, so they are peeled. A target reads
/// only points of earlier sub-steps, so the order within one is free.
///
/// `make_visitor()` runs once per launched range, on the worker that runs
/// it. The visitor is called as `visit(idx, pred)` for each target of the
/// range and must write rec[idx] for every target whose value later
/// sub-steps need; `visit.flush()` then publishes whatever the range
/// gathered on the side.
template <class MakeVisitor>
void traverse(dims3 d, const f64* rec, MakeVisitor&& make_visitor) {
  if (d.len() == 0) return;
  auto& rt = device::runtime::instance();
  const std::size_t ext[3] = {d.x, d.y, d.z};
  const std::size_t stride[3] = {1, d.x, d.x * d.y};
  const int rank = d.rank();

  for (int l = top_level(); l >= 1; --l) {
    const std::size_t s = std::size_t{1} << l;
    const std::size_t h = s >> 1;
    // Sub-step order: slowest dimension first (z, y, x), matching cuSZ-i.
    for (int di = rank - 1; di >= 0; --di) {
      // Per axis: the refined one takes odd multiples of h (step 2h = s);
      // axes refined earlier this level sit on the h lattice, axes still
      // pending on the s lattice. x is refined last, so its step is s.
      std::size_t count[3] = {}, step[3] = {}, origin[3] = {};
      for (int dj = 0; dj < 3; ++dj) {
        step[dj] = dj > di ? h : s;
        origin[dj] = dj == di ? h : 0;
        count[dj] = dj == di ? odd_count(ext[dj], h)
                             : lattice_count(ext[dj], step[dj]);
      }
      const std::size_t nx = count[0], ny = count[1];
      const std::size_t rows = ny * count[2];
      if (nx == 0 || rows == 0) continue;
      const std::size_t off = h * stride[di];

      // Along x the cubic stencil holds for targets j in [1, x_cubic_end):
      // x = h + 2hj needs x >= 3h and x + 3h < ext.
      const std::size_t xq = (ext[0] - 1) / (2 * h);
      const std::size_t x_cubic_end = xq >= 2 ? xq - 1 : 1;

      const std::size_t seg = std::min(nx, segment_targets);
      const std::size_t nseg = (nx + seg - 1) / seg;
      rt.stats().kernels_launched += 1;
      rt.pool().parallel_for(
          rows * nseg, std::max<std::size_t>(1, range_targets / seg),
          [&](std::size_t lo, std::size_t hi) {
            auto visit = make_visitor();
            // Tile -> (segment, row) once per range, then step.
            std::size_t k = lo % nseg;
            std::size_t r = lo / nseg;
            std::size_t ty = r % ny;
            std::size_t tz = r / ny;
            for (std::size_t t = lo; t < hi; ++t) {
              const std::size_t y = origin[1] + ty * step[1];
              const std::size_t z = origin[2] + tz * step[2];
              const std::size_t j0 = k * seg;
              const std::size_t j1 = std::min(nx, j0 + seg);
              const std::size_t row = origin[0] + y * stride[1] + z * stride[2];
              if (di == 0) {
                const std::size_t c0 = std::clamp<std::size_t>(1, j0, j1);
                const std::size_t c1 =
                    std::clamp<std::size_t>(x_cubic_end, c0, j1);
                for (std::size_t j = j0; j < c0; ++j) {
                  const std::size_t idx = row + j * s;
                  visit(idx, interp_1d(rec, idx, h + j * s, h, 1, ext[0]));
                }
                sweep<stencil::cubic>(rec, row + c0 * s, s, c1 - c0, off,
                                      visit);
                for (std::size_t j = c1; j < j1; ++j) {
                  const std::size_t idx = row + j * s;
                  visit(idx, interp_1d(rec, idx, h + j * s, h, 1, ext[0]));
                }
              } else {
                const std::size_t c = di == 1 ? y : z;
                sweep(stencil_at(c, h, ext[di]), rec, row + j0 * s, s,
                      j1 - j0, off, visit);
              }
              if (++k == nseg) {
                k = 0;
                if (++ty == ny) {
                  ty = 0;
                  ++tz;
                }
              }
            }
            visit.flush();
          });
    }
  }
}

/// Enumerate anchor-lattice points (all coords multiples of the stride) in
/// row-major anchor order; returns linear field indices.
template <class Fn>
void for_each_anchor(dims3 d, std::size_t stride, Fn&& fn) {
  for (std::size_t z = 0; z < d.z; z += stride) {
    for (std::size_t y = 0; y < d.y; y += stride) {
      for (std::size_t x = 0; x < d.x; x += stride) {
        fn(d.at(x, y, z));
      }
    }
  }
}

/// Both outlier channels of one compression, filled by concurrent ranges.
struct side_channels {
  std::mutex mu;
  std::vector<kernels::outlier> outliers;
  std::vector<std::pair<u64, f64>>* value_outliers = nullptr;
};

/// Compression visitor: quantize the prediction error and reconstruct
/// immediately, so finer levels predict from bounded values. Outliers
/// gather per range and reach the shared lists in one locked append.
///
/// The visitors and `predict` run once per target from five sweep loops;
/// at -O2 GCC leaves them out of line, a call per target that cost about
/// a third of single-core compress time. Hence always_inline on the hot
/// path and noinline on the rare outlier paths.
template <class T>
struct quantize_visitor {
  const T* in;
  u16* codes;
  f64* rec;
  f64 ebx2;
  f64 r_ebx2;
  int radius;
  side_channels* side;
  std::vector<kernels::outlier> outliers{};
  std::vector<std::pair<u64, f64>> value_outliers{};

  [[gnu::always_inline]] void operator()(std::size_t idx, f64 pred) {
    const f64 x = static_cast<f64>(in[idx]);
    const f64 scaled = x * r_ebx2;
    if (!(std::fabs(scaled) < static_cast<f64>(value_outlier_limit))) {
      value_outlier(idx, x);
      return;
    }
    // Select on the rounded double: a difference beyond 2^51 (pred may
    // interpolate raw value outliers) or a NaN fails the range test and
    // takes outlier(), as the reference's llrint result INT64_MIN does.
    const f64 c = round_half_even((x - pred) * r_ebx2);
    if (c > -radius && c < radius) {
      codes[idx] = static_cast<u16>(static_cast<i32>(c) + radius);
      rec[idx] = pred + c * ebx2;
    } else {
      outlier(idx, scaled);
    }
  }

  // Magnitude beyond the safe lattice: keep raw (exact), sentinel 0.
  [[gnu::noinline]] void value_outlier(std::size_t idx, f64 x) {
    value_outliers.emplace_back(idx, x);
    codes[idx] = 0;
    rec[idx] = x;
  }

  // Prediction failed: fall back to lattice-exact storage.
  [[gnu::noinline]] void outlier(std::size_t idx, f64 scaled) {
    const i64 q = static_cast<i64>(round_half_even(scaled));
    codes[idx] = 0;
    rec[idx] = static_cast<f64>(q) * ebx2;
    outliers.push_back({static_cast<u64>(idx), q});
  }

  void flush() {
    if (outliers.empty() && value_outliers.empty()) return;
    std::lock_guard lk(side->mu);
    side->outliers.insert(side->outliers.end(), outliers.begin(),
                          outliers.end());
    side->value_outliers->insert(side->value_outliers->end(),
                                 value_outliers.begin(),
                                 value_outliers.end());
  }
};

/// Decompression visitor: only points with a non-zero code are predicted;
/// sentinel points already hold their outlier value (or 0).
struct reconstruct_visitor {
  const u16* codes;
  f64* rec;
  f64 ebx2;
  int radius;

  [[gnu::always_inline]] void operator()(std::size_t idx, f64 pred) const {
    const u16 c = codes[idx];
    if (c != 0) {
      rec[idx] =
          pred + static_cast<f64>(static_cast<i32>(c) - radius) * ebx2;
    }
  }

  void flush() const {}
};

/// One pool launch over [0, n) in default-block ranges.
template <class F>
void pool_for(std::size_t n, F&& body) {
  auto& rt = device::runtime::instance();
  rt.stats().kernels_launched += 1;
  rt.pool().parallel_for(n, rt.default_block(), std::forward<F>(body));
}

// ---------------------------------------------------------------------------
// Reference traversal: one flat launch per sub-step, three index divisions
// and a checked stencil per target.

/// Same contract as `traverse`, but `visit(idx, pred)` is one callable
/// shared by every worker, which synchronizes its side channels itself.
template <class Visit>
void traverse_reference(dims3 d, const f64* rec, Visit&& visit) {
  auto& rt = device::runtime::instance();
  const std::size_t ext[3] = {d.x, d.y, d.z};
  const std::size_t stride[3] = {1, d.x, d.x * d.y};
  const int rank = d.rank();

  for (int l = top_level(); l >= 1; --l) {
    const std::size_t s = std::size_t{1} << l;
    const std::size_t h = s >> 1;
    for (int di = rank - 1; di >= 0; --di) {
      std::size_t count[3] = {1, 1, 1};
      std::size_t spacing[3] = {0, 0, 0};
      for (int dj = 0; dj < 3; ++dj) {
        if (dj == di) {
          spacing[dj] = 2 * h;  // offset h applied below
          count[dj] = odd_count(ext[dj], h);
        } else if (dj > di) {
          spacing[dj] = h;
          count[dj] = lattice_count(ext[dj], h);
        } else {
          spacing[dj] = s;
          count[dj] = lattice_count(ext[dj], s);
        }
      }
      const std::size_t total = count[0] * count[1] * count[2];
      if (total == 0) continue;
      rt.stats().kernels_launched += 1;
      rt.pool().parallel_for(
          total, 1u << 12, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t t = lo; t < hi; ++t) {
              const std::size_t t0 = t % count[0];
              const std::size_t t1 = (t / count[0]) % count[1];
              const std::size_t t2 = t / (count[0] * count[1]);
              std::size_t coord[3] = {t0 * spacing[0], t1 * spacing[1],
                                      t2 * spacing[2]};
              coord[di] += h;
              const std::size_t idx = coord[0] * stride[0] +
                                      coord[1] * stride[1] +
                                      coord[2] * stride[2];
              const f64 pred = interp_1d(rec, idx, coord[di], h,
                                         stride[di], ext[di]);
              visit(idx, pred);
            }
          });
    }
  }
}

template <class T>
void prepare(const device::buffer<T>& data, dims3 dims, f64 ebx2, int radius,
             quant_field& out, interp_anchors& anchors) {
  data.assert_space(device::space::device);
  FZMOD_REQUIRE(data.size() == dims.len(), status::invalid_argument,
                "interp: data size does not match dims");
  FZMOD_REQUIRE(ebx2 > 0, status::invalid_argument,
                "interp: error bound must be positive");
  out.dims = dims;
  out.radius = radius;
  out.ebx2 = ebx2;
  out.codes.ensure(dims.len(), device::space::device);
  out.value_outliers.clear();
  anchors.stride = interp_anchor_stride;
  anchors.lattice.clear();
}

/// Move the gathered integer outliers into the field's device list.
void publish_outliers(const std::vector<kernels::outlier>& outliers,
                      quant_field& out) {
  out.n_outliers = outliers.size();
  out.outliers.ensure(outliers.size(), device::space::device);
  std::copy(outliers.begin(), outliers.end(), out.outliers.data());
  device::runtime::instance().stats().h2d_bytes +=
      outliers.size() * sizeof(kernels::outlier);
}

}  // namespace

template <class T>
void interp_compress_async(const device::buffer<T>& data, dims3 dims,
                           f64 ebx2, int radius, quant_field& out,
                           interp_anchors& anchors, device::stream& s) {
  prepare(data, dims, ebx2, radius, out, anchors);
  const T* in = data.data();
  u16* codes = out.codes.data();

  device::host_task(s, [in, codes, dims, ebx2, radius, &out, &anchors] {
    const f64 r_ebx2 = 1.0 / ebx2;
    // Every point is written before it is read (anchors first, then each
    // target in its sub-step), so the lattice needs no zero fill. It is a
    // caching-pool block: steady-state calls reuse it.
    device::buffer<f64> lattice(dims.len(), device::space::device);
    f64* rec = lattice.data();

    // Anchors: snap to the quantization lattice (error <= eb) and record.
    // They carry the sentinel code; the traversal writes every other code.
    for_each_anchor(dims, anchors.stride, [&](std::size_t idx) {
      const f64 x = static_cast<f64>(in[idx]);
      const f64 scaled = x * r_ebx2;
      codes[idx] = 0;
      if (!(std::fabs(scaled) < static_cast<f64>(value_outlier_limit))) {
        out.value_outliers.emplace_back(idx, x);
        rec[idx] = x;
        anchors.lattice.push_back(0);
      } else {
        const i64 q = static_cast<i64>(round_half_even(scaled));
        rec[idx] = static_cast<f64>(q) * ebx2;
        anchors.lattice.push_back(static_cast<i32>(q));
      }
    });

    side_channels side;
    side.value_outliers = &out.value_outliers;
    traverse(dims, rec, [&] {
      return quantize_visitor<T>{in, codes, rec, ebx2, r_ebx2, radius, &side};
    });
    publish_outliers(side.outliers, out);
  });
}

template <class T>
void interp_compress_reference_async(const device::buffer<T>& data,
                                     dims3 dims, f64 ebx2, int radius,
                                     quant_field& out,
                                     interp_anchors& anchors,
                                     device::stream& s) {
  prepare(data, dims, ebx2, radius, out, anchors);
  const std::size_t n = dims.len();
  const T* in = data.data();
  u16* codes = out.codes.data();

  device::host_task(s, [in, codes, dims, ebx2, radius, n, &out, &anchors] {
    const f64 r_ebx2 = 1.0 / ebx2;
    std::vector<f64> rec(n, 0.0);
    std::memset(codes, 0, n * sizeof(u16));

    for_each_anchor(dims, anchors.stride, [&](std::size_t idx) {
      const f64 x = static_cast<f64>(in[idx]);
      const f64 scaled = x * r_ebx2;
      if (!(std::fabs(scaled) < static_cast<f64>(value_outlier_limit))) {
        out.value_outliers.emplace_back(idx, x);
        rec[idx] = x;
        anchors.lattice.push_back(0);
      } else {
        const i64 q = std::llrint(scaled);
        rec[idx] = static_cast<f64>(q) * ebx2;
        anchors.lattice.push_back(static_cast<i32>(q));
      }
    });

    std::mutex side_mu;
    std::vector<kernels::outlier> outliers;
    traverse_reference(dims, rec.data(), [&](std::size_t idx, f64 pred) {
      const f64 x = static_cast<f64>(in[idx]);
      const f64 scaled = x * r_ebx2;
      if (!(std::fabs(scaled) < static_cast<f64>(value_outlier_limit))) {
        std::lock_guard lk(side_mu);
        out.value_outliers.emplace_back(idx, x);
        rec[idx] = x;
        return;
      }
      const i64 c = std::llrint((x - pred) * r_ebx2);
      if (c > -radius && c < radius) {
        codes[idx] = static_cast<u16>(c + radius);
        rec[idx] = pred + static_cast<f64>(c) * ebx2;
      } else {
        const i64 q = std::llrint(scaled);
        rec[idx] = static_cast<f64>(q) * ebx2;
        std::lock_guard lk(side_mu);
        outliers.push_back({static_cast<u64>(idx), q});
      }
    });
    publish_outliers(outliers, out);
  });
}

template <class T>
void interp_decompress_async(const quant_field& field,
                             const interp_anchors& anchors,
                             device::buffer<T>& data, device::stream& s) {
  data.assert_space(device::space::device);
  const std::size_t n = field.dims.len();
  FZMOD_REQUIRE(data.size() == n, status::invalid_argument,
                "interp: output size does not match dims");
  FZMOD_REQUIRE(field.ebx2 > 0, status::corrupt_archive,
                "interp: archive has non-positive error bound");
  // The traversal refines exactly the interp_anchor_stride lattice; any
  // other stride would leave points of it unreconstructed.
  FZMOD_REQUIRE(anchors.stride == interp_anchor_stride,
                status::corrupt_archive,
                "interp: anchor stride " + std::to_string(anchors.stride) +
                    " (expected " + std::to_string(interp_anchor_stride) +
                    ")");

  T* outp = data.data();
  device::host_task(s, [outp, &field, &anchors, n] {
    const f64 ebx2 = field.ebx2;
    const dims3 dims = field.dims;
    device::buffer<f64> lattice(n, device::space::device);
    f64* rec = lattice.data();
    pool_for(n, [rec](std::size_t lo, std::size_t hi) {
      std::fill(rec + lo, rec + hi, 0.0);
    });

    // Scatter the side channels before the traversal, which then writes
    // only points with a non-zero code. Precedence, lowest first:
    // 0 < integer outlier < value outlier < non-zero code; at anchors the
    // lattice value replaces an integer outlier and a value outlier
    // replaces the lattice value. Among duplicates the last integer
    // outlier and the first value outlier win.
    for (u64 k = 0; k < field.n_outliers; ++k) {
      const auto& o = field.outliers.data()[k];
      FZMOD_REQUIRE(o.index < n, status::corrupt_archive,
                    "interp: outlier index out of range");
      rec[o.index] = static_cast<f64>(static_cast<i32>(o.value)) * ebx2;
    }
    std::size_t a = 0;
    for_each_anchor(dims, anchors.stride, [&](std::size_t idx) {
      FZMOD_REQUIRE(a < anchors.lattice.size(), status::corrupt_archive,
                    "interp: anchor payload truncated");
      rec[idx] = static_cast<f64>(anchors.lattice[a]) * ebx2;
      ++a;
    });
    const auto& vo = field.value_outliers;
    for (auto it = vo.rbegin(); it != vo.rend(); ++it) {
      FZMOD_REQUIRE(it->first < n, status::corrupt_archive,
                    "interp: value outlier index out of range");
      rec[it->first] = it->second;
    }

    traverse(dims, rec, [&] {
      return reconstruct_visitor{field.codes.data(), rec, ebx2, field.radius};
    });

    pool_for(n, [rec, outp](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) outp[i] = static_cast<T>(rec[i]);
    });
  });
}

template <class T>
void interp_decompress_reference_async(const quant_field& field,
                                       const interp_anchors& anchors,
                                       device::buffer<T>& data,
                                       device::stream& s) {
  data.assert_space(device::space::device);
  const std::size_t n = field.dims.len();
  FZMOD_REQUIRE(data.size() == n, status::invalid_argument,
                "interp: output size does not match dims");
  FZMOD_REQUIRE(field.ebx2 > 0, status::corrupt_archive,
                "interp: archive has non-positive error bound");

  T* outp = data.data();
  device::host_task(s, [outp, &field, &anchors, n] {
    const f64 ebx2 = field.ebx2;
    const dims3 dims = field.dims;
    const u16* codes = field.codes.data();
    std::vector<f64> rec(n, 0.0);

    std::vector<i32> fallback(n, 0);
    for (u64 k = 0; k < field.n_outliers; ++k) {
      const auto& o = field.outliers.data()[k];
      FZMOD_REQUIRE(o.index < n, status::corrupt_archive,
                    "interp: outlier index out of range");
      fallback[o.index] = static_cast<i32>(o.value);
    }
    std::unordered_map<u64, f64> raw;
    raw.reserve(field.value_outliers.size());
    for (const auto& [idx, val] : field.value_outliers) {
      FZMOD_REQUIRE(idx < n, status::corrupt_archive,
                    "interp: value outlier index out of range");
      raw.emplace(idx, val);
    }

    FZMOD_REQUIRE(anchors.stride >= 1, status::corrupt_archive,
                  "interp: zero anchor stride");
    std::size_t a = 0;
    for_each_anchor(dims, anchors.stride, [&](std::size_t idx) {
      FZMOD_REQUIRE(a < anchors.lattice.size(), status::corrupt_archive,
                    "interp: anchor payload truncated");
      if (auto it = raw.find(idx); it != raw.end()) {
        rec[idx] = it->second;
      } else {
        rec[idx] = static_cast<f64>(anchors.lattice[a]) * ebx2;
      }
      ++a;
    });

    const int radius = field.radius;
    traverse_reference(dims, rec.data(), [&](std::size_t idx, f64 pred) {
      const u16 c = codes[idx];
      if (c != 0) {
        rec[idx] = pred + static_cast<f64>(static_cast<i32>(c) - radius) *
                              ebx2;
      } else if (auto it = raw.find(idx); it != raw.end()) {
        rec[idx] = it->second;
      } else {
        rec[idx] = static_cast<f64>(fallback[idx]) * ebx2;
      }
    });

    for (std::size_t i = 0; i < n; ++i) outp[i] = static_cast<T>(rec[i]);
  });
}

#define FZMOD_INTERP_INSTANTIATE(T)                                         \
  template void interp_compress_async<T>(const device::buffer<T>&, dims3,  \
                                         f64, int, quant_field&,           \
                                         interp_anchors&, device::stream&); \
  template void interp_compress_reference_async<T>(                        \
      const device::buffer<T>&, dims3, f64, int, quant_field&,             \
      interp_anchors&, device::stream&);                                   \
  template void interp_decompress_async<T>(const quant_field&,             \
                                           const interp_anchors&,          \
                                           device::buffer<T>&,             \
                                           device::stream&);               \
  template void interp_decompress_reference_async<T>(                      \
      const quant_field&, const interp_anchors&, device::buffer<T>&,       \
      device::stream&);

FZMOD_INTERP_INSTANTIATE(f32)
FZMOD_INTERP_INSTANTIATE(f64)

#undef FZMOD_INTERP_INSTANTIATE

}  // namespace fzmod::predictors
