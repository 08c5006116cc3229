#include "fzmod/predictors/lorenzo.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <mutex>
#include <vector>

#include "fzmod/kernels/scan.hh"

namespace fzmod::predictors {
namespace {

/// Lorenzo prediction of q[idx] from already-prequantized neighbours.
/// Out-of-bounds neighbours contribute 0 (the field is implicitly padded
/// with zeros, as in cuSZ).
inline i64 lorenzo_pred(const i32* q, dims3 d, std::size_t x, std::size_t y,
                        std::size_t z, int rank) {
  const std::size_t i = d.at(x, y, z);
  switch (rank) {
    case 1:
      return x ? q[i - 1] : 0;
    case 2: {
      const i64 w = x ? q[i - 1] : 0;
      const i64 n = y ? q[i - d.x] : 0;
      const i64 nw = (x && y) ? q[i - d.x - 1] : 0;
      return w + n - nw;
    }
    default: {
      const std::size_t sx = 1, sy = d.x, sz = d.x * d.y;
      const i64 vx = x ? q[i - sx] : 0;
      const i64 vy = y ? q[i - sy] : 0;
      const i64 vz = z ? q[i - sz] : 0;
      const i64 vxy = (x && y) ? q[i - sx - sy] : 0;
      const i64 vxz = (x && z) ? q[i - sx - sz] : 0;
      const i64 vyz = (y && z) ? q[i - sy - sz] : 0;
      const i64 vxyz = (x && y && z) ? q[i - sx - sy - sz] : 0;
      return vx + vy + vz - vxy - vxz - vyz + vxyz;
    }
  }
}

/// Elements per staging tile of the production kernel: each tile stages
/// at most this many outliers on the stack, then appends them to the
/// block's local list.
constexpr std::size_t stage_slots = 1024;

/// Validate the launch and size `out` for a field of `dims`.
template <class T>
void prepare(const device::buffer<T>& data, dims3 dims, f64 ebx2, int radius,
             quant_field& out) {
  data.assert_space(device::space::device);
  FZMOD_REQUIRE(data.size() == dims.len(), status::invalid_argument,
                "lorenzo: data size does not match dims");
  FZMOD_REQUIRE(ebx2 > 0, status::invalid_argument,
                "lorenzo: error bound must be positive");
  const std::size_t n = dims.len();
  out.dims = dims;
  out.radius = radius;
  out.ebx2 = ebx2;
  out.codes.ensure(n, device::space::device);
  out.lattice_scratch.ensure(n, device::space::device);
  out.value_outliers.clear();
}

/// Code outliers gathered by concurrent blocks of the difference pass.
struct collect_state {
  std::mutex mu;
  std::vector<kernels::outlier> all;
};

/// Finalize (stream-ordered host op): move collected outliers into the
/// device-resident compact list, reusing the field's outlier buffer when
/// its capacity suffices.
void finalize_outliers(device::stream& s, std::shared_ptr<collect_state> coll,
                       quant_field& out) {
  device::host_task(s, [coll, &out] {
    out.n_outliers = coll->all.size();
    out.outliers.ensure(coll->all.size(), device::space::device);
    std::copy(coll->all.begin(), coll->all.end(), out.outliers.data());
    device::runtime::instance().stats().h2d_bytes +=
        coll->all.size() * sizeof(kernels::outlier);
  });
}

}  // namespace

template <class T>
void lorenzo_compress_async(const device::buffer<T>& data, dims3 dims,
                            f64 ebx2, int radius, quant_field& out,
                            device::stream& s) {
  prepare(data, dims, ebx2, radius, out);
  const std::size_t block = device::runtime::instance().default_block();

  // Pass 1 (kernel): pre-quantize to the integer lattice. Values whose
  // lattice coordinate would overflow the safe range are recorded as raw
  // value outliers and contribute q = 0 to their neighbours' predictions —
  // which stays correct because reconstruction overwrites those points.
  // The hot loop is branch-free: every element stores its index into a
  // staging slot and only out-of-range values advance the cursor, so the
  // common path is multiply/compare/select; the rare exact-value gather
  // runs after each stage-sized tile. The lattice lives in `out` (reused
  // across calls); `out` must outlive the stream, which the finalize
  // capture also requires.
  {
    auto vo_mu = std::make_shared<std::mutex>();
    const T* in = data.data();
    i32* q = out.lattice_scratch.data();
    auto* vo = &out.value_outliers;
    const f64 r_ebx2 = 1.0 / ebx2;
    device::launch_blocks(
        s, dims.len(), block,
        [in, q, vo, vo_mu, r_ebx2](std::size_t, std::size_t lo,
                                   std::size_t hi) {
          std::array<u64, stage_slots> idx;
          std::vector<std::pair<u64, f64>> local;
          for (std::size_t t0 = lo; t0 < hi; t0 += stage_slots) {
            const std::size_t t1 = std::min(hi, t0 + stage_slots);
            std::size_t cnt = 0;
            for (std::size_t i = t0; i < t1; ++i) {
              const f64 scaled = static_cast<f64>(in[i]) * r_ebx2;
              const bool oob = !(std::fabs(scaled) <
                                 static_cast<f64>(value_outlier_limit));
              idx[cnt] = i;
              cnt += oob;
              q[i] = static_cast<i32>(oob ? 0.0 : round_half_even(scaled));
            }
            for (std::size_t j = 0; j < cnt; ++j) {
              local.emplace_back(idx[j], static_cast<f64>(in[idx[j]]));
            }
          }
          if (!local.empty()) {
            std::lock_guard lk(*vo_mu);
            vo->insert(vo->end(), local.begin(), local.end());
          }
        });
  }

  // Pass 2 (kernel): integer Lorenzo difference + code emission, swept
  // row by row. Rows longer than one block split into block-sized
  // segments (a 1-D field is a single row); short rows pack several to a
  // block. Interior rows run an unguarded stencil — only x == 0 is
  // peeled, and only the segment that starts the row has it; first-row /
  // first-plane rows (a vanishing fraction) take the guarded predictor.
  // Code emission is branch-free with the same tiled outlier staging as
  // pass 1.
  auto coll = std::make_shared<collect_state>();
  const i32* q = out.lattice_scratch.data();
  u16* codes = out.codes.data();
  const int rank = dims.rank();
  const std::size_t seg = std::max<std::size_t>(1, std::min(dims.x, block));
  const std::size_t nseg = (dims.x + seg - 1) / seg;
  device::launch_blocks(
      s, dims.y * dims.z * nseg, std::max<std::size_t>(1, block / seg),
      [q, codes, dims, radius, rank, seg, nseg, coll](
          std::size_t, std::size_t lo, std::size_t hi) {
        std::vector<kernels::outlier> local;
        std::array<kernels::outlier, stage_slots> stage;
        std::size_t cnt = 0;
        const auto emit = [&](std::size_t i, i64 delta) {
          const i64 code = delta + radius;
          const bool ok = code > 0 && code < 2 * radius;
          codes[i] = ok ? static_cast<u16>(code) : u16{0};
          stage[cnt] = {static_cast<u64>(i), delta};
          cnt += !ok;
        };
        const std::size_t sy = dims.x, sz = dims.x * dims.y;
        for (std::size_t k = lo; k < hi; ++k) {
          const std::size_t r = k / nseg;
          const std::size_t x0 = (k % nseg) * seg;
          const std::size_t x1 = std::min(dims.x, x0 + seg);
          const std::size_t y = r % dims.y;
          const std::size_t z = r / dims.y;
          const std::size_t base = r * dims.x;
          const bool interior = (rank == 1) || (rank == 2 && y > 0) ||
                                (rank == 3 && y > 0 && z > 0);
          // Stage-sized tiles bound the staging array without a fill
          // check in the inner loops.
          for (std::size_t t0 = x0; t0 < x1; t0 += stage_slots) {
            const std::size_t t1 = std::min(x1, t0 + stage_slots);
            std::size_t x = t0;
            cnt = 0;
            if (!interior) {
              for (; x < t1; ++x) {
                const std::size_t i = base + x;
                emit(i, static_cast<i64>(q[i]) -
                            lorenzo_pred(q, dims, x, y, z, rank));
              }
            } else if (rank == 1) {
              if (x == 0) {
                emit(base, static_cast<i64>(q[base]));
                x = 1;
              }
              for (; x < t1; ++x) {
                const std::size_t i = base + x;
                emit(i,
                     static_cast<i64>(q[i]) - static_cast<i64>(q[i - 1]));
              }
            } else if (rank == 2) {
              if (x == 0) {
                emit(base, static_cast<i64>(q[base]) -
                               static_cast<i64>(q[base - sy]));
                x = 1;
              }
              for (; x < t1; ++x) {
                const std::size_t i = base + x;
                const i64 pred = static_cast<i64>(q[i - 1]) +
                                 static_cast<i64>(q[i - sy]) -
                                 static_cast<i64>(q[i - sy - 1]);
                emit(i, static_cast<i64>(q[i]) - pred);
              }
            } else {
              if (x == 0) {
                emit(base, static_cast<i64>(q[base]) -
                               (static_cast<i64>(q[base - sy]) +
                                static_cast<i64>(q[base - sz]) -
                                static_cast<i64>(q[base - sy - sz])));
                x = 1;
              }
              for (; x < t1; ++x) {
                const std::size_t i = base + x;
                const i64 pred = static_cast<i64>(q[i - 1]) +
                                 static_cast<i64>(q[i - sy]) +
                                 static_cast<i64>(q[i - sz]) -
                                 static_cast<i64>(q[i - sy - 1]) -
                                 static_cast<i64>(q[i - sy - sz]) -
                                 static_cast<i64>(q[i - sz - 1]) +
                                 static_cast<i64>(q[i - sy - sz - 1]);
                emit(i, static_cast<i64>(q[i]) - pred);
              }
            }
            if (cnt) {
              local.insert(local.end(), stage.begin(),
                           stage.begin() + static_cast<std::ptrdiff_t>(cnt));
            }
          }
        }
        if (!local.empty()) {
          std::lock_guard lk(coll->mu);
          coll->all.insert(coll->all.end(), local.begin(), local.end());
        }
      });
  finalize_outliers(s, std::move(coll), out);
}

template <class T>
void lorenzo_compress_reference_async(const device::buffer<T>& data,
                                      dims3 dims, f64 ebx2, int radius,
                                      quant_field& out, device::stream& s) {
  prepare(data, dims, ebx2, radius, out);
  const std::size_t n = dims.len();
  const std::size_t block = device::runtime::instance().default_block();
  {
    auto vo_mu = std::make_shared<std::mutex>();
    const T* in = data.data();
    i32* q = out.lattice_scratch.data();
    auto* vo = &out.value_outliers;
    const f64 r_ebx2 = 1.0 / ebx2;
    device::launch_blocks(
        s, n, block,
        [in, q, vo, vo_mu, r_ebx2](std::size_t, std::size_t lo,
                                   std::size_t hi) {
          std::vector<std::pair<u64, f64>> local;
          for (std::size_t i = lo; i < hi; ++i) {
            const f64 scaled = static_cast<f64>(in[i]) * r_ebx2;
            if (!(std::fabs(scaled) <
                  static_cast<f64>(value_outlier_limit))) {
              local.emplace_back(i, static_cast<f64>(in[i]));
              q[i] = 0;
            } else {
              q[i] = static_cast<i32>(std::llrint(scaled));
            }
          }
          if (!local.empty()) {
            std::lock_guard lk(*vo_mu);
            vo->insert(vo->end(), local.begin(), local.end());
          }
        });
  }

  auto coll = std::make_shared<collect_state>();
  const i32* q = out.lattice_scratch.data();
  u16* codes = out.codes.data();
  const int rank = dims.rank();
  device::launch_blocks(
      s, n, block,
      [q, codes, dims, radius, rank, coll](std::size_t, std::size_t lo,
                                           std::size_t hi) {
        std::vector<kernels::outlier> local;
        // Convert the linear chunk back to coordinates incrementally.
        std::size_t x = lo % dims.x;
        std::size_t y = (lo / dims.x) % dims.y;
        std::size_t z = lo / (dims.x * dims.y);
        for (std::size_t i = lo; i < hi; ++i) {
          const i64 delta =
              static_cast<i64>(q[i]) - lorenzo_pred(q, dims, x, y, z, rank);
          const i64 code = delta + radius;
          if (code > 0 && code < 2 * radius) {
            codes[i] = static_cast<u16>(code);
          } else {
            codes[i] = 0;
            local.push_back({static_cast<u64>(i), delta});
          }
          if (++x == dims.x) {
            x = 0;
            if (++y == dims.y) {
              y = 0;
              ++z;
            }
          }
        }
        if (!local.empty()) {
          std::lock_guard lk(coll->mu);
          coll->all.insert(coll->all.end(), local.begin(), local.end());
        }
      });
  finalize_outliers(s, std::move(coll), out);
}

template <class T>
void lorenzo_decompress_async(const quant_field& field,
                              device::buffer<T>& data, device::stream& s) {
  data.assert_space(device::space::device);
  const std::size_t n = field.dims.len();
  FZMOD_REQUIRE(data.size() == n, status::invalid_argument,
                "lorenzo: output size does not match dims");
  FZMOD_REQUIRE(field.ebx2 > 0, status::corrupt_archive,
                "lorenzo: archive has non-positive error bound");

  device::buffer<i32>& deltas = field.lattice_scratch;
  deltas.ensure(n, device::space::device);

  // Codes -> centred deltas (outlier sentinel becomes 0, overwritten by the
  // scatter below).
  {
    const u16* codes = field.codes.data();
    i32* d = deltas.data();
    const int radius = field.radius;
    device::launch(s, n, [codes, d, radius](std::size_t i) {
      const u16 c = codes[i];
      d[i] = c ? static_cast<i32>(c) - radius : 0;
    });
  }

  // Scatter compacted outliers into the delta field.
  {
    const kernels::outlier* src = field.outliers.data();
    const u64 count = field.n_outliers;
    i32* d = deltas.data();
    device::launch(s, count, [src, d, n](std::size_t i) {
      const auto& o = src[i];
      FZMOD_REQUIRE(o.index < n, status::corrupt_archive,
                    "lorenzo: outlier index out of range");
      d[o.index] = static_cast<i32>(o.value);
    });
  }

  // Invert the Lorenzo difference: one inclusive prefix sum per dimension.
  const int rank = field.dims.rank();
  kernels::inclusive_scan_rows_async(deltas, field.dims, s);
  if (rank >= 2) kernels::inclusive_scan_cols_async(deltas, field.dims, s);
  if (rank >= 3) kernels::inclusive_scan_slices_async(deltas, field.dims, s);

  // Lattice -> values, then restore raw value outliers exactly.
  {
    const i32* q = deltas.data();
    T* outp = data.data();
    const f64 ebx2 = field.ebx2;
    device::launch(s, n, [q, outp, ebx2](std::size_t i) {
      outp[i] = static_cast<T>(static_cast<f64>(q[i]) * ebx2);
    });
  }
  if (!field.value_outliers.empty()) {
    const auto* vo = &field.value_outliers;
    T* outp = data.data();
    device::host_task(s, [vo, outp, n] {
      for (const auto& [idx, val] : *vo) {
        FZMOD_REQUIRE(idx < n, status::corrupt_archive,
                      "lorenzo: value outlier index out of range");
        outp[idx] = static_cast<T>(val);
      }
    });
  }
}

template void lorenzo_compress_async<f32>(const device::buffer<f32>&, dims3,
                                          f64, int, quant_field&,
                                          device::stream&);
template void lorenzo_compress_async<f64>(const device::buffer<f64>&, dims3,
                                          f64, int, quant_field&,
                                          device::stream&);
template void lorenzo_compress_reference_async<f32>(
    const device::buffer<f32>&, dims3, f64, int, quant_field&,
    device::stream&);
template void lorenzo_compress_reference_async<f64>(
    const device::buffer<f64>&, dims3, f64, int, quant_field&,
    device::stream&);
template void lorenzo_decompress_async<f32>(const quant_field&,
                                            device::buffer<f32>&,
                                            device::stream&);
template void lorenzo_decompress_async<f64>(const quant_field&,
                                            device::buffer<f64>&,
                                            device::stream&);

}  // namespace fzmod::predictors
