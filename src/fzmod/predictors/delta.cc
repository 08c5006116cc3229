#include "fzmod/predictors/delta.hh"

#include <cmath>
#include <memory>
#include <mutex>
#include <vector>

#include "fzmod/common/error.hh"

namespace fzmod::predictors {

template <class T>
void delta_compress_async(const device::buffer<T>& data, dims3 dims,
                          f64 ebx2, int radius, quant_field& out,
                          device::stream& s) {
  const std::size_t n = dims.len();
  const u64 stride = delta_frame_stride(dims);
  out.dims = dims;
  out.radius = radius;
  out.ebx2 = ebx2;
  out.value_outliers.clear();
  out.codes.ensure(n, device::space::device);
  out.lattice_scratch.ensure(n, device::space::device);

  // Pass 1: pre-quantize into the retained integer lattice. Values beyond
  // the safe lattice become exact value outliers (the built-in contract),
  // with q = 0 at their sites so both sides predict from the same lattice.
  auto side = std::make_shared<std::mutex>();
  {
    const T* in = data.data();
    i32* qp = out.lattice_scratch.data();
    auto* vo = &out.value_outliers;
    const f64 r_ebx2 = 1.0 / ebx2;
    device::launch_blocks(
        s, n, device::runtime::instance().default_block(),
        [in, qp, vo, side, r_ebx2](std::size_t, std::size_t lo,
                                   std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) {
            const f64 scaled = static_cast<f64>(in[i]) * r_ebx2;
            if (!(std::fabs(scaled) <
                  static_cast<f64>(value_outlier_limit))) {
              std::lock_guard lk(*side);
              vo->emplace_back(i, static_cast<f64>(in[i]));
              qp[i] = 0;
            } else {
              qp[i] = static_cast<i32>(round_half_even(scaled));
            }
          }
        });
  }

  // Pass 2: frame-to-frame delta, embarrassingly parallel (every
  // prediction reads the already-final lattice, not reconstructed codes).
  auto outliers = std::make_shared<std::vector<kernels::outlier>>();
  {
    const i32* qp = out.lattice_scratch.data();
    u16* codes = out.codes.data();
    device::launch_blocks(
        s, n, device::runtime::instance().default_block(),
        [qp, codes, radius, stride, outliers, side](std::size_t,
                                                    std::size_t lo,
                                                    std::size_t hi) {
          std::vector<kernels::outlier> local;
          for (std::size_t i = lo; i < hi; ++i) {
            const i64 pred = i >= stride ? qp[i - stride]
                             : i >= 1    ? qp[i - 1]
                                         : 0;
            const i64 delta = static_cast<i64>(qp[i]) - pred;
            const i64 code = delta + radius;
            if (code > 0 && code < 2 * static_cast<i64>(radius)) {
              codes[i] = static_cast<u16>(code);
            } else {
              codes[i] = 0;
              local.push_back({i, delta});
            }
          }
          if (!local.empty()) {
            std::lock_guard lk(*side);
            outliers->insert(outliers->end(), local.begin(), local.end());
          }
        });
  }
  device::host_task(s, [outliers, &out] {
    out.n_outliers = outliers->size();
    out.outliers.ensure(outliers->size(), device::space::device);
    std::copy(outliers->begin(), outliers->end(), out.outliers.data());
  });
}

template <class T>
void delta_decompress_async(const quant_field& field, device::buffer<T>& out,
                            device::stream& s) {
  const std::size_t n = field.dims.len();
  const u64 stride = delta_frame_stride(field.dims);
  const u16* codes = field.codes.data();
  const auto* ol = field.outliers.data();
  const u64 n_ol = field.n_outliers;
  const int radius = field.radius;
  const f64 ebx2 = field.ebx2;
  T* op = out.data();
  const auto* vo = &field.value_outliers;
  device::host_task(s, [=] {
    std::vector<i64> q(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (codes[i]) q[i] = static_cast<i64>(codes[i]) - radius;
    }
    for (u64 k = 0; k < n_ol; ++k) {
      FZMOD_REQUIRE(ol[k].index < n, status::corrupt_archive,
                    "delta: outlier index out of range");
      q[ol[k].index] = ol[k].value;
    }
    // In index order every predecessor (i - stride, or i - 1 inside the
    // first frame) is already reconstructed — one sequential sweep.
    for (std::size_t i = 0; i < n; ++i) {
      const i64 pred = i >= stride ? q[i - stride] : i >= 1 ? q[i - 1] : 0;
      q[i] += pred;
      op[i] = static_cast<T>(static_cast<f64>(q[i]) * ebx2);
    }
    for (const auto& [idx, val] : *vo) {
      FZMOD_REQUIRE(idx < n, status::corrupt_archive,
                    "delta: value outlier index out of range");
      op[idx] = static_cast<T>(val);
    }
  });
}

template void delta_compress_async<f32>(const device::buffer<f32>&, dims3,
                                        f64, int, quant_field&,
                                        device::stream&);
template void delta_compress_async<f64>(const device::buffer<f64>&, dims3,
                                        f64, int, quant_field&,
                                        device::stream&);
template void delta_decompress_async<f32>(const quant_field&,
                                          device::buffer<f32>&,
                                          device::stream&);
template void delta_decompress_async<f64>(const quant_field&,
                                          device::buffer<f64>&,
                                          device::stream&);

}  // namespace fzmod::predictors
