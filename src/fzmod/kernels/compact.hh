// FZModules — outlier compaction and scatter kernels.
//
// Predictors mark unpredictable points as outliers: the quantization code
// stream stores a sentinel and the (index, value) pair is appended to a
// compact side list. Compaction on the device uses the standard
// count+scan+write pattern; scatter is its inverse and is the task the
// paper's STF decompression example runs concurrently with Huffman decode.
#pragma once

#include <algorithm>
#include <vector>

#include "fzmod/device/runtime.hh"

namespace fzmod::kernels {

/// One compacted outlier: position in the field and the exact signed
/// quantization delta that did not fit the code range.
struct outlier {
  u64 index;
  i64 value;
};

/// Device-side compaction: collect (i, values[i]) for every i with
/// flags[i] != 0 into `out`, preserving index order. The count lands in
/// *count when the stream op runs; `out` must be presized to the worst
/// case by the caller (predictors know their outlier cap).
inline void compact_async(const device::buffer<u8>& flags,
                          const device::buffer<i64>& values,
                          device::buffer<outlier>& out, u64* count,
                          device::stream& s) {
  flags.assert_space(device::space::device);
  values.assert_space(device::space::device);
  out.assert_space(device::space::device);
  const u8* f = flags.data();
  const i64* v = values.data();
  const std::size_t n = flags.size();
  outlier* dst = out.data();
  const std::size_t cap = out.size();
  s.enqueue([f, v, n, dst, cap, count] {
    auto& rt = device::runtime::instance();
    rt.stats().kernels_launched += 1;
    const std::size_t block = rt.default_block();
    const std::size_t nblocks = n ? (n + block - 1) / block : 0;
    std::vector<u64> block_counts(nblocks, 0);
    rt.pool().parallel_for(nblocks, 1, [&](std::size_t blo, std::size_t bhi) {
      for (std::size_t b = blo; b < bhi; ++b) {
        u64 c = 0;
        const std::size_t end = std::min(n, (b + 1) * block);
        for (std::size_t i = b * block; i < end; ++i) c += (f[i] != 0);
        block_counts[b] = c;
      }
    });
    u64 acc = 0;
    for (auto& c : block_counts) {
      const u64 t = c;
      c = acc;
      acc += t;
    }
    FZMOD_REQUIRE(acc <= cap, status::internal,
                  "outlier compaction overflow: capacity too small");
    if (count) *count = acc;
    rt.pool().parallel_for(nblocks, 1, [&](std::size_t blo, std::size_t bhi) {
      for (std::size_t b = blo; b < bhi; ++b) {
        u64 pos = block_counts[b];
        const std::size_t end = std::min(n, (b + 1) * block);
        for (std::size_t i = b * block; i < end; ++i) {
          if (f[i]) dst[pos++] = {static_cast<u64>(i), v[i]};
        }
      }
    });
  });
}

/// Scatter compacted outliers back into a full-length i32 delta array
/// (decompression). `n_outliers` is read when the op executes, so it can be
/// produced by an earlier op on the same stream.
inline void scatter_async(const device::buffer<outlier>& outliers,
                          const u64* n_outliers, device::buffer<i32>& deltas,
                          device::stream& s) {
  outliers.assert_space(device::space::device);
  deltas.assert_space(device::space::device);
  const outlier* src = outliers.data();
  i32* dst = deltas.data();
  const std::size_t cap = deltas.size();
  s.enqueue([src, n_outliers, dst, cap] {
    auto& rt = device::runtime::instance();
    rt.stats().kernels_launched += 1;
    const u64 n = *n_outliers;
    rt.pool().parallel_for(n, rt.default_block(),
                           [&](std::size_t lo, std::size_t hi) {
                             for (std::size_t i = lo; i < hi; ++i) {
                               const auto& o = src[i];
                               FZMOD_REQUIRE(o.index < cap,
                                             status::corrupt_archive,
                                             "outlier index out of range");
                               dst[o.index] =
                                   static_cast<i32>(o.value);
                             }
                           });
  });
}

}  // namespace fzmod::kernels
