// FZModules — histogram kernels feeding the Huffman encoder.
//
// The paper (§3.2) calls out that modules may need "GPU-accelerated data
// analysis" and supports two interchangeable histogram modules:
//
//  - `standard`: classic privatized histogram — each block counts into a
//    block-local array, then the partials are reduced.
//  - `top-k`: a sparsity-aware variant that first identifies the k most
//    frequent symbols from a sample and gives them contiguous counter
//    slots ahead of the cold bins (no scatter for the hot symbols). It
//    wins when the code distribution is highly concentrated — which
//    better predictors (the spline interpolator) produce, hence
//    FZMod-Quality pairs spline + top-k.
//
// Both produce the exact same counts; only the work distribution differs.
#pragma once

#include <algorithm>
#include <mutex>
#include <vector>

#include "fzmod/device/runtime.hh"

namespace fzmod::kernels {

enum class histogram_kind : u8 { standard = 0, topk = 1 };

[[nodiscard]] inline const char* to_string(histogram_kind k) {
  return k == histogram_kind::standard ? "hist-standard" : "hist-topk";
}

/// Standard privatized histogram of u16 symbols into `nbins` counters.
/// Symbols >= nbins are a caller bug (quantizer radius bounds them).
/// Each block counts into 4 interleaved sub-histograms: a single scalar
/// bank serializes on the store-to-load dependency whenever consecutive
/// symbols hit the same bin — exactly the concentrated distributions good
/// predictors produce. Four independent counter banks break that chain
/// (the CPU analogue of per-warp sub-histograms in shared memory), at the
/// cost of 4x the private footprint.
inline void histogram_async(const device::buffer<u16>& codes,
                            device::buffer<u32>& bins, device::stream& s) {
  codes.assert_space(device::space::device);
  bins.assert_space(device::space::device);
  const u16* in = codes.data();
  const std::size_t n = codes.size();
  u32* out = bins.data();
  const std::size_t nbins = bins.size();
  s.enqueue([in, n, out, nbins] {
    auto& rt = device::runtime::instance();
    rt.stats().kernels_launched += 1;
    const std::size_t block = rt.default_block() * 4;
    const std::size_t nblocks = n ? (n + block - 1) / block : 0;
    std::fill(out, out + nbins, 0u);
    std::mutex merge_mu;
    rt.pool().parallel_for(nblocks, 1, [&](std::size_t blo, std::size_t bhi) {
      std::vector<u32> local(nbins * 4, 0);
      u32* b0 = local.data();
      u32* b1 = b0 + nbins;
      u32* b2 = b1 + nbins;
      u32* b3 = b2 + nbins;
      for (std::size_t b = blo; b < bhi; ++b) {
        const std::size_t end = std::min(n, (b + 1) * block);
        std::size_t i = b * block;
        for (; i + 4 <= end; i += 4) {
          b0[in[i + 0]]++;
          b1[in[i + 1]]++;
          b2[in[i + 2]]++;
          b3[in[i + 3]]++;
        }
        for (; i < end; ++i) b0[in[i]]++;
      }
      std::lock_guard lk(merge_mu);
      for (std::size_t k = 0; k < nbins; ++k) {
        out[k] += b0[k] + b1[k] + b2[k] + b3[k];
      }
    });
  });
}

/// Reference body for `histogram_async`: the same privatized blocks with
/// one scalar counter bank. Tests and benches compare the production
/// kernel against it; no pipeline path runs it.
inline void histogram_reference_async(const device::buffer<u16>& codes,
                                      device::buffer<u32>& bins,
                                      device::stream& s) {
  codes.assert_space(device::space::device);
  bins.assert_space(device::space::device);
  const u16* in = codes.data();
  const std::size_t n = codes.size();
  u32* out = bins.data();
  const std::size_t nbins = bins.size();
  s.enqueue([in, n, out, nbins] {
    auto& rt = device::runtime::instance();
    rt.stats().kernels_launched += 1;
    const std::size_t block = rt.default_block() * 4;
    const std::size_t nblocks = n ? (n + block - 1) / block : 0;
    std::fill(out, out + nbins, 0u);
    std::mutex merge_mu;
    rt.pool().parallel_for(nblocks, 1, [&](std::size_t blo, std::size_t bhi) {
      std::vector<u32> local(nbins, 0);
      for (std::size_t b = blo; b < bhi; ++b) {
        const std::size_t end = std::min(n, (b + 1) * block);
        for (std::size_t i = b * block; i < end; ++i) local[in[i]]++;
      }
      std::lock_guard lk(merge_mu);
      for (std::size_t k = 0; k < nbins; ++k) out[k] += local[k];
    });
  });
}

/// Top-k histogram: sample ~1% of the input to nominate the k hottest
/// symbols, then count every symbol through a slot map with the hot slots
/// first (the tiny table a GPU would keep in registers/shared memory) and
/// the cold bins after them. Output counts are exact.
inline void histogram_topk_async(const device::buffer<u16>& codes,
                                 device::buffer<u32>& bins,
                                 device::stream& s, u32 k = 8) {
  codes.assert_space(device::space::device);
  bins.assert_space(device::space::device);
  const u16* in = codes.data();
  const std::size_t n = codes.size();
  u32* out = bins.data();
  const std::size_t nbins = bins.size();
  s.enqueue([in, n, out, nbins, k = std::min(k, 16u)] {
    auto& rt = device::runtime::instance();
    rt.stats().kernels_launched += 1;
    std::fill(out, out + nbins, 0u);
    if (n == 0) return;

    // Phase 1: nominate candidates from a strided sample.
    std::vector<u32> sample_counts(nbins, 0);
    const std::size_t stride = std::max<std::size_t>(1, n / 65536);
    for (std::size_t i = 0; i < n; i += stride) sample_counts[in[i]]++;
    std::vector<u16> hot;
    hot.reserve(k);
    for (u32 kk = 0; kk < k; ++kk) {
      const auto it =
          std::max_element(sample_counts.begin(), sample_counts.end());
      if (*it == 0) break;
      hot.push_back(static_cast<u16>(it - sample_counts.begin()));
      *it = 0;
    }
    // Slot map: hot symbol -> its slot in [0, h), any other symbol ->
    // h + symbol. Counting never branches on hot or cold.
    const std::size_t h = hot.size();
    const std::size_t nslots = h + nbins;
    std::vector<u32> slot_of(nbins);
    for (std::size_t sym = 0; sym < nbins; ++sym) {
      slot_of[sym] = static_cast<u32>(h + sym);
    }
    for (std::size_t hk = 0; hk < h; ++hk) {
      slot_of[hot[hk]] = static_cast<u32>(hk);
    }

    // Phase 2: exact counting into 4 interleaved counter banks per block,
    // as histogram_async does, so repeats of one hot symbol do not chain
    // on one counter. On a GPU the hot slots live in registers/shared
    // memory and dodge the global-atomic contention that throttles the
    // standard histogram on heavily repeating inputs (the effect cuSZ-i
    // exploits). On this CPU substrate there is no atomic contention, so
    // the module costs one slot-map load per symbol more than the
    // standard one (see bench_ablation_histogram); the structural
    // difference and the concentration-based selection criterion are what
    // carry over.
    const std::size_t block = rt.default_block() * 4;
    const std::size_t nblocks = (n + block - 1) / block;
    std::mutex merge_mu;
    rt.pool().parallel_for(nblocks, 1, [&](std::size_t blo, std::size_t bhi) {
      std::vector<u32> local(nslots * 4, 0);
      u32* b0 = local.data();
      u32* b1 = b0 + nslots;
      u32* b2 = b1 + nslots;
      u32* b3 = b2 + nslots;
      const u32* slot = slot_of.data();
      for (std::size_t b = blo; b < bhi; ++b) {
        const std::size_t end = std::min(n, (b + 1) * block);
        std::size_t i = b * block;
        for (; i + 4 <= end; i += 4) {
          b0[slot[in[i + 0]]]++;
          b1[slot[in[i + 1]]]++;
          b2[slot[in[i + 2]]]++;
          b3[slot[in[i + 3]]]++;
        }
        for (; i < end; ++i) b0[slot[in[i]]]++;
      }
      std::lock_guard lk(merge_mu);
      for (std::size_t j = 0; j < nslots; ++j) {
        const u32 c = b0[j] + b1[j] + b2[j] + b3[j];
        out[j < h ? hot[j] : j - h] += c;
      }
    });
  });
}

/// Dispatch by module kind (pipeline composition uses this).
inline void histogram_dispatch_async(histogram_kind kind,
                                     const device::buffer<u16>& codes,
                                     device::buffer<u32>& bins,
                                     device::stream& s) {
  if (kind == histogram_kind::topk) {
    histogram_topk_async(codes, bins, s);
  } else {
    histogram_async(codes, bins, s);
  }
}

}  // namespace fzmod::kernels
