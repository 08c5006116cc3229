// Integration + property tests: the four reimplemented baselines (cuSZp2,
// FZ-GPU, PFPL, SZ3) and the uniform compressor harness.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "fzmod/common/error.hh"
#include "fzmod/baselines/compressor.hh"
#include "fzmod/common/rng.hh"
#include "fzmod/metrics/metrics.hh"

namespace fzmod::baselines {
namespace {

std::vector<f32> test_field(dims3 d, u64 seed, f64 roughness) {
  rng r(seed);
  std::vector<f32> v(d.len());
  for (std::size_t z = 0; z < d.z; ++z) {
    for (std::size_t y = 0; y < d.y; ++y) {
      for (std::size_t x = 0; x < d.x; ++x) {
        v[d.at(x, y, z)] = static_cast<f32>(
            std::sin(0.05 * x) * std::cos(0.03 * y) * 100 + 0.1 * z +
            roughness * r.normal());
      }
    }
  }
  return v;
}

class AllCompressors : public ::testing::TestWithParam<std::string> {};

TEST_P(AllCompressors, RoundTripRelBound3D) {
  const dims3 d{40, 36, 10};
  const auto v = test_field(d, 100, 0.5);
  auto c = make(GetParam());
  const eb_config eb{1e-4, eb_mode::rel};
  const auto archive = c->compress(v, d, eb);
  const auto rec = c->decompress(archive);
  ASSERT_EQ(rec.size(), v.size());
  const auto err = metrics::compare(v, rec);
  EXPECT_LE(err.max_abs_err,
            metrics::f32_bound_slack(eb.eb * err.range, err.range))
      << GetParam();
  EXPECT_GT(metrics::compression_ratio(v.size() * 4, archive.size()), 1.0)
      << GetParam();
}

TEST_P(AllCompressors, RoundTripAbsBound1D) {
  const dims3 d{30000};
  const auto v = test_field(d, 101, 1.0);
  auto c = make(GetParam());
  const eb_config eb{1e-2, eb_mode::abs};
  const auto archive = c->compress(v, d, eb);
  const auto rec = c->decompress(archive);
  const auto err = metrics::compare(v, rec);
  EXPECT_LE(err.max_abs_err, metrics::f32_bound_slack(eb.eb, 110.0))
      << GetParam();
}

TEST_P(AllCompressors, ConstantField) {
  const dims3 d{50, 50};
  std::vector<f32> v(d.len(), -3.5f);
  auto c = make(GetParam());
  const auto archive = c->compress(v, d, {1e-3, eb_mode::rel});
  const auto rec = c->decompress(archive);
  for (std::size_t i = 0; i < v.size(); i += 97) {
    EXPECT_NEAR(rec[i], -3.5f, 1e-3 * 1.01) << GetParam();
  }
}

TEST_P(AllCompressors, TightBoundRoughData) {
  rng r(102);
  const dims3 d{60, 60, 4};
  std::vector<f32> v(d.len());
  for (auto& x : v) x = static_cast<f32>(r.uniform(-1000, 1000));
  auto c = make(GetParam());
  const eb_config eb{1e-6, eb_mode::rel};
  const auto archive = c->compress(v, d, eb);
  const auto rec = c->decompress(archive);
  const auto err = metrics::compare(v, rec);
  EXPECT_LE(err.max_abs_err,
            metrics::f32_bound_slack(eb.eb * err.range, err.range))
      << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Everyone, AllCompressors,
                         ::testing::ValuesIn(all_names()),
                         [](const auto& info) {
                           std::string s = info.param;
                           for (auto& ch : s) {
                             if (ch == '-') ch = '_';
                           }
                           return s;
                         });

TEST(Harness, AllNamesResolveAndReportThemselves) {
  for (const auto& name : all_names()) {
    auto c = make(name);
    EXPECT_EQ(c->name(), name);
  }
  EXPECT_THROW(make("definitely-not-a-compressor"), error);
}

TEST(Harness, GpuNamesExcludeSz3) {
  const auto gpu = gpu_names();
  EXPECT_EQ(gpu.size(), all_names().size() - 1);
  for (const auto& n : gpu) EXPECT_NE(n, "SZ3");
}

TEST(Cuszp2, HugeValuesFallBackToRawBlocks) {
  std::vector<f32> v(100, 1.0f);
  v[40] = 3e33f;
  auto c = make_cuszp2();
  const auto archive = c->compress(v, dims3(v.size()), {1e-6, eb_mode::abs});
  const auto rec = c->decompress(archive);
  EXPECT_EQ(rec[40], 3e33f);  // raw block restores exactly
  EXPECT_NEAR(rec[0], 1.0f, 1e-6 * 1.01);
}

TEST(Pfpl, GuaranteeChannelCatchesEveryViolation) {
  // Adversarial mix: giant magnitudes, denormals, sign flips.
  rng r(103);
  std::vector<f32> v(5000);
  for (std::size_t i = 0; i < v.size(); ++i) {
    switch (i % 5) {
      case 0: v[i] = static_cast<f32>(r.uniform(-1, 1) * 1e30); break;
      case 1: v[i] = static_cast<f32>(r.uniform(-1, 1) * 1e-30); break;
      default: v[i] = static_cast<f32>(r.normal() * 100); break;
    }
  }
  auto c = make_pfpl();
  const eb_config eb{1e-3, eb_mode::abs};
  const auto archive = c->compress(v, dims3(v.size()), eb);
  const auto rec = c->decompress(archive);
  for (std::size_t i = 0; i < v.size(); ++i) {
    // PFPL's defining property: the bound holds pointwise, period.
    ASSERT_LE(std::fabs(static_cast<f64>(v[i]) - rec[i]), eb.eb * (1 + 1e-9))
        << i;
  }
}

TEST(Pfpl, RawRecordsAreDeterministicAndZeroPadded) {
  // Raw values in many tiles, so several worker ranges each append raw
  // records. The archive must not depend on which range finishes first,
  // and no record may carry uninitialised struct padding.
  rng r(107);
  std::vector<f32> v(64 * 1024);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = i % 97 == 0 ? static_cast<f32>(r.uniform(-1, 1) * 1e30)
                       : static_cast<f32>(r.normal() * 100);
  }
  auto c = make_pfpl();
  const eb_config eb{1e-3, eb_mode::abs};
  const auto a = c->compress(v, dims3(v.size()), eb);
  const auto b = c->compress(v, dims3(v.size()), eb);
  EXPECT_EQ(a, b);
  // PFPL layout: an 80-byte packed header with `u64 n_raw` at byte 32;
  // the archive ends in n_raw 16-byte {u64 index, f32 value, 4 pad} slots.
  constexpr std::size_t header_bytes = 80, slot = 16;
  u64 n_raw = 0;
  std::memcpy(&n_raw, a.data() + 32, sizeof(n_raw));
  ASSERT_GT(n_raw, 0u);
  ASSERT_LE(n_raw * slot, a.size() - header_bytes);
  const u8* rec = a.data() + a.size() - n_raw * slot;
  u64 prev = 0;
  for (u64 k = 0; k < n_raw; ++k, rec += slot) {
    u64 index = 0;
    std::memcpy(&index, rec, sizeof(index));
    if (k) {
      ASSERT_GT(index, prev) << "record " << k << " out of order";
    }
    prev = index;
    for (std::size_t pad = 12; pad < slot; ++pad) {
      ASSERT_EQ(rec[pad], 0) << "record " << k << " padding byte " << pad;
    }
  }
}

TEST(Sz3, BestRatioOnSmoothData) {
  // The paper's Table 3 headline: SZ3 tops CR across the board.
  const dims3 d{80, 80, 8};
  const auto v = test_field(d, 104, 0.05);
  const eb_config eb{1e-3, eb_mode::rel};
  const auto sz3_size = make_sz3()->compress(v, d, eb).size();
  for (const auto& name : gpu_names()) {
    const auto other = make(name)->compress(v, d, eb).size();
    EXPECT_LE(sz3_size, other) << "SZ3 vs " << name;
  }
}

TEST(Fzgpu, BeatsHuffmanPipelinesOnSpeedNotRatio) {
  // Qualitative Table 3 shape on smooth data: FZ-GPU's dictionary CR is
  // lower than the Huffman-based FZMod-Default CR.
  const dims3 d{64, 64, 16};
  const auto v = test_field(d, 105, 0.02);
  const eb_config eb{1e-4, eb_mode::rel};
  const auto a_fzgpu = make_fzgpu()->compress(v, d, eb);
  const auto a_default = make("FZMod-Default")->compress(v, d, eb);
  EXPECT_GT(a_fzgpu.size(), a_default.size() / 4);  // sanity
}

TEST(Baselines, ArchivesAreMutuallyUndecodable) {
  // Each archive format carries its own magic; feeding one compressor's
  // archive to another must fail loudly, not decode garbage.
  const dims3 d{32, 32};
  const auto v = test_field(d, 106, 0.1);
  const auto archive = make_cuszp2()->compress(v, d, {1e-3, eb_mode::rel});
  EXPECT_THROW((void)make_pfpl()->decompress(archive), error);
  EXPECT_THROW((void)make_fzgpu()->decompress(archive), error);
}

}  // namespace
}  // namespace fzmod::baselines
