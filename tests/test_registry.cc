// Integration tests: module registry and the custom-module extension path
// (the framework's §3.2 extensibility story).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>

#include "fzmod/core/pipeline.hh"
#include "fzmod/core/registry.hh"
#include "fzmod/metrics/metrics.hh"

namespace fzmod::core {
namespace {

TEST(Registry, BuiltinsAreRegistered) {
  auto& reg = module_registry<f32>::instance();
  const auto preds = reg.predictor_names();
  EXPECT_NE(std::find(preds.begin(), preds.end(), predictor_lorenzo),
            preds.end());
  EXPECT_NE(std::find(preds.begin(), preds.end(), predictor_spline),
            preds.end());
  const auto codecs = reg.codec_names();
  EXPECT_NE(std::find(codecs.begin(), codecs.end(), codec_huffman),
            codecs.end());
  EXPECT_NE(std::find(codecs.begin(), codecs.end(), codec_fzg),
            codecs.end());
}

TEST(Registry, UnknownNamesThrow) {
  auto& reg = module_registry<f32>::instance();
  EXPECT_THROW((void)reg.make_predictor("warp-drive"), error);
  EXPECT_THROW((void)reg.make_codec("tachyon"), error);
  EXPECT_THROW((void)reg.make_preprocessor("flux-capacitor"), error);
}

TEST(Registry, FactoriesProduceFreshInstances) {
  auto& reg = module_registry<f32>::instance();
  auto a = reg.make_predictor(predictor_lorenzo);
  auto b = reg.make_predictor(predictor_lorenzo);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(a->name(), b->name());
}

/// A user-defined predictor: trivial "store the lattice value" (no
/// prediction at all). Terrible CR, but exercises the full custom-module
/// path: register -> name in config -> compress -> archive names it ->
/// decompress re-resolves it.
class nopredict_module_base : public predictor_module<f32> {
 public:
  [[nodiscard]] std::string_view name() const override { return "nopredict"; }

  void compress(const device::buffer<f32>& data, dims3 dims, f64 ebx2,
                int radius, predictors::quant_field& out,
                predictors::interp_anchors& anchors,
                device::stream& s) override {
    anchors.lattice.clear();
    out.dims = dims;
    out.radius = radius;
    out.ebx2 = ebx2;
    out.codes = device::buffer<u16>(dims.len(), device::space::device);
    const f32* in = data.data();
    u16* codes = out.codes.data();
    auto outliers = std::make_shared<std::vector<kernels::outlier>>();
    auto mu = std::make_shared<std::mutex>();
    device::launch_blocks(
        s, dims.len(), device::runtime::instance().default_block(),
        [in, codes, ebx2, radius, outliers, mu](std::size_t, std::size_t lo,
                                                std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) {
            const i64 q = std::llrint(static_cast<f64>(in[i]) / ebx2);
            if (q > -radius && q < radius) {
              codes[i] = static_cast<u16>(q + radius);
            } else {
              codes[i] = 0;
              std::lock_guard lk(*mu);
              outliers->push_back({i, q});
            }
          }
        });
    device::host_task(s, [outliers, &out] {
      out.n_outliers = outliers->size();
      out.outliers = device::buffer<kernels::outlier>(
          outliers->size(), device::space::device);
      std::copy(outliers->begin(), outliers->end(), out.outliers.data());
    });
  }

  void decompress(const predictors::quant_field& field,
                  const predictors::interp_anchors&,
                  device::buffer<f32>& out, device::stream& s) override {
    const u16* codes = field.codes.data();
    f32* op = out.data();
    const int radius = field.radius;
    const f64 ebx2 = field.ebx2;
    device::launch(s, field.dims.len(), [=](std::size_t i) {
      if (codes[i]) {
        op[i] = static_cast<f32>(
            static_cast<f64>(static_cast<i32>(codes[i]) - radius) * ebx2);
      }
    });
    const auto* ol = field.outliers.data();
    device::launch(s, field.n_outliers, [=](std::size_t k) {
      op[ol[k].index] =
          static_cast<f32>(static_cast<f64>(ol[k].value) * ebx2);
    });
  }
};

TEST(Registry, CustomPredictorFlowsThroughPipelineAndArchive) {
  module_registry<f32>::instance().register_predictor(
      "nopredict", [] { return std::make_unique<nopredict_module_base>(); });

  const dims3 d{64, 32};
  std::vector<f32> v(d.len());
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<f32>(0.01 * static_cast<f64>(i % 100));
  }

  pipeline_config cfg;
  cfg.predictor = "nopredict";
  cfg.eb = {1e-3, eb_mode::abs};
  pipeline<f32> p(cfg);
  const auto archive = p.compress(v, d);

  const auto info = inspect_archive(archive);
  EXPECT_EQ(info.predictor, "nopredict");

  // A different pipeline instance decodes by resolving the archive's name.
  pipeline<f32> other(pipeline_config{});
  const auto rec = other.decompress(archive);
  const auto err = metrics::compare(v, rec);
  EXPECT_LE(err.max_abs_err, metrics::f32_bound_slack(1e-3, 1.0));
}

TEST(Registry, CustomModuleWorksWithBothCodecs) {
  module_registry<f32>::instance().register_predictor(
      "nopredict", [] { return std::make_unique<nopredict_module_base>(); });
  const dims3 d{100};
  std::vector<f32> v(d.len(), 0.5f);
  for (const char* codec : {codec_huffman, codec_fzg}) {
    pipeline_config cfg;
    cfg.predictor = "nopredict";
    cfg.codec = codec;
    cfg.eb = {1e-3, eb_mode::abs};
    pipeline<f32> p(cfg);
    const auto rec = p.decompress(p.compress(v, d));
    EXPECT_NEAR(rec[50], 0.5f, 1e-3 * 1.01) << codec;
  }
}

/// Archives record the module's self-reported name (15 chars max); a
/// module announcing a longer one must be rejected at serialization.
class longname_module final : public nopredict_module_base {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "this-name-is-way-too-long-for-the-header";
  }
};

TEST(Registry, ModuleNameTooLongForArchiveRejected) {
  module_registry<f32>::instance().register_predictor(
      "longname", [] { return std::make_unique<longname_module>(); });
  pipeline_config cfg;
  cfg.predictor = "longname";
  pipeline<f32> p(cfg);
  std::vector<f32> v(16, 1.0f);
  EXPECT_THROW((void)p.compress(v, dims3(16)), error);
}

}  // namespace
}  // namespace fzmod::core
