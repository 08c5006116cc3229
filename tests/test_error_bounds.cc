// Cross-cutting property suite: the error-bound contract (DESIGN.md §6)
// for every compressor, over a parameterized grid of (compressor, dataset
// character, bound) — the repo's strongest invariant check.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <functional>
#include <limits>
#include <tuple>

#include <unistd.h>

#include "fzmod/baselines/compressor.hh"
#include "fzmod/common/rng.hh"
#include "fzmod/core/autotune.hh"
#include "fzmod/core/chunked.hh"
#include "fzmod/core/pipeline.hh"
#include "fzmod/core/stf_pipeline.hh"
#include "fzmod/core/stream_io.hh"
#include "fzmod/data/io.hh"
#include "fzmod/kernels/stats.hh"
#include "fzmod/metrics/metrics.hh"
#include "fzmod/serve/serve.hh"

namespace fzmod {
namespace {

enum class field_kind { smooth, rough, spiky, tiny_range, mixed_scale };

const char* to_string(field_kind k) {
  switch (k) {
    case field_kind::smooth: return "smooth";
    case field_kind::rough: return "rough";
    case field_kind::spiky: return "spiky";
    case field_kind::tiny_range: return "tiny_range";
    case field_kind::mixed_scale: return "mixed_scale";
  }
  return "?";
}

std::vector<f32> make_field(field_kind k, dims3 d) {
  rng r(static_cast<u64>(k) * 7919 + 3);
  std::vector<f32> v(d.len());
  switch (k) {
    case field_kind::smooth:
      for (std::size_t i = 0; i < v.size(); ++i) {
        const std::size_t x = i % d.x, y = (i / d.x) % d.y;
        v[i] = static_cast<f32>(std::sin(0.03 * x) * std::cos(0.05 * y) *
                                200);
      }
      break;
    case field_kind::rough:
      for (auto& x : v) x = static_cast<f32>(r.uniform(-500, 500));
      break;
    case field_kind::spiky:
      for (std::size_t i = 0; i < v.size(); ++i) {
        v[i] = static_cast<f32>(r.normal());
        if (r.next_below(200) == 0) {
          v[i] = static_cast<f32>(r.uniform(-1, 1) * 1e6);
        }
      }
      break;
    case field_kind::tiny_range:
      for (auto& x : v) x = static_cast<f32>(1.0 + 1e-6 * r.normal());
      break;
    case field_kind::mixed_scale:
      for (std::size_t i = 0; i < v.size(); ++i) {
        const f64 mag = std::pow(10.0, static_cast<f64>(i % 12) - 6.0);
        v[i] = static_cast<f32>(mag * r.normal());
      }
      break;
  }
  return v;
}

using BoundCase = std::tuple<std::string, field_kind, f64>;

class ErrorBoundContract : public ::testing::TestWithParam<BoundCase> {};

TEST_P(ErrorBoundContract, RelBoundHolds) {
  const auto& [name, kind, eb] = GetParam();
  const dims3 d{37, 29, 11};  // awkward (non-power-of-two) on purpose
  const auto v = make_field(kind, d);
  auto c = baselines::make(name);
  const auto archive = c->compress(v, d, {eb, eb_mode::rel});
  const auto rec = c->decompress(archive);
  ASSERT_EQ(rec.size(), v.size());
  const auto mm = kernels::minmax_host<f32>(v);
  const f64 bound = eb * mm.range();
  const f64 max_abs =
      std::max(std::fabs(static_cast<f64>(mm.min)),
               std::fabs(static_cast<f64>(mm.max)));
  const auto err = metrics::compare(v, rec);
  EXPECT_LE(err.max_abs_err, metrics::f32_bound_slack(bound, max_abs))
      << name << " on " << to_string(kind) << " @ " << eb;
}

std::vector<BoundCase> all_cases() {
  std::vector<BoundCase> cases;
  for (const auto& name : baselines::all_names()) {
    for (const field_kind kind :
         {field_kind::smooth, field_kind::rough, field_kind::spiky,
          field_kind::tiny_range, field_kind::mixed_scale}) {
      for (const f64 eb : {1e-2, 1e-4}) {
        cases.emplace_back(name, kind, eb);
      }
    }
  }
  return cases;
}

std::string case_name(const ::testing::TestParamInfo<BoundCase>& info) {
  std::string name = std::get<0>(info.param);
  for (auto& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name + "_" + to_string(std::get<1>(info.param)) +
         (std::get<2>(info.param) > 1e-3 ? "_loose" : "_tight");
}

INSTANTIATE_TEST_SUITE_P(Grid, ErrorBoundContract,
                         ::testing::ValuesIn(all_cases()), case_name);

TEST(ErrorBoundContract, Tight1e6BoundOnSmoothData) {
  // The paper's tightest evaluated bound; checked separately because it is
  // slow on rough data for every compressor.
  const dims3 d{64, 48, 8};
  const auto v = make_field(field_kind::smooth, d);
  for (const auto& name : baselines::all_names()) {
    auto c = baselines::make(name);
    const auto archive = c->compress(v, d, {1e-6, eb_mode::rel});
    const auto rec = c->decompress(archive);
    const auto mm = kernels::minmax_host<f32>(v);
    const auto err = metrics::compare(v, rec);
    EXPECT_LE(err.max_abs_err,
              metrics::f32_bound_slack(1e-6 * mm.range(), 200.0))
        << name;
  }
}

TEST(ErrorBoundContract, LosslessCompressorsAgreeOnDecodedLength) {
  const dims3 d{1000};
  const auto v = make_field(field_kind::smooth, d);
  for (const auto& name : baselines::all_names()) {
    auto c = baselines::make(name);
    const auto rec = c->decompress(c->compress(v, d, {1e-3, eb_mode::rel}));
    EXPECT_EQ(rec.size(), v.size()) << name;
  }
}

// ---------------------------------------------------------------------------
// Non-finite policy (DESIGN.md §6): an infinity makes the value range
// non-finite, so every path that resolves a relative bound rejects the
// input with invalid_argument instead of quantizing every finite value to
// NaN. The same field under an absolute bound keeps the contract, with
// the infinity restored exactly.

template <class T>
std::vector<T> sine_with_inf(T inf) {
  std::vector<T> v(4096);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<T>(std::sin(0.01 * static_cast<f64>(i)) * 100);
  }
  v[1234] = inf;
  return v;
}

void expect_invalid_argument(const std::string& path,
                             const std::function<void()>& run) {
  try {
    run();
    ADD_FAILURE() << path << " accepted a relative bound over an "
                             "infinite value range";
  } catch (const error& e) {
    EXPECT_EQ(e.code(), status::invalid_argument) << path << ": " << e.what();
  }
}

template <class T>
void expect_abs_roundtrip(const std::string& path, std::span<const T> v,
                          std::span<const T> rec, f64 eb) {
  ASSERT_EQ(rec.size(), v.size()) << path;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const f64 x = static_cast<f64>(v[i]), y = static_cast<f64>(rec[i]);
    if (std::isinf(x)) {
      ASSERT_EQ(x, y) << path << " at " << i;
    } else {
      ASSERT_LE(std::fabs(x - y), metrics::f32_bound_slack(eb, 100.0))
          << path << " at " << i;
    }
  }
}

template <class T>
void check_non_finite_policy(T inf) {
  const std::string tag = std::string(sizeof(T) == 4 ? "f32" : "f64") +
                          (inf > 0 ? " +Inf " : " -Inf ");
  const auto v = sine_with_inf(inf);
  const std::span<const T> field(v);
  const dims3 d{v.size()};
  const eb_config rel{1e-4, eb_mode::rel};
  const eb_config abs{1e-2, eb_mode::abs};
  core::chunked_options copt;
  copt.chunk_elems = 1024;
  copt.jobs = 2;

  for (const char* preset : {"default", "speed", "quality"}) {
    const std::string path = tag + "pipeline " + preset;
    expect_invalid_argument(path, [&] {
      core::pipeline<T> pipe(core::pipeline_config::preset(preset, rel));
      (void)pipe.compress(field, d);
    });
    expect_invalid_argument(tag + "chunked " + preset, [&] {
      core::chunked_pipeline<T> pipe(
          core::pipeline_config::preset(preset, rel), copt);
      (void)pipe.compress(field, d);
    });
    core::pipeline<T> pipe(core::pipeline_config::preset(preset, abs));
    expect_abs_roundtrip<T>(path + " abs", field,
                            pipe.decompress(pipe.compress(field, d)), abs.eb);
    core::chunked_pipeline<T> chunked(
        core::pipeline_config::preset(preset, abs), copt);
    expect_abs_roundtrip<T>(tag + "chunked " + preset + " abs", field,
                            chunked.decompress(chunked.compress(field, d)),
                            abs.eb);
  }
  expect_invalid_argument(tag + "pipeline log", [&] {
    auto cfg = core::pipeline_config::preset_default(rel);
    cfg.preprocessor = core::preprocess_log;
    core::pipeline<T> pipe(cfg);
    (void)pipe.compress(field, d);
  });

  const auto dir = std::filesystem::temp_directory_path() /
                   ("fzmod_nonfinite_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string in = (dir / "in.raw").string();
  data::write_file(in, std::span<const u8>(
                           reinterpret_cast<const u8*>(v.data()),
                           v.size() * sizeof(T)));
  core::stream_options sopt;
  sopt.chunk = copt;
  expect_invalid_argument(tag + "streaming", [&] {
    (void)core::compress_file_stream<T>(
        in, d, (dir / "out.fzmod").string(),
        core::pipeline_config::preset_default(rel), sopt);
  });
  std::filesystem::remove_all(dir);
}

void check_non_finite_policy_f32_only(f32 inf) {
  const std::string tag = inf > 0 ? "f32 +Inf " : "f32 -Inf ";
  const auto v = sine_with_inf(inf);
  const dims3 d{v.size()};
  const eb_config rel{1e-4, eb_mode::rel};
  const eb_config abs{1e-2, eb_mode::abs};

  for (const auto& name : baselines::all_names()) {
    const auto c = baselines::make(name);
    expect_invalid_argument(tag + name,
                            [&] { (void)c->compress(v, d, rel); });
    expect_abs_roundtrip<f32>(tag + name + " abs", v,
                              c->decompress(c->compress(v, d, abs)), abs.eb);
  }
  expect_invalid_argument(tag + "stf",
                          [&] { (void)core::stf_compress(v, d, rel); });
  expect_abs_roundtrip<f32>(
      tag + "stf abs", v,
      core::stf_decompress(core::stf_compress(v, d, abs)), abs.eb);
  expect_invalid_argument(tag + "autotune",
                          [&] { (void)core::autotune(v, d, rel); });

  serve::server srv(core::pipeline_config::preset_default(rel));
  serve::request req;
  req.data = v;
  req.dims = d;
  const serve::response resp = srv.submit(std::move(req)).get();
  EXPECT_FALSE(resp.ok) << tag << "serve accepted a relative bound over an "
                                  "infinite value range";
}

TEST(NonFiniteRange, RelativeBoundRejectedOnEveryPathAbsoluteRoundTrips) {
  check_non_finite_policy(std::numeric_limits<f32>::infinity());
  check_non_finite_policy(-std::numeric_limits<f32>::infinity());
  check_non_finite_policy(std::numeric_limits<f64>::infinity());
  check_non_finite_policy(-std::numeric_limits<f64>::infinity());
  check_non_finite_policy_f32_only(std::numeric_limits<f32>::infinity());
  check_non_finite_policy_f32_only(-std::numeric_limits<f32>::infinity());
}

}  // namespace
}  // namespace fzmod
