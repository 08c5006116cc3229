#include "fzmod/core/autotune.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "fzmod/common/error.hh"

namespace fzmod::core {
namespace {

/// Number of sampled positions (strided, deterministic).
constexpr std::size_t sample_target = 65536;

}  // namespace

autotune_report autotune(std::span<const f32> data, dims3 dims,
                         eb_config eb, objective goal) {
  FZMOD_REQUIRE(data.size() == dims.len(), status::invalid_argument,
                "autotune: data size does not match dims");
  FZMOD_REQUIRE(!data.empty(), status::invalid_argument,
                "autotune: empty input");

  autotune_report rep;
  rep.config.eb = eb;

  // Pass 1: sampled range (needed to resolve relative bounds). A strided
  // sample under-estimates the true range slightly; for tuning that is
  // irrelevant (the real preprocessor re-resolves exactly).
  const std::size_t stride =
      std::max<std::size_t>(1, data.size() / sample_target);
  // Seeded at the infinities so NaN samples never become a bound (min and
  // max keep their first argument against NaN), as kernels::minmax skips
  // NaN; a sample with no ordered value reports a zero range.
  f64 lo = std::numeric_limits<f64>::infinity(), hi = -lo;
  for (std::size_t i = 0; i < data.size(); i += stride) {
    lo = std::min<f64>(lo, data[i]);
    hi = std::max<f64>(hi, data[i]);
  }
  rep.sampled_range = hi >= lo ? hi - lo : 0.0;
  const f64 ebx2 = 2.0 * eb.resolve(rep.sampled_range);

  // Pass 2: quantized-neighbour-delta statistics along the contiguous
  // dimension (the cheapest honest proxy for predictor behaviour).
  const int radius = rep.config.radius;
  u64 samples = 0, within_radius = 0, zeros = 0;
  const f64 r_ebx2 = 1.0 / ebx2;
  for (std::size_t i = stride; i < data.size(); i += stride) {
    // Use genuinely adjacent pairs (i-1, i), sampled sparsely.
    const f64 a = static_cast<f64>(data[i - 1]) * r_ebx2;
    const f64 b = static_cast<f64>(data[i]) * r_ebx2;
    if (!(std::fabs(a) < 9e15 && std::fabs(b) < 9e15)) continue;
    // llrint, not round_half_even: a cold loop whose guard admits > 2^51.
    const i64 delta = std::llrint(b) - std::llrint(a);
    ++samples;
    within_radius += (delta > -radius && delta < radius);
    zeros += (delta == 0);
  }
  rep.predictability =
      samples ? static_cast<f64>(within_radius) / samples : 1.0;
  rep.concentration = samples ? static_cast<f64>(zeros) / samples : 1.0;

  // Decision procedure. Mirrors the manual guidance of paper §3.2/§4.3:
  //  - unpredictable data wastes the spline's extra work: prefer Lorenzo;
  //  - concentrated code distributions favour the top-k histogram;
  //  - the FZG codec buys throughput at ratio cost; Huffman the reverse;
  //  - the secondary pass only pays when the primary output stays
  //    redundant (high concentration) or ratio is the sole objective.
  auto& cfg = rep.config;
  switch (goal) {
    case objective::throughput:
      cfg = pipeline_config::preset_speed(eb);
      rep.rationale = "objective=throughput: Lorenzo + device-resident FZG "
                      "codec (no D2H of raw codes, no CPU Huffman)";
      break;
    case objective::quality:
      cfg = pipeline_config::preset_quality(eb);
      if (rep.predictability < 0.5) {
        // Spline cannot beat Lorenzo when even adjacent deltas blow the
        // radius; fall back so quality doesn't cost ratio for nothing.
        cfg.predictor = predictor_lorenzo;
        cfg.histogram = kernels::histogram_kind::standard;
        rep.rationale = "objective=quality, but sampled predictability " +
                        std::to_string(rep.predictability) +
                        " < 0.5: spline would mostly emit outliers; "
                        "using Lorenzo + Huffman instead";
      } else {
        rep.rationale = "objective=quality: spline predictor + top-k "
                        "histogram + Huffman";
      }
      break;
    case objective::ratio:
      cfg = pipeline_config::preset_default(eb);
      cfg.secondary = true;
      if (rep.predictability >= 0.5 && rep.concentration >= 0.4) {
        cfg.predictor = predictor_spline;
        cfg.histogram = kernels::histogram_kind::topk;
        rep.rationale = "objective=ratio: predictable + concentrated "
                        "sample -> spline + top-k + Huffman + secondary LZ";
      } else {
        rep.rationale = "objective=ratio: Lorenzo + Huffman + secondary "
                        "LZ (sample too rough for spline to pay)";
      }
      break;
    case objective::balanced:
      cfg = pipeline_config::preset_default(eb);
      if (rep.concentration >= 0.6) {
        cfg.histogram = kernels::histogram_kind::topk;
        rep.rationale = "objective=balanced: Lorenzo + Huffman; sampled "
                        "concentration " +
                        std::to_string(rep.concentration) +
                        " >= 0.6 -> top-k histogram";
      } else {
        rep.rationale =
            "objective=balanced: Lorenzo + standard histogram + Huffman";
      }
      break;
  }
  return rep;
}

}  // namespace fzmod::core
