// FZModules — pipeline configuration.
//
// A pipeline is described by *names* of modules for each of the paper's
// four stages (preprocessing, prediction, lossless encoding, secondary
// lossless encoding) plus the quantizer settings. Names resolve through
// the module registry, so user-registered modules participate on equal
// footing with the built-ins (the extensibility contribution of §3.2).
#pragma once

#include <string>
#include <string_view>

#include "fzmod/common/error.hh"
#include "fzmod/common/types.hh"
#include "fzmod/kernels/histogram.hh"

namespace fzmod::core {

/// Built-in module names.
inline constexpr const char* predictor_lorenzo = "lorenzo";
inline constexpr const char* predictor_spline = "spline";
inline constexpr const char* predictor_delta = "delta";
inline constexpr const char* codec_huffman = "huffman";
inline constexpr const char* codec_fzg = "fzg";
inline constexpr const char* codec_flen = "fixed-length";
inline constexpr const char* codec_fixed_block = "fixed-block";
inline constexpr const char* preprocess_none = "none";
inline constexpr const char* preprocess_value_range = "value-range";
inline constexpr const char* preprocess_log = "log";

struct pipeline_config {
  eb_config eb;
  int radius = 512;
  std::string preprocessor = preprocess_value_range;
  std::string predictor = predictor_lorenzo;
  std::string codec = codec_huffman;
  kernels::histogram_kind histogram = kernels::histogram_kind::standard;
  bool secondary = false;  // run the LZ secondary encoder over the archive

  /// FZMod-Default (paper §3.3): Lorenzo + standard histogram + CPU
  /// Huffman. Balances throughput, ratio and quality.
  [[nodiscard]] static pipeline_config preset_default(
      eb_config eb = {1e-4, eb_mode::rel});

  /// FZMod-Speed: Lorenzo + FZ-GPU bitshuffle/dictionary encoder; trades
  /// ratio for throughput and keeps the whole pipeline device-resident.
  [[nodiscard]] static pipeline_config preset_speed(
      eb_config eb = {1e-4, eb_mode::rel});

  /// FZMod-Quality: spline interpolation predictor + top-k histogram +
  /// Huffman; best rate-distortion of the family.
  [[nodiscard]] static pipeline_config preset_quality(
      eb_config eb = {1e-4, eb_mode::rel});

  /// Look a preset up by name ("default" | "speed" | "quality"); throws
  /// invalid_argument on anything else. The one preset dispatch every
  /// call site (CLI, daemon, baselines) shares.
  [[nodiscard]] static pipeline_config preset(std::string_view name,
                                              eb_config eb = {1e-4,
                                                              eb_mode::rel});
};

inline pipeline_config pipeline_config::preset_default(eb_config eb) {
  pipeline_config c;
  c.eb = eb;
  return c;
}

inline pipeline_config pipeline_config::preset_speed(eb_config eb) {
  pipeline_config c;
  c.eb = eb;
  c.codec = codec_fzg;
  return c;
}

inline pipeline_config pipeline_config::preset_quality(eb_config eb) {
  pipeline_config c;
  c.eb = eb;
  c.predictor = predictor_spline;
  c.histogram = kernels::histogram_kind::topk;
  return c;
}

inline pipeline_config pipeline_config::preset(std::string_view name,
                                               eb_config eb) {
  if (name == "default") return preset_default(eb);
  if (name == "speed") return preset_speed(eb);
  if (name == "quality") return preset_quality(eb);
  throw error(status::invalid_argument,
              "unknown preset '" + std::string(name) +
                  "' (expected default|speed|quality)");
}

}  // namespace fzmod::core
