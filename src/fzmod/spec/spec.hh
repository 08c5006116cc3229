// FZModules — declarative pipeline specs (docs/PIPELINES.md).
//
// The paper's pitch is *customizable* pipelines, but assembling one used
// to mean writing C++ against `pipeline_config`. A `pipeline_spec` is the
// same information as a compact, validated, printable description with
// two interchangeable surfaces:
//
//   - a one-line CLI grammar:  lorenzo(radius=1024)+huffman(hist=topk)+lz
//   - a JSON object:           {"predictor":"lorenzo","codec":"huffman",...}
//
// parse() auto-detects the surface (JSON starts with '{'), to_string()
// prints the canonical one-liner and parse(to_string(s)) == s — the
// round-trip identity the tests pin. Specs resolve against the module
// registry, so a user-registered module is addressable by name the moment
// it registers, and validation errors name the unknown token, its byte
// position, and the candidate module names.
//
// The spec deliberately excludes the error bound: a spec describes the
// *shape* of a pipeline (which modules and their parameters), while the
// bound is a per-invocation quantity — the same spec serves many bounds.
//
// `pipeline<T>::compress` embeds the canonical spec text in a trailing,
// digest-protected archive section, so any v2+ archive decompresses
// self-describingly with zero caller-side configuration (see
// archive_format.hh; v1 archives and older v2 archives without the
// section are unchanged and still readable).
#pragma once

#include <string>
#include <string_view>

#include "fzmod/core/config.hh"

namespace fzmod::spec {

/// The declarative pipeline description. Field-for-field the module/knob
/// subset of `core::pipeline_config` (everything except the error bound).
struct pipeline_spec {
  std::string preprocessor = core::preprocess_value_range;
  std::string predictor = core::predictor_lorenzo;
  std::string codec = core::codec_huffman;
  int radius = 512;
  kernels::histogram_kind histogram = kernels::histogram_kind::standard;
  bool secondary = false;

  bool operator==(const pipeline_spec&) const = default;
};

/// Parse either surface (leading '{' selects JSON, anything else the
/// one-line grammar). Stage names are classified against the f32 module
/// registry; errors are status::invalid_argument and carry the offending
/// token, its byte position, and candidate lists. The grammar:
///
///   spec  := stage ('+' stage)*
///   stage := name [ '(' key '=' value { ',' key '=' value } ')' ]
///   name  := [A-Za-z0-9_.-]+           (module name, or 'lz' = secondary)
///
/// Stage order is preprocessor? predictor codec, each at most once;
/// params: the predictor takes radius=N, the codec hist=standard|topk.
[[nodiscard]] pipeline_spec parse(std::string_view text);

/// Canonical one-line form: parse(to_string(s)) == s, and equal specs
/// print identically (the archive-embedded text is this form, so equal
/// configs produce byte-identical archives).
[[nodiscard]] std::string to_string(const pipeline_spec& s);

/// JSON form with every field explicit (stable key order).
[[nodiscard]] std::string to_json(const pipeline_spec& s);

/// Project a config onto its spec (drops the error bound).
[[nodiscard]] pipeline_spec from_config(const core::pipeline_config& cfg);

/// Materialize a config from a spec plus a per-invocation bound.
[[nodiscard]] core::pipeline_config to_config(const pipeline_spec& s,
                                              eb_config eb);

/// Check every module name against module_registry<T>; throws
/// status::unsupported naming the unknown module and listing candidates.
/// parse() already validates against the f32 registry — call this for
/// the other element type before constructing a pipeline<T> from a spec.
template <class T>
void validate(const pipeline_spec& s);

extern template void validate<f32>(const pipeline_spec&);
extern template void validate<f64>(const pipeline_spec&);

}  // namespace fzmod::spec
