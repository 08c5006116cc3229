// FZModules — pipeline spec parsing, printing and resolution.
//
// Two parsers share one validation path: the one-line grammar carries
// byte positions through every error, the JSON surface names the key
// instead. Both classify stage names against the live f32 registry, so
// error messages list exactly the modules this process can build.

#include "fzmod/spec/spec.hh"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <sstream>

#include "fzmod/core/registry.hh"

namespace fzmod::spec {

namespace {

using core::module_registry;

[[noreturn]] void fail(const std::string& msg) {
  throw error(status::invalid_argument, "pipeline spec: " + msg);
}

std::string join(const std::vector<std::string>& names) {
  std::string out;
  for (const auto& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out.empty() ? "(none)" : out;
}

/// The candidate listing appended to unknown-module errors.
std::string candidates() {
  auto& reg = module_registry<f32>::instance();
  return "; known preprocessors: " + join(reg.preprocessor_names()) +
         "; predictors: " + join(reg.predictor_names()) +
         "; codecs: " + join(reg.codec_names()) +
         "; plus 'lz' (secondary compression)";
}

[[noreturn]] void fail_unknown(const std::string& name, std::size_t pos) {
  fail("unknown module '" + name + "' at position " + std::to_string(pos) +
       candidates());
}

bool name_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         c == '.' || c == '-';
}

int parse_radius(std::string_view v, std::size_t pos) {
  int r = 0;
  const auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), r);
  if (ec != std::errc{} || p != v.data() + v.size() || r < 2 || r > 16384) {
    fail("radius must be an integer in [2, 16384], got '" + std::string(v) +
         "' at position " + std::to_string(pos));
  }
  return r;
}

kernels::histogram_kind parse_hist(std::string_view v, std::size_t pos) {
  if (v == "standard") return kernels::histogram_kind::standard;
  if (v == "topk") return kernels::histogram_kind::topk;
  fail("hist must be standard|topk, got '" + std::string(v) +
       "' at position " + std::to_string(pos));
}

const char* hist_name(kernels::histogram_kind k) {
  return k == kernels::histogram_kind::topk ? "topk" : "standard";
}

struct stage_tok {
  std::string name;
  std::size_t pos = 0;  // byte offset of the name in the input
  std::vector<std::array<std::string, 2>> params;  // {key, value}
  std::vector<std::size_t> param_pos;              // offset of each key
};

/// Tokenize `text` into '+'-separated stages with optional (k=v,...)
/// parameter lists. Purely lexical — classification happens after.
std::vector<stage_tok> lex(std::string_view text) {
  std::vector<stage_tok> stages;
  std::size_t i = 0;
  const auto bad = [&](const std::string& what) {
    fail(what + " at position " + std::to_string(i) + " in '" +
         std::string(text) + "'");
  };
  while (true) {
    stage_tok st;
    st.pos = i;
    while (i < text.size() && name_char(text[i])) ++i;
    st.name.assign(text.substr(st.pos, i - st.pos));
    if (st.name.empty()) bad("expected a module name");
    if (i < text.size() && text[i] == '(') {
      ++i;
      while (true) {
        const std::size_t kpos = i;
        while (i < text.size() && name_char(text[i])) ++i;
        std::string key(text.substr(kpos, i - kpos));
        if (key.empty() || i >= text.size() || text[i] != '=') {
          bad("expected 'key=value' in parameter list");
        }
        ++i;  // '='
        const std::size_t vpos = i;
        while (i < text.size() && name_char(text[i])) ++i;
        std::string val(text.substr(vpos, i - vpos));
        if (val.empty()) bad("expected a parameter value");
        st.params.push_back({std::move(key), std::move(val)});
        st.param_pos.push_back(kpos);
        if (i < text.size() && text[i] == ',') {
          ++i;
          continue;
        }
        if (i < text.size() && text[i] == ')') {
          ++i;
          break;
        }
        bad("expected ',' or ')' in parameter list");
      }
    }
    stages.push_back(std::move(st));
    if (i == text.size()) break;
    if (text[i] != '+') bad("expected '+' between stages");
    ++i;  // '+'
    if (i == text.size()) bad("trailing '+'");
  }
  return stages;
}

pipeline_spec parse_grammar(std::string_view text) {
  auto& reg = module_registry<f32>::instance();
  pipeline_spec s;
  bool have_pre = false, have_pred = false, have_codec = false;
  const auto dup = [&](const stage_tok& st, const char* kind) {
    fail(std::string("duplicate ") + kind + " stage '" + st.name +
         "' at position " + std::to_string(st.pos));
  };
  const auto no_params = [&](const stage_tok& st) {
    if (!st.params.empty()) {
      fail("stage '" + st.name + "' takes no parameters (at position " +
           std::to_string(st.param_pos[0]) + ")");
    }
  };
  for (const auto& st : lex(text)) {
    if (s.secondary && st.name != "lz") {
      fail("stage '" + st.name + "' at position " + std::to_string(st.pos) +
           " comes after 'lz'; secondary compression is always last");
    }
    if (st.name == "lz") {
      if (s.secondary) dup(st, "lz");
      no_params(st);
      s.secondary = true;
    } else if (reg.has_preprocessor(st.name)) {
      if (have_pre) dup(st, "preprocessor");
      if (have_pred || have_codec) {
        fail("preprocessor '" + st.name + "' at position " +
             std::to_string(st.pos) + " must come before the predictor");
      }
      no_params(st);
      s.preprocessor = st.name;
      have_pre = true;
    } else if (reg.has_predictor(st.name)) {
      if (have_pred) dup(st, "predictor");
      if (have_codec) {
        fail("predictor '" + st.name + "' at position " +
             std::to_string(st.pos) + " must come before the codec");
      }
      s.predictor = st.name;
      have_pred = true;
      for (std::size_t k = 0; k < st.params.size(); ++k) {
        const auto& [key, val] = st.params[k];
        const std::size_t pos = st.param_pos[k];
        if (key == "radius") {
          s.radius = parse_radius(val, pos);
        } else {
          fail("predictor parameter must be radius, got '" + key +
               "' at position " + std::to_string(pos));
        }
      }
    } else if (reg.has_codec(st.name)) {
      if (have_codec) dup(st, "codec");
      s.codec = st.name;
      have_codec = true;
      for (std::size_t k = 0; k < st.params.size(); ++k) {
        const auto& [key, val] = st.params[k];
        const std::size_t pos = st.param_pos[k];
        if (key == "hist") {
          s.histogram = parse_hist(val, pos);
        } else {
          fail("codec parameter must be hist, got '" + key +
               "' at position " + std::to_string(pos));
        }
      }
    } else {
      fail_unknown(st.name, st.pos);
    }
  }
  return s;
}

// ---- minimal JSON surface ------------------------------------------------
//
// A flat object of known keys with string / integer / boolean values is
// all the spec needs; a full JSON library would be a dependency for no
// expressive power. Strictly validating: unknown keys, duplicate keys,
// trailing garbage and malformed literals all throw.

struct json_cursor {
  std::string_view text;
  std::size_t i = 0;

  void skip_ws() {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
  }
  [[noreturn]] void bad(const std::string& what) {
    fail(what + " at position " + std::to_string(i) + " in JSON spec");
  }
  char peek() {
    skip_ws();
    if (i >= text.size()) bad("unexpected end of input");
    return text[i];
  }
  void expect(char c) {
    if (peek() != c) bad(std::string("expected '") + c + "'");
    ++i;
  }
  std::string string_lit() {
    expect('"');
    std::string out;
    while (i < text.size() && text[i] != '"') {
      if (text[i] == '\\') bad("escape sequences are not supported");
      out += text[i++];
    }
    if (i >= text.size()) bad("unterminated string");
    ++i;  // closing quote
    return out;
  }
};

pipeline_spec parse_json(std::string_view text) {
  auto& reg = module_registry<f32>::instance();
  pipeline_spec s;
  json_cursor c{text};
  c.expect('{');
  std::vector<std::string> seen;
  if (c.peek() != '}') {
    while (true) {
      const std::size_t key_pos = c.i;
      std::string key = c.string_lit();
      if (std::find(seen.begin(), seen.end(), key) != seen.end()) {
        fail("duplicate key \"" + key + "\" at position " +
             std::to_string(key_pos) + " in JSON spec");
      }
      seen.push_back(key);
      c.expect(':');
      if (key == "preprocessor" || key == "predictor" || key == "codec" ||
          key == "histogram") {
        const std::size_t vpos = c.i;
        const std::string v = c.string_lit();
        if (key == "preprocessor") {
          s.preprocessor = v;
        } else if (key == "predictor") {
          s.predictor = v;
        } else if (key == "codec") {
          s.codec = v;
        } else {
          s.histogram = parse_hist(v, vpos);
        }
      } else if (key == "radius") {
        c.skip_ws();
        const std::size_t vpos = c.i;
        while (c.i < c.text.size() &&
               (std::isdigit(static_cast<unsigned char>(c.text[c.i])) ||
                c.text[c.i] == '-')) {
          ++c.i;
        }
        s.radius = parse_radius(c.text.substr(vpos, c.i - vpos), vpos);
      } else if (key == "secondary") {
        c.skip_ws();
        if (c.text.substr(c.i, 4) == "true") {
          s.secondary = true;
          c.i += 4;
        } else if (c.text.substr(c.i, 5) == "false") {
          s.secondary = false;
          c.i += 5;
        } else {
          c.bad("\"secondary\" must be true or false");
        }
      } else {
        fail("unknown key \"" + key + "\" at position " +
             std::to_string(key_pos) +
             " in JSON spec (expected preprocessor|predictor|codec|radius|"
             "histogram|secondary)");
      }
      if (c.peek() == ',') {
        ++c.i;
        continue;
      }
      break;
    }
  }
  c.expect('}');
  c.skip_ws();
  if (c.i != text.size()) c.bad("trailing characters after JSON object");

  // Same module resolution as the grammar path (positions are key-level).
  if (!reg.has_preprocessor(s.preprocessor)) {
    fail("unknown preprocessor '" + s.preprocessor + "'" + candidates());
  }
  if (!reg.has_predictor(s.predictor)) {
    fail("unknown predictor '" + s.predictor + "'" + candidates());
  }
  if (!reg.has_codec(s.codec)) {
    fail("unknown codec '" + s.codec + "'" + candidates());
  }
  return s;
}

}  // namespace

pipeline_spec parse(std::string_view text) {
  std::size_t b = 0;
  while (b < text.size() &&
         std::isspace(static_cast<unsigned char>(text[b]))) {
    ++b;
  }
  if (b == text.size()) fail("empty spec");
  std::size_t e = text.size();
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) {
    --e;
  }
  if (text[b] == '{') return parse_json(text.substr(b));
  return parse_grammar(text.substr(b, e - b));
}

std::string to_string(const pipeline_spec& s) {
  std::string out;
  if (s.preprocessor != core::preprocess_value_range) {
    out += s.preprocessor;
    out += '+';
  }
  out += s.predictor;
  if (s.radius != 512) out += "(radius=" + std::to_string(s.radius) + ')';
  out += '+';
  out += s.codec;
  if (s.histogram != kernels::histogram_kind::standard) {
    out += std::string("(hist=") + hist_name(s.histogram) + ')';
  }
  if (s.secondary) out += "+lz";
  return out;
}

std::string to_json(const pipeline_spec& s) {
  std::ostringstream o;
  o << "{\"preprocessor\":\"" << s.preprocessor << "\",\"predictor\":\""
    << s.predictor << "\",\"codec\":\"" << s.codec
    << "\",\"radius\":" << s.radius << ",\"histogram\":\""
    << hist_name(s.histogram) << "\",\"secondary\":"
    << (s.secondary ? "true" : "false") << '}';
  return o.str();
}

pipeline_spec from_config(const core::pipeline_config& cfg) {
  pipeline_spec s;
  s.preprocessor = cfg.preprocessor;
  s.predictor = cfg.predictor;
  s.codec = cfg.codec;
  s.radius = cfg.radius;
  s.histogram = cfg.histogram;
  s.secondary = cfg.secondary;
  return s;
}

core::pipeline_config to_config(const pipeline_spec& s, eb_config eb) {
  core::pipeline_config cfg;
  cfg.eb = eb;
  cfg.preprocessor = s.preprocessor;
  cfg.predictor = s.predictor;
  cfg.codec = s.codec;
  cfg.radius = s.radius;
  cfg.histogram = s.histogram;
  cfg.secondary = s.secondary;
  return cfg;
}

template <class T>
void validate(const pipeline_spec& s) {
  auto& reg = module_registry<T>::instance();
  const char* type = sizeof(T) == 4 ? "f32" : "f64";
  if (!reg.has_preprocessor(s.preprocessor)) {
    throw error(status::unsupported,
                "pipeline spec: no " + std::string(type) +
                    " preprocessor named '" + s.preprocessor + "'" +
                    candidates());
  }
  if (!reg.has_predictor(s.predictor)) {
    throw error(status::unsupported,
                "pipeline spec: no " + std::string(type) +
                    " predictor named '" + s.predictor + "'" + candidates());
  }
  if (!reg.has_codec(s.codec)) {
    throw error(status::unsupported, "pipeline spec: no " +
                                         std::string(type) +
                                         " codec named '" + s.codec + "'" +
                                         candidates());
  }
}

template void validate<f32>(const pipeline_spec&);
template void validate<f64>(const pipeline_spec&);

}  // namespace fzmod::spec
