// fzmod::spec — declarative pipeline descriptions: grammar and JSON
// parsing, the canonical round-trip identity, registry-backed validation
// errors, archive embedding (self-describing decode with zero caller
// config), and hostile-spec-section fuzzing.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fzmod/core/archive_format.hh"
#include "fzmod/core/pipeline.hh"
#include "fzmod/metrics/metrics.hh"
#include "fzmod/spec/spec.hh"

namespace fzmod::spec {
namespace {

std::vector<f32> smooth_field(std::size_t n) {
  std::vector<f32> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<f32>(std::sin(0.01 * static_cast<f64>(i)) * 40.0 +
                            0.2 * std::cos(0.3 * static_cast<f64>(i)));
  }
  return v;
}

// ---- grammar ------------------------------------------------------------

TEST(SpecGrammar, RoundTripIdentityTable) {
  // {input, canonical}: parse(input) prints canonical, and
  // parse(canonical) == parse(input) — the round-trip identity.
  const struct {
    const char* input;
    const char* canonical;
  } table[] = {
      {"lorenzo+huffman", "lorenzo+huffman"},
      {"value-range+lorenzo+huffman", "lorenzo+huffman"},
      {"none+lorenzo+huffman", "none+lorenzo+huffman"},
      {"log+spline+fzg+lz", "log+spline+fzg+lz"},
      {"delta+fixed-block", "delta+fixed-block"},
      {"delta(radius=256)+fixed-length", "delta(radius=256)+fixed-length"},
      {"lorenzo(radius=1024)+huffman(hist=topk)+lz",
       "lorenzo(radius=1024)+huffman(hist=topk)+lz"},
      {"lorenzo(radius=512)+huffman(hist=standard)", "lorenzo+huffman"},
      {"  lorenzo+huffman  ", "lorenzo+huffman"},
      {"huffman", "lorenzo+huffman"},  // predictor defaults to lorenzo
  };
  for (const auto& row : table) {
    const pipeline_spec s = parse(row.input);
    EXPECT_EQ(to_string(s), row.canonical) << row.input;
    EXPECT_EQ(parse(to_string(s)), s) << row.input;
  }
}

TEST(SpecGrammar, JsonRoundTrip) {
  for (const char* text :
       {"lorenzo+huffman", "log+spline+fzg+lz", "delta(radius=128)+fixed-block",
        "lorenzo(radius=1024)+huffman(hist=topk)+lz"}) {
    const pipeline_spec s = parse(text);
    const std::string json = to_json(s);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(parse(json), s) << json;
  }
}

TEST(SpecGrammar, UnknownModuleNamesTokenPositionAndCandidates) {
  try {
    (void)parse("lorenzo+hufman");
    FAIL() << "expected invalid_argument";
  } catch (const error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("hufman"), std::string::npos) << msg;
    EXPECT_NE(msg.find("position 8"), std::string::npos) << msg;
    EXPECT_NE(msg.find("huffman"), std::string::npos) << msg;  // candidate
    EXPECT_NE(msg.find("delta"), std::string::npos) << msg;    // candidate
  }
}

TEST(SpecGrammar, MalformedSpecsThrow) {
  const char* bad[] = {
      "",                              // nothing
      "+lorenzo",                      // leading separator
      "lorenzo+",                      // trailing separator
      "lorenzo++huffman",              // empty stage
      "huffman+lorenzo",               // codec before predictor
      "lorenzo+lorenzo",               // duplicate stage kind
      "lz+lorenzo+huffman",            // lz must come last
      "lorenzo(radius=1)+huffman",     // radius below minimum
      "lorenzo(radius=99999)+huffman", // radius above maximum
      "lorenzo(radius=12x)+huffman",   // trailing garbage in number
      "lorenzo(bogus=1)+huffman",      // unknown predictor param
      "lorenzo+huffman(radius=8)",     // radius is not a codec param
      "lorenzo+huffman(hist=bogus)",   // unknown hist value
      "lorenzo+huffman(tier=triple)",  // unknown codec param
      "lorenzo(tier=vector)+huffman",  // tier is not a predictor param
      "lorenzo+huffman(tier=double)",  // tier is not a codec param
      "lorenzo+huffman(",              // unclosed parameter list
      "lorenzo+huffman)",              // trailing garbage
      "lorenzo+huffman(tier)",         // missing =value
      "lz(level=3)",                   // lz takes no params
  };
  for (const char* text : bad) {
    EXPECT_THROW((void)parse(text), error) << "'" << text << "'";
  }
}

TEST(SpecGrammar, MalformedJsonThrows) {
  const char* bad[] = {
      "{",                                       // truncated
      "{}garbage",                               // trailing garbage
      R"({"predictor":"lorenzo","predictor":"spline"})",  // duplicate key
      R"({"warp":"9"})",                         // unknown key
      R"({"radius":"512"})",                     // radius must be a number
      R"({"secondary":"yes"})",                  // secondary must be a bool
      R"({"predictor":"hufman"})",               // unknown module
      R"({"codec":"lorenzo"})",                  // predictor is not a codec
  };
  for (const char* text : bad) {
    EXPECT_THROW((void)parse(text), error) << text;
  }
}

TEST(SpecGrammar, ValidateChecksBothElementTypes) {
  pipeline_spec s;
  EXPECT_NO_THROW(validate<f32>(s));
  EXPECT_NO_THROW(validate<f64>(s));
  s.codec = "nonexistent-codec";
  EXPECT_THROW(validate<f32>(s), error);
  EXPECT_THROW(validate<f64>(s), error);
}

// ---- config projection --------------------------------------------------

TEST(SpecConfig, FromConfigToConfigInverse) {
  for (const char* text :
       {"lorenzo+huffman", "log+spline+fzg+lz",
        "delta(radius=256)+fixed-block",
        "lorenzo(radius=2048)+huffman(hist=topk)"}) {
    const pipeline_spec s = parse(text);
    const auto cfg = to_config(s, {1e-3, eb_mode::rel});
    EXPECT_EQ(from_config(cfg), s) << text;
    EXPECT_EQ(cfg.eb.eb, 1e-3);
  }
}

TEST(SpecConfig, PresetsProjectOntoSpecsAndBack) {
  for (const char* name : {"default", "speed", "quality"}) {
    const auto cfg = core::pipeline_config::preset(name, {1e-4, eb_mode::rel});
    const pipeline_spec s = from_config(cfg);
    const auto cfg2 = to_config(s, cfg.eb);
    EXPECT_EQ(cfg2.predictor, cfg.predictor) << name;
    EXPECT_EQ(cfg2.codec, cfg.codec) << name;
    EXPECT_EQ(cfg2.secondary, cfg.secondary) << name;
    EXPECT_EQ(cfg2.radius, cfg.radius) << name;
  }
  EXPECT_THROW((void)core::pipeline_config::preset("turbo"), error);
}

// ---- archive embedding --------------------------------------------------

TEST(SpecArchive, EmbeddedSpecDecodesWithZeroCallerConfig) {
  const dims3 d{96, 40, 2};
  const auto v = smooth_field(d.len());
  for (const char* text :
       {"lorenzo+huffman", "delta+fixed-block", "spline+fzg+lz",
        "lorenzo(radius=1024)+fixed-length"}) {
    const pipeline_spec s = parse(text);
    core::pipeline<f32> enc(to_config(s, {1e-4, eb_mode::rel}));
    const auto archive = enc.compress(v, d);

    // inspect reports the canonical embedded text without running modules.
    const auto info = core::inspect_archive(archive);
    EXPECT_EQ(info.spec, to_string(s)) << text;
    EXPECT_EQ(parse(info.spec), s) << text;

    // A default-constructed pipeline decodes it: fully self-describing.
    core::pipeline<f32> dec{core::pipeline_config{}};
    const auto rec = dec.decompress(archive);
    const auto err = metrics::compare(v, rec);
    EXPECT_LE(err.max_abs_err,
              metrics::f32_bound_slack(1e-4 * err.range, err.range))
        << text;

    const auto rep = core::verify_archive(archive);
    EXPECT_TRUE(rep.ok()) << text;
    EXPECT_TRUE(rep.spec_ok) << text;
  }
}

TEST(SpecArchive, EqualConfigsEmbedByteIdenticalArchives) {
  const dims3 d{64, 32};
  const auto v = smooth_field(d.len());
  const auto cfg = to_config(parse("delta+huffman"), {1e-4, eb_mode::rel});
  core::pipeline<f32> a(cfg), b(cfg);
  EXPECT_EQ(a.compress(v, d), b.compress(v, d));
}

// ---- hostile spec sections ----------------------------------------------

class SpecSectionFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    core::fmt::set_verify_enabled(true);
    const auto v = smooth_field(dims_.len());
    core::pipeline<f32> p(
        to_config(parse("lorenzo+huffman"), {1e-4, eb_mode::rel}));
    archive_ = p.compress(v, dims_);
    // Non-secondary v2: the spec section is the archive's trailing bytes.
    spec_text_ = core::inspect_archive(archive_).spec;
    ASSERT_FALSE(spec_text_.empty());
    section_bytes_ = sizeof(core::fmt::spec_section_header) +
                     spec_text_.size() + sizeof(u64);
    ASSERT_GT(archive_.size(), section_bytes_);
  }

  void expect_corrupt(const std::vector<u8>& damaged) {
    core::pipeline<f32> p{core::pipeline_config{}};
    try {
      (void)p.decompress(damaged);
      FAIL() << "damaged spec section went undetected";
    } catch (const error& e) {
      EXPECT_EQ(e.code(), status::corrupt_archive) << e.what();
    }
    EXPECT_FALSE(core::verify_archive(damaged).spec_ok);
  }

  dims3 dims_{64, 48};
  std::vector<u8> archive_;
  std::string spec_text_;
  std::size_t section_bytes_ = 0;
};

TEST_F(SpecSectionFuzz, TruncatedSectionIsDetected) {
  for (const std::size_t cut : {std::size_t{1}, sizeof(u64),
                                section_bytes_ - 1}) {
    std::vector<u8> damaged = archive_;
    damaged.resize(damaged.size() - cut);
    expect_corrupt(damaged);
  }
}

TEST_F(SpecSectionFuzz, OversizedTailIsDetected) {
  std::vector<u8> damaged = archive_;
  damaged.push_back(0);
  expect_corrupt(damaged);
  damaged.insert(damaged.end(), 64, 0xAB);
  expect_corrupt(damaged);
}

TEST_F(SpecSectionFuzz, ForgedHeaderFieldsAreDetectedStructurally) {
  // Magic / version / len live in the section header; forging any of
  // them is caught even with digest verification off.
  core::fmt::set_verify_enabled(false);
  const std::size_t hdr_at = archive_.size() - section_bytes_;
  for (const std::size_t off : {std::size_t{0}, std::size_t{4},
                                std::size_t{6}}) {
    std::vector<u8> damaged = archive_;
    damaged[hdr_at + off] ^= 0xFF;
    expect_corrupt(damaged);
  }
  core::fmt::set_verify_enabled(true);
}

TEST_F(SpecSectionFuzz, EverySingleBitFlipInTheSectionIsDetected) {
  // The whole-archive sweep lives in test_fuzz; this pins the contract
  // for the appended section specifically, including its digest word.
  const std::size_t start = archive_.size() - section_bytes_;
  for (std::size_t byte = start; byte < archive_.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<u8> damaged = archive_;
      damaged[byte] ^= static_cast<u8>(1u << bit);
      core::pipeline<f32> p{core::pipeline_config{}};
      EXPECT_THROW((void)p.decompress(damaged), error)
          << "byte " << (byte - start) << " bit " << bit;
    }
  }
}

TEST_F(SpecSectionFuzz, LegacyTierSpecSectionStillDecodes) {
  // Archives in the field may embed `tier=` parameters that the grammar
  // rejects. Decode checks only the section's structure and digest, so
  // such an archive still decodes to the same bytes.
  std::vector<u8> legacy = archive_;
  legacy.resize(legacy.size() - section_bytes_);
  const std::string text = "lorenzo(tier=vector)+huffman(tier=double)";
  const auto section = core::fmt::build_spec_section(text);
  legacy.insert(legacy.end(), section.begin(), section.end());
  EXPECT_THROW((void)parse(text), error);
  EXPECT_EQ(core::inspect_archive(legacy).spec, text);
  EXPECT_TRUE(core::verify_archive(legacy).ok());
  core::pipeline<f32> p{core::pipeline_config{}};
  EXPECT_EQ(p.decompress(legacy), p.decompress(archive_));
}

TEST_F(SpecSectionFuzz, StrippedSectionStaysReadableForCompat) {
  // An archive whose tail is empty (pre-spec writer) must decode: the
  // header's module names still fully describe the pipeline.
  std::vector<u8> stripped = archive_;
  stripped.resize(stripped.size() - section_bytes_);
  EXPECT_TRUE(core::inspect_archive(stripped).spec.empty());
  core::pipeline<f32> p{core::pipeline_config{}};
  const auto v = smooth_field(dims_.len());
  const auto rec = p.decompress(stripped);
  const auto err = metrics::compare(v, rec);
  EXPECT_LE(err.max_abs_err,
            metrics::f32_bound_slack(1e-4 * err.range, err.range));
  EXPECT_TRUE(core::verify_archive(stripped).ok());
}

}  // namespace
}  // namespace fzmod::spec
