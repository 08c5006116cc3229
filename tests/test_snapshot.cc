// Integration tests: in-memory multi-field snapshots. A snapshot blob is
// an FZMF multi-field container, so these also pin the shared FZMF
// builders: the field-name rule, the field-count floor, and directory
// forgeries the structural screening must reject with digests off.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstring>

#include "fzmod/common/rng.hh"
#include "fzmod/core/reader.hh"
#include "fzmod/core/snapshot.hh"
#include "fzmod/metrics/metrics.hh"

namespace fzmod::core {
namespace {

std::vector<f32> field_of(dims3 d, u64 seed) {
  rng r(seed);
  std::vector<f32> v(d.len());
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<f32>(std::sin(0.01 * static_cast<f64>(i)) * 10 +
                            0.01 * r.normal());
  }
  return v;
}

TEST(Snapshot, RoundTripsMultipleFields) {
  const dims3 da{50, 40};
  const dims3 db{3000};
  const auto a = field_of(da, 1);
  const auto b = field_of(db, 2);

  snapshot_writer w(pipeline_config::preset_default({1e-4, eb_mode::rel}));
  w.add("temperature", a, da);
  w.add("pressure", b, db);
  EXPECT_EQ(w.field_count(), 2u);
  const auto blob = w.finish();

  snapshot_reader r(blob);
  ASSERT_EQ(r.entries().size(), 2u);
  EXPECT_TRUE(r.contains("temperature"));
  EXPECT_TRUE(r.contains("pressure"));
  EXPECT_FALSE(r.contains("humidity"));

  const auto ra = r.read("temperature");
  const auto rb = r.read("pressure");
  const auto ea = metrics::compare(a, ra);
  const auto eb_ = metrics::compare(b, rb);
  EXPECT_LE(ea.max_abs_err,
            metrics::f32_bound_slack(1e-4 * ea.range, ea.range));
  EXPECT_LE(eb_.max_abs_err,
            metrics::f32_bound_slack(1e-4 * eb_.range, eb_.range));

  // The blob is an FZMF container: every multi-field consumer reads it,
  // and each stored archive is the single-field compression's bytes.
  ASSERT_TRUE(fmt::is_multi_container(blob));
  const auto sel = fmt::select_field(blob, "pressure");
  EXPECT_EQ(sel.data(), r.archive("pressure").data());
  EXPECT_EQ(sel.size(), r.archive("pressure").size());
  pipeline<f32> solo(pipeline_config::preset_default({1e-4, eb_mode::rel}));
  EXPECT_EQ(std::vector<u8>(sel.begin(), sel.end()), solo.compress(b, db));
  auto src = [&blob](u8* dst, u64 off, std::size_t len) {
    std::memcpy(dst, blob.data() + off, len);
  };
  auto rs = reader<f32>::open_field(src, blob.size(), "temperature");
  EXPECT_EQ(rs.read(0, da.len()), ra);
}

TEST(Snapshot, PerFieldPipelineOverride) {
  const dims3 d{64, 64};
  const auto v = field_of(d, 3);
  snapshot_writer w(pipeline_config::preset_default({1e-4, eb_mode::rel}));
  w.add("default", v, d);
  w.add("speedy", v, d,
        pipeline_config::preset_speed({1e-4, eb_mode::rel}));
  const auto blob = w.finish();

  snapshot_reader r(blob);
  // Overridden field carries its own module names in its archive.
  EXPECT_EQ(inspect_archive(r.archive("default")).codec, codec_huffman);
  EXPECT_EQ(inspect_archive(r.archive("speedy")).codec, codec_fzg);
  // Both honour the bound.
  for (const char* name : {"default", "speedy"}) {
    const auto rec = r.read(name);
    const auto err = metrics::compare(v, rec);
    EXPECT_LE(err.max_abs_err,
              metrics::f32_bound_slack(1e-4 * err.range, err.range))
        << name;
  }
}

TEST(Snapshot, EntriesPreserveMetadata) {
  const dims3 d{10, 20, 30};
  snapshot_writer w;
  w.add("rho", field_of(d, 4), d);
  const auto blob = w.finish();
  snapshot_reader r(blob);
  const auto& e = r.entries().front();
  EXPECT_EQ(e.name, "rho");
  EXPECT_EQ(e.dims, d);
  EXPECT_EQ(e.type, dtype::f32);
  EXPECT_GT(e.bytes, 0u);
}

TEST(Snapshot, DuplicateNamesRejected) {
  const dims3 d{100};
  snapshot_writer w;
  w.add("x", field_of(d, 5), d);
  EXPECT_THROW(w.add("x", field_of(d, 6), d), error);
}

void expect_invalid_name(snapshot_writer& w, std::string_view name) {
  const dims3 d{10};
  try {
    w.add(name, field_of(d, 7), d);
    FAIL() << "bad name accepted (" << name.size() << " bytes)";
  } catch (const error& e) {
    EXPECT_EQ(e.code(), status::invalid_argument) << e.what();
    EXPECT_NE(std::string(e.what()).find("name"), std::string::npos);
  }
}

TEST(Snapshot, BadNamesRejected) {
  // The FZMF name rule: 1..39 bytes, no NUL. The parser reads names as C
  // strings, so "t\0x" and "t\0y" would both read back as "t".
  snapshot_writer w;
  expect_invalid_name(w, "");
  expect_invalid_name(w, std::string(300, 'a'));
  expect_invalid_name(w, std::string(fmt::multi_name_bytes, 'a'));
  expect_invalid_name(w, std::string_view("t\0x", 3));
  expect_invalid_name(w, std::string_view("t\0y", 3));
  EXPECT_EQ(w.field_count(), 0u);  // nothing was compressed or kept

  const std::string longest(fmt::multi_name_bytes - 1, 'n');
  w.add(longest, field_of(dims3{10}, 7), dims3{10});
  const auto blob = w.finish();
  snapshot_reader r(blob);
  EXPECT_TRUE(r.contains(longest));
  EXPECT_EQ(r.read(longest).size(), 10u);
}

TEST(Snapshot, UnknownFieldThrows) {
  snapshot_writer w;
  w.add("only", field_of(dims3{10}, 8), dims3{10});
  const auto blob = w.finish();
  snapshot_reader r(blob);
  EXPECT_THROW((void)r.read("other"), error);
  EXPECT_THROW((void)r.archive("other"), error);
}

TEST(Snapshot, CorruptBlobRejected) {
  std::vector<u8> junk(64, 0x11);
  EXPECT_THROW(snapshot_reader r(junk), error);
  std::vector<u8> tiny(4, 0);
  EXPECT_THROW(snapshot_reader r2(tiny), error);
}

TEST(Snapshot, TruncatedBlobRejected) {
  snapshot_writer w;
  w.add("f", field_of(dims3{5000}, 9), dims3{5000});
  auto blob = w.finish();
  blob.resize(blob.size() - 100);
  EXPECT_THROW(snapshot_reader r(blob), error);
}

// Forged FZMF directories with digest checks off, so only the structural
// screening stands between the forgery and an out-of-bounds slice.
struct verify_off {
  verify_off() { fmt::set_verify_enabled(false); }
  ~verify_off() { fmt::set_verify_enabled(true); }
};

std::vector<u8> two_field_snapshot() {
  snapshot_writer w;
  w.add("f", field_of(dims3{500}, 12), dims3{500});
  w.add("g", field_of(dims3{300}, 13), dims3{300});
  return w.finish();
}

/// Byte offset of directory entry `i` in a two-field container.
std::size_t dir_entry_at(const std::vector<u8>& blob, std::size_t i) {
  return blob.size() - sizeof(u64) - (2 - i) * sizeof(fmt::field_dir_entry);
}

void expect_corrupt(const std::vector<u8>& blob) {
  try {
    snapshot_reader r(blob);
    FAIL() << "forged directory accepted";
  } catch (const error& e) {
    EXPECT_EQ(e.code(), status::corrupt_archive) << e.what();
  }
  // The streaming open runs the same steps and must agree.
  auto src = [&blob](u8* dst, u64 off, std::size_t len) {
    std::memcpy(dst, blob.data() + off, len);
  };
  try {
    (void)reader<f32>::open_field(src, blob.size(), "g");
    FAIL() << "forged directory accepted by the streaming open";
  } catch (const error& e) {
    EXPECT_EQ(e.code(), status::corrupt_archive) << e.what();
  }
}

TEST(Snapshot, ForgedWrappingExtentRejected) {
  // offset + bytes wraps to 8: a naive sum check accepts it and the
  // archive span would start 8 bytes before the payload.
  verify_off off;
  auto blob = two_field_snapshot();
  const std::size_t at = dir_entry_at(blob, 1) +
                         offsetof(fmt::field_dir_entry, archive_offset);
  const u64 offset = ~u64{0} - 7;
  const u64 bytes = 16;
  std::memcpy(blob.data() + at, &offset, sizeof(offset));
  std::memcpy(blob.data() + at + sizeof(u64), &bytes, sizeof(bytes));
  expect_corrupt(blob);
}

TEST(Snapshot, ForgedHugeCountRejected) {
  // A field count past the ceiling must fail as a corrupt archive, not
  // as an allocation failure or an out-of-range directory read.
  verify_off off;
  auto blob = two_field_snapshot();
  const u16 count = static_cast<u16>(fmt::multi_max_fields + 1);
  std::memcpy(blob.data() + offsetof(fmt::multi_header, nfields), &count,
              sizeof(count));
  expect_corrupt(blob);
}

TEST(Snapshot, DamagedFieldIsReportedByName) {
  auto blob = two_field_snapshot();
  snapshot_reader clean(blob);
  const auto& g = clean.entries()[1];
  blob[g.offset + g.bytes / 2] ^= 0x10;
  snapshot_reader r(blob);  // header and directory are intact
  EXPECT_TRUE(r.verify("f").ok());
  EXPECT_FALSE(r.verify("g").ok());
  EXPECT_FALSE(r.verify("g").body_ok);  // the directory digest disagrees
  EXPECT_FALSE(r.verify_all());
  EXPECT_EQ(r.read("f").size(), 500u);
  try {
    (void)r.read("g");
    FAIL() << "damaged field decoded";
  } catch (const error& e) {
    EXPECT_EQ(e.code(), status::corrupt_archive);
    EXPECT_NE(std::string(e.what()).find("'g'"), std::string::npos);
  }
}

TEST(Snapshot, FinishIsNonDestructive) {
  const dims3 d{200};
  snapshot_writer w;
  w.add("a", field_of(d, 10), d);
  const auto blob1 = w.finish();
  w.add("b", field_of(d, 11), d);
  const auto blob2 = w.finish();
  EXPECT_GT(blob2.size(), blob1.size());
  snapshot_reader r1(blob1), r2(blob2);
  EXPECT_EQ(r1.entries().size(), 1u);
  EXPECT_EQ(r2.entries().size(), 2u);
}

TEST(Snapshot, EmptySnapshotRejected) {
  // An FZMF container holds at least one field.
  snapshot_writer w;
  try {
    (void)w.finish();
    FAIL() << "empty snapshot serialized";
  } catch (const error& e) {
    EXPECT_EQ(e.code(), status::invalid_argument) << e.what();
  }
}

}  // namespace
}  // namespace fzmod::core
