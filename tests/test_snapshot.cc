// Integration tests: multi-field snapshot container.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "fzmod/common/rng.hh"
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

TEST(Snapshot, BadNamesRejected) {
  const dims3 d{10};
  snapshot_writer w;
  EXPECT_THROW(w.add("", field_of(d, 7), d), error);
  EXPECT_THROW(w.add(std::string(300, 'a'), field_of(d, 7), d), error);
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

// Forged FZSN TOCs. Layout: header {u32 magic, u32 count, u64 toc_bytes},
// then per field {u64 dims[3], u64 offset, u64 bytes, u8 type,
// u8 name_len} and the name.
constexpr std::size_t snap_count_at = 4;
constexpr std::size_t snap_first_offset_at = 16 + 3 * sizeof(u64);

std::vector<u8> one_field_snapshot() {
  snapshot_writer w;
  w.add("f", field_of(dims3{500}, 12), dims3{500});
  return w.finish();
}

void expect_corrupt(const std::vector<u8>& blob) {
  try {
    snapshot_reader r(blob);
    FAIL() << "forged TOC accepted";
  } catch (const error& e) {
    EXPECT_EQ(e.code(), status::corrupt_archive) << e.what();
  }
}

TEST(Snapshot, ForgedWrappingExtentRejected) {
  // offset + bytes wraps to 8: a naive sum check accepts it and the
  // archive span would start 8 bytes before the blob.
  auto blob = one_field_snapshot();
  const u64 offset = ~u64{0} - 7;
  const u64 bytes = 16;
  std::memcpy(blob.data() + snap_first_offset_at, &offset, sizeof(offset));
  std::memcpy(blob.data() + snap_first_offset_at + sizeof(u64), &bytes,
              sizeof(bytes));
  expect_corrupt(blob);
}

TEST(Snapshot, ForgedHugeCountRejected) {
  // A count the TOC cannot hold must fail as a corrupt archive, not as an
  // allocation failure while reserving entries.
  auto blob = one_field_snapshot();
  const u32 count = 0xFFFFFFFFu;
  std::memcpy(blob.data() + snap_count_at, &count, sizeof(count));
  expect_corrupt(blob);
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

TEST(Snapshot, EmptySnapshotRoundTrips) {
  snapshot_writer w;
  const auto blob = w.finish();
  snapshot_reader r(blob);
  EXPECT_TRUE(r.entries().empty());
}

}  // namespace
}  // namespace fzmod::core
