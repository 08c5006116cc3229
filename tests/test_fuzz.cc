// Robustness suite: corrupted-archive fuzzing.
//
// Archives come from untrusted storage; a decompressor that crashes,
// loops, or silently fabricates data on a flipped bit is a production
// incident. For every compressor we take a valid archive and subject it
// to random bit flips, truncations, and byte stomps. Two contracts are
// under test:
//   1. Containment (always, even with FZMOD_VERIFY=0): decompress either
//      throws fzmod::error or returns *some* output of the advertised
//      size — it must never crash or hang.
//   2. Detection (format v2, verification on — the default): any single
//      flipped bit anywhere in the archive is reported as a deterministic
//      status::corrupt_archive, never decoded to wrong values.
// The hostile-header tests go further: they forge structurally valid v2
// archives (digests refreshed after the forgery) so the semantic guards
// behind the digest wall get exercised directly.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "fzmod/baselines/compressor.hh"
#include "fzmod/common/error.hh"
#include "fzmod/common/rng.hh"
#include "fzmod/core/archive_format.hh"
#include "fzmod/core/reader.hh"
#include "fzmod/core/snapshot.hh"
#include "fzmod/core/stf_pipeline.hh"
#include "fzmod/encoders/huffman.hh"

namespace fzmod {
namespace {

std::vector<f32> base_field(dims3 d) {
  rng r(777);
  std::vector<f32> v(d.len());
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<f32>(std::sin(0.03 * static_cast<f64>(i % 100)) * 20 +
                            0.1 * r.normal());
  }
  return v;
}

/// Decompress must not crash; throwing fzmod::error is a pass, as is a
/// clean (possibly wrong-valued) result.
template <class F>
void expect_contained(F&& decompress_fn) {
  try {
    (void)decompress_fn();
  } catch (const error&) {
    // contained failure: fine
  }
}

class FuzzAllCompressors : public ::testing::TestWithParam<std::string> {};

TEST_P(FuzzAllCompressors, RandomBitFlips) {
  const dims3 d{40, 30, 5};
  const auto v = base_field(d);
  auto c = baselines::make(GetParam());
  const auto archive = c->compress(v, d, {1e-3, eb_mode::rel});

  rng r(101);
  for (int trial = 0; trial < 200; ++trial) {
    auto mutated = archive;
    const std::size_t nflips = 1 + r.next_below(8);
    for (std::size_t f = 0; f < nflips; ++f) {
      const std::size_t pos = r.next_below(mutated.size());
      mutated[pos] ^= static_cast<u8>(1u << r.next_below(8));
    }
    auto fresh = baselines::make(GetParam());
    expect_contained([&] { return fresh->decompress(mutated); });
  }
}

TEST_P(FuzzAllCompressors, TruncationSweep) {
  const dims3 d{64, 16};
  const auto v = base_field(d);
  auto c = baselines::make(GetParam());
  const auto archive = c->compress(v, d, {1e-3, eb_mode::rel});

  rng r(102);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t keep = r.next_below(archive.size());
    std::vector<u8> truncated(archive.begin(),
                              archive.begin() + static_cast<long>(keep));
    auto fresh = baselines::make(GetParam());
    expect_contained([&] { return fresh->decompress(truncated); });
  }
}

TEST_P(FuzzAllCompressors, ByteStompRegions) {
  const dims3 d{100, 20};
  const auto v = base_field(d);
  auto c = baselines::make(GetParam());
  const auto archive = c->compress(v, d, {1e-2, eb_mode::rel});

  rng r(103);
  for (int trial = 0; trial < 60; ++trial) {
    auto mutated = archive;
    const std::size_t start = r.next_below(mutated.size());
    const std::size_t len =
        std::min<std::size_t>(1 + r.next_below(64), mutated.size() - start);
    for (std::size_t i = 0; i < len; ++i) {
      mutated[start + i] = static_cast<u8>(r.next_u64());
    }
    auto fresh = baselines::make(GetParam());
    expect_contained([&] { return fresh->decompress(mutated); });
  }
}

INSTANTIATE_TEST_SUITE_P(Everyone, FuzzAllCompressors,
                         ::testing::ValuesIn(baselines::all_names()),
                         [](const auto& info) {
                           std::string s = info.param;
                           for (auto& ch : s) {
                             if (ch == '-') ch = '_';
                           }
                           return s;
                         });

TEST(FuzzStf, CorruptedArchivesContained) {
  const dims3 d{50, 20};
  const auto v = base_field(d);
  const auto archive = core::stf_compress(v, d, {1e-3, eb_mode::rel});
  rng r(104);
  for (int trial = 0; trial < 100; ++trial) {
    auto mutated = archive;
    mutated[r.next_below(mutated.size())] ^=
        static_cast<u8>(1u << r.next_below(8));
    expect_contained([&] { return core::stf_decompress(mutated); });
  }
}

/// Outcome of one hostile read: the decoded field, or the error status.
struct read_outcome {
  bool ok = false;
  status code = status::ok;
  std::vector<f32> data;
};

template <class F>
read_outcome outcome_of(F&& read) {
  read_outcome o;
  try {
    o.data = read();
    o.ok = true;
  } catch (const error& e) {
    o.code = e.code();
  }
  return o;
}

TEST(FuzzSnapshot, MultiFieldMutationsFailClosed) {
  // A snapshot_writer FZMF blob holding one plain v2 field and one v3
  // chunk container, under seeded bit flips and truncations. Every read —
  // fmt::select_field, the span reader open and the streaming
  // reader::open_field — returns the clean field or throws a typed
  // fzmod::error, and the span and streaming opens agree on the status.
  const dims3 da{500}, db{64, 8, 6};
  core::snapshot_writer w;
  w.add("a", base_field(da), da);
  core::chunked_options copt;
  copt.chunk_elems = 2 * 64 * 8;  // 3 chunks
  w.set_chunking(copt);
  w.add("b", base_field(db), db);
  const auto blob = w.finish();
  ASSERT_TRUE(core::fmt::is_chunk_container(
      core::snapshot_reader(blob).archive("b")));
  core::reader_options ropt;
  ropt.prefetch = 0;
  ropt.jobs = 1;

  const auto reads_of = [&](const std::vector<u8>& bytes,
                            const char* name) {
    std::vector<read_outcome> out;
    out.push_back(outcome_of([&] {
      return core::decompress_any<f32>(core::fmt::select_field(bytes, name));
    }));
    out.push_back(outcome_of([&] {
      core::reader<f32> r(std::span<const u8>(bytes), std::string_view(name),
                          ropt);
      return r.read(0, r.size());
    }));
    out.push_back(outcome_of([&] {
      auto src = [&bytes](u8* dst, u64 off, std::size_t len) {
        std::memcpy(dst, bytes.data() + off, len);
      };
      auto r = core::reader<f32>::open_field(src, bytes.size(), name, ropt);
      return r.read(0, r.size());
    }));
    return out;
  };
  const std::vector<f32> clean[2] = {reads_of(blob, "a")[0].data,
                                     reads_of(blob, "b")[0].data};
  ASSERT_EQ(clean[0].size(), da.len());
  ASSERT_EQ(clean[1].size(), db.len());

  rng r(105);
  for (int trial = 0; trial < 160; ++trial) {
    auto mutated = blob;
    if (trial % 4 == 3) {
      mutated.resize(r.next_below(mutated.size()));  // truncation
    } else {
      mutated[r.next_below(mutated.size())] ^=
          static_cast<u8>(1u << r.next_below(8));
    }
    for (int f = 0; f < 2; ++f) {
      const auto got = reads_of(mutated, f == 0 ? "a" : "b");
      for (const read_outcome& o : got) {
        if (o.ok) {
          EXPECT_EQ(o.data, clean[f]) << "trial " << trial;
        }
      }
      EXPECT_EQ(got[1].ok, got[2].ok) << "trial " << trial;
      EXPECT_EQ(got[1].code, got[2].code) << "trial " << trial;
    }
  }
}

// ---------------------------------------------------------------------------
// Format v2 integrity: detection, version negotiation, hostile headers.

namespace fmt = core::fmt;

/// Scope guard: digest verification off for the structural-guard tests.
struct verify_off {
  verify_off() { fmt::set_verify_enabled(false); }
  ~verify_off() { fmt::set_verify_enabled(true); }
};

/// Recompute every digest of a plain (non-secondary) v2 archive after a
/// test has forged header fields or payload bytes. The result is a
/// structurally consistent, correctly checksummed — but hostile — archive,
/// which is exactly what an adversary with hash awareness would produce.
void refresh_digests(std::vector<u8>& archive) {
  constexpr std::size_t outer = sizeof(fmt::outer_header_v2);
  ASSERT_GE(archive.size(), outer + sizeof(fmt::inner_header));
  fmt::inner_header hdr;
  std::memcpy(&hdr, archive.data() + outer, sizeof(hdr));
  const std::span<const u8> body{archive.data() + outer,
                                 archive.size() - outer};
  const auto sv = fmt::slice_sections(body, hdr);
  hdr.digest_codec = kernels::chunked_hash(sv.codec);
  hdr.digest_outliers = kernels::chunked_hash(sv.outliers);
  hdr.digest_value_outliers = kernels::chunked_hash(sv.value_outliers);
  hdr.digest_anchors = kernels::chunked_hash(sv.anchors);
  hdr.digest_header = fmt::header_digest(hdr);
  std::memcpy(archive.data() + outer, &hdr, sizeof(hdr));
}

/// Down-convert a plain v2 archive to the v1 wire format: 8-byte outer
/// header, 152-byte inner header (digest words stripped), version 1.
/// This is byte-exact what the pre-checksum writer produced, so it stands
/// in for golden v1 fixtures (none were ever shipped; all tests build
/// archives in-process).
std::vector<u8> as_v1(std::span<const u8> v2_archive) {
  constexpr std::size_t outer2 = sizeof(fmt::outer_header_v2);
  fmt::inner_header hdr;
  std::memcpy(&hdr, v2_archive.data() + outer2, sizeof(hdr));
  hdr.version = 1;
  std::vector<u8> out;
  const fmt::outer_header outer1{fmt::outer_magic, 0, {}};
  const std::size_t payload =
      v2_archive.size() - outer2 - sizeof(fmt::inner_header);
  out.resize(sizeof(outer1) + fmt::inner_header_v1_bytes + payload);
  std::memcpy(out.data(), &outer1, sizeof(outer1));
  std::memcpy(out.data() + sizeof(outer1), &hdr,
              fmt::inner_header_v1_bytes);
  std::memcpy(out.data() + sizeof(outer1) + fmt::inner_header_v1_bytes,
              v2_archive.data() + outer2 + sizeof(fmt::inner_header),
              payload);
  return out;
}

void expect_corrupt(core::pipeline<f32>& p, std::span<const u8> archive,
                    std::size_t pos) {
  try {
    (void)p.decompress(archive);
    FAIL() << "flip at byte " << pos << " was not detected";
  } catch (const error& e) {
    EXPECT_EQ(e.code(), status::corrupt_archive)
        << "flip at byte " << pos << ": " << e.what();
  }
}

TEST(FormatV2, SingleBitFlipSweepIsAlwaysDetected) {
  // The acceptance criterion verbatim: any single bit flip anywhere in a
  // v2 archive causes decompress to throw status::corrupt_archive. Sweep
  // every byte (rotating the flipped bit position so all 8 lanes get
  // coverage across the archive).
  const dims3 d{40, 20};
  const auto v = base_field(d);
  core::pipeline_config cfg;
  cfg.eb = {1e-2, eb_mode::rel};
  core::pipeline<f32> p(cfg);
  const auto archive = p.compress(v, d);
  for (std::size_t pos = 0; pos < archive.size(); ++pos) {
    auto mutated = archive;
    mutated[pos] ^= static_cast<u8>(1u << (pos % 8));
    expect_corrupt(p, mutated, pos);
  }
}

TEST(FormatV2, SingleBitFlipSweepSecondaryWrapped) {
  // Same sweep over an LZ-wrapped archive: flips inside the stored blob
  // must be caught by the sealed outer digest *before* the LZ decoder
  // parses the blob.
  const dims3 d{40, 20};
  const auto v = base_field(d);
  core::pipeline_config cfg;
  cfg.secondary = true;
  cfg.eb = {1e-2, eb_mode::rel};
  core::pipeline<f32> p(cfg);
  const auto archive = p.compress(v, d);
  for (std::size_t pos = 0; pos < archive.size(); ++pos) {
    auto mutated = archive;
    mutated[pos] ^= static_cast<u8>(1u << (pos % 8));
    expect_corrupt(p, mutated, pos);
  }
}

TEST(FormatV2, V1ArchivesStillDecode) {
  // Version negotiation: a v1 archive (pre-checksum layout) must decode
  // to exactly the same values as its v2 counterpart, and inspect must
  // report its version without complaint.
  const dims3 d{48, 16, 4};
  const auto v = base_field(d);
  core::pipeline<f32> p(core::pipeline_config{});
  const auto v2 = p.compress(v, d);
  const auto v1 = as_v1(v2);
  ASSERT_EQ(v1.size(), v2.size() - 8 - 5 * sizeof(u64));

  const auto info1 = core::inspect_archive(v1);
  const auto info2 = core::inspect_archive(v2);
  EXPECT_EQ(info1.version, 1);
  EXPECT_EQ(info2.version, 2);
  EXPECT_EQ(info1.dims, info2.dims);

  const auto rec1 = p.decompress(v1);
  const auto rec2 = p.decompress(v2);
  ASSERT_EQ(rec1.size(), rec2.size());
  EXPECT_TRUE(std::equal(rec1.begin(), rec1.end(), rec2.begin()));

  // verify_archive on v1: nothing to check, reports clean.
  const auto rep = core::verify_archive(v1);
  EXPECT_EQ(rep.version, 1);
  EXPECT_TRUE(rep.ok());
}

TEST(FormatV2, V1PayloadCorruptionStillContained) {
  // v1 carries no digests, so payload corruption may decode to wrong
  // values — but it must stay contained (the pre-existing contract).
  const dims3 d{50, 20};
  const auto v = base_field(d);
  core::pipeline<f32> p(core::pipeline_config{});
  const auto v1 = as_v1(p.compress(v, d));
  rng r(107);
  for (int trial = 0; trial < 100; ++trial) {
    auto mutated = v1;
    mutated[r.next_below(mutated.size())] ^=
        static_cast<u8>(1u << r.next_below(8));
    expect_contained([&] { return p.decompress(mutated); });
  }
}

TEST(FormatV2, VerifyOffCorruptionStillContained) {
  // FZMOD_VERIFY=0 trades detection for speed; containment must survive.
  const verify_off off;
  const dims3 d{50, 20};
  const auto v = base_field(d);
  core::pipeline<f32> p(core::pipeline_config{});
  const auto archive = p.compress(v, d);
  rng r(108);
  for (int trial = 0; trial < 150; ++trial) {
    auto mutated = archive;
    const std::size_t nflips = 1 + r.next_below(4);
    for (std::size_t f = 0; f < nflips; ++f) {
      mutated[r.next_below(mutated.size())] ^=
          static_cast<u8>(1u << r.next_below(8));
    }
    expect_contained([&] { return p.decompress(mutated); });
  }
}

TEST(FormatV2, ForgedDigestIsItselfDetected) {
  // Flipping a stored digest (rather than the data it covers) must also
  // surface as corruption — the digest words are not a blind spot.
  const dims3 d{300};
  const auto v = base_field(d);
  core::pipeline<f32> p(core::pipeline_config{});
  const auto archive = p.compress(v, d);
  const std::size_t digest_area =
      sizeof(fmt::outer_header_v2) + fmt::inner_header_v1_bytes;
  for (std::size_t k = 0; k < 5 * sizeof(u64); ++k) {
    auto mutated = archive;
    mutated[digest_area + k] ^= 0x10;
    expect_corrupt(p, mutated, digest_area + k);
  }
}

// --- hostile headers: structurally valid, digests refreshed ---------------

TEST(HostileHeader, OutOfRangeValueOutlierIndexRejected) {
  // Build a field guaranteed to carry a value outlier, then point its
  // index past the end of the field and re-checksum.
  const dims3 d{1000};
  auto v = base_field(d);
  v[123] = 3.0e38f;  // exceeds the quantizer's value_outlier_limit
  core::pipeline_config cfg;
  cfg.eb = {1e-6, eb_mode::abs};
  core::pipeline<f32> p(cfg);
  auto archive = p.compress(v, d);

  constexpr std::size_t outer = sizeof(fmt::outer_header_v2);
  fmt::inner_header hdr;
  std::memcpy(&hdr, archive.data() + outer, sizeof(hdr));
  ASSERT_GE(hdr.n_value_outliers, 1u) << "fixture lost its value outlier";
  const std::size_t vo_off =
      outer + sizeof(hdr) + hdr.codec_bytes + hdr.outlier_bytes;
  fmt::vo_record rec;
  std::memcpy(&rec, archive.data() + vo_off, sizeof(rec));
  rec.index = d.len() + 7;  // out of range, would be an OOB host write
  std::memcpy(archive.data() + vo_off, &rec, sizeof(rec));
  refresh_digests(archive);

  try {
    (void)p.decompress(archive);
    FAIL() << "should have thrown";
  } catch (const error& e) {
    EXPECT_EQ(e.code(), status::corrupt_archive);
  }
}

TEST(HostileHeader, ZeroAnchorStrideRejected) {
  // Interp archives carry an anchor lattice; zero the stride (which used
  // to pin the anchor walk in place) and re-checksum.
  const dims3 d{128, 32};
  const auto v = base_field(d);
  core::pipeline_config cfg;
  cfg.predictor = core::predictor_spline;
  cfg.eb = {1e-3, eb_mode::rel};
  core::pipeline<f32> p(cfg);
  auto archive = p.compress(v, d);

  constexpr std::size_t outer = sizeof(fmt::outer_header_v2);
  fmt::inner_header hdr;
  std::memcpy(&hdr, archive.data() + outer, sizeof(hdr));
  ASSERT_GE(hdr.n_anchors, 1u);
  hdr.anchor_stride = 0;
  std::memcpy(archive.data() + outer, &hdr, sizeof(hdr));
  refresh_digests(archive);

  try {
    (void)p.decompress(archive);
    FAIL() << "should have thrown";
  } catch (const error& e) {
    EXPECT_EQ(e.code(), status::corrupt_archive);
  }
}

TEST(HostileHeader, ForeignAnchorStrideRejected) {
  // Forge the stride from 64 to 60: a 129-wide field keeps the same anchor
  // count (3 x 1), so the geometry check passes, but the traversal only
  // refines the 64-lattice and would leave points unreconstructed.
  const dims3 d{129, 32};
  const auto v = base_field(d);
  core::pipeline_config cfg;
  cfg.predictor = core::predictor_spline;
  cfg.eb = {1e-3, eb_mode::rel};
  core::pipeline<f32> p(cfg);
  auto archive = p.compress(v, d);

  constexpr std::size_t outer = sizeof(fmt::outer_header_v2);
  fmt::inner_header hdr;
  std::memcpy(&hdr, archive.data() + outer, sizeof(hdr));
  ASSERT_EQ(hdr.anchor_stride, 64u);
  ASSERT_EQ(hdr.n_anchors, 3u);
  hdr.anchor_stride = 60;
  std::memcpy(archive.data() + outer, &hdr, sizeof(hdr));
  refresh_digests(archive);

  try {
    (void)p.decompress(archive);
    FAIL() << "should have thrown";
  } catch (const error& e) {
    EXPECT_EQ(e.code(), status::corrupt_archive);
  }
}

TEST(HostileHeader, InconsistentAnchorCountRejected) {
  const dims3 d{128, 32};
  const auto v = base_field(d);
  core::pipeline_config cfg;
  cfg.predictor = core::predictor_spline;
  cfg.eb = {1e-3, eb_mode::rel};
  core::pipeline<f32> p(cfg);
  auto archive = p.compress(v, d);

  constexpr std::size_t outer = sizeof(fmt::outer_header_v2);
  fmt::inner_header hdr;
  std::memcpy(&hdr, archive.data() + outer, sizeof(hdr));
  ASSERT_GE(hdr.n_anchors, 2u);
  hdr.n_anchors -= 1;  // truncates the lattice the walk expects
  std::memcpy(archive.data() + outer, &hdr, sizeof(hdr));
  refresh_digests(archive);
  EXPECT_THROW((void)p.decompress(archive), error);
}

TEST(HostileHeader, ExtremeCountsRejected) {
  // Extreme section counts with refreshed digests: the structural
  // plausibility guards (not the digests) must hold the line.
  const dims3 d{2000};
  const auto v = base_field(d);
  core::pipeline<f32> p(core::pipeline_config{});
  const auto archive = p.compress(v, d);
  constexpr std::size_t outer = sizeof(fmt::outer_header_v2);

  const auto forge = [&](auto&& mutate) {
    auto mutated = archive;
    fmt::inner_header hdr;
    std::memcpy(&hdr, mutated.data() + outer, sizeof(hdr));
    mutate(hdr);
    hdr.digest_header = fmt::header_digest(hdr);
    std::memcpy(mutated.data() + outer, &hdr, sizeof(hdr));
    EXPECT_THROW((void)p.decompress(mutated), error);
  };
  forge([](fmt::inner_header& h) { h.n_outliers = u64{1} << 40; });
  forge([](fmt::inner_header& h) { h.n_value_outliers = u64{1} << 40; });
  forge([](fmt::inner_header& h) { h.n_anchors = u64{1} << 40; });
  forge([](fmt::inner_header& h) { h.codec_bytes = u64{1} << 50; });
  forge([](fmt::inner_header& h) { h.outlier_bytes = u64{1} << 50; });
  forge([](fmt::inner_header& h) { h.dims[0] = u64{1} << 60; });
}

TEST(FuzzLossless, SecondaryWrappedArchives) {
  // The LZ layer sits outermost when secondary is on; its framing and the
  // inner archive both get fuzzed through one entry point.
  const dims3 d{80, 25};
  const auto v = base_field(d);
  core::pipeline_config cfg;
  cfg.secondary = true;
  cfg.eb = {1e-3, eb_mode::rel};
  core::pipeline<f32> p(cfg);
  const auto archive = p.compress(v, d);
  rng r(106);
  for (int trial = 0; trial < 150; ++trial) {
    auto mutated = archive;
    const std::size_t nflips = 1 + r.next_below(4);
    for (std::size_t f = 0; f < nflips; ++f) {
      mutated[r.next_below(mutated.size())] ^=
          static_cast<u8>(1u << r.next_below(8));
    }
    core::pipeline<f32> fresh(core::pipeline_config{});
    expect_contained([&] { return fresh.decompress(mutated); });
  }
}

// ---------------------------------------------------------------------------
// Decoder fuzz: the production Huffman decoder (lookup table + canonical
// slow path) and the canonical reference parse the same attacker-
// controlled blob, so both get the same bit-flip and truncation
// treatment — a corrupt chunk must throw (or decode to contained
// garbage), never read out of bounds or desync.

struct huffman_decoder {
  const char* name;
  void (*decode)(std::span<const u8>, std::span<u16>);
};

class FuzzHuffmanTiers : public ::testing::TestWithParam<huffman_decoder> {};

TEST_P(FuzzHuffmanTiers, BitFlipSweepContained) {
  // Short codes so the lookup-table path genuinely engages;
  // several chunks so the offset table and chunk boundaries are in scope.
  rng r(910);
  std::vector<u16> codes(3 * encoders::huffman_chunk + 111);
  std::vector<u32> hist(64, 0);
  for (auto& c : codes) {
    c = static_cast<u16>(r.next_below(64));
    hist[c]++;
  }
  const auto blob = encoders::huffman_encode(codes, hist);

  for (int trial = 0; trial < 300; ++trial) {
    auto mutated = blob;
    const std::size_t nflips = 1 + r.next_below(6);
    for (std::size_t f = 0; f < nflips; ++f) {
      mutated[r.next_below(mutated.size())] ^=
          static_cast<u8>(1u << r.next_below(8));
    }
    std::vector<u16> out(codes.size());
    expect_contained([&] {
      GetParam().decode(mutated, out);
      return 0;
    });
  }
}

TEST_P(FuzzHuffmanTiers, TruncationSweepContained) {
  rng r(911);
  std::vector<u16> codes(2 * encoders::huffman_chunk);
  std::vector<u32> hist(256, 0);
  for (auto& c : codes) {
    c = static_cast<u16>(r.next_below(256));
    hist[c]++;
  }
  const auto blob = encoders::huffman_encode(codes, hist);
  for (int trial = 0; trial < 120; ++trial) {
    const std::size_t keep = r.next_below(blob.size());
    const std::vector<u8> truncated(blob.begin(),
                                    blob.begin() + static_cast<long>(keep));
    std::vector<u16> out(codes.size());
    expect_contained([&] {
      GetParam().decode(truncated, out);
      return 0;
    });
  }
}

TEST_P(FuzzHuffmanTiers, StompedLengthsContained) {
  // The code-length table drives every LUT build; hostile lengths must be
  // rejected by the Kraft/cap validation, not walk a table OOB.
  rng r(912);
  std::vector<u16> codes(encoders::huffman_chunk + 7);
  std::vector<u32> hist(32, 0);
  for (auto& c : codes) {
    c = static_cast<u16>(r.next_below(32));
    hist[c]++;
  }
  const auto blob = encoders::huffman_encode(codes, hist);
  constexpr std::size_t lens_off = 24;  // blob_header is 24 bytes
  for (int trial = 0; trial < 150; ++trial) {
    auto mutated = blob;
    const std::size_t k = 1 + r.next_below(8);
    for (std::size_t j = 0; j < k; ++j) {
      mutated[lens_off + r.next_below(32)] = static_cast<u8>(r.next_u64());
    }
    std::vector<u16> out(codes.size());
    expect_contained([&] {
      GetParam().decode(mutated, out);
      return 0;
    });
  }
}

INSTANTIATE_TEST_SUITE_P(
    Decoders, FuzzHuffmanTiers,
    ::testing::Values(
        huffman_decoder{"production", &encoders::huffman_decode},
        huffman_decoder{"reference", &encoders::huffman_decode_reference}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace fzmod
