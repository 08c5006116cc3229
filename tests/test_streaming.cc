// Tests for the out-of-core streaming layer (core/stream_io.hh): budget
// resolution semantics, byte-identity of file streaming vs the in-memory
// chunked path, the multi-field container (round trip, selection errors,
// damage isolation), and crash-safe resume — truncation mid-chunk, at a
// clean chunk boundary, mid-directory, a torn journal record, and a
// config mismatch must all recover to a byte-identical archive.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>

#include "fzmod/common/rng.hh"
#include "fzmod/core/chunked.hh"
#include "fzmod/core/reader.hh"
#include "fzmod/core/stream_io.hh"
#include "fzmod/data/io.hh"
#include "fzmod/metrics/metrics.hh"

namespace fzmod::core {
namespace {

namespace fs = std::filesystem;

std::vector<f32> smooth_field(dims3 d, u64 seed = 7) {
  rng r(seed);
  std::vector<f32> v(d.len());
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<f32>(std::sin(0.003 * static_cast<f64>(i)) * 40 +
                            0.05 * r.normal());
  }
  return v;
}

void expect_within_bound(std::span<const f32> a, std::span<const f32> b,
                         f64 rel_eb) {
  ASSERT_EQ(a.size(), b.size());
  const auto err = metrics::compare(a, b);
  EXPECT_LE(err.max_abs_err,
            metrics::f32_bound_slack(rel_eb * err.range, err.range));
}

/// A scratch dir per fixture run; raw fields are stored through data::
/// so the streaming layer reads exactly what the in-memory path sees.
class StreamingFiles : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("fzmod_stream_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  [[nodiscard]] std::string store(const std::string& name,
                                  std::span<const f32> v) const {
    const std::string p = path(name);
    data::store_f32_field(p, v);
    return p;
  }

  fs::path dir_;
};

// --- budget resolution ------------------------------------------------------

TEST(StreamBudget, UncappedScalesWithJobs) {
  const auto b = resolve_stream_budget(0, 4 << 20, 4);
  EXPECT_EQ(b.window, 8u);       // 2 * jobs
  EXPECT_EQ(b.workers, 4u);
  EXPECT_EQ(b.read_slots, 5u);   // jobs + 1
  EXPECT_EQ(b.write_bytes, u64{256} << 20);
}

TEST(StreamBudget, CapSplitsHalfQuarterQuarter) {
  // C = 64 MiB, chunk = 2 MiB raw -> charged 8 MiB in flight.
  const u64 cap = u64{64} << 20, chunk = u64{2} << 20;
  const auto b = resolve_stream_budget(cap, chunk, 8);
  EXPECT_EQ(b.window, (cap / 2) / (4 * chunk));  // 4
  EXPECT_EQ(b.workers, 4u);                      // min(jobs, window)
  // (C/4)/B = 8 staging slots by budget, clamped to window+1 = 5: staging
  // deeper than the window plus one in-fill buys nothing.
  EXPECT_EQ(b.read_slots,
            std::min<u64>((cap / 4) / chunk, b.window + 1));
  EXPECT_EQ(b.read_slots, 5u);
  EXPECT_EQ(b.write_bytes, cap / 4);
}

TEST(StreamBudget, TinyCapStillMakesProgress) {
  // A cap smaller than one chunk must degrade, not deadlock or zero out.
  const auto b = resolve_stream_budget(1 << 20, u64{16} << 20, 4);
  EXPECT_EQ(b.window, 1u);
  EXPECT_EQ(b.workers, 1u);
  EXPECT_EQ(b.read_slots, 1u);
  EXPECT_GE(b.write_bytes, u64{1} << 20);
}

TEST(StreamBudget, WindowNeverExceedsUncapped) {
  // A huge cap behaves exactly like no cap.
  const auto capped = resolve_stream_budget(u64{1} << 40, 1 << 20, 4);
  const auto uncapped = resolve_stream_budget(0, 1 << 20, 4);
  EXPECT_EQ(capped.window, uncapped.window);
  EXPECT_EQ(capped.workers, uncapped.workers);
}

TEST(StreamBudget, DegenerateInputsGuarded) {
  const auto b = resolve_stream_budget(1 << 20, 0, 0);
  EXPECT_GE(b.window, 1u);
  EXPECT_GE(b.workers, 1u);
  EXPECT_GE(b.read_slots, 1u);
}

// --- file streaming vs in-memory path --------------------------------------

TEST_F(StreamingFiles, ByteIdenticalToInMemoryChunked) {
  const dims3 d{64, 32, 24};
  const auto v = smooth_field(d);
  const auto in = store("f.f32", v);

  pipeline_config cfg = pipeline_config::preset_default({1e-4, eb_mode::rel});
  chunked_options copt;
  copt.chunk_elems = 64 * 32 * 5;  // several chunks, ragged tail
  copt.jobs = 3;

  chunked_pipeline<f32> pipe(cfg, copt);
  const auto want = pipe.compress(v, d);

  stream_options sopt;
  sopt.chunk = copt;
  const auto out = path("f.fzmod");
  const auto st = compress_file_stream<f32>(in, d, out, cfg, sopt);
  EXPECT_EQ(st.chunks_total, plan_chunks(d, copt.chunk_elems).size());
  EXPECT_EQ(st.chunks_resumed, 0u);
  EXPECT_EQ(st.bytes_read, d.len() * sizeof(f32));
  EXPECT_EQ(st.bytes_written, want.size());
  EXPECT_GT(st.peak_bytes, 0u);
  EXPECT_EQ(data::read_file(out), want);
  // Successful finalize removes the journal.
  EXPECT_FALSE(fs::exists(resume_journal_path(out)));
}

TEST_F(StreamingFiles, MemoryCapThrottlesTheWindow) {
  const dims3 d{64, 64, 40};
  const auto v = smooth_field(d, 11);
  const auto in = store("f.f32", v);

  pipeline_config cfg = pipeline_config::preset_default({1e-4, eb_mode::rel});
  chunked_options copt;
  copt.chunk_elems = 64 * 64 * 4;  // 64 KiB chunks, 10 chunks
  copt.jobs = 8;

  // Cap tight enough that the resolved window must shrink below 2*jobs.
  stream_options sopt;
  sopt.chunk = copt;
  sopt.chunk.stream_mem_mb = 1;
  const auto out = path("f.fzmod");
  const auto st = compress_file_stream<f32>(in, d, out, cfg, sopt);
  EXPECT_LT(st.window, 16u);
  EXPECT_LE(st.workers, st.window);

  // The capped archive is still byte-identical to the uncapped one.
  chunked_pipeline<f32> pipe(cfg, copt);
  EXPECT_EQ(data::read_file(out), pipe.compress(v, d));
}

TEST_F(StreamingFiles, SingleChunkPlanEmitsPlainV2) {
  const dims3 d{32, 8, 1};
  const auto v = smooth_field(d, 3);
  const auto in = store("f.f32", v);
  pipeline_config cfg = pipeline_config::preset_default({1e-4, eb_mode::rel});
  chunked_options copt;
  copt.chunk_elems = d.len();  // one chunk

  stream_options sopt;
  sopt.chunk = copt;
  const auto out = path("f.fzmod");
  (void)compress_file_stream<f32>(in, d, out, cfg, sopt);
  const auto bytes = data::read_file(out);
  EXPECT_FALSE(fmt::is_chunk_container(bytes));
  pipeline<f32> plain(cfg);
  EXPECT_EQ(bytes, plain.compress(v, d));
}

TEST_F(StreamingFiles, SizeMismatchRejectedUpFront) {
  const dims3 d{64, 8, 1};
  const auto in = store("f.f32", smooth_field(d));
  const dims3 wrong{64, 8, 2};
  EXPECT_THROW((void)compress_file_stream<f32>(
                   in, wrong, path("f.fzmod"),
                   pipeline_config::preset_default({1e-4, eb_mode::rel})),
               error);
  EXPECT_FALSE(fs::exists(path("f.fzmod")));
}

// --- multi-field container --------------------------------------------------

TEST_F(StreamingFiles, MultiFieldRoundTrip) {
  const dims3 d{48, 16, 10};
  const auto u = smooth_field(d, 1), v = smooth_field(d, 2);
  const std::vector<field_input> fields{
      {"U", store("u.f32", u), d},
      {"V", store("v.f32", v), d},
  };
  pipeline_config cfg = pipeline_config::preset_default({1e-4, eb_mode::rel});
  stream_options sopt;
  sopt.chunk.chunk_elems = 48 * 16 * 3;

  const auto out = path("mf.fzmod");
  (void)compress_files_stream<f32>(fields, out, cfg, sopt);
  const auto bytes = data::read_file(out);
  ASSERT_TRUE(fmt::is_multi_container(bytes));

  const auto mv = fmt::parse_multi_container(bytes, /*check_digests=*/true);
  ASSERT_EQ(mv.entries.size(), 2u);
  EXPECT_STREQ(mv.entries[0].name, "U");
  EXPECT_STREQ(mv.entries[1].name, "V");

  chunked_pipeline<f32> pipe(cfg, sopt.chunk);
  expect_within_bound(u, pipe.decompress(fmt::select_field(bytes, "U")),
                      1e-4);
  expect_within_bound(v, pipe.decompress(fmt::select_field(bytes, "V")),
                      1e-4);

  // Each field archive is byte-identical to a single-field compression.
  EXPECT_EQ(std::vector<u8>(fmt::select_field(bytes, "U").begin(),
                            fmt::select_field(bytes, "U").end()),
            pipe.compress(u, d));

  // The seekable reader opens a named field too (span and byte_source).
  reader<f32> r(std::span<const u8>(bytes), std::string_view("V"));
  EXPECT_EQ(r.read(0, d.len()),
            pipe.decompress(fmt::select_field(bytes, "V")));
  auto src = [&bytes](u8* dst, u64 off, std::size_t len) {
    std::memcpy(dst, bytes.data() + off, len);
  };
  auto rs = reader<f32>::open_field(src, bytes.size(), "U");
  EXPECT_EQ(rs.read(0, d.len()),
            pipe.decompress(fmt::select_field(bytes, "U")));
}

TEST_F(StreamingFiles, FieldSelectionErrors) {
  const dims3 d{32, 8, 2};
  const auto v = smooth_field(d);
  const std::vector<field_input> fields{
      {"rho", store("a.f32", v), d},
      {"vx", store("b.f32", v), d},
  };
  pipeline_config cfg = pipeline_config::preset_default({1e-4, eb_mode::rel});
  const auto out = path("mf.fzmod");
  (void)compress_files_stream<f32>(fields, out, cfg);
  const auto bytes = data::read_file(out);

  // Ambiguous: two fields, no name. The error lists what is available.
  try {
    (void)fmt::select_field(bytes, "");
    FAIL() << "expected invalid_argument";
  } catch (const error& e) {
    EXPECT_EQ(e.code(), status::invalid_argument);
    EXPECT_NE(std::string(e.what()).find("rho"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("vx"), std::string::npos);
  }
  // Unknown name.
  EXPECT_THROW((void)fmt::select_field(bytes, "nope"), error);

  // Single-field archives reject any --field name...
  pipeline<f32> plain(cfg);
  const auto single = plain.compress(v, d);
  EXPECT_THROW((void)fmt::select_field(single, "rho"), error);
  // ...but pass through untouched with an empty one.
  const auto sel = fmt::select_field(single, "");
  EXPECT_EQ(sel.data(), single.data());
  EXPECT_EQ(sel.size(), single.size());

  // A one-field container tolerates an empty name.
  const std::vector<field_input> one{{"rho", store("c.f32", v), d}};
  (void)compress_files_stream<f32>(one, path("one.fzmod"), cfg);
  const auto onebytes = data::read_file(path("one.fzmod"));
  EXPECT_NO_THROW((void)fmt::select_field(onebytes, ""));

  // Duplicate field names are rejected before any compression runs.
  const std::vector<field_input> dup{{"x", store("d.f32", v), d},
                                     {"x", store("e.f32", v), d}};
  EXPECT_THROW((void)compress_files_stream<f32>(dup, path("dup.fzmod"), cfg),
               error);
}

TEST_F(StreamingFiles, FieldNameRuleMatchesTheParser) {
  // The parser reads field names as C strings, so names with an embedded
  // NUL ("t\0x", "t\0y") would read back as one duplicated name "t". The
  // writer rejects them — and 40-byte names — before writing anything.
  const dims3 d{32, 8, 2};
  const auto v = smooth_field(d);
  const std::string a = store("a.f32", v), b = store("b.f32", v);
  pipeline_config cfg = pipeline_config::preset_default({1e-4, eb_mode::rel});
  const std::vector<std::vector<field_input>> bad{
      {{std::string("t\0x", 3), a, d}, {std::string("t\0y", 3), b, d}},
      {{std::string(fmt::multi_name_bytes, 'n'), a, d}},
  };
  for (const auto& fields : bad) {
    try {
      (void)compress_files_stream<f32>(fields, path("bad.fzmod"), cfg);
      FAIL() << "bad field name accepted";
    } catch (const error& e) {
      EXPECT_EQ(e.code(), status::invalid_argument) << e.what();
    }
    EXPECT_FALSE(fs::exists(path("bad.fzmod")));
  }
  // The longest legal name round-trips.
  const std::string longest(fmt::multi_name_bytes - 1, 'n');
  const std::vector<field_input> ok{{longest, a, d}};
  (void)compress_files_stream<f32>(ok, path("ok.fzmod"), cfg);
  const auto bytes = data::read_file(path("ok.fzmod"));
  EXPECT_EQ(reader<f32>(std::span<const u8>(bytes), std::string_view(longest))
                .size(),
            d.len());
}

TEST_F(StreamingFiles, MultiFieldDamageIsolatedToOneField) {
  const dims3 d{32, 16, 4};
  const auto u = smooth_field(d, 1), v = smooth_field(d, 2);
  const std::vector<field_input> fields{
      {"U", store("u.f32", u), d},
      {"V", store("v.f32", v), d},
  };
  pipeline_config cfg = pipeline_config::preset_default({1e-4, eb_mode::rel});
  const auto out = path("mf.fzmod");
  (void)compress_files_stream<f32>(fields, out, cfg);
  auto bytes = data::read_file(out);

  // Flip one bit in the middle of field V's archive.
  const auto mv = fmt::parse_multi_container(bytes, true);
  const auto& ev = *fmt::find_field(mv, "V");
  bytes[sizeof(fmt::multi_header) + ev.archive_offset +
        ev.archive_bytes / 2] ^= 0x10;

  EXPECT_NO_THROW((void)fmt::select_field(bytes, "U"));
  try {
    (void)fmt::select_field(bytes, "V");
    FAIL() << "expected corrupt_archive";
  } catch (const error& e) {
    EXPECT_EQ(e.code(), status::corrupt_archive);
    EXPECT_NE(std::string(e.what()).find("'V'"), std::string::npos);
  }
}

TEST_F(StreamingFiles, MultiFieldResumeUnsupported) {
  const dims3 d{32, 8, 1};
  const std::vector<field_input> fields{
      {"U", store("u.f32", smooth_field(d)), d}};
  stream_options sopt;
  sopt.resume = true;
  try {
    (void)compress_files_stream<f32>(
        fields, path("mf.fzmod"),
        pipeline_config::preset_default({1e-4, eb_mode::rel}), sopt);
    FAIL() << "expected unsupported";
  } catch (const error& e) {
    EXPECT_EQ(e.code(), status::unsupported);
  }
}

// --- crash-safe resume ------------------------------------------------------

/// Shared scaffold: compress cleanly (keeping the journal), then hand the
/// (archive, journal) pair to `damage`, then resume and require the
/// result byte-identical to the clean run.
class StreamResume : public StreamingFiles {
 protected:
  void run_damage_and_resume(
      const std::function<void(const std::string& out,
                               const std::string& journal)>& damage) {
    const dims3 d{64, 32, 20};
    const auto v = smooth_field(d, 5);
    const auto in = store("f.f32", v);
    cfg_ = pipeline_config::preset_default({1e-4, eb_mode::rel});
    sopt_.chunk.chunk_elems = 64 * 32 * 3;  // 7 chunks
    sopt_.chunk.jobs = 2;
    sopt_.keep_journal = true;

    const auto clean = path("clean.fzmod");
    (void)compress_file_stream<f32>(in, d, clean, cfg_, sopt_);
    clean_ = data::read_file(clean);

    const auto out = path("crash.fzmod");
    (void)compress_file_stream<f32>(in, d, out, cfg_, sopt_);
    damage(out, resume_journal_path(out));

    stream_options ropt = sopt_;
    ropt.resume = true;
    ropt.keep_journal = false;
    last_ = compress_file_stream<f32>(in, d, out, cfg_, ropt);
    EXPECT_EQ(data::read_file(out), clean_);
    EXPECT_FALSE(fs::exists(resume_journal_path(out)));
  }

  static void truncate_to(const std::string& p, u64 size) {
    fs::resize_file(p, size);
  }

  pipeline_config cfg_;
  stream_options sopt_;
  std::vector<u8> clean_;
  stream_io_stats last_;
};

TEST_F(StreamResume, TruncatedMidChunkSalvagesThePrefix) {
  run_damage_and_resume([this](const std::string& out,
                               const std::string& journal) {
    // Cut the output mid-way through chunk 3's bytes; the journal still
    // lists it, so validation must reject 3 and keep 0..2.
    const auto bytes = data::read_file(journal);
    fmt::fzr_view jv;
    ASSERT_TRUE(fmt::parse_resume_journal(bytes, jv));
    ASSERT_GE(jv.records.size(), 4u);
    const auto& e = jv.records[3];
    truncate_to(out, sizeof(fmt::chunk_header_v3) + e.archive_offset +
                         e.archive_bytes / 2);
  });
  EXPECT_EQ(last_.chunks_resumed, 3u);
  EXPECT_EQ(last_.chunks_total, 7u);
}

TEST_F(StreamResume, TruncatedAtCleanChunkBoundary) {
  run_damage_and_resume([this](const std::string& out,
                               const std::string& journal) {
    const auto bytes = data::read_file(journal);
    fmt::fzr_view jv;
    ASSERT_TRUE(fmt::parse_resume_journal(bytes, jv));
    ASSERT_GE(jv.records.size(), 5u);
    const auto& e = jv.records[4];
    truncate_to(out, sizeof(fmt::chunk_header_v3) + e.archive_offset);
    // Journal also cut to exactly those records (the tidy-crash case).
    truncate_to(journal,
                sizeof(fmt::fzr_header) + 4 * sizeof(fmt::fzr_record));
  });
  EXPECT_EQ(last_.chunks_resumed, 4u);
}

TEST_F(StreamResume, TruncatedMidDirectoryRecompressesTail) {
  run_damage_and_resume([this](const std::string& out,
                               const std::string& journal) {
    // Crash while writing the trailing directory: every chunk's bytes are
    // intact, so the whole payload salvages and only the directory is
    // rebuilt.
    (void)journal;
    const auto sz = fs::file_size(out);
    truncate_to(out, sz - sizeof(fmt::chunk_dir_entry) - 3);
  });
  EXPECT_EQ(last_.chunks_resumed, 7u);
  EXPECT_EQ(last_.chunks_total, 7u);
}

TEST_F(StreamResume, TornJournalRecordShortensTheSalvage) {
  run_damage_and_resume([this](const std::string& out,
                               const std::string& journal) {
    (void)out;
    // Tear the journal mid-record: the partial record must be ignored,
    // salvaging only the complete ones.
    truncate_to(journal, sizeof(fmt::fzr_header) +
                             2 * sizeof(fmt::fzr_record) +
                             sizeof(fmt::fzr_record) / 2);
  });
  EXPECT_EQ(last_.chunks_resumed, 2u);
}

TEST_F(StreamResume, CorruptJournalHeaderRestartsFromScratch) {
  run_damage_and_resume([](const std::string& out,
                           const std::string& journal) {
    (void)out;
    auto bytes = data::read_file(journal);
    bytes[1] ^= 0xff;  // break the magic
    data::write_file(journal, bytes);
  });
  EXPECT_EQ(last_.chunks_resumed, 0u);
}

TEST_F(StreamResume, ConfigMismatchRecompressesFromScratch) {
  const dims3 d{64, 32, 20};
  const auto v = smooth_field(d, 5);
  const auto in = store("f.f32", v);
  pipeline_config cfg = pipeline_config::preset_default({1e-4, eb_mode::rel});
  stream_options sopt;
  sopt.chunk.chunk_elems = 64 * 32 * 3;
  sopt.keep_journal = true;
  const auto out = path("f.fzmod");
  (void)compress_file_stream<f32>(in, d, out, cfg, sopt);

  // Resume under a different error bound: the journal's config digest no
  // longer matches, so nothing is salvaged and the output is the clean
  // archive of the NEW config.
  pipeline_config cfg2 =
      pipeline_config::preset_default({1e-3, eb_mode::rel});
  stream_options ropt = sopt;
  ropt.resume = true;
  ropt.keep_journal = false;
  const auto st = compress_file_stream<f32>(in, d, out, cfg2, ropt);
  EXPECT_EQ(st.chunks_resumed, 0u);
  chunked_pipeline<f32> pipe(cfg2, sopt.chunk);
  EXPECT_EQ(data::read_file(out), pipe.compress(v, d));
}

TEST_F(StreamResume, ResumeOnMissingFilesStartsClean) {
  // --resume with no prior output or journal is just a normal run.
  const dims3 d{64, 32, 20};
  const auto v = smooth_field(d, 5);
  const auto in = store("f.f32", v);
  pipeline_config cfg = pipeline_config::preset_default({1e-4, eb_mode::rel});
  stream_options sopt;
  sopt.chunk.chunk_elems = 64 * 32 * 3;
  sopt.resume = true;
  const auto st =
      compress_file_stream<f32>(in, d, path("f.fzmod"), cfg, sopt);
  EXPECT_EQ(st.chunks_resumed, 0u);
  chunked_pipeline<f32> pipe(cfg, sopt.chunk);
  EXPECT_EQ(data::read_file(path("f.fzmod")), pipe.compress(v, d));
}

TEST(ResumeJournalParse, DefensiveOnGarbage) {
  fmt::fzr_view jv;
  EXPECT_FALSE(fmt::parse_resume_journal({}, jv));
  std::vector<u8> junk(200, 0xab);
  EXPECT_FALSE(fmt::parse_resume_journal(junk, jv));

  // A valid header with zero records parses to an empty salvage.
  fmt::fzr_header h{};
  h.magic = fmt::fzr_magic;
  h.version = fmt::fzr_journal_version;
  h.type = 0;
  h.dims[0] = 8;
  h.dims[1] = h.dims[2] = 1;
  h.nchunks = 4;
  h.chunk_elems = 2;
  h.config_digest = 42;
  h.digest_header = fmt::fzr_header_digest(h);
  std::vector<u8> bytes(sizeof(h));
  std::memcpy(bytes.data(), &h, sizeof(h));
  ASSERT_TRUE(fmt::parse_resume_journal(bytes, jv));
  EXPECT_TRUE(jv.records.empty());

  // A record with a wrong positional digest ends the prefix.
  fmt::chunk_dir_entry e{};
  e.raw_len = 2;
  e.archive_bytes = 10;
  fmt::fzr_record r{};
  r.entry = e;
  r.record_digest = fmt::fzr_record_digest(e, 1);  // wrong index (is 0)
  bytes.resize(sizeof(h) + sizeof(r));
  std::memcpy(bytes.data() + sizeof(h), &r, sizeof(r));
  ASSERT_TRUE(fmt::parse_resume_journal(bytes, jv));
  EXPECT_TRUE(jv.records.empty());

  r.record_digest = fmt::fzr_record_digest(e, 0);
  std::memcpy(bytes.data() + sizeof(h), &r, sizeof(r));
  ASSERT_TRUE(fmt::parse_resume_journal(bytes, jv));
  EXPECT_EQ(jv.records.size(), 1u);
}

}  // namespace
}  // namespace fzmod::core
