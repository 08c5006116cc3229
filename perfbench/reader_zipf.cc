// reader_zipf: random access into a stored field, the visualization /
// query path. A 12.5 MB HURR wind field (250x250x50) is compressed once
// (FZMod-Default, bound 1e-4 of its range) into a v3 container of 25 slab
// chunks — every slab crosses the vortex, so chunks decode at about the
// same cost whichever the seeded ranking makes hot. One client
// then reads 16 KiB extents through core::reader, choosing the chunk with
// zipf(1) popularity over a seeded ranking. The decoded-chunk cache holds
// half the chunks and speculation is off, so the cache's policy decides
// which reads are memory copies and which pay a chunk decode.
//
// Correctness: the reference full decode must meet the error bound, and
// every read must equal the same extent of it byte for byte.
#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>

#include "fzmod/core/reader.hh"
#include "perfbench.hh"

namespace perfbench {

namespace {

constexpr dims3 field_dims{250, 250, 50};
constexpr u64 chunk_elems = 250 * 250 * 2;
constexpr u64 nchunks = field_dims.len() / chunk_elems;
constexpr u64 read_elems = 4096;
constexpr f64 eb = 1e-4;
constexpr int reads_per_epoch = 512;
constexpr int setup_reps = 5;

/// Seeded zipf(1) sampler over chunk ids: rank k has weight 1/(k+1), and a
/// seeded permutation decides which chunk holds which rank.
class zipf_chunks {
 public:
  explicit zipf_chunks(u64 seed) : rng_(seed), ids_(nchunks), cdf_(nchunks) {
    std::iota(ids_.begin(), ids_.end(), u64{0});
    for (u64 i = nchunks - 1; i > 0; --i) {
      std::swap(ids_[i], ids_[rng_.below(i + 1)]);
    }
    f64 mass = 0;
    for (u64 k = 0; k < nchunks; ++k) {
      mass += 1.0 / static_cast<f64>(k + 1);
      cdf_[k] = mass;
    }
  }

  /// Element offset of the next read: a zipf-chosen chunk, a uniform
  /// position inside it (reads never straddle chunks).
  u64 next_offset() {
    const f64 u = rng_.uniform() * cdf_.back();
    const u64 rank = static_cast<u64>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    const u64 chunk = ids_[std::min(rank, nchunks - 1)];
    return chunk * chunk_elems + rng_.below(chunk_elems - read_elems + 1);
  }

 private:
  prng rng_;
  std::vector<u64> ids_;
  std::vector<f64> cdf_;
};

}  // namespace

measurement run_reader_zipf(const options& o) {
  namespace core = fzmod::core;
  measurement m;

  const std::vector<f32> field =
      make_field(dataset::hurr, 0, o.seed, field_dims);
  // The whole field's relative bound, as an absolute one (a relative bound
  // would be resolved per chunk).
  const auto [mn, mx] = std::minmax_element(field.begin(), field.end());
  const auto cfg = core::pipeline_config::preset_default(
      {eb * (static_cast<f64>(*mx) - static_cast<f64>(*mn)),
       fzmod::eb_mode::abs});
  core::chunked_options copt;
  copt.chunk_elems = chunk_elems;
  copt.jobs = 4;
  core::reader_options ropt;
  ropt.cache_bytes = nchunks / 2 * chunk_elems * sizeof(f32);
  ropt.prefetch = 0;
  ropt.jobs = 2;

  std::vector<u8> archive;
  std::vector<f32> full;
  std::unique_ptr<core::reader<f32>> rd;
  if (o.trace) {
    m.layers.enable([&] {
      counters c = runtime_counters();
      const auto s = rd->stats();
      c.reads = static_cast<f64>(s.reads);
      c.cache_hits = static_cast<f64>(s.hits);
      c.cache_misses = static_cast<f64>(s.misses);
      return c;
    });
  }
  for (int rep = 0; rep < setup_reps; ++rep) {
    rd.reset();
    const auto t0 = clock_type::now();
    core::chunked_pipeline<f32> cp(cfg, copt);
    std::vector<u8> a = cp.compress(field, field_dims);
    if (rep == 0) archive = std::move(a);
    // The reader borrows the container, so it always opens `archive`.
    rd = std::make_unique<core::reader<f32>>(std::span<const u8>(archive),
                                             ropt, cfg);
    m.setup_s.push_back(seconds_since(t0));
    if (rep == 0) {
      full = cp.decompress(archive);
      if (!within_rel_bound(field, full, eb)) {
        m.fail("reader_zipf: reconstruction violates the error bound");
      }
      m.raw_bytes = static_cast<f64>(field.size() * sizeof(f32));
      m.archive_bytes = static_cast<f64>(archive.size());
    } else if (a != archive) {
      m.fail("reader_zipf: repeated compression differs");
    }
  }

  zipf_chunks pick(o.seed);
  auto epoch = [&](bool record) {
    epoch_result r;
    std::vector<f64> lat;
    lat.reserve(reads_per_epoch);
    for (int i = 0; i < reads_per_epoch; ++i) {
      const u64 off = pick.next_offset();
      std::vector<f32> got;
      try {
        timed_op(lat, [&] { got = rd->read(off, read_elems); });
      } catch (const std::exception& e) {
        m.fail(std::string("reader_zipf: ") + e.what());
      }
      const bool ok =
          got.size() == read_elems &&
          std::memcmp(got.data(), full.data() + off,
                      read_elems * sizeof(f32)) == 0;
      if (!record) continue;
      ++m.attempted;
      if (!ok) {
        ++m.failed;
        m.fail("reader_zipf: read differs from the reference decode");
      }
      ++r.ops;
    }
    if (record) {
      m.latency_ms.insert(m.latency_ms.end(), lat.begin(), lat.end());
      for (const f64 ms : lat) r.busy_s += ms / 1e3;
      r.bytes = static_cast<f64>(r.ops * read_elems * sizeof(f32));
    }
    return r;
  };
  (void)epoch(false);  // fill the cache before measuring
  run_epochs(o, m, [&] { return epoch(true); });
  return m;
}

}  // namespace perfbench
