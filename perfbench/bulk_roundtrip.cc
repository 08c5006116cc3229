// bulk_roundtrip: the scientific user's path — a whole field in, an archive
// out, the field back — through core::chunked_pipeline. Two variables of
// each of the paper's four datasets (CESM-ATM, HACC, HURR, Nyx at the
// library's scaled catalog extents: 3-D grids and a 1-D particle stream)
// run through the paper's three presets (FZMod-Default, -Speed, -Quality)
// at a bound of 1e-4 of each field's value range, as in Table 3. Fields
// split into 1 MiB slab chunks scheduled on 4 jobs, so device kernels, the
// host codecs and the chunk scheduler all carry time.
//
// The bound is given to the pipeline as an absolute bound computed from the
// whole field's range: a relative bound would be resolved per chunk, on
// each chunk's own (narrower) range.
//
// Correctness: the first set-up round trip of every (field, preset) must
// meet the error bound; every later compress must reproduce that archive
// byte for byte and every later decompress that reconstruction.
#include <algorithm>
#include <memory>

#include "fzmod/core/chunked.hh"
#include "perfbench.hh"

namespace perfbench {

namespace {

struct job {
  const std::vector<f32>* field = nullptr;
  dims3 dims;
  fzmod::core::chunked_pipeline<f32>* pipe = nullptr;
  std::vector<u8> archive;  // reference from the first set-up round
  u64 decoded = 0;          // digest of the reference reconstruction
};

struct input {
  std::vector<f32> field;
  dims3 dims;
  f64 abs_eb = 0;
};

constexpr f64 eb = 1e-4;
constexpr int setup_reps = 5;

}  // namespace

measurement run_bulk_roundtrip(const options& o) {
  namespace core = fzmod::core;
  measurement m;
  if (o.trace) m.layers.enable(runtime_counters);

  std::vector<input> inputs;
  for (const dataset ds :
       {dataset::cesm, dataset::hacc, dataset::hurr, dataset::nyx}) {
    for (int var = 0; var < 2; ++var) {
      input in{make_field(ds, var, o.seed, catalog_dims(ds)),
               catalog_dims(ds), 0};
      const auto [mn, mx] = std::minmax_element(in.field.begin(),
                                                in.field.end());
      in.abs_eb = eb * (static_cast<f64>(*mx) - static_cast<f64>(*mn));
      inputs.push_back(std::move(in));
    }
  }
  core::chunked_options copt;
  copt.chunk_elems = 1 << 18;
  copt.jobs = 4;

  std::vector<std::unique_ptr<core::chunked_pipeline<f32>>> pipes;
  std::vector<job> jobs;
  for (int rep = 0; rep < setup_reps; ++rep) {
    const auto t0 = clock_type::now();
    pipes.clear();
    std::vector<job> round;
    for (const input& in : inputs) {
      for (const char* preset : {"default", "speed", "quality"}) {
        pipes.push_back(std::make_unique<core::chunked_pipeline<f32>>(
            core::pipeline_config::preset(
                preset, {in.abs_eb, fzmod::eb_mode::abs}),
            copt));
        job j{&in.field, in.dims, pipes.back().get(), {}, 0};
        j.archive = j.pipe->compress(in.field, in.dims);
        const std::vector<f32> decoded = j.pipe->decompress(j.archive);
        j.decoded = digest(decoded);
        if (rep == 0 && !within_rel_bound(in.field, decoded, eb)) {
          m.fail("bulk_roundtrip: reconstruction violates the error bound");
        }
        round.push_back(std::move(j));
      }
    }
    m.setup_s.push_back(seconds_since(t0));
    if (rep == 0) {
      for (const job& j : round) {
        m.raw_bytes += static_cast<f64>(j.field->size() * sizeof(f32));
        m.archive_bytes += static_cast<f64>(j.archive.size());
      }
      jobs = std::move(round);
    } else {
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (round[i].archive != jobs[i].archive ||
            round[i].decoded != jobs[i].decoded) {
          m.fail("bulk_roundtrip: repeated set-up round trip differs");
        }
        jobs[i].pipe = round[i].pipe;
      }
    }
  }

  // One epoch compresses and decompresses every (field, preset) once.
  run_epochs(o, m, [&] {
    epoch_result r;
    const std::size_t first = m.latency_ms.size();
    for (job& j : jobs) {
      std::vector<u8> archive;
      std::vector<f32> decoded;
      m.attempted += 2;
      try {
        timed_op(m.latency_ms,
                 [&] { archive = j.pipe->compress(*j.field, j.dims); });
        timed_op(m.latency_ms, [&] { decoded = j.pipe->decompress(archive); });
      } catch (const std::exception& e) {
        m.failed += 2;
        m.fail(std::string("bulk_roundtrip: ") + e.what());
        continue;
      }
      if (archive != j.archive || digest(decoded) != j.decoded) {
        ++m.failed;
        m.fail("bulk_roundtrip: round trip differs from the reference");
      }
      r.ops += 2;
      r.bytes += 2.0 * static_cast<f64>(j.field->size() * sizeof(f32));
    }
    for (std::size_t i = first; i < m.latency_ms.size(); ++i) {
      r.busy_s += m.latency_ms[i] / 1e3;
    }
    return r;
  });
  return m;
}

}  // namespace perfbench
