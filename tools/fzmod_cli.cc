// fzmod — command-line front end for FZModules.
//
//   fzmod compress   -i field.f32 -o field.fzmod --dims 500,500,100
//                    [--eb 1e-4] [--mode rel|abs|pwrel]
//                    [--preset default|speed|quality]
//                    [--predictor NAME] [--codec NAME] [--secondary]
//                    [--auto balanced|throughput|ratio|quality]
//                    [--chunk-mb N] [--jobs N]   (chunk-parallel, v3)
//   fzmod decompress -i field.fzmod -o field.f32 [--jobs N]
//                    [--range OFF,N]             (random access, v3)
//   fzmod inspect    -i field.fzmod | --pipeline SPEC
//   fzmod modules    (list the registered stage modules)
//   fzmod gen        --dataset cesm|hacc|hurr|nyx [--field N] -o out.f32
//   fzmod verify     -i field.fzmod               (archive integrity)
//   fzmod verify     -a orig.f32 -b recon.f32 --dims X[,Y[,Z]]
//   fzmod serve      --socket /path.sock | --stdio   (daemon mode; the
//                    length-prefixed protocol is specced in docs/SERVING.md)
//   fzmod selftest   (end-to-end roundtrip in a temp dir; used by ctest)
//
// Input fields are headerless little-endian f32 (the SDRBench layout);
// dims are x,y,z with x fastest-varying.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>

#include "fzmod/common/env.hh"
#include "fzmod/common/timer.hh"
#include "fzmod/core/autotune.hh"
#include "fzmod/core/chunked.hh"
#include "fzmod/core/pipeline.hh"
#include "fzmod/core/reader.hh"
#include "fzmod/core/registry.hh"
#include "fzmod/core/stf_pipeline.hh"
#include "fzmod/core/stream_io.hh"
#include "fzmod/data/datasets.hh"
#include "fzmod/data/io.hh"
#include "fzmod/kernels/chunked_hash.hh"
#include "fzmod/metrics/metrics.hh"
#include "fzmod/serve/daemon.hh"
#include "fzmod/spec/spec.hh"
#include "fzmod/trace/trace.hh"

namespace {

using namespace fzmod;

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(stderr,
               "usage:\n"
               "  fzmod compress   -i IN.f32 -o OUT.fzmod --dims X[,Y[,Z]]"
               " [--eb B] [--mode rel|abs|pwrel]\n"
               "                   [--preset default|speed|quality]"
               " [--pipeline SPEC]\n"
               "                   [--predictor P] [--codec C]"
               " [--secondary]\n"
               "                   [--auto balanced|throughput|ratio|"
               "quality]\n"
               "                   [--chunk-mb N] [--jobs N]  (chunk-parallel"
               " v3 container)\n"
               "                   [--trace OUT.json] [--trace-dot OUT.dot]"
               "  (see docs/OBSERVABILITY.md)\n"
               "                   [--stream] [--stream-mem-mb N] [--resume]"
               "  (out-of-core; docs/STREAMING.md)\n"
               "                   [--fields n1=f1.f32,n2=f2.f32]"
               "  (multi-field container, shared --dims)\n"
               "  fzmod decompress -i IN.fzmod -o OUT.f32 [--jobs N]"
               " [--range OFF,N] [--trace OUT.json]\n"
               "                   [--field NAME]  (pick a field of a"
               " multi-field container)\n"
               "                   [--reader-cache-mb N] [--prefetch N]"
               " (seekable reader; docs/RUNTIME.md)\n"
               "                   [--index OUT.fzx] [--use-index IN.fzx]"
               " (sidecar chunk index)\n"
               "  fzmod inspect    -i IN.fzmod [--field NAME] |"
               " --pipeline SPEC\n"
               "  fzmod modules    (list registered stage modules)\n"
               "  fzmod gen        --dataset cesm|hacc|hurr|nyx"
               " [--field N] -o OUT.f32\n"
               "  fzmod verify     -i IN.fzmod [--field NAME]  (archive"
               " integrity)\n"
               "  fzmod verify     -a ORIG.f32 -b RECON.f32 --dims"
               " X[,Y[,Z]]\n"
               "  fzmod serve      --socket PATH | --stdio  [--eb B]"
               " [--mode rel|abs] [--preset P]\n"
               "                   [--pipeline SPEC]  (per-daemon default;"
               " requests may override)\n"
               "                   [--pool N] [--queue N] [--deadline-ms N]"
               " [--workers N] [--warm-dims X,Y,Z]\n"
               "                   (daemon mode; protocol in"
               " docs/SERVING.md)\n"
               "  fzmod selftest\n");
  std::exit(2);
}

/// Tiny flag parser: --key value / -k value pairs plus boolean flags.
class args {
 public:
  args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind('-', 0) != 0) usage(("unexpected token: " + key).c_str());
      if (key == "--secondary" || key == "--stdio" || key == "--stream" ||
          key == "--resume") {
        flags_[key] = "1";
        continue;
      }
      if (i + 1 >= argc) usage(("missing value for " + key).c_str());
      flags_[key] = argv[++i];
    }
  }

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback = "") const {
    auto it = flags_.find(key);
    return it == flags_.end() ? fallback : it->second;
  }
  [[nodiscard]] std::string require(const std::string& key) const {
    auto it = flags_.find(key);
    if (it == flags_.end()) usage(("missing required " + key).c_str());
    return it->second;
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return flags_.count(key) != 0;
  }

 private:
  std::map<std::string, std::string> flags_;
};

/// Strict numeric flag: full-string unsigned parse (common::parse_u64);
/// trailing garbage, signs, and overflow all exit with the flag name and
/// offending text instead of being silently truncated or wrapped.
u64 flag_u64(const args& a, const std::string& key) {
  try {
    return common::parse_u64(a.get(key), key);
  } catch (const error& e) {
    usage(e.what());
  }
}

/// --range OFF,N: exactly one comma, both sides strict unsigned
/// (common::parse_u64_pair semantics; unit-tested in test_common.cc).
std::pair<u64, u64> parse_range(const std::string& s) {
  try {
    return common::parse_u64_pair(s, "--range");
  } catch (const error& e) {
    usage(e.what());
  }
}

dims3 parse_dims(const std::string& s) {
  dims3 d{0, 1, 1};
  std::size_t parsed = std::sscanf(s.c_str(), "%zu,%zu,%zu", &d.x, &d.y,
                                   &d.z);
  if (parsed < 1 || d.x == 0 || d.y == 0 || d.z == 0) {
    usage(("bad --dims: " + s).c_str());
  }
  return d;
}

/// Parse + validate a --pipeline spec; grammar/JSON errors (which carry
/// the offending token and position) become usage errors.
core::pipeline_config config_from_spec(const std::string& text,
                                       const eb_config& ebc) {
  try {
    const auto sp = spec::parse(text);
    spec::validate<f32>(sp);
    return spec::to_config(sp, ebc);
  } catch (const error& e) {
    usage(e.what());
  }
}

core::pipeline_config build_config(const args& a, std::span<const f32> data,
                                   dims3 dims) {
  const f64 eb = std::atof(a.get("--eb", "1e-4").c_str());
  const std::string mode = a.get("--mode", "rel");
  eb_config ebc{eb, mode == "abs" ? eb_mode::abs : eb_mode::rel};

  core::pipeline_config cfg;
  if (a.has("--pipeline")) {
    for (const char* other :
         {"--auto", "--preset", "--predictor", "--codec", "--secondary"}) {
      if (a.has(other)) {
        usage((std::string("--pipeline already fixes the stages; drop ") +
               other)
                  .c_str());
      }
    }
    cfg = config_from_spec(a.get("--pipeline"), ebc);
    if (mode == "pwrel") {
      cfg.preprocessor = core::preprocess_log;
      cfg.eb = {eb, eb_mode::abs};
    }
    return cfg;
  }
  if (a.has("--auto")) {
    const std::string goal = a.get("--auto");
    core::objective o = core::objective::balanced;
    if (goal == "throughput") o = core::objective::throughput;
    else if (goal == "ratio") o = core::objective::ratio;
    else if (goal == "quality") o = core::objective::quality;
    else if (goal != "balanced") usage(("bad --auto: " + goal).c_str());
    const auto rep = core::autotune(data, dims, ebc, o);
    std::fprintf(stderr, "autotune: %s\n", rep.rationale.c_str());
    cfg = rep.config;
  } else {
    try {
      cfg = core::pipeline_config::preset(a.get("--preset", "default"), ebc);
    } catch (const error& e) {
      usage(e.what());
    }
  }
  if (mode == "pwrel") {
    // Pointwise relative: abs bound in log space via the log preprocessor.
    cfg.preprocessor = core::preprocess_log;
    cfg.eb = {eb, eb_mode::abs};
  }
  if (a.has("--predictor")) cfg.predictor = a.get("--predictor");
  if (a.has("--codec")) cfg.codec = a.get("--codec");
  if (a.has("--secondary")) cfg.secondary = true;
  return cfg;
}

/// --trace / --trace-dot bookkeeping. Tracing is enabled (and any prior
/// events cleared) *before* the timed work, and the outputs — Chrome JSON,
/// the STF DAG DOT, and the plain-text summary on stderr — are written
/// after it. See docs/OBSERVABILITY.md for how to read each surface.
struct trace_request {
  std::string json_path;
  std::string dot_path;
  [[nodiscard]] bool active() const {
    return !json_path.empty() || !dot_path.empty();
  }
};

trace_request parse_trace(const args& a) {
  trace_request t{a.get("--trace"), a.get("--trace-dot")};
  if (t.active()) {
    trace::set_enabled(true);
    trace::clear();
  }
  return t;
}

void write_text(const std::string& path, const std::string& text) {
  data::write_file(path, std::span<const u8>(
                             reinterpret_cast<const u8*>(text.data()),
                             text.size()));
}

void finish_trace(const trace_request& t) {
  if (!t.active()) return;
  if (!t.json_path.empty()) write_text(t.json_path, trace::export_chrome_json());
  if (!t.dot_path.empty()) {
    const std::string dot = trace::last_dag();
    if (dot.empty()) {
      std::fprintf(stderr,
                   "fzmod: --trace-dot: no task graph was recorded\n");
    } else {
      write_text(t.dot_path, dot);
    }
  }
  std::fputs(trace::summary_report().c_str(), stderr);
}

core::chunked_options chunk_opts(const args& a) {
  core::chunked_options opt;
  if (a.has("--chunk-mb")) {
    opt.chunk_mb = static_cast<std::size_t>(flag_u64(a, "--chunk-mb"));
    if (opt.chunk_mb == 0) usage("bad --chunk-mb: must be >= 1");
  }
  if (a.has("--jobs")) {
    opt.jobs = static_cast<unsigned>(flag_u64(a, "--jobs"));
    if (opt.jobs == 0) usage("bad --jobs: must be >= 1");
  }
  if (a.has("--stream-mem-mb")) {
    opt.stream_mem_mb =
        static_cast<std::size_t>(flag_u64(a, "--stream-mem-mb"));
    if (opt.stream_mem_mb == 0) usage("bad --stream-mem-mb: must be >= 1");
  }
  return opt;
}

/// --fields name=path[,name=path...]: the multi-field compression input
/// list. All fields share the one --dims (the Nyx/Miranda shape: many
/// same-shaped scalars per snapshot); heterogeneous shapes go through the
/// library API.
std::vector<core::field_input> parse_fields(const std::string& s,
                                            dims3 dims) {
  std::vector<core::field_input> out;
  std::size_t at = 0;
  while (at <= s.size()) {
    const std::size_t comma = std::min(s.find(',', at), s.size());
    const std::string tok = s.substr(at, comma - at);
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == tok.size()) {
      usage(("bad --fields entry (want name=path): " + tok).c_str());
    }
    out.push_back({tok.substr(0, eq), tok.substr(eq + 1), dims});
    at = comma + 1;
  }
  return out;
}

/// Out-of-core compression path (--stream / --stream-mem-mb / --resume /
/// --fields): the field never sits in memory, so the in-memory-only knobs
/// (--auto needs the data, --trace-dot the STF driver) are rejected.
int cmd_compress_stream(const args& a) {
  if (a.has("--auto")) {
    usage("--auto needs the whole field in memory; drop it for --stream");
  }
  if (a.has("--trace-dot")) {
    usage("--trace-dot applies to the STF driver, not --stream");
  }
  const dims3 dims = parse_dims(a.require("--dims"));
  const auto cfg = build_config(a, std::span<const f32>{}, dims);
  const trace_request tr = parse_trace(a);
  core::stream_options sopt;
  sopt.chunk = chunk_opts(a);
  sopt.resume = a.has("--resume");
  const std::string out = a.require("-o");
  stopwatch sw;
  core::stream_io_stats st;
  if (a.has("--fields")) {
    if (a.has("-i")) usage("--fields replaces -i; drop one of them");
    if (a.has("--resume")) usage("--resume is single-field only");
    const auto fields = parse_fields(a.get("--fields"), dims);
    st = core::compress_files_stream<f32>(fields, out, cfg, sopt);
  } else {
    st = core::compress_file_stream<f32>(a.require("-i"), dims, out, cfg,
                                         sopt);
  }
  const f64 t = sw.seconds();
  finish_trace(tr);
  std::fprintf(stderr,
               "stream: window %llu, %u workers, %llu read slots; "
               "%llu/%llu chunks resumed; stalls %llu read / %llu write; "
               "peak %.1f MiB\n",
               static_cast<unsigned long long>(st.window), st.workers,
               static_cast<unsigned long long>(st.read_slots),
               static_cast<unsigned long long>(st.chunks_resumed),
               static_cast<unsigned long long>(st.chunks_total),
               static_cast<unsigned long long>(st.read_stalls),
               static_cast<unsigned long long>(st.write_stalls),
               static_cast<f64>(st.peak_bytes) / (1 << 20));
  std::printf("%llu -> %llu bytes (%.2fx) in %.0f ms (%.3f GB/s)\n",
              static_cast<unsigned long long>(st.bytes_read),
              static_cast<unsigned long long>(st.bytes_written),
              metrics::compression_ratio(st.bytes_read, st.bytes_written),
              1e3 * t, throughput_gbps(st.bytes_read, t));
  return 0;
}

int cmd_compress(const args& a) {
  if (a.has("--stream") || a.has("--stream-mem-mb") || a.has("--resume") ||
      a.has("--fields")) {
    return cmd_compress_stream(a);
  }
  const dims3 dims = parse_dims(a.require("--dims"));
  const auto field = data::load_f32_field(a.require("-i"), dims);
  const auto cfg = build_config(a, field, dims);
  const trace_request tr = parse_trace(a);
  stopwatch sw;
  std::vector<u8> archive;
  if (!tr.dot_path.empty()) {
    // Only the STF driver infers a task DAG to dump; its archive is a
    // standard v2 archive (lorenzo + huffman), decodable by any path.
    archive = core::stf_compress(field, dims, cfg.eb, cfg.radius);
  } else if (a.has("--chunk-mb") || a.has("--jobs")) {
    // Chunk-parallel path: multi-chunk plans emit the v3 container;
    // a field that fits one chunk stays a plain v2 archive.
    core::chunked_pipeline<f32> pipe(cfg, chunk_opts(a));
    archive = pipe.compress(field, dims);
  } else {
    core::pipeline<f32> pipe(cfg);
    archive = pipe.compress(field, dims);
  }
  const f64 t = sw.seconds();
  finish_trace(tr);
  data::write_file(a.require("-o"), archive);
  std::printf("%zu -> %zu bytes (%.2fx) in %.0f ms (%.3f GB/s)\n",
              field.size() * 4, archive.size(),
              metrics::compression_ratio(field.size() * 4, archive.size()),
              1e3 * t, throughput_gbps(field.size() * 4, t));
  return 0;
}

int cmd_decompress(const args& a) {
  const auto container = data::read_file(a.require("-i"));
  // Field selection (multi-field containers, docs/STREAMING.md): the
  // selected span aliases the container and feeds every decode path
  // unchanged. Single-field archives pass through; naming a field there,
  // or omitting --field on a many-field container, is a usage error that
  // lists what is available.
  const std::span<const u8> archive =
      core::fmt::select_field(container, a.get("--field"));
  const trace_request tr = parse_trace(a);
  // Any reader-surface flag routes decoding through the seekable reader
  // (LRU chunk cache + prefetch, docs/RUNTIME.md); otherwise the one-shot
  // chunk-parallel decode path is used.
  const bool use_reader = a.has("--range") || a.has("--reader-cache-mb") ||
                          a.has("--prefetch") || a.has("--index") ||
                          a.has("--use-index");
  stopwatch sw;
  std::vector<f32> field;
  if (use_reader) {
    core::reader_options ropt;
    if (a.has("--reader-cache-mb")) {
      ropt.cache_mb = static_cast<std::size_t>(flag_u64(a, "--reader-cache-mb"));
    }
    if (a.has("--prefetch")) {
      ropt.prefetch = static_cast<int>(flag_u64(a, "--prefetch"));
    }
    if (a.has("--jobs")) {
      ropt.jobs = static_cast<unsigned>(flag_u64(a, "--jobs"));
      if (ropt.jobs == 0) usage("bad --jobs: must be >= 1");
    }
    std::vector<u8> index;
    if (a.has("--use-index")) index = data::read_file(a.get("--use-index"));
    reader<f32> r(archive, index, ropt);
    if (a.has("--index")) {
      data::write_file(a.get("--index"), r.export_index());
    }
    if (a.has("--range")) {
      const auto [off, cnt] = parse_range(a.get("--range"));
      field = r.read(off, cnt);
    } else {
      field = r.read(0, r.size());
    }
    const auto st = r.stats();
    std::fprintf(stderr,
                 "reader: %llu reads, hit rate %.1f%%, %llu evictions, "
                 "prefetch %llu issued / %llu used%s\n",
                 static_cast<unsigned long long>(st.reads),
                 100.0 * st.hit_rate(),
                 static_cast<unsigned long long>(st.evictions),
                 static_cast<unsigned long long>(st.prefetch_issued),
                 static_cast<unsigned long long>(st.prefetch_used),
                 st.index_used ? ", index used" : "");
  } else {
    core::chunked_pipeline<f32> pipe(core::pipeline_config{}, chunk_opts(a));
    field = pipe.decompress(archive);
  }
  const f64 t = sw.seconds();
  finish_trace(tr);
  data::store_f32_field(a.require("-o"), field);
  std::printf("%zu -> %zu bytes in %.0f ms (%.3f GB/s)\n", archive.size(),
              field.size() * 4, 1e3 * t,
              throughput_gbps(field.size() * 4, t));
  return 0;
}

int inspect_archive_bytes(std::span<const u8> archive) {
  if (core::fmt::is_chunk_container(archive)) {
    const auto ci = core::inspect_chunked(archive);
    std::printf("format        : v3 (chunk container)\n");
    std::printf("dims          : %zu x %zu x %zu (%zu values)\n", ci.dims.x,
                ci.dims.y, ci.dims.z, ci.dims.len());
    std::printf("dtype         : %s\n", to_string(ci.type));
    std::printf("chunks        : %llu (nominal %llu elems/chunk)\n",
                static_cast<unsigned long long>(ci.nchunks),
                static_cast<unsigned long long>(ci.chunk_elems));
    std::printf("container     : %zu bytes (%.3f bits/value)\n",
                archive.size(),
                metrics::bit_rate(archive.size(), ci.dims.len()));
    for (std::size_t k = 0; k < ci.chunks.size(); ++k) {
      const auto& e = ci.chunks[k];
      std::printf("  chunk %-4zu  : elems [%llu, %llu) -> %llu bytes\n", k,
                  static_cast<unsigned long long>(e.raw_offset),
                  static_cast<unsigned long long>(e.raw_offset + e.raw_len),
                  static_cast<unsigned long long>(e.archive_bytes));
    }
    return 0;
  }
  const auto info = core::inspect_archive(archive);
  std::printf("format        : v%u%s\n", static_cast<unsigned>(info.version),
              info.version >= 2 ? " (checksummed)" : "");
  std::printf("dims          : %zu x %zu x %zu (%zu values)\n", info.dims.x,
              info.dims.y, info.dims.z, info.dims.len());
  std::printf("dtype         : %s\n", to_string(info.type));
  std::printf("error bound   : %g (%s)\n", info.eb_user,
              to_string(info.mode));
  std::printf("quantizer     : ebx2=%g radius=%d\n", info.ebx2,
              info.radius);
  std::printf("preprocessor  : %s\n", info.preprocessor.c_str());
  std::printf("predictor     : %s\n", info.predictor.c_str());
  std::printf("codec         : %s\n", info.codec.c_str());
  std::printf("secondary     : %s\n", info.secondary ? "lz" : "none");
  std::printf("pipeline      : %s\n",
              info.spec.empty() ? "(none embedded)" : info.spec.c_str());
  std::printf("outliers      : %llu (+%llu value outliers)\n",
              static_cast<unsigned long long>(info.n_outliers),
              static_cast<unsigned long long>(info.n_value_outliers));
  std::printf("archive bytes : %zu (%.3f bits/value)\n", archive.size(),
              metrics::bit_rate(archive.size(), info.dims.len()));
  return 0;
}

int cmd_inspect(const args& a) {
  if (!a.has("-i") && a.has("--pipeline")) {
    // Offline spec check: echo the canonical one-liner and the JSON form.
    const auto cfg = config_from_spec(a.get("--pipeline"), {1e-4,
                                                           eb_mode::rel});
    const auto sp = spec::from_config(cfg);
    std::printf("pipeline : %s\n", spec::to_string(sp).c_str());
    std::printf("json     : %s\n", spec::to_json(sp).c_str());
    return 0;
  }
  const auto container = data::read_file(a.require("-i"));
  if (core::fmt::is_multi_container(container) && !a.has("--field")) {
    // No field named: summarize the container instead of erroring, so
    // `inspect` is how you discover what a multi-field archive holds.
    const auto mv = core::fmt::parse_multi_container(container);
    std::printf("format        : multi-field container (%u fields)\n",
                static_cast<unsigned>(mv.hdr.nfields));
    std::printf("container     : %zu bytes\n", container.size());
    for (const auto& e : mv.entries) {
      const dims3 fd{e.dims[0], e.dims[1], e.dims[2]};
      std::printf("  %-16s : %zu x %zu x %zu %s, %llu bytes\n", e.name,
                  fd.x, fd.y, fd.z,
                  to_string(static_cast<dtype>(e.type)),
                  static_cast<unsigned long long>(e.archive_bytes));
    }
    std::printf("inspect one with --field NAME\n");
    return 0;
  }
  return inspect_archive_bytes(
      core::fmt::select_field(container, a.get("--field")));
}

int cmd_modules() {
  // The registry self-registers its built-ins on first use, so this lists
  // exactly what a `--pipeline` spec can name.
  std::printf("%-14s %-13s %s\n", "name", "kind", "description");
  for (const auto& m : core::module_registry<f32>::instance().list()) {
    std::printf("%-14s %-13s %s\n", m.name.c_str(),
                core::to_string(m.kind), m.description.c_str());
  }
  std::printf("%-14s %-13s %s\n", "lz", "secondary",
              "lossless secondary compression of the archive body");
  return 0;
}

int cmd_gen(const args& a) {
  const std::string name = a.require("--dataset");
  data::dataset_id id;
  if (name == "cesm") id = data::dataset_id::cesm;
  else if (name == "hacc") id = data::dataset_id::hacc;
  else if (name == "hurr") id = data::dataset_id::hurr;
  else if (name == "nyx") id = data::dataset_id::nyx;
  else usage(("bad --dataset: " + name).c_str());
  const auto ds = data::describe(id, data::fullscale_requested());
  const int field = std::atoi(a.get("--field", "0").c_str());
  const auto v = data::generate(ds, field);
  data::store_f32_field(a.require("-o"), v);
  std::printf("%s field %d: %zux%zux%zu -> %zu bytes\n", ds.name.c_str(),
              field, ds.dims.x, ds.dims.y, ds.dims.z, v.size() * 4);
  return 0;
}

int verify_archive_bytes(std::span<const u8> archive) {
  {
    if (core::fmt::is_chunk_container(archive)) {
      const auto rep = core::verify_chunked(archive);
      std::printf("format version : v3 (chunk container)\n");
      std::printf("%-14s : %s\n", "container",
                  rep.container_ok ? "ok" : "DIGEST MISMATCH");
      for (const auto& c : rep.chunks) {
        std::printf("chunk %-8llu : %s\n",
                    static_cast<unsigned long long>(c.index),
                    c.ok() ? "ok"
                           : (c.digest_ok ? "INNER DIGEST MISMATCH"
                                          : "ARCHIVE DIGEST MISMATCH"));
      }
      std::printf("archive        : %s\n", rep.ok() ? "OK" : "CORRUPT");
      return rep.ok() ? 0 : 1;
    }
    const auto rep = core::verify_archive(archive);
    std::printf("format version : v%u\n", static_cast<unsigned>(rep.version));
    if (rep.version < 2) {
      std::printf("archive        : structurally valid (v1 carries no"
                  " digests)\n");
      return 0;
    }
    const auto row = [](const char* name, bool ok) {
      std::printf("%-14s : %s\n", name, ok ? "ok" : "DIGEST MISMATCH");
    };
    if (rep.secondary) row("body (lz)", rep.body_ok);
    row("header", rep.header_ok);
    row("codec", rep.codec_ok);
    row("outliers", rep.outliers_ok);
    row("value outliers", rep.value_outliers_ok);
    row("anchors", rep.anchors_ok);
    row("spec", rep.spec_ok);
    std::printf("archive        : %s\n", rep.ok() ? "OK" : "CORRUPT");
    return rep.ok() ? 0 : 1;
  }
}

int cmd_verify(const args& a) {
  // Archive-integrity mode: check the digests an archive carries.
  if (a.has("-i")) {
    const auto container = data::read_file(a.require("-i"));
    if (core::fmt::is_multi_container(container)) {
      if (a.has("--field")) {
        // select_field checks the named field's directory digest before
        // handing back its bytes; the inner digests follow.
        return verify_archive_bytes(
            core::fmt::select_field(container, a.get("--field")));
      }
      // No field named: verify the container structure, then every field.
      const auto mv = core::fmt::parse_multi_container(container,
                                                       /*check_digests=*/true);
      std::printf("format version : multi-field container (%u fields)\n",
                  static_cast<unsigned>(mv.hdr.nfields));
      int rc = 0;
      for (const auto& e : mv.entries) {
        const auto fa = core::fmt::field_archive(mv, e);
        const bool digest_ok = kernels::chunked_hash(fa) == e.digest;
        std::printf("--- field '%s' : %s\n", e.name,
                    digest_ok ? "directory digest ok"
                              : "DIRECTORY DIGEST MISMATCH");
        if (!digest_ok) rc = 1;
        if (verify_archive_bytes(fa) != 0) rc = 1;
      }
      std::printf("container      : %s\n", rc == 0 ? "OK" : "CORRUPT");
      return rc;
    }
    return verify_archive_bytes(
        core::fmt::select_field(container, a.get("--field")));
  }
  // Reconstruction-quality mode: compare two raw fields.
  const dims3 dims = parse_dims(a.require("--dims"));
  const auto x = data::load_f32_field(a.require("-a"), dims);
  const auto y = data::load_f32_field(a.require("-b"), dims);
  const auto err = metrics::compare(x, y);
  std::printf("max |error| : %.6e\n", err.max_abs_err);
  std::printf("PSNR        : %.2f dB\n", err.psnr);
  std::printf("NRMSE       : %.6e\n", err.nrmse);
  std::printf("value range : %.6e\n", err.range);
  return 0;
}

int cmd_serve(const args& a) {
  if (!a.has("--socket") && !a.has("--stdio")) {
    usage("serve needs --socket PATH or --stdio");
  }
  serve::daemon_options opt;
  opt.socket_path = a.get("--socket");

  // The daemon's pipeline config: the same knobs as `compress`, minus the
  // per-field ones (pwrel and autotune need the data up front; serving
  // resolves rel bounds per request instead).
  const f64 eb = std::atof(a.get("--eb", "1e-4").c_str());
  const std::string mode = a.get("--mode", "rel");
  if (mode != "rel" && mode != "abs") usage(("bad --mode: " + mode).c_str());
  const eb_config ebc{eb, mode == "abs" ? eb_mode::abs : eb_mode::rel};
  if (a.has("--pipeline")) {
    if (a.has("--preset")) usage("--pipeline already fixes the stages");
    opt.cfg = config_from_spec(a.get("--pipeline"), ebc);
  } else {
    try {
      opt.cfg = core::pipeline_config::preset(a.get("--preset", "default"),
                                              ebc);
    } catch (const error& e) {
      usage(e.what());
    }
  }

  // CLI flags override the FZMOD_SERVE_* environment (docs/SERVING.md).
  if (a.has("--pool")) opt.server.pool.cap = flag_u64(a, "--pool");
  if (a.has("--queue")) opt.server.queue_depth = flag_u64(a, "--queue");
  if (a.has("--deadline-ms")) {
    opt.server.deadline_ms = flag_u64(a, "--deadline-ms");
  }
  if (a.has("--workers")) opt.server.workers = flag_u64(a, "--workers");
  if (a.has("--warm-dims")) opt.warm_dims = parse_dims(a.get("--warm-dims"));
  return serve::run_daemon(opt);
}

int cmd_selftest() {
  namespace fs = std::filesystem;
  const auto dir = fs::temp_directory_path() / "fzmod_cli_selftest";
  fs::create_directories(dir);
  const auto raw = (dir / "hurr0.f32").string();
  const auto packed = (dir / "hurr0.fzmod").string();
  const auto out = (dir / "hurr0.out.f32").string();

  const auto ds = data::describe(data::dataset_id::hurr);
  const auto v = data::generate(ds, 0);
  data::store_f32_field(raw, v);

  core::pipeline<f32> pipe(
      core::pipeline_config::preset_default({1e-4, eb_mode::rel}));
  const auto field = data::load_f32_field(raw, ds.dims);
  data::write_file(packed, pipe.compress(field, ds.dims));
  data::store_f32_field(out, pipe.decompress(data::read_file(packed)));

  const auto err =
      metrics::compare(field, data::load_f32_field(out, ds.dims));
  const bool ok = err.max_abs_err <=
                  metrics::f32_bound_slack(1e-4 * err.range, err.range);
  std::printf("selftest %s (max err %.3e, bound %.3e)\n",
              ok ? "PASSED" : "FAILED", err.max_abs_err, 1e-4 * err.range);
  fs::remove_all(dir);
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  try {
    const args a(argc, argv, 2);
    if (cmd == "compress") return cmd_compress(a);
    if (cmd == "decompress") return cmd_decompress(a);
    if (cmd == "inspect") return cmd_inspect(a);
    if (cmd == "modules") return cmd_modules();
    if (cmd == "gen") return cmd_gen(a);
    if (cmd == "verify") return cmd_verify(a);
    if (cmd == "serve") return cmd_serve(a);
    if (cmd == "selftest") return cmd_selftest();
    usage(("unknown command: " + cmd).c_str());
  } catch (const error& e) {
    std::fprintf(stderr, "fzmod: %s\n", e.what());
    return 1;
  }
}
