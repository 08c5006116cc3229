#include "fzmod/core/pipeline.hh"

#include <cstring>

#include "fzmod/common/timer.hh"
#include "fzmod/core/archive_format.hh"
#include "fzmod/device/runtime.hh"
#include "fzmod/lossless/lz.hh"
#include "fzmod/spec/spec.hh"
#include "fzmod/trace/trace.hh"

namespace fzmod::core {
namespace {

/// Record a "pipeline"-category span for a stage whose duration the stage
/// stopwatch just measured: the span ends now and extends `secs` back.
/// Repeated segments of one stage (e.g. the split verify work) emit
/// multiple spans under the same name; the trace summary aggregates them.
void trace_stage(std::string_view name, f64 secs) {
  if (!trace::enabled()) return;
  const u64 end = trace::now_ns();
  const u64 dur = static_cast<u64>(secs * 1e9);
  trace::complete("pipeline", name, end - dur, dur);
}

using fmt::archive_version;
using fmt::inner_header;
using fmt::inner_magic;
using vo_record = fmt::vo_record;

void put_name(char (&dst)[16], std::string_view name) {
  FZMOD_REQUIRE(name.size() < 16, status::invalid_argument,
                "module name too long for archive header (15 chars max)");
  std::memset(dst, 0, sizeof(dst));
  std::memcpy(dst, name.data(), name.size());
}

[[nodiscard]] std::string get_name(const char (&src)[16]) {
  return std::string(src, strnlen(src, sizeof(src)));
}

template <class T>
[[nodiscard]] dtype dtype_of();
template <>
dtype dtype_of<f32>() {
  return dtype::f32;
}
template <>
dtype dtype_of<f64>() {
  return dtype::f64;
}

}  // namespace

archive_info inspect_archive(std::span<const u8> archive) {
  // Metadata-only by contract: no digest verification and no section
  // decode happens here (verify_archive is the integrity entry point).
  const fmt::outer_view ov = fmt::parse_outer(archive);
  std::vector<u8> body_storage;
  std::span<const u8> body = ov.stored_body;
  if (ov.secondary) {
    body_storage = lossless::decompress(body);
    body = body_storage;
  }
  const inner_header hdr = fmt::parse_inner(body);
  archive_info info;
  info.dims = fmt::validate_dims(hdr, body.size());
  info.version = hdr.version;
  info.type = static_cast<dtype>(hdr.type);
  info.eb_user = hdr.eb_user;
  info.mode = static_cast<eb_mode>(hdr.mode);
  info.ebx2 = hdr.ebx2;
  info.radius = hdr.radius;
  info.preprocessor = get_name(hdr.preprocessor);
  info.predictor = get_name(hdr.predictor);
  info.codec = get_name(hdr.codec);
  info.secondary = ov.secondary;
  info.n_outliers = hdr.n_outliers;
  info.n_value_outliers = hdr.n_value_outliers;
  // Best-effort spec extraction, keeping the metadata-only contract:
  // inspect stays tolerant of payload damage (no digest checks, no
  // section decode), so a malformed tail reads as "no spec" here and the
  // strict rejection happens on decompress/verify.
  if (hdr.version >= 2) {
    try {
      info.spec = fmt::parse_spec_section(fmt::section_tail(body, hdr),
                                          /*check_digest=*/false);
    } catch (const error&) {
    }
  }
  return info;
}

archive_verify_report verify_archive(std::span<const u8> archive) {
  archive_verify_report rep;
  const fmt::outer_view ov = fmt::parse_outer(archive);
  rep.secondary = ov.secondary;
  std::vector<u8> body_storage;
  std::span<const u8> body = ov.stored_body;
  if (ov.v2) {
    if (ov.secondary) {
      rep.body_ok = fmt::seal_digest(kernels::chunked_hash(ov.stored_body),
                                     1) == ov.body_digest;
    } else {
      rep.body_ok = ov.body_digest == 0;
    }
  }
  if (ov.secondary) {
    if (ov.v2 && !rep.body_ok) {
      // The sealed digest already failed; don't hand the untrusted blob
      // to the LZ parser — report what we know.
      rep.header_ok = rep.codec_ok = rep.outliers_ok = false;
      rep.value_outliers_ok = rep.anchors_ok = false;
      rep.version = 2;
      return rep;
    }
    body_storage = lossless::decompress(body);
    body = body_storage;
  }
  const inner_header hdr = fmt::parse_inner(body);
  rep.version = hdr.version;
  if (hdr.version < 2) return rep;  // v1: nothing to verify against
  rep.header_ok = fmt::header_digest(hdr) == hdr.digest_header;
  const fmt::section_view sv = fmt::slice_sections(body, hdr);
  rep.codec_ok = kernels::chunked_hash(sv.codec) == hdr.digest_codec;
  rep.outliers_ok =
      kernels::chunked_hash(sv.outliers) == hdr.digest_outliers;
  rep.value_outliers_ok = kernels::chunked_hash(sv.value_outliers) ==
                          hdr.digest_value_outliers;
  rep.anchors_ok = kernels::chunked_hash(sv.anchors) == hdr.digest_anchors;
  try {
    (void)fmt::parse_spec_section(fmt::section_tail(body, hdr),
                                  /*check_digest=*/true);
  } catch (const error&) {
    rep.spec_ok = false;
  }
  return rep;
}

template <class T>
pipeline<T>::pipeline(pipeline_config cfg) : cfg_(std::move(cfg)) {
  auto& reg = module_registry<T>::instance();
  preprocessor_ = reg.make_preprocessor(cfg_.preprocessor);
  predictor_ = reg.make_predictor(cfg_.predictor);
  codec_ = reg.make_codec(cfg_.codec);
  FZMOD_REQUIRE(cfg_.radius > 1 && cfg_.radius <= 16384,
                status::invalid_argument,
                "quantizer radius out of supported range (2..16384)");
  spec_section_ =
      fmt::build_spec_section(spec::to_string(spec::from_config(cfg_)));
}

template <class T>
pipeline<T>::~pipeline() = default;

template <class T>
std::vector<u8> pipeline<T>::compress(const device::buffer<T>& data,
                                      dims3 dims, device::stream& s) {
  const detail::busy_scope in_call(busy_);
  FZMOD_REQUIRE(data.size() == dims.len(), status::invalid_argument,
                "pipeline: data size does not match dims");
  FZMOD_TRACE_SPAN("pipeline", "compress");
  stopwatch sw;

  // Stage 1: preprocess — optional value transform, then bound
  // resolution (against the transformed values, where the bound applies).
  // All stage scratch (the transformed field, the quant_field IR, the
  // anchors) is retained in members across calls, so steady-state
  // invocations reuse their working set instead of reallocating it.
  const device::buffer<T>* src = &data;
  if (preprocessor_->transforms()) {
    transformed_scratch_.ensure(data.size(), device::space::device);
    preprocessor_->forward(data, transformed_scratch_, s);
    src = &transformed_scratch_;
  }
  const f64 ebx2 = preprocessor_->resolve_ebx2(*src, cfg_.eb, s);
  compress_timings_.preprocess = sw.seconds();
  trace_stage("preprocess", compress_timings_.preprocess);

  // Stage 2: predict + quantize.
  sw.reset();
  predictors::quant_field& field = compress_field_;
  predictors::interp_anchors& anchors = compress_anchors_;
  predictor_->compress(*src, dims, ebx2, cfg_.radius, field, anchors, s);
  s.sync();
  compress_timings_.predict = sw.seconds();
  trace_stage("predict", compress_timings_.predict);

  // Stage 3: primary lossless codec.
  sw.reset();
  std::vector<u8> codec_blob =
      codec_->encode(field.codes, cfg_.radius, cfg_, s);
  compress_timings_.encode = sw.seconds();
  trace_stage("encode", compress_timings_.encode);

  // Serialize: header | codec blob | outliers | value outliers | anchors.
  inner_header hdr{};
  hdr.magic = inner_magic;
  hdr.version = archive_version;
  hdr.type = static_cast<u8>(dtype_of<T>());
  hdr.mode = static_cast<u8>(cfg_.eb.mode);
  hdr.eb_user = cfg_.eb.eb;
  hdr.ebx2 = ebx2;
  hdr.dims[0] = dims.x;
  hdr.dims[1] = dims.y;
  hdr.dims[2] = dims.z;
  hdr.radius = cfg_.radius;
  hdr.hist = static_cast<u8>(cfg_.histogram);
  put_name(hdr.preprocessor, preprocessor_->name());
  put_name(hdr.predictor, predictor_->name());
  put_name(hdr.codec, codec_->name());
  hdr.n_outliers = field.n_outliers;
  hdr.n_value_outliers = field.value_outliers.size();
  hdr.n_anchors = anchors.lattice.size();
  hdr.anchor_stride = anchors.stride;
  hdr.codec_bytes = codec_blob.size();

  // Outliers cross D2H raw (into retained scratch), then pack to the
  // varint wire format.
  outlier_scratch_.resize(field.n_outliers);
  if (field.n_outliers) {
    device::memcpy_async(outlier_scratch_.data(), field.outliers.data(),
                         field.n_outliers * sizeof(kernels::outlier),
                         device::copy_kind::d2h, s);
    s.sync();
  }
  const std::vector<u8> packed_outliers =
      fmt::pack_outliers(std::span<kernels::outlier>(outlier_scratch_));
  hdr.outlier_bytes = packed_outliers.size();

  // Value outliers are collected from concurrent kernels in scheduling
  // order; sort so archives are byte-deterministic.
  std::sort(field.value_outliers.begin(), field.value_outliers.end());

  const u64 vo_bytes = hdr.n_value_outliers * sizeof(vo_record);
  const u64 anchor_bytes = hdr.n_anchors * sizeof(i32);
  std::vector<u8> inner(sizeof(hdr) + codec_blob.size() +
                        packed_outliers.size() + vo_bytes + anchor_bytes +
                        spec_section_.size());
  u8* p = inner.data() + sizeof(hdr);  // header lands last (after digests)
  std::memcpy(p, codec_blob.data(), codec_blob.size());
  p += codec_blob.size();
  if (!packed_outliers.empty()) {
    std::memcpy(p, packed_outliers.data(), packed_outliers.size());
  }
  p += packed_outliers.size();
  for (const auto& [idx, val] : field.value_outliers) {
    const vo_record r{idx, val};
    std::memcpy(p, &r, sizeof(r));
    p += sizeof(r);
  }
  if (anchor_bytes) {
    std::memcpy(p, anchors.lattice.data(), anchor_bytes);
    p += anchor_bytes;
  }
  // Trailing self-describing spec section (its own digest; see
  // archive_format.hh). Inside the inner body, so the secondary path's
  // sealed whole-body digest covers it too.
  std::memcpy(p, spec_section_.data(), spec_section_.size());
  p += spec_section_.size();

  // Section digests (v2): hash the serialized sections in place, then the
  // header's self-digest, then write the completed header.
  sw.reset();
  {
    const u8* sec = inner.data() + sizeof(hdr);
    hdr.digest_codec = kernels::chunked_hash({sec, codec_blob.size()});
    sec += codec_blob.size();
    hdr.digest_outliers =
        kernels::chunked_hash({sec, packed_outliers.size()});
    sec += packed_outliers.size();
    hdr.digest_value_outliers = kernels::chunked_hash({sec, vo_bytes});
    sec += vo_bytes;
    hdr.digest_anchors = kernels::chunked_hash({sec, anchor_bytes});
    hdr.digest_header = fmt::header_digest(hdr);
  }
  std::memcpy(inner.data(), &hdr, sizeof(hdr));
  compress_timings_.verify = sw.seconds();
  trace_stage("verify", compress_timings_.verify);

  // Stage 4: optional secondary lossless encoder over the whole body. The
  // outer header seals a whole-body digest over the stored LZ blob so the
  // decode side can verify before LZ-parsing it.
  sw.reset();
  fmt::outer_header_v2 outer{fmt::outer_magic_v2,
                             static_cast<u8>(cfg_.secondary ? 1 : 0),
                             {},
                             0};
  std::vector<u8> archive;
  if (cfg_.secondary) {
    std::vector<u8> packed = lossless::compress(inner);
    const f64 lz_s = sw.seconds();
    sw.reset();
    outer.body_digest = fmt::seal_digest(kernels::chunked_hash(packed), 1);
    compress_timings_.verify += sw.seconds();
    trace_stage("verify", sw.seconds());
    sw.reset();
    archive.resize(sizeof(outer) + packed.size());
    std::memcpy(archive.data(), &outer, sizeof(outer));
    std::memcpy(archive.data() + sizeof(outer), packed.data(),
                packed.size());
    compress_timings_.secondary = lz_s + sw.seconds();
    trace_stage("secondary", compress_timings_.secondary);
  } else {
    archive.resize(sizeof(outer) + inner.size());
    std::memcpy(archive.data(), &outer, sizeof(outer));
    std::memcpy(archive.data() + sizeof(outer), inner.data(), inner.size());
    compress_timings_.secondary = sw.seconds();
    trace_stage("secondary", compress_timings_.secondary);
  }
  device::sample_trace_counters();
  return archive;
}

template <class T>
std::vector<u8> pipeline<T>::compress(std::span<const T> host_data,
                                      dims3 dims) {
  // The stream is declared after the buffer so it drains (dtor syncs)
  // before the buffer can return its block to the pool — if compress
  // throws past a queued copy, the copy must not land in freed memory.
  device::buffer<T> dev(host_data.size(), device::space::device);
  device::stream s;
  device::memcpy_async(dev.data(), host_data.data(), host_data.size_bytes(),
                       device::copy_kind::h2d, s);
  return compress(dev, dims, s);
}

template <class T>
void pipeline<T>::decompress(std::span<const u8> archive,
                             device::buffer<T>& out, device::stream& s) {
  const detail::busy_scope in_call(busy_);
  FZMOD_TRACE_SPAN("pipeline", "decompress");
  stopwatch sw;
  const fmt::outer_view ov = fmt::parse_outer(archive);
  fmt::verify_outer(ov);  // whole-body digest, before LZ parses the blob
  decompress_timings_.verify = sw.seconds();
  trace_stage("verify", decompress_timings_.verify);
  sw.reset();
  std::vector<u8> body_storage;
  std::span<const u8> body = ov.stored_body;
  if (ov.secondary) {
    body_storage = lossless::decompress(body);
    body = body_storage;
  }
  decompress_timings_.secondary = sw.seconds();
  trace_stage("secondary", decompress_timings_.secondary);

  sw.reset();
  const inner_header hdr = fmt::parse_inner(body);
  fmt::verify_inner_header(hdr);
  decompress_timings_.verify += sw.seconds();
  trace_stage("verify", sw.seconds());
  FZMOD_REQUIRE(hdr.type == static_cast<u8>(dtype_of<T>()),
                status::invalid_argument,
                "archive dtype does not match pipeline element type");
  const dims3 dims = fmt::validate_dims(hdr, body.size());
  FZMOD_REQUIRE(out.size() == dims.len(), status::invalid_argument,
                "pipeline: output size does not match archive dims");
  fmt::validate_anchor_geometry(hdr, dims);
  const fmt::section_view sections = fmt::slice_sections(body, hdr);
  sw.reset();
  fmt::verify_sections(hdr, sections);  // before any section is decoded
  if (hdr.version >= 2) {
    // The body tail must be empty (pre-spec archive) or exactly one
    // well-formed spec section — structural checks always, digest when
    // verification is on. Extends the any-flipped-bit-throws contract
    // over the appended bytes.
    (void)fmt::parse_spec_section(fmt::section_tail(body, hdr),
                                  fmt::verify_enabled());
  }
  decompress_timings_.verify += sw.seconds();
  trace_stage("verify", sw.seconds());

  // Resolve the modules the archive names (may be custom, user-registered).
  auto& reg = module_registry<T>::instance();
  auto preprocessor = reg.make_preprocessor(get_name(hdr.preprocessor));
  auto predictor = reg.make_predictor(get_name(hdr.predictor));
  auto codec = reg.make_codec(get_name(hdr.codec));

  // Rebuild the quant_field IR into retained scratch.
  sw.reset();
  predictors::quant_field& field = decompress_field_;
  field.dims = dims;
  field.radius = hdr.radius;
  field.ebx2 = hdr.ebx2;
  field.codes.ensure(dims.len(), device::space::device);
  codec->decode(sections.codec, hdr.radius, field.codes, s);
  decompress_timings_.encode = sw.seconds();
  trace_stage("encode", decompress_timings_.encode);

  sw.reset();
  field.n_outliers = hdr.n_outliers;
  field.outliers.ensure(hdr.n_outliers, device::space::device);
  if (hdr.n_outliers) {
    const auto unpacked = fmt::unpack_outliers(sections.outliers,
                                               hdr.n_outliers, dims.len());
    device::memcpy_async(field.outliers.data(), unpacked.data(),
                         hdr.n_outliers * sizeof(kernels::outlier),
                         device::copy_kind::h2d, s);
    s.sync();
  }
  const u8* p = sections.value_outliers.data();
  field.value_outliers.resize(hdr.n_value_outliers);
  for (auto& [idx, val] : field.value_outliers) {
    vo_record r;
    std::memcpy(&r, p, sizeof(r));
    FZMOD_REQUIRE(r.index < dims.len(), status::corrupt_archive,
                  "archive: value outlier index out of range");
    idx = r.index;
    val = r.value;
    p += sizeof(r);
  }
  predictors::interp_anchors& anchors = decompress_anchors_;
  anchors.stride = hdr.anchor_stride;
  anchors.lattice.resize(hdr.n_anchors);
  if (!sections.anchors.empty()) {
    std::memcpy(anchors.lattice.data(), sections.anchors.data(),
                sections.anchors.size());
  }

  // Stage 2 inverse: reconstruct, then stage 1 inverse (value transform).
  predictor->decompress(field, anchors, out, s);
  s.sync();
  decompress_timings_.predict = sw.seconds();
  trace_stage("predict", decompress_timings_.predict);
  sw.reset();
  if (preprocessor->transforms()) {
    preprocessor->inverse(out, s);
    s.sync();
  }
  decompress_timings_.preprocess = sw.seconds();
  trace_stage("preprocess", decompress_timings_.preprocess);
  device::sample_trace_counters();
}

template <class T>
std::vector<T> pipeline<T>::decompress(std::span<const u8> archive) {
  // inspect_archive is metadata-only and will LZ-parse a secondary body
  // to reach the inner header; check the sealed whole-body digest first
  // so a corrupted blob is rejected before any parser touches it.
  fmt::verify_outer(fmt::parse_outer(archive));
  const archive_info info = inspect_archive(archive);
  device::buffer<T> dev(info.dims.len(), device::space::device);
  device::stream s;  // declared after dev: drains before dev frees
  decompress(archive, dev, s);
  std::vector<T> host(info.dims.len());
  device::memcpy_async(host.data(), dev.data(), dev.bytes(),
                       device::copy_kind::d2h, s);
  s.sync();
  return host;
}

template class pipeline<f32>;
template class pipeline<f64>;

}  // namespace fzmod::core
