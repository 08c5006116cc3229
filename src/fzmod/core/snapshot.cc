#include "fzmod/core/snapshot.hh"

#include <algorithm>

#include "fzmod/kernels/chunked_hash.hh"

namespace fzmod::core {

snapshot_writer::snapshot_writer(pipeline_config defaults)
    : defaults_(std::move(defaults)) {}

void snapshot_writer::add(std::string_view name, std::span<const f32> data,
                          dims3 dims,
                          std::optional<pipeline_config> override) {
  fmt::field_dir_entry e = fmt::make_field_entry(name, dtype::f32, dims, dir_);
  std::vector<u8> archive;
  if (chunking_) {
    chunked_pipeline<f32> pipe(override.value_or(defaults_), *chunking_);
    archive = pipe.compress(data, dims);
  } else {
    pipeline<f32> pipe(override.value_or(defaults_));
    archive = pipe.compress(data, dims);
  }
  e.archive_offset = payload_bytes_;
  e.archive_bytes = archive.size();
  e.digest = kernels::chunked_hash(archive);
  payload_bytes_ += archive.size();
  dir_.push_back(e);
  archives_.push_back(std::move(archive));
}

std::vector<u8> snapshot_writer::finish() const {
  const fmt::multi_header hdr = fmt::make_multi_header(dir_.size());
  const std::vector<u8> tail = fmt::build_directory(dir_);
  const u8* h = reinterpret_cast<const u8*>(&hdr);
  std::vector<u8> blob(h, h + sizeof(hdr));
  blob.reserve(sizeof(hdr) + payload_bytes_ + tail.size());
  for (const auto& a : archives_) blob.insert(blob.end(), a.begin(), a.end());
  blob.insert(blob.end(), tail.begin(), tail.end());
  return blob;
}

snapshot_reader::snapshot_reader(std::span<const u8> blob)
    : mv_(fmt::parse_multi_container(blob)) {
  entries_.reserve(mv_.entries.size());
  for (const fmt::field_dir_entry& e : mv_.entries) {
    snapshot_entry se;
    se.name = e.name;
    se.dims = dims3{e.dims[0], e.dims[1], e.dims[2]};
    se.type = static_cast<dtype>(e.type);
    se.offset = sizeof(fmt::multi_header) + e.archive_offset;
    se.bytes = e.archive_bytes;
    entries_.push_back(std::move(se));
  }
}

bool snapshot_reader::contains(std::string_view name) const {
  return fmt::find_field(mv_, name) != nullptr;
}

const fmt::field_dir_entry& snapshot_reader::find(
    std::string_view name) const {
  const fmt::field_dir_entry* e = fmt::find_field(mv_, name);
  FZMOD_REQUIRE(e != nullptr, status::invalid_argument,
                "snapshot: no such field: " + std::string(name));
  return *e;
}

std::span<const u8> snapshot_reader::archive(std::string_view name) const {
  return fmt::field_archive(mv_, find(name));
}

std::vector<f32> snapshot_reader::read(std::string_view name) const {
  // Version-agnostic: plain v1/v2 archives and v3 chunk containers (the
  // latter decode chunk-parallel) both come back as the full field.
  return decompress_any<f32>(fmt::checked_field_archive(mv_, find(name)));
}

reader<f32> snapshot_reader::make_reader(std::string_view name,
                                         reader_options opt,
                                         pipeline_config cfg) const {
  return reader<f32>(fmt::checked_field_archive(mv_, find(name)),
                     std::move(opt), std::move(cfg));
}

namespace {

/// Collapse a chunked report into the flat per-section shape: each flag is
/// the AND over the corresponding flag of every chunk, and container-level
/// digests fold into header_ok. `.ok()` is preserved exactly.
archive_verify_report collapse(const chunked_verify_report& rep) {
  archive_verify_report out;
  out.version = fmt::chunk_container_version;
  out.header_ok = rep.container_ok;
  for (const auto& c : rep.chunks) {
    out.secondary = out.secondary || c.inner.secondary;
    out.body_ok = out.body_ok && c.digest_ok && c.inner.body_ok;
    out.header_ok = out.header_ok && c.inner.header_ok;
    out.codec_ok = out.codec_ok && c.inner.codec_ok;
    out.outliers_ok = out.outliers_ok && c.inner.outliers_ok;
    out.value_outliers_ok =
        out.value_outliers_ok && c.inner.value_outliers_ok;
    out.anchors_ok = out.anchors_ok && c.inner.anchors_ok;
  }
  return out;
}

}  // namespace

archive_verify_report snapshot_reader::verify(std::string_view name) const {
  const fmt::field_dir_entry& e = find(name);
  const std::span<const u8> ab = fmt::field_archive(mv_, e);
  archive_verify_report rep = fmt::is_chunk_container(ab)
                                  ? collapse(verify_chunked(ab))
                                  : verify_archive(ab);
  rep.body_ok = rep.body_ok && kernels::chunked_hash(ab) == e.digest;
  return rep;
}

bool snapshot_reader::verify_all() const {
  return std::all_of(entries_.begin(), entries_.end(),
                     [&](const auto& e) { return verify(e.name).ok(); });
}

}  // namespace fzmod::core
