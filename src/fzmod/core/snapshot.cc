#include "fzmod/core/snapshot.hh"

#include <algorithm>
#include <cstring>

namespace fzmod::core {
namespace {

constexpr u32 snapshot_magic = 0x465a534e;  // "FZSN"

#pragma pack(push, 1)
struct snap_header {
  u32 magic;
  u32 count;
  u64 toc_bytes;
};

struct toc_record {
  u64 dims[3];
  u64 offset;
  u64 bytes;
  u8 type;
  u8 name_len;
};
#pragma pack(pop)

}  // namespace

snapshot_writer::snapshot_writer(pipeline_config defaults)
    : defaults_(std::move(defaults)) {}

void snapshot_writer::add(std::string_view name, std::span<const f32> data,
                          dims3 dims,
                          std::optional<pipeline_config> override) {
  FZMOD_REQUIRE(!name.empty() && name.size() <= 255,
                status::invalid_argument,
                "snapshot: field name must be 1..255 bytes");
  for (const auto& e : entries_) {
    FZMOD_REQUIRE(e.name != name, status::invalid_argument,
                  "snapshot: duplicate field name: " + std::string(name));
  }
  if (chunking_) {
    chunked_pipeline<f32> pipe(override.value_or(defaults_), *chunking_);
    archives_.push_back(pipe.compress(data, dims));
  } else {
    pipeline<f32> pipe(override.value_or(defaults_));
    archives_.push_back(pipe.compress(data, dims));
  }
  snapshot_entry e;
  e.name = std::string(name);
  e.dims = dims;
  e.type = dtype::f32;
  e.bytes = archives_.back().size();
  entries_.push_back(std::move(e));
}

std::vector<u8> snapshot_writer::finish() const {
  // TOC size: fixed records + names.
  u64 toc_bytes = 0;
  for (const auto& e : entries_) {
    toc_bytes += sizeof(toc_record) + e.name.size();
  }
  u64 total = sizeof(snap_header) + toc_bytes;
  const u64 payload_start = total;
  for (const auto& a : archives_) total += a.size();

  std::vector<u8> blob(total);
  const snap_header hdr{snapshot_magic,
                        static_cast<u32>(entries_.size()), toc_bytes};
  u8* p = blob.data();
  std::memcpy(p, &hdr, sizeof(hdr));
  p += sizeof(hdr);
  u64 offset = payload_start;
  for (std::size_t k = 0; k < entries_.size(); ++k) {
    const auto& e = entries_[k];
    toc_record rec{{e.dims.x, e.dims.y, e.dims.z},
                   offset,
                   e.bytes,
                   static_cast<u8>(e.type),
                   static_cast<u8>(e.name.size())};
    std::memcpy(p, &rec, sizeof(rec));
    p += sizeof(rec);
    std::memcpy(p, e.name.data(), e.name.size());
    p += e.name.size();
    offset += e.bytes;
  }
  for (const auto& a : archives_) {
    std::memcpy(p, a.data(), a.size());
    p += a.size();
  }
  return blob;
}

snapshot_reader::snapshot_reader(std::span<const u8> blob) : blob_(blob) {
  FZMOD_REQUIRE(blob.size() >= sizeof(snap_header), status::corrupt_archive,
                "snapshot: blob too small");
  snap_header hdr;
  std::memcpy(&hdr, blob.data(), sizeof(hdr));
  FZMOD_REQUIRE(hdr.magic == snapshot_magic, status::corrupt_archive,
                "snapshot: bad magic");
  // Every header and TOC field is untrusted: bound each one by what
  // the blob can hold, in forms that cannot wrap, before using it.
  FZMOD_REQUIRE(hdr.toc_bytes <= blob.size() - sizeof(hdr),
                status::corrupt_archive, "snapshot: truncated TOC");
  FZMOD_REQUIRE(hdr.count <= hdr.toc_bytes / sizeof(toc_record),
                status::corrupt_archive,
                "snapshot: TOC count exceeds the TOC extent");
  const u8* p = blob.data() + sizeof(hdr);
  const u8* toc_end = p + hdr.toc_bytes;
  entries_.reserve(hdr.count);
  for (u32 k = 0; k < hdr.count; ++k) {
    FZMOD_REQUIRE(static_cast<std::size_t>(toc_end - p) >= sizeof(toc_record),
                  status::corrupt_archive, "snapshot: TOC overrun");
    toc_record rec;
    std::memcpy(&rec, p, sizeof(rec));
    p += sizeof(rec);
    FZMOD_REQUIRE(static_cast<std::size_t>(toc_end - p) >= rec.name_len,
                  status::corrupt_archive, "snapshot: TOC name overrun");
    snapshot_entry e;
    e.name.assign(reinterpret_cast<const char*>(p), rec.name_len);
    p += rec.name_len;
    e.dims = {rec.dims[0], rec.dims[1], rec.dims[2]};
    e.type = static_cast<dtype>(rec.type);
    e.offset = rec.offset;
    e.bytes = rec.bytes;
    FZMOD_REQUIRE(e.bytes <= blob.size() && e.offset <= blob.size() - e.bytes,
                  status::corrupt_archive,
                  "snapshot: archive extent out of range");
    entries_.push_back(std::move(e));
  }
}

bool snapshot_reader::contains(std::string_view name) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const auto& e) { return e.name == name; });
}

const snapshot_entry& snapshot_reader::find(std::string_view name) const {
  for (const auto& e : entries_) {
    if (e.name == name) return e;
  }
  throw error(status::invalid_argument,
              "snapshot: no such field: " + std::string(name));
}

std::span<const u8> snapshot_reader::archive(std::string_view name) const {
  const auto& e = find(name);
  return blob_.subspan(e.offset, e.bytes);
}

std::vector<f32> snapshot_reader::read(std::string_view name) const {
  // Version-agnostic: plain v1/v2 archives and v3 chunk containers (the
  // latter decode chunk-parallel) both come back as the full field.
  return decompress_any<f32>(archive(name));
}

std::vector<f32> snapshot_reader::read_range(std::string_view name,
                                             u64 elem_offset,
                                             u64 elem_count) const {
  chunked_pipeline<f32> pipe{pipeline_config{}};
  return pipe.decompress_range(archive(name), elem_offset, elem_count);
}

reader<f32> snapshot_reader::make_reader(std::string_view name,
                                         reader_options opt,
                                         pipeline_config cfg) const {
  return reader<f32>(archive(name), std::move(opt), std::move(cfg));
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
  const std::span<const u8> ab = archive(name);
  if (!fmt::is_chunk_container(ab)) return verify_archive(ab);
  return collapse(verify_chunked(ab));
}

bool snapshot_reader::verify_all() const {
  return std::all_of(entries_.begin(), entries_.end(), [&](const auto& e) {
    return verify_chunked(blob_.subspan(e.offset, e.bytes)).ok();
  });
}

}  // namespace fzmod::core
