#include "fzmod/core/stf_pipeline.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>

#include "fzmod/common/error.hh"
#include "fzmod/core/archive_format.hh"
#include "fzmod/encoders/huffman.hh"
#include "fzmod/kernels/histogram.hh"
#include "fzmod/kernels/scan.hh"
#include "fzmod/kernels/stats.hh"
#include "fzmod/lossless/lz.hh"
#include "fzmod/predictors/quant_field.hh"
#include "fzmod/stf/stf.hh"

namespace fzmod::core {
namespace {

/// Shared side-channel collected by tasks whose output size is dynamic
/// (outlier lists, the Huffman blob). Ordering is still enforced by the
/// STF dependencies on the dense logical data these tasks also touch.
struct side_state {
  std::mutex mu;
  std::vector<kernels::outlier> outliers;
  std::vector<fmt::vo_record> value_outliers;
  std::vector<u8> huffman_blob;
};

}  // namespace

std::vector<u8> stf_compress(std::span<const f32> data, dims3 dims,
                             eb_config eb, int radius) {
  const std::size_t n = data.size();
  FZMOD_REQUIRE(n == dims.len(), status::invalid_argument,
                "stf: data size does not match dims");

  // Preprocessing (bound resolution) happens before graph construction —
  // every downstream task needs the scalar.
  f64 ebx2 = 2.0 * eb.eb;
  if (eb.mode == eb_mode::rel) {
    const auto mm = kernels::minmax_host<f32>(data);
    ebx2 = 2.0 * eb.resolve(mm.range());
  }
  const std::size_t nbins = 2 * static_cast<std::size_t>(radius);

  auto side = std::make_shared<side_state>();
  stf::context ctx;
  auto ld_data = ctx.import(data, "data");
  auto ld_q = ctx.make_data<i32>(n, "quant");
  auto ld_codes = ctx.make_data<u16>(n, "codes");
  auto ld_oflag = ctx.make_data<u8>(n, "oflag");
  auto ld_odelta = ctx.make_data<i32>(n, "odelta");
  auto ld_bins = ctx.make_data<u32>(nbins, "bins");

  // Task 1 (device): pre-quantize to the integer lattice.
  ctx.submit(
      "prequant", stf::place::device,
      [ebx2, side](device::stream& s, device::buffer<f32>& in,
                   device::buffer<i32>& q) {
        const f32* ip = in.data();
        i32* qp = q.data();
        const f64 r_ebx2 = 1.0 / ebx2;
        const std::size_t count = in.size();
        device::launch_blocks(
            s, count, device::runtime::instance().default_block(),
            [ip, qp, r_ebx2, side](std::size_t, std::size_t lo,
                                   std::size_t hi) {
              for (std::size_t i = lo; i < hi; ++i) {
                const f64 scaled = static_cast<f64>(ip[i]) * r_ebx2;
                if (!(std::fabs(scaled) <
                      static_cast<f64>(predictors::value_outlier_limit))) {
                  std::lock_guard lk(side->mu);
                  side->value_outliers.push_back(
                      {i, static_cast<f64>(ip[i])});
                  qp[i] = 0;
                } else {
                  qp[i] = static_cast<i32>(
                      predictors::round_half_even(scaled));
                }
              }
            });
      },
      stf::read(ld_data), stf::write(ld_q));

  // Task 2 (device): Lorenzo difference + quantization codes + outlier
  // flags/deltas.
  ctx.submit(
      "lorenzo-quantize", stf::place::device,
      [dims, radius](device::stream& s, device::buffer<i32>& q,
                     device::buffer<u16>& codes, device::buffer<u8>& oflag,
                     device::buffer<i32>& odelta) {
        const i32* qp = q.data();
        u16* cp = codes.data();
        u8* fp = oflag.data();
        i32* dp = odelta.data();
        const int rank = dims.rank();
        const std::size_t count = q.size();
        device::launch(s, count, [=](std::size_t i) {
          const std::size_t x = i % dims.x;
          const std::size_t y = (i / dims.x) % dims.y;
          const std::size_t z = i / (dims.x * dims.y);
          const std::size_t sx = 1, sy = dims.x, sz = dims.x * dims.y;
          i64 pred = 0;
          if (rank == 1) {
            pred = x ? qp[i - sx] : 0;
          } else if (rank == 2) {
            const i64 w = x ? qp[i - sx] : 0;
            const i64 nn = y ? qp[i - sy] : 0;
            const i64 nw = (x && y) ? qp[i - sx - sy] : 0;
            pred = w + nn - nw;
          } else {
            const i64 vx = x ? qp[i - sx] : 0;
            const i64 vy = y ? qp[i - sy] : 0;
            const i64 vz = z ? qp[i - sz] : 0;
            const i64 vxy = (x && y) ? qp[i - sx - sy] : 0;
            const i64 vxz = (x && z) ? qp[i - sx - sz] : 0;
            const i64 vyz = (y && z) ? qp[i - sy - sz] : 0;
            const i64 vxyz = (x && y && z) ? qp[i - sx - sy - sz] : 0;
            pred = vx + vy + vz - vxy - vxz - vyz + vxyz;
          }
          const i64 delta = static_cast<i64>(qp[i]) - pred;
          const i64 code = delta + radius;
          if (code > 0 && code < 2 * radius) {
            cp[i] = static_cast<u16>(code);
            fp[i] = 0;
            dp[i] = 0;
          } else {
            cp[i] = 0;
            fp[i] = 1;
            dp[i] = static_cast<i32>(delta);
          }
        });
      },
      stf::read(ld_q), stf::write(ld_codes), stf::write(ld_oflag),
      stf::write(ld_odelta));

  // Task 3 (device): histogram of the codes. Independent of the outlier
  // branch below — the scheduler runs them concurrently.
  ctx.submit(
      "histogram", stf::place::device,
      [](device::stream& s, device::buffer<u16>& codes,
         device::buffer<u32>& bins) {
        kernels::histogram_async(codes, bins, s);
      },
      stf::read(ld_codes), stf::write(ld_bins));

  // Task 4 (device->side): compact the outlier list. Concurrent with the
  // histogram/Huffman branch.
  ctx.submit(
      "compact-outliers", stf::place::device,
      [side](device::stream& s, device::buffer<u8>& oflag,
             device::buffer<i32>& odelta) {
        const u8* fp = oflag.data();
        const i32* dp = odelta.data();
        const std::size_t count = oflag.size();
        device::host_task(s, [fp, dp, count, side] {
          std::vector<kernels::outlier> local;
          for (std::size_t i = 0; i < count; ++i) {
            if (fp[i]) local.push_back({i, dp[i]});
          }
          std::lock_guard lk(side->mu);
          side->outliers = std::move(local);
        });
      },
      stf::read(ld_oflag), stf::read(ld_odelta));

  // Task 5 (host): CPU Huffman over codes + histogram. The STF runtime
  // inserts the D2H transfers (codes, bins) this hybrid stage needs.
  ctx.submit(
      "huffman-encode", stf::place::host,
      [side](device::stream&, device::buffer<u16>& codes,
             device::buffer<u32>& bins) {
        auto blob = encoders::huffman_encode(codes.span(), bins.span());
        std::lock_guard lk(side->mu);
        side->huffman_blob = std::move(blob);
      },
      stf::read(ld_codes), stf::read(ld_bins));

  ctx.finalize();

  // Assemble the standard archive (identical layout to core::pipeline).
  fmt::inner_header hdr{};
  hdr.magic = fmt::inner_magic;
  hdr.version = fmt::archive_version;
  hdr.type = static_cast<u8>(dtype::f32);
  hdr.mode = static_cast<u8>(eb.mode);
  hdr.eb_user = eb.eb;
  hdr.ebx2 = ebx2;
  hdr.dims[0] = dims.x;
  hdr.dims[1] = dims.y;
  hdr.dims[2] = dims.z;
  hdr.radius = radius;
  std::memcpy(hdr.preprocessor, "value-range", 12);
  std::memcpy(hdr.predictor, "lorenzo", 8);
  std::memcpy(hdr.codec, "huffman", 8);
  hdr.n_outliers = side->outliers.size();
  hdr.n_value_outliers = side->value_outliers.size();
  hdr.codec_bytes = side->huffman_blob.size();

  const std::vector<u8> packed_outliers =
      fmt::pack_outliers(std::move(side->outliers));
  hdr.outlier_bytes = packed_outliers.size();

  // Value outliers are collected under a lock in scheduling order; sort
  // so archives are byte-deterministic (matches core::pipeline).
  std::sort(side->value_outliers.begin(), side->value_outliers.end(),
            [](const auto& a, const auto& b) { return a.index < b.index; });

  const u64 vo_bytes = hdr.n_value_outliers * sizeof(fmt::vo_record);
  const fmt::outer_header_v2 outer{fmt::outer_magic_v2, 0, {}, 0};
  std::vector<u8> archive(sizeof(outer) + sizeof(hdr) +
                          side->huffman_blob.size() +
                          packed_outliers.size() + vo_bytes);
  u8* p = archive.data();
  std::memcpy(p, &outer, sizeof(outer));
  u8* const header_slot = p + sizeof(outer);
  p = header_slot + sizeof(hdr);  // header lands last (after digests)
  const u8* const codec_at = p;
  std::memcpy(p, side->huffman_blob.data(), side->huffman_blob.size());
  p += side->huffman_blob.size();
  const u8* const outliers_at = p;
  if (!packed_outliers.empty()) {
    std::memcpy(p, packed_outliers.data(), packed_outliers.size());
  }
  p += packed_outliers.size();
  const u8* const vo_at = p;
  if (vo_bytes != 0) {
    std::memcpy(p, side->value_outliers.data(), vo_bytes);
  }

  hdr.digest_codec =
      kernels::chunked_hash({codec_at, side->huffman_blob.size()});
  hdr.digest_outliers =
      kernels::chunked_hash({outliers_at, packed_outliers.size()});
  hdr.digest_value_outliers = kernels::chunked_hash({vo_at, vo_bytes});
  hdr.digest_anchors = kernels::chunked_hash({});  // stf writes no anchors
  hdr.digest_header = fmt::header_digest(hdr);
  std::memcpy(header_slot, &hdr, sizeof(hdr));
  return archive;
}

std::vector<f32> stf_decompress(std::span<const u8> archive) {
  // Same version negotiation + verification policy as core::pipeline —
  // both drivers read the one format, via the shared fmt helpers.
  const fmt::outer_view ov = fmt::parse_outer(archive);
  fmt::verify_outer(ov);
  std::vector<u8> body_storage;
  std::span<const u8> body = ov.stored_body;
  if (ov.secondary) {
    body_storage = lossless::decompress(body);
    body = body_storage;
  }
  const fmt::inner_header hdr = fmt::parse_inner(body);
  fmt::verify_inner_header(hdr);
  FZMOD_REQUIRE(std::string_view(hdr.predictor) == "lorenzo" &&
                    std::string_view(hdr.codec) == "huffman",
                status::unsupported,
                "stf driver only supports lorenzo+huffman archives");
  FZMOD_REQUIRE(std::string_view(hdr.preprocessor) == "value-range" ||
                    std::string_view(hdr.preprocessor) == "none",
                status::unsupported,
                "stf driver does not support transforming preprocessors");
  const dims3 dims = fmt::validate_dims(hdr, body.size());
  const std::size_t n = dims.len();
  const int radius = hdr.radius;
  const f64 ebx2 = hdr.ebx2;
  fmt::validate_anchor_geometry(hdr, dims);
  const fmt::section_view sections = fmt::slice_sections(body, hdr);
  fmt::verify_sections(hdr, sections);

  // Stage the variable payloads (shared_ptr: tasks outlive this frame's
  // locals only through captures).
  auto blob = std::make_shared<std::vector<u8>>(sections.codec.begin(),
                                                sections.codec.end());
  auto outliers = std::make_shared<std::vector<kernels::outlier>>(
      fmt::unpack_outliers(sections.outliers, hdr.n_outliers, n));
  std::vector<fmt::vo_record> value_outliers(hdr.n_value_outliers);
  if (!value_outliers.empty()) {
    std::memcpy(value_outliers.data(), sections.value_outliers.data(),
                sections.value_outliers.size());
  }

  stf::context ctx;
  auto ld_codes = ctx.make_data<u16>(n, "codes");
  auto ld_odelta = ctx.make_data<i32>(n, "odelta");
  auto ld_out = ctx.make_data<f32>(n, "out");

  // Branch A (host): Huffman decode. Branch B (device): outlier scatter.
  // No data dependency between them — the paper's showcase overlap.
  ctx.submit(
      "huffman-decode", stf::place::host,
      [blob](device::stream&, device::buffer<u16>& codes) {
        encoders::huffman_decode(*blob, codes.span());
      },
      stf::write(ld_codes));

  ctx.submit(
      "outlier-scatter", stf::place::device,
      [outliers](device::stream& s, device::buffer<i32>& odelta) {
        i32* dp = odelta.data();
        const std::size_t count = odelta.size();
        odelta.fill_zero_async(s);
        const auto* src = outliers->data();
        device::launch(s, outliers->size(),
                       [src, dp, count, outliers](std::size_t k) {
                         const auto& o = src[k];
                         FZMOD_REQUIRE(o.index < count,
                                       status::corrupt_archive,
                                       "stf: outlier index out of range");
                         dp[o.index] = static_cast<i32>(o.value);
                       });
      },
      stf::write(ld_odelta));

  // Join: combine code deltas with outlier deltas, invert the Lorenzo
  // transform (prefix sums), dequantize.
  ctx.submit(
      "combine-invert", stf::place::device,
      [dims, radius, ebx2](device::stream& s, device::buffer<u16>& codes,
                           device::buffer<i32>& odelta,
                           device::buffer<f32>& out) {
        const u16* cp = codes.data();
        i32* dp = odelta.data();
        device::launch(s, codes.size(), [cp, dp, radius](std::size_t i) {
          if (cp[i]) dp[i] += static_cast<i32>(cp[i]) - radius;
        });
        kernels::inclusive_scan_rows_async(odelta, dims, s);
        if (dims.rank() >= 2) {
          kernels::inclusive_scan_cols_async(odelta, dims, s);
        }
        if (dims.rank() >= 3) {
          kernels::inclusive_scan_slices_async(odelta, dims, s);
        }
        f32* op = out.data();
        device::launch(s, codes.size(), [dp, op, ebx2](std::size_t i) {
          op[i] = static_cast<f32>(static_cast<f64>(dp[i]) * ebx2);
        });
      },
      stf::read(ld_codes), stf::rw(ld_odelta), stf::write(ld_out));

  ctx.finalize();

  const auto host = ld_out.fetch_host();
  std::vector<f32> out(host.begin(), host.end());
  for (const auto& vo : value_outliers) {
    FZMOD_REQUIRE(vo.index < n, status::corrupt_archive,
                  "stf: value outlier index out of range");
    out[vo.index] = static_cast<f32>(vo.value);
  }
  return out;
}

}  // namespace fzmod::core
