// Baseline: FZ-GPU (Zhang et al., HPDC'23) — cuSZ's dual-quantized Lorenzo
// predictor fused with a bitshuffle + dictionary lossless stage. The fusion
// (prequant + Lorenzo + re-centre in one kernel, shuffle + dictionary
// sharing the packing core) is what distinguishes it from the modular
// FZMod-Speed pipeline, which runs the same data-reduction techniques as
// separate stages (paper §4.3.2: "FZMod-Speed uses the same data-reduction
// techniques as FZ-GPU yet performs worse at times due to not being a
// fused-kernel implementation").
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>

#include "fzmod/baselines/compressor.hh"
#include "fzmod/common/bits.hh"
#include "fzmod/common/error.hh"
#include "fzmod/core/archive_format.hh"
#include "fzmod/device/runtime.hh"
#include "fzmod/encoders/fzg.hh"
#include "fzmod/kernels/bitshuffle.hh"
#include "fzmod/kernels/compact.hh"
#include "fzmod/kernels/scan.hh"
#include "fzmod/kernels/stats.hh"
#include "fzmod/predictors/quant_field.hh"

namespace fzmod::baselines {
namespace {

constexpr u32 fzgpu_magic = 0x465a4750;  // "FZGP"

#pragma pack(push, 1)
struct header {
  u32 magic;
  u8 mode;
  u8 pad[3];
  f64 eb_user;
  f64 ebx2;
  u64 dims[3];
  u64 n_outliers;
  u64 outlier_bytes;  // varint-packed outlier section size
  u64 n_value_outliers;
  u64 bitmap_words;
  u64 packed_words;
  u64 payload_digest;  // chunked hash of everything after the header
};
#pragma pack(pop)

struct vo_record {
  u64 index;
  f64 value;
};

/// Value outliers: |q| beyond this forces raw storage (same safety margin
/// as the modular Lorenzo predictor).
constexpr i64 q_limit = i64{1} << 27;

class fzgpu final : public compressor {
 public:
  [[nodiscard]] std::string_view name() const override { return "FZ-GPU"; }

  [[nodiscard]] std::vector<u8> compress(std::span<const f32> data,
                                         dims3 dims, eb_config eb) override {
    const std::size_t n = data.size();
    FZMOD_REQUIRE(n == dims.len(), status::invalid_argument,
                  "fzgpu: dims mismatch");
    device::stream s;
    device::buffer<f32> dev(n, device::space::device);
    device::memcpy_async(dev.data(), data.data(), n * sizeof(f32),
                         device::copy_kind::h2d, s);

    f64 ebx2 = 2.0 * eb.eb;
    if (eb.mode == eb_mode::rel) {
      kernels::minmax_result<f32> mm;
      kernels::minmax_async(dev, &mm, s);
      s.sync();
      ebx2 = 2.0 * eb.resolve(mm.range());
    }

    // Kernel 1 (fused prequant): values -> lattice, raw outliers recorded.
    auto qbuf =
        std::make_shared<device::buffer<i32>>(n, device::space::device);
    auto side = std::make_shared<std::mutex>();
    std::vector<vo_record> value_outliers;
    {
      const f32* in = dev.data();
      i32* q = qbuf->data();
      const f64 r_ebx2 = 1.0 / ebx2;
      auto* vo = &value_outliers;
      device::launch_blocks(
          s, n, device::runtime::instance().default_block(),
          [in, q, r_ebx2, vo, side](std::size_t, std::size_t lo,
                                    std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
              const f64 scaled = static_cast<f64>(in[i]) * r_ebx2;
              if (!(std::fabs(scaled) < static_cast<f64>(q_limit))) {
                std::lock_guard lk(*side);
                vo->push_back({i, static_cast<f64>(in[i])});
                q[i] = 0;
              } else {
                q[i] = static_cast<i32>(predictors::round_half_even(scaled));
              }
            }
          });
    }

    // Kernel 2 (fused Lorenzo + zigzag re-centre): symbols small-magnitude
    // u16; deltas beyond 16 bits go to a compact side list.
    auto sym =
        std::make_shared<device::buffer<u16>>(n, device::space::device);
    std::vector<kernels::outlier> outliers;
    {
      const i32* q = qbuf->data();
      u16* t = sym->data();
      auto* ol = &outliers;
      const int rank = dims.rank();
      device::launch_blocks(
          s, n, device::runtime::instance().default_block(),
          [q, t, dims, rank, ol, side](std::size_t, std::size_t lo,
                                       std::size_t hi) {
            std::size_t x = lo % dims.x;
            std::size_t y = (lo / dims.x) % dims.y;
            std::size_t z = lo / (dims.x * dims.y);
            const std::size_t sx = 1, sy = dims.x, sz = dims.x * dims.y;
            for (std::size_t i = lo; i < hi; ++i) {
              i64 pred = 0;
              if (rank == 1) {
                pred = x ? q[i - sx] : 0;
              } else if (rank == 2) {
                const i64 w = x ? q[i - sx] : 0;
                const i64 nn = y ? q[i - sy] : 0;
                const i64 nw = (x && y) ? q[i - sx - sy] : 0;
                pred = w + nn - nw;
              } else {
                const i64 vx = x ? q[i - sx] : 0;
                const i64 vy = y ? q[i - sy] : 0;
                const i64 vz = z ? q[i - sz] : 0;
                const i64 vxy = (x && y) ? q[i - sx - sy] : 0;
                const i64 vxz = (x && z) ? q[i - sx - sz] : 0;
                const i64 vyz = (y && z) ? q[i - sy - sz] : 0;
                const i64 vxyz = (x && y && z) ? q[i - sx - sy - sz] : 0;
                pred = vx + vy + vz - vxy - vxz - vyz + vxyz;
              }
              const i64 delta = static_cast<i64>(q[i]) - pred;
              const u64 zz = zigzag_encode64(delta);
              if (zz <= 0xffff) {
                t[i] = static_cast<u16>(zz);
              } else {
                t[i] = 0;
                std::lock_guard lk(*side);
                ol->push_back({static_cast<u64>(i), delta});
              }
              if (++x == dims.x) {
                x = 0;
                if (++y == dims.y) {
                  y = 0;
                  ++z;
                }
              }
            }
          });
    }

    // Kernel 3: shared shuffle + dictionary packing core.
    encoders::fzg_result enc;
    encoders::fzg_pack_async(*sym, enc, s);
    s.enqueue([sym, qbuf] {});  // lifetime anchors
    s.sync();

    const u64 n_outliers = outliers.size();
    const std::vector<u8> packed =
        core::fmt::pack_outliers(std::move(outliers));
    header hdr{fzgpu_magic,
               static_cast<u8>(eb.mode),
               {},
               eb.eb,
               ebx2,
               {dims.x, dims.y, dims.z},
               n_outliers,
               packed.size(),
               value_outliers.size(),
               enc.bitmap_words,
               enc.packed_words,
               0};
    std::vector<u8> out(sizeof(hdr) + enc.bytes() + packed.size() +
                        value_outliers.size() * sizeof(vo_record));
    u8* p = out.data() + sizeof(hdr);  // header lands last (after digest)
    device::memcpy_async(p, enc.payload.data(), enc.bytes(),
                         device::copy_kind::d2h, s);
    s.sync();
    p += enc.bytes();
    if (!packed.empty()) std::memcpy(p, packed.data(), packed.size());
    p += packed.size();
    if (!value_outliers.empty()) {
      std::memcpy(p, value_outliers.data(),
                  value_outliers.size() * sizeof(vo_record));
    }
    hdr.payload_digest = kernels::chunked_hash(
        {out.data() + sizeof(hdr), out.size() - sizeof(hdr)});
    std::memcpy(out.data(), &hdr, sizeof(hdr));
    return out;
  }

  [[nodiscard]] std::vector<f32> decompress(
      std::span<const u8> archive) override {
    FZMOD_REQUIRE(archive.size() >= sizeof(header), status::corrupt_archive,
                  "fzgpu: archive too small");
    header hdr;
    std::memcpy(&hdr, archive.data(), sizeof(hdr));
    FZMOD_REQUIRE(hdr.magic == fzgpu_magic, status::corrupt_archive,
                  "fzgpu: bad magic");
    const dims3 dims{hdr.dims[0], hdr.dims[1], hdr.dims[2]};
    FZMOD_REQUIRE(!dims.len_invalid(), status::corrupt_archive,
                  "fzgpu: dims out of supported range");
    const std::size_t n = dims.len();
    // The bitmap alone costs n/64 words, so n is archive-bounded; check
    // word counts individually before summing (overflow).
    FZMOD_REQUIRE(
        hdr.bitmap_words ==
            (kernels::bitshuffle_words(n) + 31) / 32,
        status::corrupt_archive, "fzgpu: bitmap size mismatch");
    FZMOD_REQUIRE(hdr.bitmap_words <= archive.size() / sizeof(u32) &&
                      hdr.packed_words <= archive.size() / sizeof(u32) &&
                      hdr.outlier_bytes <= archive.size() &&
                      hdr.n_outliers <= hdr.outlier_bytes / 2 + 1 &&
                      hdr.n_value_outliers <=
                          archive.size() / sizeof(vo_record),
                  status::corrupt_archive,
                  "fzgpu: implausible section sizes");
    const u64 payload_bytes =
        (hdr.bitmap_words + hdr.packed_words) * sizeof(u32);
    FZMOD_REQUIRE(
        archive.size() >= sizeof(hdr) + payload_bytes + hdr.outlier_bytes +
                              hdr.n_value_outliers * sizeof(vo_record),
        status::corrupt_archive, "fzgpu: truncated archive");
    if (core::fmt::verify_enabled()) {
      FZMOD_REQUIRE(kernels::chunked_hash(archive.subspan(sizeof(hdr))) ==
                        hdr.payload_digest,
                    status::corrupt_archive,
                    "fzgpu: payload digest mismatch");
    }

    device::stream s;
    encoders::fzg_result enc;
    enc.n_codes = n;
    enc.bitmap_words = hdr.bitmap_words;
    enc.packed_words = hdr.packed_words;
    enc.payload = device::buffer<u32>(hdr.bitmap_words + hdr.packed_words,
                                      device::space::device);
    device::memcpy_async(enc.payload.data(), archive.data() + sizeof(hdr),
                         payload_bytes, device::copy_kind::h2d, s);

    auto sym =
        std::make_shared<device::buffer<u16>>(n, device::space::device);
    encoders::fzg_unpack_async(enc, *sym, s);

    // Symbols -> deltas.
    auto deltas =
        std::make_shared<device::buffer<i32>>(n, device::space::device);
    {
      const u16* t = sym->data();
      i32* d = deltas->data();
      device::launch(s, n, [t, d, sym](std::size_t i) {
        d[i] = static_cast<i32>(
            zigzag_decode64(static_cast<u64>(t[i])));
      });
    }
    // Scatter large-delta outliers.
    auto ol = std::make_shared<std::vector<kernels::outlier>>(
        core::fmt::unpack_outliers(
            {archive.data() + sizeof(hdr) + payload_bytes,
             hdr.outlier_bytes},
            hdr.n_outliers, n));
    {
      i32* d = deltas->data();
      device::host_task(s, [ol, d, n] {
        for (const auto& o : *ol) {
          FZMOD_REQUIRE(o.index < n, status::corrupt_archive,
                        "fzgpu: outlier index out of range");
          d[o.index] = static_cast<i32>(o.value);
        }
      });
    }

    // Lorenzo inverse: prefix sums.
    kernels::inclusive_scan_rows_async(*deltas, dims, s);
    if (dims.rank() >= 2) kernels::inclusive_scan_cols_async(*deltas, dims, s);
    if (dims.rank() >= 3) {
      kernels::inclusive_scan_slices_async(*deltas, dims, s);
    }

    auto devout =
        std::make_shared<device::buffer<f32>>(n, device::space::device);
    {
      const i32* q = deltas->data();
      f32* op = devout->data();
      const f64 ebx2 = hdr.ebx2;
      device::launch(s, n, [q, op, ebx2, deltas](std::size_t i) {
        op[i] = static_cast<f32>(static_cast<f64>(q[i]) * ebx2);
      });
    }
    std::vector<f32> out(n);
    device::memcpy_async(out.data(), devout->data(), n * sizeof(f32),
                         device::copy_kind::d2h, s);
    s.sync();
    std::vector<vo_record> vo(hdr.n_value_outliers);
    if (hdr.n_value_outliers != 0) {
      std::memcpy(vo.data(),
                  archive.data() + sizeof(hdr) + payload_bytes +
                      hdr.outlier_bytes,
                  hdr.n_value_outliers * sizeof(vo_record));
    }
    for (const auto& r : vo) {
      FZMOD_REQUIRE(r.index < n, status::corrupt_archive,
                    "fzgpu: value outlier index out of range");
      out[r.index] = static_cast<f32>(r.value);
    }
    return out;
  }
};

}  // namespace

std::unique_ptr<compressor> make_fzgpu() {
  return std::make_unique<fzgpu>();
}

}  // namespace fzmod::baselines
