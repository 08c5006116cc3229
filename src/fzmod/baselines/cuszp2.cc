// Baseline: cuSZp2 (Huang et al., SC'24) — a throughput-optimized fused
// compressor. Algorithmic core: 32-element blocks, 2eb pre-quantization,
// intra-block 1-D offset (delta) prediction, and fix-length encoding (one
// width byte + packed sign-magnitude codes per block; zero blocks cost a
// single byte). Block bases are delta+varint coded across blocks so smooth
// data pays ~1 byte/block. The whole forward pass is a single fused kernel
// here, matching the design that makes the real cuSZp2 the throughput
// leader in the paper's Figure 1.
#include <cmath>
#include <cstring>

#include "fzmod/baselines/compressor.hh"
#include "fzmod/common/bits.hh"
#include "fzmod/common/error.hh"
#include "fzmod/core/archive_format.hh"
#include "fzmod/device/runtime.hh"
#include "fzmod/kernels/chunked_hash.hh"
#include "fzmod/kernels/stats.hh"

namespace fzmod::baselines {
namespace {

constexpr u32 cuszp2_magic = 0x435a5032;  // "CZP2"
constexpr std::size_t blk = 32;
constexpr u8 raw_block_width = 0xff;  // block stored as 32 raw f32

#pragma pack(push, 1)
struct header {
  u32 magic;
  u8 mode;
  u8 pad[3];
  f64 eb_user;
  f64 ebx2;
  u64 n;
  u64 nblocks;
  u64 base_bytes;
  u64 payload_bytes;
  u64 payload_digest;  // chunked hash of everything after the header
};
#pragma pack(pop)

/// Per-block scratch produced by the fused forward kernel.
struct block_out {
  u8 width;            // max zigzag bit width, or raw_block_width
  i64 base;            // q of the first element (prediction seed)
  u64 payload_bits;    // width * 32 (0 for zero/raw blocks)
};

void put_varint64(std::vector<u8>& out, u64 v) {
  while (v >= 0x80) {
    out.push_back(static_cast<u8>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<u8>(v));
}

u64 get_varint64(const u8*& p, const u8* end) {
  u64 v = 0;
  int shift = 0;
  for (;;) {
    FZMOD_REQUIRE(p < end, status::corrupt_archive,
                  "cuszp2: truncated varint");
    const u8 b = *p++;
    v |= static_cast<u64>(b & 0x7f) << shift;
    if (!(b & 0x80)) return v;
    shift += 7;
    FZMOD_REQUIRE(shift < 64, status::corrupt_archive,
                  "cuszp2: varint overflow");
  }
}

class cuszp2 final : public compressor {
 public:
  [[nodiscard]] std::string_view name() const override { return "cuSZp2"; }

  [[nodiscard]] std::vector<u8> compress(std::span<const f32> data,
                                         dims3 dims, eb_config eb) override {
    const std::size_t n = data.size();
    FZMOD_REQUIRE(n == dims.len(), status::invalid_argument,
                  "cuszp2: dims mismatch");
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

    const std::size_t nblocks = n ? (n - 1) / blk + 1 : 0;
    std::vector<block_out> blocks(nblocks);
    // Worst case payload: 21 bits/code (zigzag of clamped deltas) — use 32.
    std::vector<u32> zz(n);

    // Fused forward kernel: prequant + delta + zigzag + width, one pass.
    {
      const f32* in = dev.data();
      const f64 r_ebx2 = 1.0 / ebx2;
      auto* bptr = blocks.data();
      u32* zptr = zz.data();
      device::launch_blocks(
          s, n, blk, [in, r_ebx2, bptr, zptr](std::size_t b, std::size_t lo,
                                              std::size_t hi) {
            i64 q[blk] = {};
            bool overflow = false;
            for (std::size_t i = lo; i < hi; ++i) {
              const f64 scaled = static_cast<f64>(in[i]) * r_ebx2;
              if (!(std::fabs(scaled) < 9.0e15)) {  // llrint-safe range
                overflow = true;
                break;
              }
              // llrint, not round_half_even: this guard admits |v| > 2^51.
              q[i - lo] = std::llrint(scaled);
            }
            if (overflow) {
              bptr[b] = {raw_block_width, 0, 0};
              return;
            }
            u32 ored = 0;
            i64 prev = q[0];
            for (std::size_t k = 1; k < hi - lo; ++k) {
              const i64 d = q[k] - prev;
              prev = q[k];
              // Deltas beyond 30 bits force the raw path (keeps zigzag in
              // u32 and bounds payload width).
              if (d > (i64{1} << 30) || d < -(i64{1} << 30)) {
                overflow = true;
                break;
              }
              const u32 z = zigzag_encode(static_cast<i32>(d));
              zptr[lo + k] = z;
              ored |= z;
            }
            if (overflow) {
              bptr[b] = {raw_block_width, 0, 0};
              return;
            }
            zptr[lo] = 0;
            const u8 width = static_cast<u8>(bit_width_u32(ored));
            bptr[b] = {width, q[0],
                       static_cast<u64>(width) * blk};
          });
    }
    s.sync();

    // Serialize: widths | varint block bases (delta-coded) | bit payload |
    // raw blocks inline after their width byte region... raw data goes to
    // a side area addressed in block order.
    std::vector<u8> bases;
    bases.reserve(nblocks * 2);
    i64 prev_base = 0;
    u64 payload_bits = 0;
    for (std::size_t b = 0; b < nblocks; ++b) {
      if (blocks[b].width == raw_block_width) continue;
      put_varint64(bases, zigzag_encode64(blocks[b].base - prev_base));
      prev_base = blocks[b].base;
      payload_bits += blocks[b].payload_bits;
    }
    u64 raw_blocks = 0;
    for (const auto& b : blocks) raw_blocks += (b.width == raw_block_width);

    header hdr{cuszp2_magic,
               static_cast<u8>(eb.mode),
               {},
               eb.eb,
               ebx2,
               n,
               nblocks,
               bases.size(),
               (payload_bits + 7) / 8 + raw_blocks * blk * sizeof(f32),
               0};
    std::vector<u8> out(sizeof(hdr) + nblocks + bases.size() +
                        hdr.payload_bytes + 8);
    u8* p = out.data() + sizeof(hdr);  // header lands last (after digest)
    for (std::size_t b = 0; b < nblocks; ++b) p[b] = blocks[b].width;
    p += nblocks;
    std::memcpy(p, bases.data(), bases.size());
    p += bases.size();
    bit_writer bw(p);
    u8* raw_area = p + (payload_bits + 7) / 8;
    for (std::size_t b = 0; b < nblocks; ++b) {
      const std::size_t lo = b * blk;
      const std::size_t hi = std::min(n, lo + blk);
      if (blocks[b].width == raw_block_width) {
        std::memcpy(raw_area, data.data() + lo, (hi - lo) * sizeof(f32));
        raw_area += blk * sizeof(f32);
        continue;
      }
      const u8 w = blocks[b].width;
      if (w == 0) continue;
      for (std::size_t i = lo; i < hi; ++i) bw.put(zz[i], w);
      for (std::size_t i = hi; i < lo + blk; ++i) bw.put(0, w);
    }
    out.resize(sizeof(hdr) + nblocks + bases.size() + hdr.payload_bytes);
    hdr.payload_digest = kernels::chunked_hash(
        {out.data() + sizeof(hdr), out.size() - sizeof(hdr)});
    std::memcpy(out.data(), &hdr, sizeof(hdr));
    return out;
  }

  [[nodiscard]] std::vector<f32> decompress(
      std::span<const u8> archive) override {
    FZMOD_REQUIRE(archive.size() >= sizeof(header), status::corrupt_archive,
                  "cuszp2: archive too small");
    header hdr;
    std::memcpy(&hdr, archive.data(), sizeof(hdr));
    FZMOD_REQUIRE(hdr.magic == cuszp2_magic, status::corrupt_archive,
                  "cuszp2: bad magic");
    // Resource guards: the block count must follow from n, and every
    // section must fit the archive individually (sum could overflow).
    FZMOD_REQUIRE(hdr.n <= max_field_elements, status::corrupt_archive,
                  "cuszp2: declared size exceeds decoder cap");
    FZMOD_REQUIRE(hdr.nblocks == (hdr.n ? (hdr.n - 1) / blk + 1 : 0),
                  status::corrupt_archive, "cuszp2: block count mismatch");
    FZMOD_REQUIRE(hdr.base_bytes <= archive.size() &&
                      hdr.payload_bytes <= archive.size() &&
                      hdr.nblocks <= archive.size(),
                  status::corrupt_archive,
                  "cuszp2: implausible section sizes");
    FZMOD_REQUIRE(archive.size() >= sizeof(hdr) + hdr.nblocks +
                                        hdr.base_bytes + hdr.payload_bytes,
                  status::corrupt_archive, "cuszp2: truncated archive");
    if (core::fmt::verify_enabled()) {
      FZMOD_REQUIRE(kernels::chunked_hash(archive.subspan(sizeof(hdr))) ==
                        hdr.payload_digest,
                    status::corrupt_archive,
                    "cuszp2: payload digest mismatch");
    }
    const u8* widths = archive.data() + sizeof(hdr);
    const u8* bp = widths + hdr.nblocks;
    const u8* bp_end = bp + hdr.base_bytes;

    // Bases and per-block bit offsets are sequential (tiny) prep; the
    // payload decode is block-parallel, as in the real decompressor.
    std::vector<i64> base(hdr.nblocks, 0);
    std::vector<u64> bit_offset(hdr.nblocks, 0);
    std::vector<u64> raw_offset(hdr.nblocks, 0);
    i64 prev_base = 0;
    u64 bits = 0, raws = 0;
    for (u64 b = 0; b < hdr.nblocks; ++b) {
      if (widths[b] == raw_block_width) {
        raw_offset[b] = raws;
        raws += blk * sizeof(f32);
        continue;
      }
      prev_base += zigzag_decode64(get_varint64(bp, bp_end));
      base[b] = prev_base;
      bit_offset[b] = bits;
      bits += static_cast<u64>(widths[b]) * blk;
    }
    const u64 packed_bytes = (bits + 7) / 8;
    // Widths are data; the extents they imply must fit the declared
    // payload before anything is copied out of the archive.
    FZMOD_REQUIRE(packed_bytes <= hdr.payload_bytes &&
                      raws <= hdr.payload_bytes - packed_bytes,
                  status::corrupt_archive,
                  "cuszp2: widths inconsistent with payload size");

    // Padded copy of the bit payload (bit_reader reads 8 bytes ahead).
    std::vector<u8> payload(packed_bytes + 16, 0);
    std::memcpy(payload.data(), archive.data() + sizeof(hdr) + hdr.nblocks +
                                    hdr.base_bytes,
                packed_bytes);
    const u8* raw_base = archive.data() + sizeof(hdr) + hdr.nblocks +
                         hdr.base_bytes + packed_bytes;

    std::vector<f32> out(hdr.n);
    auto& pool = device::runtime::instance().pool();
    pool.parallel_for(hdr.nblocks, 64, [&](std::size_t blo, std::size_t bhi) {
      for (std::size_t b = blo; b < bhi; ++b) {
        const std::size_t lo = b * blk;
        const std::size_t hi = std::min<std::size_t>(hdr.n, lo + blk);
        if (widths[b] == raw_block_width) {
          std::memcpy(out.data() + lo, raw_base + raw_offset[b],
                      (hi - lo) * sizeof(f32));
          continue;
        }
        const u8 w = widths[b];
        i64 q = base[b];
        if (w == 0) {
          for (std::size_t i = lo; i < hi; ++i) {
            out[i] = static_cast<f32>(static_cast<f64>(q) * hdr.ebx2);
          }
          continue;
        }
        bit_reader br(payload.data(), bit_offset[b]);
        out[lo] = static_cast<f32>(static_cast<f64>(q) * hdr.ebx2);
        (void)br.get(w);  // position 0 slot is always zero
        for (std::size_t i = lo + 1; i < hi; ++i) {
          q += zigzag_decode(static_cast<u32>(br.get(w)));
          out[i] = static_cast<f32>(static_cast<f64>(q) * hdr.ebx2);
        }
      }
    });
    return out;
  }
};

}  // namespace

std::unique_ptr<compressor> make_cuszp2() {
  return std::make_unique<cuszp2>();
}

}  // namespace fzmod::baselines
