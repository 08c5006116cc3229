// Baseline: PFPL (Fallin et al., IPDPS'25) — a portable error-bounded
// compressor with *guaranteed* bounds. Algorithmic core, per the paper and
// the LC-framework pipeline it was built with:
//   1. quantizer with a per-value guarantee check — any value whose
//      quantized reconstruction would violate the bound is stored verbatim;
//   2. delta coding (1-D, chunked);
//   3. 32-bit bitshuffle (bit-plane transpose of zigzagged deltas);
//   4. zero elimination — here two-level: a super-bitmap over bitmap words
//      over payload words, which is what lets smooth data collapse to
//      hundreds-to-one ratios (the paper's CESM 181x / Nyx 1009x cells).
//
// Runs host-side (PFPL's defining trait is portability; its CPU and GPU
// versions share the algorithm), parallel over the worker pool.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <mutex>

#include "fzmod/baselines/compressor.hh"
#include "fzmod/common/bits.hh"
#include "fzmod/common/error.hh"
#include "fzmod/core/archive_format.hh"
#include "fzmod/device/runtime.hh"
#include "fzmod/kernels/chunked_hash.hh"
#include "fzmod/kernels/stats.hh"
#include "fzmod/predictors/quant_field.hh"

namespace fzmod::baselines {
namespace {

constexpr u32 pfpl_magic = 0x5046504c;  // "PFPL"
constexpr std::size_t tile = 1024;      // values per bitshuffle tile
constexpr std::size_t words_per_tile = tile;  // 32 planes x 32 words
constexpr i64 q_limit = i64{1} << 27;

#pragma pack(push, 1)
struct header {
  u32 magic;
  u8 mode;
  u8 pad[3];
  f64 eb_user;
  f64 ebx2;
  u64 n;
  u64 n_raw;
  u64 base_bytes;
  u64 super_words;
  u64 l1_words;
  u64 payload_words;
  u64 payload_digest;  // chunked hash of everything after the header
};
#pragma pack(pop)

struct raw_record {
  u64 index;
  f32 value;
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
    FZMOD_REQUIRE(p < end, status::corrupt_archive, "pfpl: truncated varint");
    const u8 b = *p++;
    v |= static_cast<u64>(b & 0x7f) << shift;
    if (!(b & 0x80)) return v;
    shift += 7;
    FZMOD_REQUIRE(shift < 64, status::corrupt_archive,
                  "pfpl: varint overflow");
  }
}

/// Forward 32-bit bitshuffle of one tile: out[p*32 + w] collects bit p of
/// values [w*32, w*32+32).
void shuffle32_fwd(const u32* in, std::size_t count, u32* out) {
  std::memset(out, 0, words_per_tile * sizeof(u32));
  for (std::size_t i = 0; i < count; ++i) {
    u32 v = in[i];
    const std::size_t w = i >> 5;
    const u32 bit = u32{1} << (i & 31);
    while (v) {
      const int p = std::countr_zero(v);
      out[static_cast<std::size_t>(p) * 32 + w] |= bit;
      v &= v - 1;
    }
  }
}

void shuffle32_inv(const u32* in, std::size_t count, u32* out) {
  std::memset(out, 0, count * sizeof(u32));
  for (int p = 0; p < 32; ++p) {
    const u32 pbit_plane = static_cast<u32>(p);
    for (std::size_t w = 0; w < 32; ++w) {
      u32 bits = in[static_cast<std::size_t>(p) * 32 + w];
      while (bits) {
        const std::size_t i = (w << 5) + std::countr_zero(bits);
        if (i < count) out[i] |= u32{1} << pbit_plane;
        bits &= bits - 1;
      }
    }
  }
}

class pfpl final : public compressor {
 public:
  [[nodiscard]] std::string_view name() const override { return "PFPL"; }

  [[nodiscard]] std::vector<u8> compress(std::span<const f32> data,
                                         dims3 dims, eb_config eb) override {
    const std::size_t n = data.size();
    FZMOD_REQUIRE(n == dims.len(), status::invalid_argument,
                  "pfpl: dims mismatch");
    auto& pool = device::runtime::instance().pool();

    // NOA bound resolution (point-wise normalized absolute == value-range
    // relative for the other compressors, paper §4.2).
    f64 ebx2 = 2.0 * eb.eb;
    if (eb.mode == eb_mode::rel) {
      const auto mm = kernels::minmax_host<f32>(data);
      ebx2 = 2.0 * eb.resolve(mm.range());
    }
    const f64 eb_abs = ebx2 / 2.0;

    // 1+2. Guaranteed quantization + chunked delta + zigzag, per tile.
    const std::size_t ntiles = n ? (n - 1) / tile + 1 : 0;
    std::vector<u32> zz(ntiles * tile, 0);
    std::vector<i64> tile_base(ntiles, 0);
    std::mutex raw_mu;
    std::vector<raw_record> raws;
    pool.parallel_for(ntiles, 8, [&](std::size_t tlo, std::size_t thi) {
      std::vector<raw_record> local;
      for (std::size_t t = tlo; t < thi; ++t) {
        const std::size_t lo = t * tile;
        const std::size_t hi = std::min(n, lo + tile);
        i64 prev = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          const f64 x = static_cast<f64>(data[i]);
          const f64 scaled = x / ebx2;
          i64 q = 0;
          bool ok = std::fabs(scaled) < static_cast<f64>(q_limit);
          if (ok) {
            q = static_cast<i64>(predictors::round_half_even(scaled));
            // The guarantee check: reconstruction must honour the bound
            // in f32 arithmetic, since that is what the consumer reads.
            const f32 rec =
                static_cast<f32>(static_cast<f64>(q) * ebx2);
            ok = std::fabs(static_cast<f64>(rec) - x) <= eb_abs;
          }
          if (!ok) {
            local.push_back({i, data[i]});
            q = prev;  // raw values are neutral for delta coding
          }
          if (i == lo) {
            tile_base[t] = q;
          } else {
            zz[i] = zigzag_encode(static_cast<i32>(q - prev));
          }
          prev = q;
        }
      }
      if (!local.empty()) {
        std::lock_guard lk(raw_mu);
        raws.insert(raws.end(), local.begin(), local.end());
      }
    });
    // Tile ranges finish in any order; index order makes the archive a
    // function of the field alone.
    std::sort(raws.begin(), raws.end(),
              [](const raw_record& a, const raw_record& b) {
                return a.index < b.index;
              });

    // 3. Bitshuffle tiles.
    std::vector<u32> planes(ntiles * words_per_tile);
    pool.parallel_for(ntiles, 8, [&](std::size_t tlo, std::size_t thi) {
      for (std::size_t t = tlo; t < thi; ++t) {
        shuffle32_fwd(zz.data() + t * tile, tile,
                      planes.data() + t * words_per_tile);
      }
    });

    // 4. Two-level zero elimination over the whole plane stream.
    const std::size_t total_words = planes.size();
    const std::size_t l1_total = (total_words + 31) / 32;
    const std::size_t super_total = (l1_total + 31) / 32;
    std::vector<u32> l1(l1_total, 0);
    std::vector<u32> super(super_total, 0);
    for (std::size_t w = 0; w < total_words; ++w) {
      if (planes[w]) l1[w >> 5] |= u32{1} << (w & 31);
    }
    std::size_t l1_nonzero = 0;
    for (std::size_t b = 0; b < l1_total; ++b) {
      if (l1[b]) {
        super[b >> 5] |= u32{1} << (b & 31);
        ++l1_nonzero;
      }
    }
    std::size_t payload_nonzero = 0;
    for (const u32 w : planes) payload_nonzero += (w != 0);

    // Tile bases, delta + varint coded.
    std::vector<u8> bases;
    bases.reserve(ntiles * 2);
    i64 prev_base = 0;
    for (std::size_t t = 0; t < ntiles; ++t) {
      put_varint64(bases, zigzag_encode64(tile_base[t] - prev_base));
      prev_base = tile_base[t];
    }

    header hdr{pfpl_magic,
               static_cast<u8>(eb.mode),
               {},
               eb.eb,
               ebx2,
               n,
               raws.size(),
               bases.size(),
               super_total,
               l1_nonzero,
               payload_nonzero,
               0};
    // Stage word sections in an aligned vector, then memcpy into the
    // archive (word offsets inside the blob are not 4-aligned in general).
    std::vector<u32> words;
    words.reserve(super_total + l1_nonzero + payload_nonzero);
    words.insert(words.end(), super.begin(), super.end());
    for (std::size_t b = 0; b < l1_total; ++b) {
      if (l1[b]) words.push_back(l1[b]);
    }
    for (const u32 w : planes) {
      if (w) words.push_back(w);
    }

    std::vector<u8> out(sizeof(hdr) + bases.size() +
                        words.size() * sizeof(u32) +
                        raws.size() * sizeof(raw_record));
    u8* p = out.data() + sizeof(hdr);  // header lands last (after digest)
    if (!bases.empty()) std::memcpy(p, bases.data(), bases.size());
    p += bases.size();
    if (!words.empty()) std::memcpy(p, words.data(), words.size() * sizeof(u32));
    p += words.size() * sizeof(u32);
    // Field by field into the zeroed buffer: a raw_record's 4 padding
    // bytes are never copied, so they are written as zeros.
    for (const raw_record& r : raws) {
      std::memcpy(p + offsetof(raw_record, index), &r.index, sizeof(r.index));
      std::memcpy(p + offsetof(raw_record, value), &r.value, sizeof(r.value));
      p += sizeof(raw_record);
    }
    hdr.payload_digest = kernels::chunked_hash(
        {out.data() + sizeof(hdr), out.size() - sizeof(hdr)});
    std::memcpy(out.data(), &hdr, sizeof(hdr));
    return out;
  }

  [[nodiscard]] std::vector<f32> decompress(
      std::span<const u8> archive) override {
    FZMOD_REQUIRE(archive.size() >= sizeof(header), status::corrupt_archive,
                  "pfpl: archive too small");
    header hdr;
    std::memcpy(&hdr, archive.data(), sizeof(hdr));
    FZMOD_REQUIRE(hdr.magic == pfpl_magic, status::corrupt_archive,
                  "pfpl: bad magic");
    // Resource guards: the super-bitmap costs n/8192 bytes, so n is
    // bounded by the archive size; section sizes checked individually
    // before the summed check (overflow).
    FZMOD_REQUIRE(hdr.n <= max_field_elements &&
                      hdr.n / 8192 <= archive.size(),
                  status::corrupt_archive,
                  "pfpl: declared size implausible for archive");
    FZMOD_REQUIRE(hdr.base_bytes <= archive.size() &&
                      hdr.l1_words <= archive.size() / sizeof(u32) &&
                      hdr.payload_words <= archive.size() / sizeof(u32) &&
                      hdr.n_raw <= archive.size() / sizeof(raw_record),
                  status::corrupt_archive,
                  "pfpl: implausible section sizes");
    const std::size_t n = hdr.n;
    const std::size_t ntiles = n ? (n - 1) / tile + 1 : 0;
    const std::size_t total_words = ntiles * words_per_tile;
    const std::size_t l1_total = (total_words + 31) / 32;
    const std::size_t super_total = (l1_total + 31) / 32;
    FZMOD_REQUIRE(hdr.super_words == super_total, status::corrupt_archive,
                  "pfpl: super bitmap size mismatch");
    FZMOD_REQUIRE(
        archive.size() >=
            sizeof(hdr) + hdr.base_bytes +
                (hdr.super_words + hdr.l1_words + hdr.payload_words) *
                    sizeof(u32) +
                hdr.n_raw * sizeof(raw_record),
        status::corrupt_archive, "pfpl: truncated archive");
    if (core::fmt::verify_enabled()) {
      FZMOD_REQUIRE(kernels::chunked_hash(archive.subspan(sizeof(hdr))) ==
                        hdr.payload_digest,
                    status::corrupt_archive,
                    "pfpl: payload digest mismatch");
    }

    const u8* p = archive.data() + sizeof(hdr);
    const u8* bases_p = p;
    const u8* bases_end = p + hdr.base_bytes;
    p = bases_end;
    // Copy word sections out of the (unaligned) blob.
    const std::size_t nwords =
        hdr.super_words + hdr.l1_words + hdr.payload_words;
    std::vector<u32> words(nwords);
    if (nwords != 0) std::memcpy(words.data(), p, nwords * sizeof(u32));
    p += nwords * sizeof(u32);
    const u32* super = words.data();
    const u32* l1_packed = super + hdr.super_words;
    const u32* payload_packed = l1_packed + hdr.l1_words;
    std::vector<raw_record> raw_recs(hdr.n_raw);
    if (hdr.n_raw != 0) {
      std::memcpy(raw_recs.data(), p, hdr.n_raw * sizeof(raw_record));
    }
    const raw_record* raws = raw_recs.data();

    // Expand level 1 from the super bitmap.
    std::vector<u32> l1(l1_total, 0);
    {
      std::size_t pos = 0;
      for (std::size_t b = 0; b < l1_total; ++b) {
        if (super[b >> 5] & (u32{1} << (b & 31))) {
          FZMOD_REQUIRE(pos < hdr.l1_words, status::corrupt_archive,
                        "pfpl: level-1 bitmap overrun");
          l1[b] = l1_packed[pos++];
        }
      }
      FZMOD_REQUIRE(pos == hdr.l1_words, status::corrupt_archive,
                    "pfpl: level-1 bitmap population mismatch");
    }
    // Expand payload words from level 1.
    std::vector<u32> planes(total_words, 0);
    {
      std::size_t pos = 0;
      for (std::size_t b = 0; b < l1_total; ++b) {
        u32 bits = l1[b];
        while (bits) {
          const std::size_t w = (b << 5) + std::countr_zero(bits);
          FZMOD_REQUIRE(pos < hdr.payload_words && w < total_words,
                        status::corrupt_archive, "pfpl: payload overrun");
          planes[w] = payload_packed[pos++];
          bits &= bits - 1;
        }
      }
      FZMOD_REQUIRE(pos == hdr.payload_words, status::corrupt_archive,
                    "pfpl: payload population mismatch");
    }

    // Tile bases.
    std::vector<i64> tile_base(ntiles, 0);
    i64 prev_base = 0;
    for (std::size_t t = 0; t < ntiles; ++t) {
      prev_base += zigzag_decode64(get_varint64(bases_p, bases_end));
      tile_base[t] = prev_base;
    }

    // Inverse shuffle + delta + dequantize, tile-parallel.
    std::vector<f32> out(n);
    auto& pool = device::runtime::instance().pool();
    pool.parallel_for(ntiles, 8, [&](std::size_t tlo, std::size_t thi) {
      std::vector<u32> zz(tile);
      for (std::size_t t = tlo; t < thi; ++t) {
        shuffle32_inv(planes.data() + t * words_per_tile, tile, zz.data());
        const std::size_t lo = t * tile;
        const std::size_t hi = std::min(n, lo + tile);
        i64 q = tile_base[t];
        out[lo] = static_cast<f32>(static_cast<f64>(q) * hdr.ebx2);
        for (std::size_t i = lo + 1; i < hi; ++i) {
          q += zigzag_decode(zz[i - lo]);
          out[i] = static_cast<f32>(static_cast<f64>(q) * hdr.ebx2);
        }
      }
    });

    // Raw (guarantee-channel) values override.
    for (u64 k = 0; k < hdr.n_raw; ++k) {
      FZMOD_REQUIRE(raws[k].index < n, status::corrupt_archive,
                    "pfpl: raw index out of range");
      out[raws[k].index] = raws[k].value;
    }
    return out;
  }
};

}  // namespace

std::unique_ptr<compressor> make_pfpl() {
  return std::make_unique<pfpl>();
}

}  // namespace fzmod::baselines
