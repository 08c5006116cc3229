// FZModules — built-in stage modules wrapping the algorithm kernels, plus
// the registry singletons that register them on first use.
#include <atomic>
#include <cmath>
#include <cstring>

#include "fzmod/core/registry.hh"
#include "fzmod/encoders/fixed_length.hh"
#include "fzmod/encoders/fzg.hh"
#include "fzmod/encoders/huffman.hh"
#include "fzmod/encoders/szx_block.hh"
#include "fzmod/kernels/histogram.hh"
#include "fzmod/kernels/stats.hh"
#include "fzmod/predictors/delta.hh"
#include "fzmod/predictors/interp.hh"
#include "fzmod/predictors/lorenzo.hh"

namespace fzmod::core {
namespace {

// ---- Stage 1: preprocessors -------------------------------------------

/// Pass-through: the user bound is already absolute.
template <class T>
class none_preprocessor final : public preprocessor_module<T> {
 public:
  [[nodiscard]] std::string_view name() const override {
    return preprocess_none;
  }
  [[nodiscard]] f64 resolve_ebx2(const device::buffer<T>&,
                                 const eb_config& eb,
                                 device::stream&) override {
    return 2.0 * eb.eb;
  }
};

/// Value-range normalization: scan min/max on the device and scale the
/// bound by the range (paper §3.2's main preprocessing use case). Works
/// for absolute bounds too (the scan is skipped).
template <class T>
class value_range_preprocessor final : public preprocessor_module<T> {
 public:
  [[nodiscard]] std::string_view name() const override {
    return preprocess_value_range;
  }
  [[nodiscard]] f64 resolve_ebx2(const device::buffer<T>& data,
                                 const eb_config& eb,
                                 device::stream& s) override {
    if (eb.mode == eb_mode::abs) return 2.0 * eb.eb;
    kernels::minmax_result<T> mm;
    kernels::minmax_async(data, &mm, s);
    s.sync();
    return 2.0 * eb.resolve(mm.range());
  }
};

/// Log transform: compress log(x) under an *absolute* bound eb, which
/// guarantees the pointwise-relative bound |x - x̂| <= (e^eb - 1)·|x| ≈
/// eb·|x| in the original domain. The standard treatment for fields with
/// huge positive dynamic range (Nyx baryon density). Requires strictly
/// positive, finite inputs — validated during forward().
template <class T>
class log_preprocessor final : public preprocessor_module<T> {
 public:
  [[nodiscard]] std::string_view name() const override {
    return preprocess_log;
  }

  [[nodiscard]] f64 resolve_ebx2(const device::buffer<T>& data,
                                 const eb_config& eb,
                                 device::stream& s) override {
    if (eb.mode == eb_mode::abs) return 2.0 * eb.eb;
    // Relative mode composes: scale by the range *of the log field*.
    kernels::minmax_result<T> mm;
    kernels::minmax_async(data, &mm, s);
    s.sync();
    return 2.0 * eb.resolve(mm.range());
  }

  [[nodiscard]] bool transforms() const override { return true; }

  void forward(const device::buffer<T>& in, device::buffer<T>& out,
               device::stream& s) override {
    in.assert_space(device::space::device);
    out.assert_space(device::space::device);
    const T* ip = in.data();
    T* op = out.data();
    s.enqueue([ip, op, n = in.size()] {
      auto& rt = device::runtime::instance();
      rt.stats().kernels_launched += 1;
      std::atomic<bool> bad{false};
      rt.pool().parallel_for(n, rt.default_block(),
                             [&](std::size_t lo, std::size_t hi) {
                               for (std::size_t i = lo; i < hi; ++i) {
                                 const f64 x = static_cast<f64>(ip[i]);
                                 if (!(x > 0) || !std::isfinite(x)) {
                                   bad.store(true,
                                             std::memory_order_relaxed);
                                   return;
                                 }
                                 op[i] = static_cast<T>(std::log(x));
                               }
                             });
      FZMOD_REQUIRE(!bad.load(), status::invalid_argument,
                    "log preprocessor requires strictly positive finite "
                    "values");
    });
  }

  void inverse(device::buffer<T>& data, device::stream& s) override {
    T* p = data.data();
    device::launch(s, data.size(), [p](std::size_t i) {
      p[i] = static_cast<T>(std::exp(static_cast<f64>(p[i])));
    });
  }
};

// ---- Stage 2: predictors ----------------------------------------------

template <class T>
class lorenzo_module final : public predictor_module<T> {
 public:
  [[nodiscard]] std::string_view name() const override {
    return predictor_lorenzo;
  }
  void compress(const device::buffer<T>& data, dims3 dims, f64 ebx2,
                int radius, predictors::quant_field& out,
                predictors::interp_anchors& anchors,
                device::stream& s) override {
    anchors.lattice.clear();
    predictors::lorenzo_compress_async(data, dims, ebx2, radius, out, s);
  }
  void decompress(const predictors::quant_field& field,
                  const predictors::interp_anchors&, device::buffer<T>& out,
                  device::stream& s) override {
    predictors::lorenzo_decompress_async(field, out, s);
  }
};

template <class T>
class spline_module final : public predictor_module<T> {
 public:
  [[nodiscard]] std::string_view name() const override {
    return predictor_spline;
  }
  void compress(const device::buffer<T>& data, dims3 dims, f64 ebx2,
                int radius, predictors::quant_field& out,
                predictors::interp_anchors& anchors,
                device::stream& s) override {
    predictors::interp_compress_async(data, dims, ebx2, radius, out, anchors,
                                      s);
  }
  void decompress(const predictors::quant_field& field,
                  const predictors::interp_anchors& anchors,
                  device::buffer<T>& out, device::stream& s) override {
    predictors::interp_decompress_async(field, anchors, out, s);
  }
};

/// Time-series delta: predict each value from the same site in the prior
/// frame (frame stride derived from the dims). Built for checkpoint
/// stacks where the z axis is time.
template <class T>
class delta_module final : public predictor_module<T> {
 public:
  [[nodiscard]] std::string_view name() const override {
    return predictor_delta;
  }
  void compress(const device::buffer<T>& data, dims3 dims, f64 ebx2,
                int radius, predictors::quant_field& out,
                predictors::interp_anchors& anchors,
                device::stream& s) override {
    anchors.lattice.clear();
    predictors::delta_compress_async(data, dims, ebx2, radius, out, s);
  }
  void decompress(const predictors::quant_field& field,
                  const predictors::interp_anchors&, device::buffer<T>& out,
                  device::stream& s) override {
    predictors::delta_decompress_async(field, out, s);
  }
};

// ---- Stage 3: primary codecs ------------------------------------------

/// Hybrid CPU Huffman: GPU histogram (standard or top-k per config), D2H
/// transfer of the raw code stream, CPU encode. The D2H of 2 bytes/value
/// is this codec's throughput tax — FZMod-Default accepts it for ratio.
class huffman_codec final : public codec_module {
 public:
  [[nodiscard]] std::string_view name() const override {
    return codec_huffman;
  }

  [[nodiscard]] std::vector<u8> encode(const device::buffer<u16>& codes,
                                       int radius,
                                       const pipeline_config& cfg,
                                       device::stream& s) override {
    const std::size_t nbins = 2 * static_cast<std::size_t>(radius);
    bins_.ensure(nbins, device::space::device);
    kernels::histogram_dispatch_async(cfg.histogram, codes, bins_, s);

    host_codes_.ensure(codes.size(), device::space::host);
    host_bins_.ensure(nbins, device::space::host);
    device::copy_async(host_codes_, codes, s);
    device::copy_async(host_bins_, bins_, s);
    s.sync();

    return encoders::huffman_encode(host_codes_.span(), host_bins_.span());
  }

  void decode(std::span<const u8> blob, int /*radius*/,
              device::buffer<u16>& codes, device::stream& s) override {
    host_codes_.ensure(codes.size(), device::space::host);
    encoders::huffman_decode(blob, host_codes_.span());
    device::copy_async(codes, host_codes_, s);
    s.sync();
  }

 private:
  // Staging scratch retained across calls (a codec instance belongs to one
  // pipeline and is driven by one call at a time).
  device::buffer<u32> bins_;
  device::buffer<u16> host_codes_;
  device::buffer<u32> host_bins_;
};

/// Device-resident FZ-GPU encoder: bitshuffle + dictionary on the device,
/// only the compressed payload crosses D2H.
class fzg_codec final : public codec_module {
 public:
  [[nodiscard]] std::string_view name() const override { return codec_fzg; }

  [[nodiscard]] std::vector<u8> encode(const device::buffer<u16>& codes,
                                       int radius, const pipeline_config&,
                                       device::stream& s) override {
    encoders::fzg_result enc;
    encoders::fzg_encode_async(codes, radius, enc, s);
    s.sync();

    struct fzg_blob_header {
      u64 n_codes;
      u64 bitmap_words;
      u64 packed_words;
    };
    const fzg_blob_header hdr{enc.n_codes, enc.bitmap_words,
                              enc.packed_words};
    std::vector<u8> blob(sizeof(hdr) + enc.bytes());
    std::memcpy(blob.data(), &hdr, sizeof(hdr));
    device::memcpy_async(blob.data() + sizeof(hdr), enc.payload.data(),
                         enc.bytes(), device::copy_kind::d2h, s);
    s.sync();
    return blob;
  }

  void decode(std::span<const u8> blob, int radius,
              device::buffer<u16>& codes, device::stream& s) override {
    struct fzg_blob_header {
      u64 n_codes;
      u64 bitmap_words;
      u64 packed_words;
    };
    FZMOD_REQUIRE(blob.size() >= sizeof(fzg_blob_header),
                  status::corrupt_archive, "fzg: blob too small");
    fzg_blob_header hdr;
    std::memcpy(&hdr, blob.data(), sizeof(hdr));
    // Guard each term before summing (overflow) and before allocating.
    FZMOD_REQUIRE(hdr.bitmap_words <= blob.size() / sizeof(u32) &&
                      hdr.packed_words <= blob.size() / sizeof(u32),
                  status::corrupt_archive, "fzg: implausible word counts");
    FZMOD_REQUIRE(hdr.n_codes == codes.size(), status::corrupt_archive,
                  "fzg: code count does not match archive dims");
    const u64 words = hdr.bitmap_words + hdr.packed_words;
    FZMOD_REQUIRE(blob.size() >= sizeof(hdr) + words * sizeof(u32),
                  status::corrupt_archive, "fzg: truncated payload");
    encoders::fzg_result enc;
    enc.n_codes = hdr.n_codes;
    enc.bitmap_words = hdr.bitmap_words;
    enc.packed_words = hdr.packed_words;
    enc.radius = radius;
    enc.payload = device::buffer<u32>(words, device::space::device);
    device::memcpy_async(enc.payload.data(), blob.data() + sizeof(hdr),
                         words * sizeof(u32), device::copy_kind::h2d, s);
    encoders::fzg_decode_async(enc, codes, s);
    s.sync();
  }
};

/// Blockwise fixed-length codec (cuSZp2's lossless stage) as a modular
/// option: host-side like Huffman (pays the D2H of raw codes) but with a
/// branch-light single pass — between Huffman and FZG on both axes.
class flen_codec final : public codec_module {
 public:
  [[nodiscard]] std::string_view name() const override {
    return codec_flen;
  }

  [[nodiscard]] std::vector<u8> encode(const device::buffer<u16>& codes,
                                       int radius, const pipeline_config&,
                                       device::stream& s) override {
    host_codes_.ensure(codes.size(), device::space::host);
    device::copy_async(host_codes_, codes, s);
    s.sync();
    return encoders::fixed_length_encode(host_codes_.span(), radius);
  }

  void decode(std::span<const u8> blob, int radius,
              device::buffer<u16>& codes, device::stream& s) override {
    host_codes_.ensure(codes.size(), device::space::host);
    encoders::fixed_length_decode(blob, radius, host_codes_.span());
    device::copy_async(codes, host_codes_, s);
    s.sync();
  }

 private:
  device::buffer<u16> host_codes_;  // D2H staging, retained across calls
};

/// SZx-style fixed-block codec: constant-block detection plus per-block
/// fixed-length packing. Host-side like flen, but collapses the long
/// constant runs of smooth fields to one flag byte per 128 codes.
class szx_codec final : public codec_module {
 public:
  [[nodiscard]] std::string_view name() const override {
    return codec_fixed_block;
  }

  [[nodiscard]] std::vector<u8> encode(const device::buffer<u16>& codes,
                                       int radius, const pipeline_config&,
                                       device::stream& s) override {
    host_codes_.ensure(codes.size(), device::space::host);
    device::copy_async(host_codes_, codes, s);
    s.sync();
    return encoders::szx_block_encode(host_codes_.span(), radius);
  }

  void decode(std::span<const u8> blob, int radius,
              device::buffer<u16>& codes, device::stream& s) override {
    host_codes_.ensure(codes.size(), device::space::host);
    encoders::szx_block_decode(blob, radius, host_codes_.span());
    device::copy_async(codes, host_codes_, s);
    s.sync();
  }

 private:
  device::buffer<u16> host_codes_;  // D2H staging, retained across calls
};

template <class T>
void register_builtins(module_registry<T>& reg) {
  reg.register_preprocessor(
      preprocess_none,
      [] { return std::make_unique<none_preprocessor<T>>(); },
      "pass-through; the user bound is already absolute");
  reg.register_preprocessor(
      preprocess_value_range,
      [] { return std::make_unique<value_range_preprocessor<T>>(); },
      "scale a relative bound by the field's value range");
  reg.register_preprocessor(
      preprocess_log,
      [] { return std::make_unique<log_preprocessor<T>>(); },
      "log transform for pointwise-relative bounds on positive fields");
  reg.register_predictor(
      predictor_lorenzo,
      [] { return std::make_unique<lorenzo_module<T>>(); },
      "multidimensional Lorenzo prediction (fused quantize+predict)");
  reg.register_predictor(
      predictor_spline,
      [] { return std::make_unique<spline_module<T>>(); },
      "cubic-spline interpolation on an anchor lattice");
  reg.register_predictor(
      predictor_delta,
      [] { return std::make_unique<delta_module<T>>(); },
      "time-series delta vs the same site in the prior frame");
  reg.register_codec(
      codec_huffman, [] { return std::make_unique<huffman_codec>(); },
      "canonical Huffman over the quant codes (best ratio, host encode)");
  reg.register_codec(
      codec_fzg, [] { return std::make_unique<fzg_codec>(); },
      "FZ-GPU bitshuffle + dictionary, fully device-resident");
  reg.register_codec(
      codec_flen, [] { return std::make_unique<flen_codec>(); },
      "blockwise fixed-length packing (cuSZp2-style lossless stage)");
  reg.register_codec(
      codec_fixed_block, [] { return std::make_unique<szx_codec>(); },
      "SZx-style constant-block detection + fixed-length encoding");
}

}  // namespace

template <class T>
module_registry<T>& module_registry<T>::instance() {
  static module_registry<T>* reg = [] {
    auto* r = new module_registry<T>();
    register_builtins(*r);
    return r;
  }();
  return *reg;
}

template class module_registry<f32>;
template class module_registry<f64>;

}  // namespace fzmod::core
