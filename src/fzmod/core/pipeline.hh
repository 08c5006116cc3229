// FZModules — pipeline composer: assembles stage modules per a
// pipeline_config and drives end-to-end error-bounded compression and
// decompression, producing/consuming self-contained archives.
//
// The archive records module names, dims, dtype and quantizer settings, so
// any process that has the named modules registered can decompress it.
//
// When tracing is enabled (FZMOD_TRACE=1 / trace::set_enabled), each call
// emits a whole-call span plus one "pipeline"-category span per stage —
// see docs/OBSERVABILITY.md. Disabled cost is one atomic load per site.
#pragma once

#include <atomic>
#include <span>
#include <vector>

#include "fzmod/common/error.hh"
#include "fzmod/core/config.hh"
#include "fzmod/core/registry.hh"

namespace fzmod::core {

namespace detail {
/// Movable atomic flag for the pipeline's concurrent-use guard. Moving a
/// pipeline cannot race an in-flight call on it (that would be UB anyway),
/// so the flag simply resets on move.
struct busy_flag {
  std::atomic<bool> v{false};
  busy_flag() = default;
  busy_flag(busy_flag&&) noexcept {}
  busy_flag& operator=(busy_flag&&) noexcept { return *this; }

  /// One-shot entry attempt; false means another call is in flight.
  [[nodiscard]] bool try_enter() {
    return !v.exchange(true, std::memory_order_acquire);
  }
  void leave() { v.store(false, std::memory_order_release); }
};

/// RAII over a busy_flag: every compress/decompress entry point holds one
/// of these for its whole duration, so a throwing call releases the flag
/// on unwind and can never leave a pipeline permanently "busy" — the
/// property the serving layer's pipeline pool depends on to reuse a
/// pipeline after a failed request. Entering while another call is in
/// flight throws instead of corrupting the shared member scratch.
class busy_scope {
 public:
  explicit busy_scope(busy_flag& f) : flag_(f) {
    FZMOD_REQUIRE(flag_.try_enter(), status::invalid_argument,
                  "pipeline: concurrent call on one pipeline object — use "
                  "one pipeline per thread");
  }
  ~busy_scope() { flag_.leave(); }
  busy_scope(const busy_scope&) = delete;
  busy_scope& operator=(const busy_scope&) = delete;

 private:
  busy_flag& flag_;
};
}  // namespace detail

/// Per-stage wall-clock timings of the last compress()/decompress() call,
/// in seconds. Benches read these to attribute time (Fig. 1 ablations).
struct stage_timings {
  f64 preprocess = 0;
  f64 predict = 0;
  f64 encode = 0;
  f64 secondary = 0;
  f64 verify = 0;  ///< digest computation (compress) / verification (decode)
  [[nodiscard]] f64 total() const {
    return preprocess + predict + encode + secondary + verify;
  }
};

/// Archive introspection without full decode.
struct archive_info {
  dims3 dims;
  dtype type = dtype::f32;
  f64 eb_user = 0;
  eb_mode mode = eb_mode::rel;
  f64 ebx2 = 0;
  int radius = 0;
  std::string preprocessor;
  std::string predictor;
  std::string codec;
  bool secondary = false;
  u64 n_outliers = 0;
  u64 n_value_outliers = 0;
  u16 version = 1;  ///< archive format version (1 = pre-checksum, 2 = v2)
  /// Canonical `fzmod::spec` text embedded by the compressor; empty for
  /// archives that predate the spec section (and STF-assembled ones).
  std::string spec;
};

/// Parse an archive's headers into archive_info. Validates structure
/// (throws status::corrupt_archive) but decodes no payload bytes.
[[nodiscard]] archive_info inspect_archive(std::span<const u8> archive);

/// Result of verify_archive(): per-section digest checks of a v2 archive.
/// A v1 archive carries no digests, so every field reports true and
/// `version` tells the caller nothing was actually checked.
struct archive_verify_report {
  u16 version = 1;
  bool secondary = false;
  bool body_ok = true;     ///< outer whole-body digest (sealed; secondary)
  bool header_ok = true;   ///< inner-header self-digest
  bool codec_ok = true;    ///< codec blob section digest
  bool outliers_ok = true; ///< packed-outlier section digest
  bool value_outliers_ok = true;
  bool anchors_ok = true;
  bool spec_ok = true;     ///< trailing pipeline-spec section (if present)
  [[nodiscard]] bool ok() const {
    return body_ok && header_ok && codec_ok && outliers_ok &&
           value_outliers_ok && anchors_ok && spec_ok;
  }
};

/// Check every digest a v2 archive carries without decoding its payload.
/// Structural corruption (bad magic, truncation, implausible counts) still
/// throws status::corrupt_archive; digest mismatches are reported, not
/// thrown, so the CLI can print which section is damaged. Runs regardless
/// of the FZMOD_VERIFY switch — calling this *is* opting in.
[[nodiscard]] archive_verify_report verify_archive(std::span<const u8> archive);

template <class T>
class pipeline {
 public:
  /// Resolve the config's module names through the registry; throws
  /// status::unsupported on an unknown name.
  explicit pipeline(pipeline_config cfg);

  pipeline(pipeline&&) noexcept = default;
  pipeline& operator=(pipeline&&) noexcept = default;
  ~pipeline();

  /// Compress a device-resident field. Synchronous (drives `s` internally);
  /// returns the self-contained archive in host memory.
  [[nodiscard]] std::vector<u8> compress(const device::buffer<T>& data,
                                         dims3 dims, device::stream& s);

  /// Convenience: host data in, archive out (pays the H2D transfer, which
  /// is part of the end-to-end cost the paper measures). The device copy
  /// lands in retained scratch.
  [[nodiscard]] std::vector<u8> compress(std::span<const T> host_data,
                                         dims3 dims);

  /// Decompress into a presized device buffer.
  void decompress(std::span<const u8> archive, device::buffer<T>& out,
                  device::stream& s);

  /// Convenience: archive in, host vector out (decoded in retained
  /// scratch, then copied out).
  [[nodiscard]] std::vector<T> decompress(std::span<const u8> archive);

  [[nodiscard]] const pipeline_config& config() const { return cfg_; }

  /// Per-stage timings of the most recent compress()/decompress() on this
  /// object. Not synchronized — read from the thread that made the call.
  [[nodiscard]] const stage_timings& last_compress_timings() const {
    return compress_timings_;
  }
  [[nodiscard]] const stage_timings& last_decompress_timings() const {
    return decompress_timings_;
  }

 private:
  // The bodies of the public calls, which hold busy_ around them.
  std::vector<u8> compress_held(const device::buffer<T>& data, dims3 dims,
                                device::stream& s);
  void decompress_held(std::span<const u8> archive, device::buffer<T>& out,
                       device::stream& s);

  pipeline_config cfg_;
  std::unique_ptr<preprocessor_module<T>> preprocessor_;
  std::unique_ptr<predictor_module<T>> predictor_;
  std::unique_ptr<codec_module> codec_;
  stage_timings compress_timings_;
  stage_timings decompress_timings_;

  // Per-call scratch, retained across invocations: a pipeline serving
  // repeated same-shaped requests re-acquires this whole working set via
  // capacity checks (buffer::ensure) instead of allocations, which —
  // together with the runtime's caching pools — is the zero-steady-state-
  // allocation contract documented in docs/RUNTIME.md. A pipeline object
  // is not thread-safe across concurrent calls (it never was: stage
  // timings are members); use one pipeline per serving thread. `busy_`
  // turns accidental sharing — silent scratch corruption — into an
  // immediate invalid_argument (the chunked scheduler relies on this
  // one-pipeline-per-slot rule).
  detail::busy_flag busy_;
  /// Serialized trailing spec section appended to every archive this
  /// pipeline writes. Built once in the constructor from the canonical
  /// spec text of cfg_, so equal configs keep producing byte-identical
  /// archives (the determinism contract).
  std::vector<u8> spec_section_;
  device::buffer<T> transformed_scratch_;
  predictors::quant_field compress_field_;
  predictors::interp_anchors compress_anchors_;
  predictors::quant_field decompress_field_;
  predictors::interp_anchors decompress_anchors_;
  std::vector<kernels::outlier> outlier_scratch_;
  /// Device side of the host-span overloads: the field in for compress,
  /// the reconstruction for decompress.
  device::buffer<T> host_io_scratch_;
  /// Decode-side modules, kept like the encode-side ones above and
  /// rebuilt only when an archive names different ones, so their
  /// workspaces are retained scratch too.
  std::unique_ptr<preprocessor_module<T>> decode_preprocessor_;
  std::unique_ptr<predictor_module<T>> decode_predictor_;
  std::unique_ptr<codec_module> decode_codec_;
};

}  // namespace fzmod::core
