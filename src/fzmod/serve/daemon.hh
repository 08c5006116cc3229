// FZModules — long-running serving daemon: the `fzmod serve` CLI mode.
//
// Speaks a minimal length-prefixed binary protocol over either a Unix
// domain socket (many concurrent client connections, one in-flight
// request per connection) or the process's stdin/stdout (single client,
// e.g. driven by a supervisor through a pipe pair). Every request funnels
// into one `serve::server`, so admission control and tenant fairness
// apply across all connections.
//
// Wire format (little-endian; full spec + a worked example in
// docs/SERVING.md):
//
//   request  = [u64 body_len][u8 op][u8 tenant_len][tenant bytes][...]
//     op 1 compress   : [u64 x][u64 y][u64 z][x*y*z f32 payload]
//     op 2 decompress : [archive bytes]
//     op 3 ping       : (empty)
//     op 4 shutdown   : (empty) — drain, respond, exit cleanly
//     op 5 compress with pipeline spec (protocol extension; older daemons
//          answer it with a bad_request, older clients never send it):
//          [u16 spec_len][spec bytes][u64 x][u64 y][u64 z][payload]
//          where spec is a docs/PIPELINES.md pipeline description
//
//   response = [u64 body_len][u8 status][payload]
//     status 0 = ok (payload: archive / raw f32 / empty)
//     status 1..4 = serve::reject_reason (payload: reason text — for a
//                   bad_request with detail, e.g. a malformed spec, the
//                   text is the parse error itself)
//     status 5 = execution error (payload: error text)
#pragma once

#include <span>
#include <string>
#include <vector>

#include "fzmod/serve/serve.hh"

namespace fzmod::serve {

inline constexpr u8 op_compress = 1;
inline constexpr u8 op_decompress = 2;
inline constexpr u8 op_ping = 3;
inline constexpr u8 op_shutdown = 4;
inline constexpr u8 op_compress_spec = 5;  ///< v2 extension (PIPELINES.md)

inline constexpr u8 wire_ok = 0;
inline constexpr u8 wire_error = 5;  ///< 1..4 mirror reject_reason

/// Frames above this are a protocol violation (or an attack) and close
/// the connection — the daemon must not size an allocation from an
/// untrusted length without a cap.
inline constexpr u64 max_frame_bytes = u64{1} << 30;

struct daemon_options {
  std::string socket_path;  ///< AF_UNIX path; empty = stdin/stdout framing
  core::pipeline_config cfg;
  server_options server;
  dims3 warm_dims{0, 0, 0};  ///< nonzero: warm the pool at startup
};

/// Serve until a shutdown frame (or EOF in stdio mode). Returns a process
/// exit code. Blocks the calling thread for the daemon's lifetime.
int run_daemon(const daemon_options& opt);

/// Handle one decoded request body (everything after the length prefix)
/// and produce the response body (status byte + payload). Sets
/// `want_shutdown` on an op_shutdown frame. Exposed for tests — the
/// socket plumbing is untestable in-process, the protocol itself is not.
[[nodiscard]] std::vector<u8> handle_request_body(
    server& srv, std::span<const u8> body, bool& want_shutdown);

}  // namespace fzmod::serve
