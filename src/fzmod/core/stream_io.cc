// FZModules — out-of-core streaming compression implementation. See
// stream_io.hh for the model and docs/STREAMING.md for the buffering,
// memory-cap, and resume semantics.

#include "fzmod/core/stream_io.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "fzmod/common/env.hh"
#include "fzmod/kernels/chunked_hash.hh"
#include "fzmod/spec/spec.hh"
#include "fzmod/trace/trace.hh"

namespace fzmod::core {

namespace {

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

// --- POSIX plumbing --------------------------------------------------------

[[nodiscard]] int open_or_throw(const std::string& path, int flags) {
  const int fd = ::open(path.c_str(), flags, 0644);
  FZMOD_REQUIRE(fd >= 0, status::invalid_argument,
                "cannot open '" + path + "': " + std::strerror(errno));
  return fd;
}

void pread_all(int fd, u8* dst, u64 off, std::size_t n,
               const std::string& path) {
  while (n > 0) {
    const ssize_t r = ::pread(fd, dst, n, static_cast<off_t>(off));
    FZMOD_REQUIRE(r > 0, status::invalid_argument,
                  "short read from '" + path + "' at byte " +
                      std::to_string(off));
    dst += r;
    off += static_cast<u64>(r);
    n -= static_cast<std::size_t>(r);
  }
}

void write_all(int fd, const u8* src, std::size_t n,
               const std::string& path) {
  while (n > 0) {
    const ssize_t r = ::write(fd, src, n);
    FZMOD_REQUIRE(r > 0, status::invalid_argument,
                  "write failed for '" + path +
                      "': " + std::strerror(errno));
    src += r;
    n -= static_cast<std::size_t>(r);
  }
}

/// File size, or -1 when the path does not exist (any other stat failure
/// throws — a permission problem must not masquerade as a fresh start).
[[nodiscard]] i64 file_size_of(const std::string& path) {
  struct ::stat sb{};
  if (::stat(path.c_str(), &sb) != 0) {
    FZMOD_REQUIRE(errno == ENOENT, status::invalid_argument,
                  "cannot stat '" + path + "': " + std::strerror(errno));
    return -1;
  }
  return static_cast<i64>(sb.st_size);
}

void truncate_or_throw(const std::string& path, u64 size) {
  FZMOD_REQUIRE(::truncate(path.c_str(), static_cast<off_t>(size)) == 0,
                status::invalid_argument,
                "cannot truncate '" + path +
                    "': " + std::strerror(errno));
}

/// chunked_hash of a byte range of a file, streamed in windows.
[[nodiscard]] u64 hash_file_range(int fd, u64 base, u64 n,
                                  const std::string& path) {
  return kernels::chunked_hash_stream(
      n, [&](u8* dst, u64 off, std::size_t len) {
        pread_all(fd, dst, base + off, len, path);
      });
}

// --- staged file source ----------------------------------------------------

/// The read half of the double buffer: one reader thread walks the chunk
/// plan in order, filling up to `slots` staging buffers ahead of the
/// scheduler. Scheduler workers fetch exact planned extents out of the
/// staging map (blocking only when the prefetch has not reached the chunk
/// yet — a read stall); anything else falls back to a direct pread.
/// Every chunk is claimed exactly once and fetched promptly after its
/// claim, so filled slots always drain and the bounded map cannot
/// deadlock even at one slot.
class staged_file_source {
 public:
  staged_file_source(std::string path, std::size_t elem_size,
                     std::span<const chunk_extent> extents, u64 first,
                     u64 slots)
      : path_(std::move(path)),
        elem_size_(elem_size),
        extents_(extents),
        slots_(std::max<u64>(1, slots)),
        delay_ms_(common::env_u64("FZMOD_STREAM_DELAY_MS", 0)),
        fd_(open_or_throw(path_, O_RDONLY)),
        first_(first) {
    reader_ = std::thread([this] { run(); });
  }

  staged_file_source(const staged_file_source&) = delete;
  staged_file_source& operator=(const staged_file_source&) = delete;

  ~staged_file_source() {
    {
      std::lock_guard lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    reader_.join();
    ::close(fd_);
  }

  /// Scheduler source entry (element units). Exact planned extents go
  /// through staging; anything else is a direct positioned read.
  void read(u8* dst, u64 elem_offset, std::size_t n_elems) {
    const std::size_t idx = find_extent(elem_offset);
    if (idx < extents_.size() && extents_[idx].offset == elem_offset &&
        extents_[idx].len == n_elems) {
      fetch(idx, dst);
      return;
    }
    pread_all(fd_, dst, elem_offset * elem_size_, n_elems * elem_size_,
              path_);
    std::lock_guard lk(mu_);
    bytes_read_ += n_elems * elem_size_;
  }

  [[nodiscard]] u64 stalls() const {
    std::lock_guard lk(mu_);
    return stalls_;
  }
  [[nodiscard]] u64 bytes_read() const {
    std::lock_guard lk(mu_);
    return bytes_read_;
  }
  [[nodiscard]] u64 peak_bytes() const {
    std::lock_guard lk(mu_);
    return peak_bytes_;
  }

 private:
  [[nodiscard]] std::size_t find_extent(u64 elem_offset) const {
    std::size_t lo = 0, hi = extents_.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (extents_[mid].offset < elem_offset) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  void fetch(std::size_t idx, u8* dst) {
    std::unique_lock lk(mu_);
    if (!filled_.count(idx) && !err_) {
      ++stalls_;
      cv_.wait(lk, [&] { return err_ || filled_.count(idx) != 0; });
    }
    if (!filled_.count(idx)) std::rethrow_exception(err_);
    const std::vector<u8> buf = std::move(filled_.find(idx)->second);
    filled_.erase(idx);
    cur_bytes_ -= buf.size();
    lk.unlock();
    cv_.notify_all();
    std::memcpy(dst, buf.data(), buf.size());
  }

  void run() {
    try {
      for (u64 i = first_; i < extents_.size(); ++i) {
        {
          std::unique_lock lk(mu_);
          cv_.wait(lk, [&] { return stop_ || filled_.size() < slots_; });
          if (stop_) return;
        }
        // Test/CI knob: an artificial per-chunk read delay so smoke tests
        // can SIGKILL a compression deterministically mid-stream.
        if (delay_ms_ > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms_));
        }
        const chunk_extent& e = extents_[i];
        std::vector<u8> buf(e.len * elem_size_);
        pread_all(fd_, buf.data(), e.offset * elem_size_, buf.size(),
                  path_);
        std::lock_guard lk(mu_);
        if (stop_) return;
        cur_bytes_ += buf.size();
        peak_bytes_ = std::max(peak_bytes_, cur_bytes_);
        bytes_read_ += buf.size();
        filled_.emplace(i, std::move(buf));
        cv_.notify_all();
      }
    } catch (...) {
      std::lock_guard lk(mu_);
      err_ = std::current_exception();
      cv_.notify_all();
    }
  }

  const std::string path_;
  const std::size_t elem_size_;
  const std::span<const chunk_extent> extents_;
  const u64 slots_;
  const u64 delay_ms_;
  const int fd_;
  const u64 first_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<u64, std::vector<u8>> filled_;  // staged, not yet consumed
  u64 cur_bytes_ = 0;
  u64 peak_bytes_ = 0;
  u64 bytes_read_ = 0;
  u64 stalls_ = 0;
  bool stop_ = false;
  std::exception_ptr err_;
  std::thread reader_;
};

// --- ordered file sink -----------------------------------------------------

/// The write half: commits enqueue copies under a byte budget (a full
/// queue blocks the committing worker — a write stall) and one writer
/// thread drains them to the file in order. An empty queue always admits
/// one item regardless of size, so a budget smaller than one chunk
/// archive degrades to synchronous writing instead of deadlocking.
class ordered_file_sink {
 public:
  ordered_file_sink(std::string path, bool append, u64 budget)
      : path_(std::move(path)),
        budget_(std::max<u64>(1, budget)),
        fd_(open_or_throw(path_, O_WRONLY | O_CREAT |
                                     (append ? O_APPEND : O_TRUNC))) {
    writer_ = std::thread([this] { run(); });
  }

  ordered_file_sink(const ordered_file_sink&) = delete;
  ordered_file_sink& operator=(const ordered_file_sink&) = delete;

  ~ordered_file_sink() {
    if (!joined_) {
      {
        std::lock_guard lk(mu_);
        done_ = true;
      }
      cv_work_.notify_all();
      writer_.join();
    }
    ::close(fd_);
  }

  void write(std::span<const u8> bytes) {
    std::unique_lock lk(mu_);
    if (err_) std::rethrow_exception(err_);
    if (!q_.empty() && q_bytes_ + bytes.size() > budget_) {
      ++stalls_;
      cv_space_.wait(lk, [&] {
        return err_ || q_.empty() || q_bytes_ + bytes.size() <= budget_;
      });
      if (err_) std::rethrow_exception(err_);
    }
    q_.emplace_back(bytes.begin(), bytes.end());
    q_bytes_ += bytes.size();
    peak_bytes_ = std::max(peak_bytes_, q_bytes_);
    bytes_written_ += bytes.size();
    cv_work_.notify_one();
  }

  /// Drain, join, fsync. IO failures from the writer thread rethrow here.
  void finish() {
    {
      std::lock_guard lk(mu_);
      done_ = true;
    }
    cv_work_.notify_all();
    writer_.join();
    joined_ = true;
    if (err_) std::rethrow_exception(err_);
    FZMOD_REQUIRE(::fsync(fd_) == 0, status::invalid_argument,
                  "fsync failed for '" + path_ +
                      "': " + std::strerror(errno));
  }

  [[nodiscard]] u64 stalls() const {
    std::lock_guard lk(mu_);
    return stalls_;
  }
  [[nodiscard]] u64 bytes_written() const {
    std::lock_guard lk(mu_);
    return bytes_written_;
  }
  [[nodiscard]] u64 peak_bytes() const {
    std::lock_guard lk(mu_);
    return peak_bytes_;
  }

 private:
  void run() {
    for (;;) {
      std::vector<u8> buf;
      {
        std::unique_lock lk(mu_);
        cv_work_.wait(lk, [&] { return done_ || !q_.empty(); });
        if (q_.empty()) return;  // done_ and drained
        buf = std::move(q_.front());
        q_.pop_front();
      }
      try {
        write_all(fd_, buf.data(), buf.size(), path_);
      } catch (...) {
        std::lock_guard lk(mu_);
        err_ = std::current_exception();
        cv_space_.notify_all();
        return;
      }
      {
        std::lock_guard lk(mu_);
        q_bytes_ -= buf.size();
      }
      cv_space_.notify_all();
    }
  }

  const std::string path_;
  const u64 budget_;
  const int fd_;

  mutable std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_space_;
  std::deque<std::vector<u8>> q_;
  u64 q_bytes_ = 0;
  u64 peak_bytes_ = 0;
  u64 bytes_written_ = 0;
  u64 stalls_ = 0;
  bool done_ = false;
  bool joined_ = false;
  std::exception_ptr err_;
  std::thread writer_;
};

// --- resume journal --------------------------------------------------------

/// Pipeline-identity digest binding a resume journal to one exact
/// configuration: the canonical spec text plus every knob that changes
/// output bytes. Resuming under ANY differing knob recompresses from
/// scratch rather than splicing incompatible chunks.
template <class T>
[[nodiscard]] u64 stream_config_digest(const pipeline_config& cfg,
                                       dims3 dims, u64 chunk_elems) {
  std::string s = spec::to_string(spec::from_config(cfg));
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "|eb=%.17g|mode=%d|radius=%d|sec=%d|type=%d"
                "|dims=%llu,%llu,%llu|chunk=%llu",
                cfg.eb.eb, static_cast<int>(cfg.eb.mode), cfg.radius,
                cfg.secondary ? 1 : 0,
                static_cast<int>(dtype_of<T>()),
                static_cast<unsigned long long>(dims.x),
                static_cast<unsigned long long>(dims.y),
                static_cast<unsigned long long>(dims.z),
                static_cast<unsigned long long>(chunk_elems));
  s += buf;
  return common::xxhash64(s.data(), s.size(), 0);
}

template <class T>
[[nodiscard]] fmt::fzr_header make_journal_header(dims3 dims, u64 nchunks,
                                                  u64 chunk_elems,
                                                  u64 config_digest) {
  fmt::fzr_header h{};
  h.magic = fmt::fzr_magic;
  h.version = fmt::fzr_journal_version;
  h.type = static_cast<u8>(dtype_of<T>());
  h.pad = 0;
  h.dims[0] = dims.x;
  h.dims[1] = dims.y;
  h.dims[2] = dims.z;
  h.nchunks = nchunks;
  h.chunk_elems = chunk_elems;
  h.config_digest = config_digest;
  h.digest_header = fmt::fzr_header_digest(h);
  return h;
}

/// Append handle for committed-chunk records. Records are not fsynced
/// individually: resume validation re-hashes the output bytes, so a lost
/// or torn tail only shortens the salvaged prefix.
class journal_writer {
 public:
  journal_writer(const std::string& path, bool append)
      : path_(path),
        fd_(open_or_throw(path, O_WRONLY | (append ? O_APPEND : 0))) {}
  journal_writer(const journal_writer&) = delete;
  journal_writer& operator=(const journal_writer&) = delete;
  ~journal_writer() { ::close(fd_); }

  void append(u64 index, const fmt::chunk_dir_entry& e) {
    fmt::fzr_record r{};
    r.entry = e;
    r.record_digest = fmt::fzr_record_digest(e, index);
    write_all(fd_, reinterpret_cast<const u8*>(&r), sizeof(r), path_);
  }

 private:
  const std::string path_;
  const int fd_;
};

void create_journal(const std::string& path, const fmt::fzr_header& hdr) {
  const int fd = open_or_throw(path, O_WRONLY | O_CREAT | O_TRUNC);
  try {
    write_all(fd, reinterpret_cast<const u8*>(&hdr), sizeof(hdr), path);
    FZMOD_REQUIRE(::fsync(fd) == 0, status::invalid_argument,
                  "fsync failed for '" + path +
                      "': " + std::strerror(errno));
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
}

struct salvage {
  u64 chunks = 0;                             // validated prefix length
  std::vector<fmt::chunk_dir_entry> entries;  // their directory entries
};

/// Replay a resume journal against the partial output file. A record
/// counts only while (a) it matches the chunk plan position-for-position,
/// (b) its archive extent is in-range for the file, and (c) the bytes on
/// disk hash to the entry digest — the first failure ends the salvaged
/// prefix. Returns zero chunks on any header-level mismatch (different
/// config, different field, damaged journal, missing files).
template <class T>
[[nodiscard]] salvage try_salvage(const std::string& out_path,
                                  const std::string& journal_path,
                                  std::span<const chunk_extent> extents,
                                  dims3 dims, u64 chunk_elems,
                                  u64 config_digest) {
  salvage s;
  const i64 jsize = file_size_of(journal_path);
  const i64 osize = file_size_of(out_path);
  if (jsize < static_cast<i64>(sizeof(fmt::fzr_header)) ||
      osize < static_cast<i64>(sizeof(fmt::chunk_header_v3))) {
    return s;
  }
  std::vector<u8> jbytes(static_cast<std::size_t>(jsize));
  {
    const int jfd = open_or_throw(journal_path, O_RDONLY);
    try {
      pread_all(jfd, jbytes.data(), 0, jbytes.size(), journal_path);
    } catch (...) {
      ::close(jfd);
      throw;
    }
    ::close(jfd);
  }
  fmt::fzr_view jv;
  if (!fmt::parse_resume_journal(jbytes, jv)) return s;
  if (jv.hdr.type != static_cast<u8>(dtype_of<T>()) ||
      jv.hdr.dims[0] != dims.x || jv.hdr.dims[1] != dims.y ||
      jv.hdr.dims[2] != dims.z || jv.hdr.nchunks != extents.size() ||
      jv.hdr.chunk_elems != chunk_elems ||
      jv.hdr.config_digest != config_digest) {
    return s;
  }

  const int fd = open_or_throw(out_path, O_RDONLY);
  try {
    // The on-disk container header must be exactly what this run would
    // write (it is deterministic), or the file is not ours to splice.
    const fmt::chunk_header_v3 want = fmt::make_chunk_header(
        dtype_of<T>(), dims, extents.size(), chunk_elems);
    fmt::chunk_header_v3 got{};
    pread_all(fd, reinterpret_cast<u8*>(&got), 0, sizeof(got), out_path);
    if (std::memcmp(&want, &got, sizeof(want)) != 0) {
      ::close(fd);
      return s;
    }

    const u64 base = sizeof(fmt::chunk_header_v3);
    u64 arch_at = 0;
    std::vector<u8> buf;
    for (std::size_t k = 0; k < jv.records.size(); ++k) {
      const fmt::chunk_dir_entry& e = jv.records[k];
      if (e.raw_offset != extents[k].offset ||
          e.raw_len != extents[k].len || e.archive_offset != arch_at ||
          e.archive_bytes == 0 ||
          base + e.archive_offset + e.archive_bytes >
              static_cast<u64>(osize)) {
        break;
      }
      buf.resize(static_cast<std::size_t>(e.archive_bytes));
      pread_all(fd, buf.data(), base + e.archive_offset, buf.size(),
                out_path);
      if (kernels::chunked_hash(buf) != e.digest) break;
      s.entries.push_back(e);
      arch_at += e.archive_bytes;
      ++s.chunks;
    }
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  return s;
}

void export_stream_counters(const stream_io_stats& st) {
  trace::counter("stream.stall.read", static_cast<f64>(st.read_stalls));
  trace::counter("stream.stall.write", static_cast<f64>(st.write_stalls));
  trace::counter("stream.peak_bytes", static_cast<f64>(st.peak_bytes));
}

/// Validate one raw input file against its declared dims.
template <class T>
void require_input(const std::string& path, dims3 dims) {
  FZMOD_REQUIRE(!dims.len_invalid(), status::invalid_argument,
                "stream compress: invalid dims for '" + path + "'");
  const i64 sz = file_size_of(path);
  FZMOD_REQUIRE(sz >= 0, status::invalid_argument,
                "stream compress: no such input '" + path + "'");
  const u64 want = dims.len() * sizeof(T);
  FZMOD_REQUIRE(static_cast<u64>(sz) == want, status::invalid_argument,
                "stream compress: '" + path + "' is " + std::to_string(sz) +
                    " bytes but dims declare " + std::to_string(want));
}

/// The shared per-field compression drive: staged source -> scheduler ->
/// ordered sink, with optional resume progress. Accumulates into `st`.
template <class T>
void drive_field(chunked_pipeline<T>& pipe, const std::string& in_path,
                 dims3 dims, const std::string& out_path, bool append,
                 std::span<const chunk_extent> extents,
                 const stream_budget& budget,
                 typename chunked_pipeline<T>::stream_progress prog,
                 stream_io_stats& st) {
  stream_io_stats local;
  prog.io = &local;
  const u64 first = prog.first_chunk;
  {
    staged_file_source src(in_path, sizeof(T), extents, first,
                           budget.read_slots);
    ordered_file_sink sink(out_path, append, budget.write_bytes);
    pipe.compress_stream(
        [&](T* dst, u64 elem_offset, std::size_t n) {
          src.read(reinterpret_cast<u8*>(dst), elem_offset, n);
        },
        dims,
        [&](std::span<const u8> bytes) { sink.write(bytes); },
        std::move(prog));
    sink.finish();
    local.read_stalls = src.stalls();
    local.write_stalls = sink.stalls();
    local.bytes_read = src.bytes_read();
    local.bytes_written = sink.bytes_written();
    // Peaks are tracked independently per half; the sum is a conservative
    // bound on the true combined high-water mark.
    local.peak_bytes += src.peak_bytes() + sink.peak_bytes();
  }
  st.window = std::max(st.window, local.window);
  st.workers = std::max(st.workers, local.workers);
  st.read_slots = std::max(st.read_slots, budget.read_slots);
  st.chunks_total += local.chunks_total;
  st.chunks_resumed += local.chunks_resumed;
  st.read_stalls += local.read_stalls;
  st.write_stalls += local.write_stalls;
  st.bytes_read += local.bytes_read;
  st.bytes_written += local.bytes_written;
  st.peak_bytes = std::max(st.peak_bytes, local.peak_bytes);
}

}  // namespace

std::string resume_journal_path(const std::string& out_path) {
  return out_path + ".fzr";
}

template <class T>
stream_io_stats compress_file_stream(const std::string& in_path, dims3 dims,
                                     const std::string& out_path,
                                     const pipeline_config& cfg,
                                     const stream_options& opt) {
  require_input<T>(in_path, dims);
  chunked_pipeline<T> pipe(cfg, opt.chunk);  // validates cfg up front
  const std::size_t chunk_elems = opt.chunk.resolve_chunk_elems(sizeof(T));
  const std::vector<chunk_extent> extents = plan_chunks(dims, chunk_elems);
  const u64 nchunks = extents.size();
  const stream_budget budget = resolve_stream_budget(
      opt.chunk.resolve_stream_mem_bytes(),
      static_cast<u64>(chunk_elems) * sizeof(T), opt.chunk.resolve_jobs());
  const std::string jpath = resume_journal_path(out_path);
  // Single-chunk plans emit a plain v2 archive: no directory to splice
  // into, so there is nothing to resume — any stale journal is removed.
  const bool journaled = nchunks > 1;

  typename chunked_pipeline<T>::stream_progress prog;
  const u64 config_digest =
      stream_config_digest<T>(cfg, dims, chunk_elems);
  if (opt.resume && journaled) {
    salvage sal = try_salvage<T>(out_path, jpath, extents, dims,
                                 chunk_elems, config_digest);
    if (sal.chunks > 0) {
      u64 payload = 0;
      for (const auto& e : sal.entries) payload += e.archive_bytes;
      truncate_or_throw(out_path,
                        sizeof(fmt::chunk_header_v3) + payload);
      truncate_or_throw(jpath, sizeof(fmt::fzr_header) +
                                   sal.chunks * sizeof(fmt::fzr_record));
      prog.first_chunk = sal.chunks;
      prog.committed = std::move(sal.entries);
      prog.emit_header = false;
    }
  }
  const bool resuming = prog.first_chunk > 0;
  if (journaled && !resuming) {
    create_journal(jpath, make_journal_header<T>(dims, nchunks, chunk_elems,
                                                 config_digest));
  }
  if (!journaled) ::unlink(jpath.c_str());

  stream_io_stats st;
  {
    std::optional<journal_writer> jw;
    if (journaled) jw.emplace(jpath, /*append=*/true);
    prog.on_commit = [&jw](u64 index, const fmt::chunk_dir_entry& e) {
      if (jw) jw->append(index, e);
    };
    drive_field<T>(pipe, in_path, dims, out_path, /*append=*/resuming,
                   extents, budget, std::move(prog), st);
  }
  if (journaled && !opt.keep_journal) ::unlink(jpath.c_str());
  export_stream_counters(st);
  return st;
}

template <class T>
stream_io_stats compress_files_stream(std::span<const field_input> fields,
                                      const std::string& out_path,
                                      const pipeline_config& cfg,
                                      const stream_options& opt) {
  FZMOD_REQUIRE(!opt.resume, status::unsupported,
                "stream compress: --resume is single-field only");
  // Every field's name and input are checked before anything is written.
  const fmt::multi_header mh = fmt::make_multi_header(fields.size());
  std::vector<fmt::field_dir_entry> dir;
  dir.reserve(fields.size());
  for (const field_input& f : fields) {
    dir.push_back(fmt::make_field_entry(f.name, dtype_of<T>(), f.dims, dir));
    require_input<T>(f.path, f.dims);
  }

  chunked_pipeline<T> pipe(cfg, opt.chunk);
  const std::size_t chunk_elems = opt.chunk.resolve_chunk_elems(sizeof(T));
  const stream_budget budget = resolve_stream_budget(
      opt.chunk.resolve_stream_mem_bytes(),
      static_cast<u64>(chunk_elems) * sizeof(T), opt.chunk.resolve_jobs());

  {
    const int fd = open_or_throw(out_path, O_WRONLY | O_CREAT | O_TRUNC);
    try {
      write_all(fd, reinterpret_cast<const u8*>(&mh), sizeof(mh),
                out_path);
    } catch (...) {
      ::close(fd);
      throw;
    }
    ::close(fd);
  }

  stream_io_stats st;
  u64 arch_at = 0;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    const field_input& f = fields[i];
    const std::vector<chunk_extent> extents =
        plan_chunks(f.dims, chunk_elems);
    const u64 before = st.bytes_written;
    drive_field<T>(pipe, f.path, f.dims, out_path, /*append=*/true,
                   extents, budget,
                   typename chunked_pipeline<T>::stream_progress{}, st);
    fmt::field_dir_entry& e = dir[i];
    e.archive_offset = arch_at;
    e.archive_bytes = st.bytes_written - before;
    {
      const int fd = open_or_throw(out_path, O_RDONLY);
      try {
        e.digest = hash_file_range(fd, sizeof(mh) + arch_at,
                                   e.archive_bytes, out_path);
      } catch (...) {
        ::close(fd);
        throw;
      }
      ::close(fd);
    }
    arch_at += e.archive_bytes;
  }

  {
    const int fd = open_or_throw(out_path, O_WRONLY | O_APPEND);
    try {
      const std::vector<u8> tail = fmt::build_directory(dir);
      write_all(fd, tail.data(), tail.size(), out_path);
      FZMOD_REQUIRE(::fsync(fd) == 0, status::invalid_argument,
                    "fsync failed for '" + out_path +
                        "': " + std::strerror(errno));
      st.bytes_written += tail.size();
    } catch (...) {
      ::close(fd);
      throw;
    }
    ::close(fd);
  }
  export_stream_counters(st);
  return st;
}

template stream_io_stats compress_file_stream<f32>(const std::string&,
                                                   dims3,
                                                   const std::string&,
                                                   const pipeline_config&,
                                                   const stream_options&);
template stream_io_stats compress_file_stream<f64>(const std::string&,
                                                   dims3,
                                                   const std::string&,
                                                   const pipeline_config&,
                                                   const stream_options&);
template stream_io_stats compress_files_stream<f32>(
    std::span<const field_input>, const std::string&,
    const pipeline_config&, const stream_options&);
template stream_io_stats compress_files_stream<f64>(
    std::span<const field_input>, const std::string&,
    const pipeline_config&, const stream_options&);

}  // namespace fzmod::core
