// perfbench driver: `perfbench --workload NAME --seed N --seconds S
// --trace 0|1` runs one workload and prints one JSON line
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (BENCHMARK.json
// "end_to_end"); with --trace 1 the run records library trace events and
// reports the per-layer ledger instead. Diagnostics go to stderr.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string_view>

#include <sys/resource.h>
#include <unistd.h>

#include "perfbench.hh"

namespace perfbench {

void measurement::fail(const std::string& why) {
  if (correct) std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  correct = false;
}

namespace {

constexpr struct {
  const char* name;
  workload_fn run;
} workloads[] = {
    {"bulk_roundtrip", run_bulk_roundtrip},
    {"serve_mix", run_serve_mix},
    {"reader_zipf", run_reader_zipf},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "bulk_roundtrip|serve_mix|reader_zipf --seed N --seconds S "
               "--trace 0|1\n",
               why);
  return 2;
}

bool parse_u64(std::string_view s, u64& out) {
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && p == s.data() + s.size();
}

f64 median(std::vector<f64> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in (0, 1]).
f64 percentile(std::vector<f64> v, f64 p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<f64>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Percentile p of each window of 1000 consecutive latency samples (the
/// last window takes the remainder, so each has at least ten samples beyond
/// a 99th percentile), then the median over windows. A burst of host
/// contention that spans a minority of the windows leaves it unchanged,
/// where a percentile of the pooled samples would take every slow sample of
/// the burst. Fewer than 2000 samples make one pooled window.
f64 windowed_percentile(const std::vector<f64>& v, f64 p) {
  constexpr std::size_t window = 1000;
  std::vector<f64> per_window;
  std::size_t lo = 0;
  do {
    const std::size_t hi = v.size() - lo < 2 * window ? v.size() : lo + window;
    per_window.push_back(percentile({v.begin() + lo, v.begin() + hi}, p));
    lo = hi;
  } while (lo < v.size());
  return median(per_window);
}

/// Drop every FZMOD_* variable, so the library's environment knobs cannot
/// change what a workload runs: each workload sets what it depends on.
void scrub_library_env() {
  std::vector<std::string> names;
  for (char** e = environ; *e; ++e) {
    const std::string_view kv = *e;
    if (kv.starts_with("FZMOD_")) {
      names.emplace_back(kv.substr(0, kv.find('=')));
    }
  }
  for (const auto& n : names) unsetenv(n.c_str());
}

/// Peak resident set size of the process so far, in MiB.
f64 peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<f64>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string json_number(f64 v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main_impl(int argc, char** argv) {
  options o;
  bool have[4] = {};
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return usage("missing value after a flag");
    const std::string_view val = argv[++i];
    u64 n = 0;
    if (flag == "--workload") {
      o.workload = val;
      have[0] = true;
    } else if (flag == "--seed" && parse_u64(val, n)) {
      o.seed = n;
      have[1] = true;
    } else if (flag == "--seconds" && parse_u64(val, n) && n >= 1) {
      o.seconds = static_cast<f64>(n);
      have[2] = true;
    } else if (flag == "--trace" && parse_u64(val, n) && n <= 1) {
      o.trace = n == 1;
      have[3] = true;
    } else {
      return usage("bad flag or value");
    }
  }
  if (std::find(std::begin(have), std::end(have), false) != std::end(have)) {
    return usage("every flag is required");
  }
  workload_fn run = nullptr;
  for (const auto& w : workloads) {
    if (o.workload == w.name) run = w.run;
  }
  if (!run) return usage("unknown workload");

  scrub_library_env();
  // Tracing starts off (the ledger switches it on per epoch in traced
  // runs), even if the recorder already read FZMOD_TRACE.
  fzmod::trace::set_enabled(false);
  measurement m = run(o);
  if (m.attempted == 0) {
    std::fprintf(stderr, "perfbench: no operation was attempted\n");
    return 1;
  }

  std::vector<metric> metrics;
  if (o.trace) {
    metrics = m.layers.metrics();
  } else {
    metrics = {
        {"throughput_mb_s", median(m.epoch_mb_s), "MB/s"},
        {"latency_p50_ms", windowed_percentile(m.latency_ms, 0.50), "ms"},
        {"latency_p99_ms", windowed_percentile(m.latency_ms, 0.99), "ms"},
        {"compression_ratio",
         m.archive_bytes > 0 ? m.raw_bytes / m.archive_bytes : 0, "ratio"},
        {"setup_s", median(m.setup_s), "s"},
        {"peak_rss_mib", peak_rss_mib(), "MiB"},
    };
  }
  std::fprintf(stderr,
               "perfbench: %s seed=%llu trace=%d: %llu ops, %zu epochs, "
               "%llu failed, correct=%s\n",
               o.workload.c_str(), static_cast<unsigned long long>(o.seed),
               o.trace ? 1 : 0, static_cast<unsigned long long>(m.attempted),
               m.epoch_mb_s.size(), static_cast<unsigned long long>(m.failed),
               m.correct ? "true" : "false");

  std::string out = std::string("{\"correct\": ") +
                    (m.correct && m.failed == 0 ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(m.attempted) +
                    ", \"failed\": " + std::to_string(m.failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
