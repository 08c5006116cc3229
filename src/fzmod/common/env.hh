// FZModules — strict numeric parsing for environment knobs and CLI flags.
//
// Every numeric FZMOD_* variable and CLI number goes through parse_u64:
// base-10, whole-string, no sign, no trailing garbage. A malformed value
// throws status::invalid_argument naming the variable/flag — a typo'd
// knob must fail loudly, not silently fall back to a default the user did
// not ask for. env_u64 reads getenv() on every call so tests can
// setenv/unsetenv around it.
#pragma once

#include <charconv>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>

#include "fzmod/common/error.hh"
#include "fzmod/common/types.hh"

namespace fzmod::common {

/// Parse a full string as an unsigned base-10 integer. `what` names the
/// source (env variable or CLI flag) in the error message. Rejects empty
/// strings, signs, whitespace, trailing garbage, and values > u64 max.
[[nodiscard]] inline u64 parse_u64(std::string_view s, std::string_view what) {
  u64 v = 0;
  const char* first = s.data();
  const char* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(first, last, v, 10);
  FZMOD_REQUIRE(ec != std::errc::result_out_of_range,
                status::invalid_argument,
                std::string(what) + ": value out of range: '" +
                    std::string(s) + "'");
  FZMOD_REQUIRE(ec == std::errc() && ptr == last && !s.empty(),
                status::invalid_argument,
                std::string(what) + ": expected an unsigned integer, got '" +
                    std::string(s) + "'");
  return v;
}

/// Read a numeric environment knob. Unset or empty returns `fallback`;
/// anything else must parse (parse_u64 semantics) or throws with the
/// variable name in the message.
[[nodiscard]] inline u64 env_u64(const char* name, u64 fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  return parse_u64(v, name);
}

/// Parse "A,B" as two strict unsigned integers (exactly one comma, each
/// side parse_u64). The CLI's `--range OFF,N` goes through here; the old
/// sscanf parser accepted trailing garbage and wrapped negatives.
[[nodiscard]] inline std::pair<u64, u64> parse_u64_pair(
    std::string_view s, std::string_view what) {
  const std::size_t comma = s.find(',');
  FZMOD_REQUIRE(comma != std::string_view::npos &&
                    s.find(',', comma + 1) == std::string_view::npos,
                status::invalid_argument,
                std::string(what) + ": expected A,B, got '" +
                    std::string(s) + "'");
  const u64 a = parse_u64(s.substr(0, comma), std::string(what) + " offset");
  const u64 b = parse_u64(s.substr(comma + 1), std::string(what) + " count");
  return {a, b};
}

}  // namespace fzmod::common
