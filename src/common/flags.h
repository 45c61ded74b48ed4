#ifndef FACTION_COMMON_FLAGS_H_
#define FACTION_COMMON_FLAGS_H_

#include <cerrno>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

// Strict command-line value parsers shared by faction_cli and the bench
// binaries. Each accepts only a token that parses in full; on failure it
// prints the flag and token to stderr, leaves *out untouched, and returns
// false.

namespace faction {

/// strtod wrapper: the whole token must parse, to a finite value.
inline bool ParseDoubleFlag(const char* flag, const char* token,
                            double* out) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(token, &end);
  if (end == token || *end != '\0') {
    std::fprintf(stderr, "%s: not a number: '%s'\n", flag, token);
    return false;
  }
  if (errno == ERANGE || !std::isfinite(value)) {
    std::fprintf(stderr, "%s: out of range: '%s'\n", flag, token);
    return false;
  }
  *out = value;
  return true;
}

/// strtoull wrapper: digits only, no overflow. strtoull alone would skip
/// leading blanks, wrap "-1" to 2^64-1, and read "200x" as 200.
inline bool ParseUintFlag(const char* flag, const char* token,
                          std::uint64_t* out) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(token, &end, 10);
  if (token[0] < '0' || token[0] > '9' || *end != '\0') {
    std::fprintf(stderr, "%s: not a non-negative integer: '%s'\n", flag,
                 token);
    return false;
  }
  if (errno == ERANGE) {
    std::fprintf(stderr, "%s: out of range: '%s'\n", flag, token);
    return false;
  }
  *out = static_cast<std::uint64_t>(value);
  return true;
}

/// ParseUintFlag into a std::size_t.
inline bool ParseSizeFlag(const char* flag, const char* token,
                          std::size_t* out) {
  std::uint64_t value = 0;
  if (!ParseUintFlag(flag, token, &value)) return false;
  *out = static_cast<std::size_t>(value);
  return true;
}

}  // namespace faction

#endif  // FACTION_COMMON_FLAGS_H_
