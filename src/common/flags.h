#ifndef FACTION_COMMON_FLAGS_H_
#define FACTION_COMMON_FLAGS_H_

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

// Strict value parsers shared by faction_cli, the bench binaries and the
// scenario DSL. Each accepts only a token that parses in full. The Parse*
// cores print nothing: they return nullptr on success, or else a short
// reason and leave *out untouched. The *Flag wrappers print the flag, the
// reason and the token to stderr and return false.

namespace faction {

/// strtod core: the whole token must parse, to a finite value. Unlike bare
/// strtod it refuses leading blanks.
inline const char* ParseDouble(const char* token, double* out) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(token, &end);
  if (std::isspace(static_cast<unsigned char>(token[0])) || end == token ||
      *end != '\0') {
    return "not a number";
  }
  if (errno == ERANGE || !std::isfinite(value)) return "out of range";
  *out = value;
  return nullptr;
}

/// strtoull core: digits only, no overflow. strtoull alone would skip
/// leading blanks, wrap "-1" to 2^64-1, and read "200x" as 200.
inline const char* ParseUint(const char* token, std::uint64_t* out) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(token, &end, 10);
  if (token[0] < '0' || token[0] > '9' || *end != '\0') {
    return "not a non-negative integer";
  }
  if (errno == ERANGE) return "out of range";
  *out = static_cast<std::uint64_t>(value);
  return nullptr;
}

/// ParseUint into a std::size_t.
inline const char* ParseSize(const char* token, std::size_t* out) {
  std::uint64_t value = 0;
  if (const char* why = ParseUint(token, &value)) return why;
  *out = static_cast<std::size_t>(value);
  return nullptr;
}

/// Shared tail of the *Flag wrappers: reports a refused token.
inline bool FlagParsed(const char* flag, const char* token, const char* why) {
  if (why == nullptr) return true;
  std::fprintf(stderr, "%s: %s: '%s'\n", flag, why, token);
  return false;
}

inline bool ParseDoubleFlag(const char* flag, const char* token,
                            double* out) {
  return FlagParsed(flag, token, ParseDouble(token, out));
}

inline bool ParseUintFlag(const char* flag, const char* token,
                          std::uint64_t* out) {
  return FlagParsed(flag, token, ParseUint(token, out));
}

inline bool ParseSizeFlag(const char* flag, const char* token,
                          std::size_t* out) {
  return FlagParsed(flag, token, ParseSize(token, out));
}

}  // namespace faction

#endif  // FACTION_COMMON_FLAGS_H_
