#ifndef PERFBENCH_SRC_ARGS_H_
#define PERFBENCH_SRC_ARGS_H_

#include <cstdint>
#include <string>
#include <string_view>

// Strict command-line parsing for the benchmark program. Every numeric flag
// must be consumed in full by std::from_chars: "10x", "", "-1" for an
// unsigned flag, or an out-of-range value is an error naming the flag,
// never a silent truncation.

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Test hook: flips one replayed decision so the parity check must fail.
  bool plant_mismatch = false;
  /// Directory (relative to the working directory) for checkpoints and
  /// trace files.
  std::string work_dir = ".bench_work";
  /// Content digest of the library sources, stamped into the fingerprint.
  std::string source_digest = "unknown";
  /// Commit of the checkout ("unknown" outside a git checkout), stamped
  /// into the fingerprint.
  std::string git_sha = "unknown";
};

/// Longest run --seconds accepts: the contract's longest measuring time,
/// which perfbench/run.py's run timeout bears.
inline constexpr int kMaxSeconds = 60;

/// Parses argv into *options. On failure returns false and sets *error to a
/// message naming the offending flag.
bool ParseOptions(int argc, const char* const* argv, Options* options,
                  std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_ARGS_H_
