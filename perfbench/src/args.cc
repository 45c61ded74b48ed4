#include "src/args.h"

#include <charconv>
#include <system_error>

namespace perfbench {
namespace {

bool ParseUint64(std::string_view text, std::uint64_t* out) {
  if (text.empty() || text.front() == '-' || text.front() == '+') {
    return false;
  }
  const char* end = text.data() + text.size();
  const std::from_chars_result r = std::from_chars(text.data(), end, *out);
  return r.ec == std::errc() && r.ptr == end;
}

bool ParseInt(std::string_view text, int* out) {
  if (text.empty() || text.front() == '+') return false;
  const char* end = text.data() + text.size();
  const std::from_chars_result r = std::from_chars(text.data(), end, *out);
  return r.ec == std::errc() && r.ptr == end;
}

}  // namespace

bool ParseOptions(int argc, const char* const* argv, Options* options,
                  std::string* error) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + std::string(flag);
      return false;
    }
    const std::string_view value = argv[++i];
    bool ok = true;
    if (flag == "--workload") {
      options->workload = std::string(value);
      have_workload = !value.empty();
      ok = have_workload;
    } else if (flag == "--seed") {
      ok = ParseUint64(value, &options->seed);
    } else if (flag == "--seconds") {
      ok = ParseInt(value, &options->seconds) && options->seconds >= 1 &&
           options->seconds <= kMaxSeconds;
    } else if (flag == "--trace") {
      ok = value == "0" || value == "1";
      options->trace = value == "1";
    } else if (flag == "--plant-mismatch") {
      ok = value == "0" || value == "1";
      options->plant_mismatch = value == "1";
    } else if (flag == "--work-dir") {
      options->work_dir = std::string(value);
      ok = !value.empty();
    } else if (flag == "--source-digest") {
      options->source_digest = std::string(value);
    } else if (flag == "--git-sha") {
      options->git_sha = std::string(value);
    } else {
      *error = "unknown flag " + std::string(flag);
      return false;
    }
    if (!ok) {
      *error = "invalid value '" + std::string(value) + "' for " +
               std::string(flag);
      return false;
    }
  }
  if (!have_workload) {
    *error = "--workload is required";
    return false;
  }
  return true;
}

}  // namespace perfbench
