#include "src/fingerprint.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/parallel.h"
#include "src/report.h"

namespace perfbench {
namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

std::string EnvOrUnset(const char* name) {
  const char* value = std::getenv(name);
  return value == nullptr ? "unset" : value;
}

}  // namespace

std::string FingerprintJson(const std::string& workload,
                            const std::string& git_sha,
                            const std::string& source_digest,
                            bool telemetry_on) {
  std::ostringstream os;
  os << "{\"workload\": " << JsonString(workload)
     << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"cpu_model\": " << JsonString(CpuModel())
     << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
     << ", \"cxx_flags\": " << JsonString(PERFBENCH_CXX_FLAGS)
     << ", \"compiler\": " << JsonString(PERFBENCH_COMPILER)
     << ", \"git_sha\": " << JsonString(git_sha)
     << ", \"source_digest\": " << JsonString(source_digest)
     << ", \"parallel_threads\": " << faction::ParallelThreadCount()
     << ", \"FACTION_NUM_THREADS\": "
     << JsonString(EnvOrUnset("FACTION_NUM_THREADS"))
     << ", \"FACTION_NO_FSYNC\": "
     << JsonString(EnvOrUnset("FACTION_NO_FSYNC"))
     << ", \"telemetry\": " << (telemetry_on ? "true" : "false") << "}";
  return os.str();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

}  // namespace perfbench
