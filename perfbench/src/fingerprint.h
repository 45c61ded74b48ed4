#ifndef PERFBENCH_SRC_FINGERPRINT_H_
#define PERFBENCH_SRC_FINGERPRINT_H_

#include <string>

// Host and build fingerprint stamped on every report, so a number is only
// ever compared with numbers taken on the same host and build, and the
// process resource readings (memory, CPU time) the metrics are made of.

namespace perfbench {

/// One JSON object: nproc, CPU model, build type and flags, compiler, git
/// SHA, source digest, parallel-layer threads, and whether
/// FACTION_NO_FSYNC, FACTION_NUM_THREADS and program telemetry were set for
/// this workload.
std::string FingerprintJson(const std::string& workload,
                            const std::string& git_sha,
                            const std::string& source_digest,
                            bool telemetry_on);

/// Peak resident set of this process in MB (getrusage).
double PeakRssMb();

/// CPU seconds spent by every thread of this process so far.
double ProcessCpuSeconds();

/// CPU seconds spent by the calling thread so far.
double ThreadCpuSeconds();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_FINGERPRINT_H_
