#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/args.h"
#include "src/report.h"

// The benchmark's workloads (perfbench/README.md says why each exists).
// Each fills a Report with its end-to-end metrics (trace off) or its
// per-layer metrics (trace on), plus the output checks of the run.

namespace perfbench {

/// FACTION (Alg. 1) over the FairFace-substitute stream, a closed batch job.
void RunPaperStream(const Options& options, Report* report);

/// "serve_young" or "serve_aged" (any other name runs serve_young):
/// open-loop load on a serving fleet.
void RunServeWorkload(const Options& options, Report* report);

/// Index of the first position where two decision logs differ (a length
/// difference counts at the shorter length), or -1 when they are equal.
std::ptrdiff_t FirstMismatch(const std::vector<std::uint8_t>& expected,
                             const std::vector<std::uint8_t>& actual);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
