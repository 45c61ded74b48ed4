// Benchmark entry point: runs one workload and prints every metric by name with
// its unit, then one JSON result line. Usage:
//
//   perfbench --workload <paper_stream|serve_young|serve_aged> --seed <n>
//             --seconds <s> --trace <0|1> [--work-dir <dir>]
//             [--source-digest <text>] [--git-sha <text>]
//             [--plant-mismatch <0|1>]
//
// It prints the metrics the workload measures; perfbench/run.py checks
// them against BENCHMARK.json, the one list of metric names and units, and
// adds as 0 the per-layer metrics of work the workload never does.
//
// Exit code 0 when every output check passed, 1 when one failed (the
// result line then says "correct": false), 2 on a usage error.
#include <filesystem>
#include <iostream>
#include <string>

#include "src/args.h"
#include "src/fingerprint.h"
#include "src/report.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

int Main(int argc, char** argv) {
  Options options;
  std::string error;
  if (!ParseOptions(argc, argv, &options, &error)) {
    std::cerr << "perfbench: " << error << "\n";
    return 2;
  }
  const bool serve = options.workload == "serve_young" ||
                     options.workload == "serve_aged";
  if (!serve && options.workload != "paper_stream") {
    std::cerr << "perfbench: unknown workload " << options.workload << "\n";
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) {
    std::cerr << "perfbench: cannot create " << options.work_dir << "\n";
    return 2;
  }
  // Serve workloads run with program telemetry on, as a fleet does.
  std::cout << "fingerprint "
            << FingerprintJson(options.workload, options.git_sha,
                               options.source_digest, serve)
            << "\n";

  Report report;
  if (serve) {
    RunServeWorkload(options, &report);
  } else {
    RunPaperStream(options, &report);
  }
  report.Print(std::cout);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
