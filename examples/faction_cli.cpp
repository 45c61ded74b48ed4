// faction_cli — run any method on any benchmark stream from the shell.
//
//   $ ./build/examples/faction_cli --dataset nysf --method FACTION
//         --budget 200 --acquisition 50 --samples 600 --seed 42 [--csv]
//         [--scenario "rcmnist;drift=recurring:2"] [--trace run.jsonl]
//         [--telemetry]
//
// Prints the per-task metric table (and optionally CSV for plotting).
// This is the "downstream user" entry point: every knob of the experiment
// defaults is reachable without writing C++.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>

#include "common/flags.h"
#include "common/table.h"
#include "common/telemetry.h"
#include "core/presets.h"
#include "data/scenario.h"
#include "data/streams.h"
#include "stream/trace.h"

namespace {

using namespace faction;

struct CliOptions {
  std::string dataset = "nysf";
  /// When non-empty, a scenario DSL spec (data/scenario.h) that builds the
  /// stream instead of --dataset, with full provenance stamped into the
  /// trace's run_start record.
  std::string scenario;
  std::string method = "FACTION";
  std::size_t budget = 200;
  std::size_t acquisition = 50;
  std::size_t samples = 600;
  std::uint64_t seed = 42;
  double mu = 0.6;
  double lambda = 0.5;
  double alpha = 3.0;
  /// Density forgetting (DESIGN.md §15): sliding window over the GDA
  /// estimator (0 = off) and per-fold exponential decay (1 = off).
  std::size_t density_window = 0;
  double density_decay = 1.0;
  bool csv = false;
  bool help = false;
  /// When non-empty, write a JSONL event trace (stream/trace.h) here.
  /// Implies --telemetry so the counter-derived trace fields populate.
  std::string trace_path;
  /// Enable the process-wide metrics registry and print it after the run.
  bool telemetry = false;
};

void PrintUsage() {
  std::printf(
      "usage: faction_cli [options]\n"
      "  --dataset <name>      rcmnist|celeba|fairface|ffhq|nysf "
      "(default nysf)\n"
      "  --scenario <spec>     scenario DSL spec overriding --dataset, e.g.\n"
      "                        \"rcmnist;drift=recurring:2;order="
      "adversarial\"\n"
      "                        (see DESIGN.md §16 for the grammar)\n"
      "  --method <name>       FACTION|FAL|FAL-CUR|Decoupled|QuFUR|DDU|\n"
      "                        Entropy-AL|Random|Bandit|Disentangled, or an\n"
      "                        ablation variant (default FACTION)\n"
      "  --budget <B>          per-task label budget (default 200)\n"
      "  --acquisition <A>     acquisition batch size (default 50)\n"
      "  --samples <n>         samples per task (default 600)\n"
      "  --seed <s>            run seed (default 42)\n"
      "  --mu <v>              fairness regularizer weight (default 0.6)\n"
      "  --lambda <v>          Eq. 6 trade-off (default 0.5)\n"
      "  --alpha <v>           query-rate multiplier (default 3.0)\n"
      "  --density-window <W>  slide the density estimator over the last W\n"
      "                        labels (rank-1 downdates; default 0 = off)\n"
      "  --density-decay <g>   per-label exponential density decay in\n"
      "                        (0, 1] (default 1 = off)\n"
      "  --csv                 emit CSV instead of an aligned table\n"
      "  --trace <path>        write a JSONL event trace of the run\n"
      "                        (one record per task; implies --telemetry)\n"
      "  --telemetry           collect and print run telemetry counters\n");
}

bool ParseArgs(int argc, char** argv, CliOptions* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      options->help = true;
      return true;
    }
    if (arg == "--csv") {
      options->csv = true;
    } else if (arg == "--telemetry") {
      options->telemetry = true;
    } else if (arg == "--trace") {
      const char* v = next("--trace");
      if (v == nullptr) return false;
      options->trace_path = v;
      options->telemetry = true;
    } else if (arg == "--dataset") {
      const char* v = next("--dataset");
      if (v == nullptr) return false;
      options->dataset = v;
    } else if (arg == "--scenario") {
      const char* v = next("--scenario");
      if (v == nullptr) return false;
      options->scenario = v;
    } else if (arg == "--method") {
      const char* v = next("--method");
      if (v == nullptr) return false;
      options->method = v;
    } else if (arg == "--budget") {
      const char* v = next("--budget");
      if (v == nullptr || !ParseSizeFlag("--budget", v, &options->budget)) {
        return false;
      }
    } else if (arg == "--acquisition") {
      const char* v = next("--acquisition");
      if (v == nullptr ||
          !ParseSizeFlag("--acquisition", v, &options->acquisition)) {
        return false;
      }
    } else if (arg == "--samples") {
      const char* v = next("--samples");
      if (v == nullptr || !ParseSizeFlag("--samples", v, &options->samples)) {
        return false;
      }
    } else if (arg == "--seed") {
      const char* v = next("--seed");
      if (v == nullptr || !ParseUintFlag("--seed", v, &options->seed)) {
        return false;
      }
    } else if (arg == "--mu") {
      const char* v = next("--mu");
      if (v == nullptr || !ParseDoubleFlag("--mu", v, &options->mu)) {
        return false;
      }
    } else if (arg == "--lambda") {
      const char* v = next("--lambda");
      if (v == nullptr || !ParseDoubleFlag("--lambda", v, &options->lambda)) {
        return false;
      }
    } else if (arg == "--alpha") {
      const char* v = next("--alpha");
      if (v == nullptr || !ParseDoubleFlag("--alpha", v, &options->alpha)) {
        return false;
      }
    } else if (arg == "--density-window") {
      const char* v = next("--density-window");
      if (v == nullptr ||
          !ParseSizeFlag("--density-window", v, &options->density_window)) {
        return false;
      }
    } else if (arg == "--density-decay") {
      const char* v = next("--density-decay");
      if (v == nullptr ||
          !ParseDoubleFlag("--density-decay", v, &options->density_decay)) {
        return false;
      }
      if (!(options->density_decay > 0.0 &&
            options->density_decay <= 1.0)) {
        std::fprintf(stderr, "--density-decay must be in (0, 1]\n");
        return false;
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

/// "n/a" for metrics the task could not define (e.g. a single-group task).
std::string MetricOrNa(double value, bool defined, int decimals) {
  if (!defined) return "n/a";
  return FormatCell(value, decimals);
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    PrintUsage();
    return 2;
  }
  if (options.help) {
    PrintUsage();
    return 0;
  }

  if (options.telemetry) Telemetry::Enable();
  std::unique_ptr<TraceWriter> trace;
  if (!options.trace_path.empty()) {
    Result<std::unique_ptr<TraceWriter>> opened =
        TraceWriter::Create(options.trace_path);
    if (!opened.ok()) {
      std::fprintf(stderr, "trace: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    trace = std::move(opened).value();
  }

  StreamScale scale;
  scale.samples_per_task = options.samples;
  scale.seed = options.seed + 1000;

  std::string scenario_spec = "none";
  Result<std::vector<Dataset>> stream = Status::Internal("unbuilt");
  if (!options.scenario.empty()) {
    const Result<ScenarioConfig> parsed = ParseScenario(options.scenario);
    if (!parsed.ok()) {
      std::fprintf(stderr, "--scenario: %s\n",
                   parsed.status().ToString().c_str());
      return 2;
    }
    scenario_spec = CanonicalScenarioSpec(parsed.value());
    stream = MakeScenarioStream(parsed.value(), scale);
  } else {
    stream = MakePaperStream(options.dataset, scale);
  }
  if (!stream.ok()) {
    std::fprintf(stderr, "stream: %s\n", stream.status().ToString().c_str());
    return 1;
  }

  ExperimentDefaults defaults;
  defaults.budget_per_task = options.budget;
  defaults.acquisition_batch = options.acquisition;
  defaults.mu = options.mu;
  defaults.lambda = options.lambda;
  defaults.alpha = options.alpha;
  defaults.density_window = options.density_window;
  defaults.density_decay = options.density_decay;
  defaults.trace = trace.get();
  if (!options.scenario.empty()) {
    defaults.scenario_spec = scenario_spec;
    defaults.scenario_world_seed = scale.seed;
  }

  const Result<RunResult> run = RunMethodOnStream(
      options.method, stream.value(), defaults, options.seed);
  if (!run.ok()) {
    std::fprintf(stderr, "run: %s\n", run.status().ToString().c_str());
    return 1;
  }

  Table table({"task", "env", "accuracy", "DDP", "EOD", "MI", "queries",
               "seconds"});
  for (const TaskMetrics& m : run.value().per_task) {
    table.AddRow({std::to_string(m.task_index + 1),
                  std::to_string(m.environment), FormatCell(m.accuracy, 3),
                  MetricOrNa(m.ddp, m.ddp_defined, 3),
                  MetricOrNa(m.eod, m.eod_defined, 3),
                  MetricOrNa(m.mi, m.mi_defined, 3),
                  std::to_string(m.queries_used), FormatCell(m.seconds, 2)});
  }
  if (options.csv) {
    table.PrintCsv(std::cout);
  } else {
    std::printf("%s on %s (B=%zu, A=%zu, seed=%llu)\n",
                options.method.c_str(),
                options.scenario.empty() ? options.dataset.c_str()
                                         : scenario_spec.c_str(),
                options.budget, options.acquisition,
                static_cast<unsigned long long>(options.seed));
    table.Print(std::cout);
    const StreamSummary& s = run.value().summary;
    std::printf(
        "\nstream means: acc=%.3f DDP=%.3f EOD=%.3f MI=%.3f "
        "(%zu queries, %.1fs)\n",
        s.mean_accuracy, s.mean_ddp, s.mean_eod, s.mean_mi,
        s.total_queries, run.value().total_seconds);
    if (s.undefined_metric_tasks > 0) {
      std::printf(
          "note: %zu task(s) had undefined fairness metrics "
          "(excluded from the means above)\n",
          s.undefined_metric_tasks);
    }
  }
  if (!options.trace_path.empty()) {
    std::fprintf(stderr, "trace written to %s\n",
                 options.trace_path.c_str());
  }
  if (options.telemetry && !options.csv) {
    if (const Telemetry* telemetry = Telemetry::Get()) {
      std::printf("\n");
      telemetry->WriteMarkdown(std::cout);
    }
  }
  return 0;
}
