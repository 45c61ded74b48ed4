// Workload "paper_stream": FACTION (Alg. 1, paper defaults B = 200,
// A = 50, fairness-regularized loss) over the FairFace-substitute stream
// at full scale (21 tasks x 2,000 samples), as a closed batch job. The
// timed runs use one pool thread; the default common/parallel pool runs
// the parity check and the scaling figure. See perfbench/README.md.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "common/telemetry.h"
#include "core/presets.h"
#include "data/streams.h"
#include "src/fingerprint.h"
#include "src/schedule.h"
#include "src/spans.h"
#include "src/stats.h"
#include "src/workloads.h"
#include "stream/online_learner.h"

namespace perfbench {
namespace {

using faction::Dataset;

constexpr std::size_t kSamplesPerTask = 2000;
/// Stream generations per run; setup_s is their median. The first few of
/// a process run slower while caches and the allocator warm up.
constexpr int kSetupRepeats = 21;
/// Protocol runs per benchmark run: one per this many --seconds (each run
/// takes about 1.7 s at one thread on a 4-CPU host), at least two. Fixed
/// by the arguments so the quality means are a function of the seed alone.
constexpr int kSecondsPerRun = 2;
/// Pool threads of the timed runs. On a shared 4-vCPU host a run on the
/// default pool (one thread per vCPU) waits at every region for whichever
/// thread the host descheduled: its wall time read 1.9 s on a quiet host
/// and 3-10 s beside other tenants, while one thread read 1.5-1.9 s in
/// both states. Results are bitwise the same at any thread count.
constexpr int kTimedThreads = 1;

double Seconds(std::int64_t ns) { return 1e-9 * static_cast<double>(ns); }

/// Forwards to FACTION's strategy, recording each SelectBatch as a
/// "core.select" span whose group is the task index (a new task starts
/// when the candidate set grows).
class TracedStrategy : public faction::QueryStrategy {
 public:
  TracedStrategy(std::unique_ptr<faction::QueryStrategy> inner,
                 SpanRecorder* spans, std::int32_t parent)
      : inner_(std::move(inner)), spans_(spans), parent_(parent) {}

  std::string name() const override { return inner_->name(); }

  faction::Result<std::vector<std::size_t>> SelectBatch(
      const faction::SelectionContext& context, std::size_t batch) override {
    const std::size_t rows = context.candidate_features->rows();
    if (rows > last_rows_) ++task_;
    last_rows_ = rows;
    const std::int32_t span = spans_->Begin("core.select", parent_, task_);
    faction::Result<std::vector<std::size_t>> picked =
        inner_->SelectBatch(context, batch);
    spans_->End(span);
    return picked;
  }

 private:
  std::unique_ptr<faction::QueryStrategy> inner_;
  SpanRecorder* spans_;
  std::int32_t parent_;
  std::size_t last_rows_ = 0;
  std::uint64_t task_ = 0;
};

struct PaperRun {
  bool ok = false;
  std::string error;
  double wall_seconds = 0.0;
  /// CPU seconds of every thread of the process during the run.
  double cpu_seconds = 0.0;
  faction::StreamSummary summary;
};

/// One protocol run. Untraced it is RunMethodOnStream itself; traced it
/// makes the same three calls (MakeStrategy, MakeLearnerConfig,
/// OnlineLearner::Run) with the strategy behind the tracing decorator,
/// under a "stream.run" span.
PaperRun RunOnce(const std::vector<Dataset>& tasks, std::uint64_t seed,
                 SpanRecorder* spans, std::uint64_t run_index) {
  PaperRun run;
  const faction::ExperimentDefaults defaults;
  const auto protocol = [&]() -> faction::Result<faction::RunResult> {
    if (spans == nullptr) {
      return faction::RunMethodOnStream("FACTION", tasks, defaults, seed);
    }
    FACTION_ASSIGN_OR_RETURN(std::unique_ptr<faction::QueryStrategy> strategy,
                             faction::MakeStrategy("FACTION", defaults));
    const std::int32_t root =
        spans->Begin("stream.run", SpanRecorder::kNoParent, run_index);
    TracedStrategy traced(std::move(strategy), spans, root);
    faction::OnlineLearner learner(
        faction::MakeLearnerConfig(defaults, tasks[0].dim(), "FACTION", seed),
        &traced);
    faction::Result<faction::RunResult> result = learner.Run(tasks);
    spans->End(root);
    return result;
  };
  const double cpu_start = ProcessCpuSeconds();
  const std::int64_t start = SpanRecorder::NowNs();
  const faction::Result<faction::RunResult> result = protocol();
  const std::int64_t end = SpanRecorder::NowNs();
  run.cpu_seconds = ProcessCpuSeconds() - cpu_start;
  if (!result.ok()) {
    run.error = result.status().ToString();
    return run;
  }
  run.ok = true;
  run.wall_seconds = Seconds(end - start);
  run.summary = result.value().summary;
  return run;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameQuality(const faction::StreamSummary& a,
                 const faction::StreamSummary& b) {
  return SameBits(a.mean_accuracy, b.mean_accuracy) &&
         SameBits(a.mean_ddp, b.mean_ddp) && SameBits(a.mean_eod, b.mean_eod);
}

/// The FairFace-substitute world at the stream generator's default seed,
/// as the paper uses one fixed dataset; the workload seed varies the
/// learner (model init, warm-start draw, query randomness), as the paper's
/// repeated runs do.
faction::Result<std::vector<Dataset>> BuildStream() {
  faction::FairfaceConfig config;
  config.scale.samples_per_task = kSamplesPerTask;
  return faction::MakeFairfaceStream(config);
}

}  // namespace

void RunPaperStream(const Options& options, Report* report) {
  // Set-up: stream generation, repeated; the last copy is measured.
  std::vector<Dataset> tasks;
  std::vector<double> setup_seconds;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const std::int64_t start = SpanRecorder::NowNs();
    faction::Result<std::vector<Dataset>> stream = BuildStream();
    if (!stream.ok()) {
      report->Fail("stream generation failed: " +
                   stream.status().ToString());
      return;
    }
    tasks = std::move(stream).value();
    setup_seconds.push_back(Seconds(SpanRecorder::NowNs() - start));
  }
  std::cerr << "paper_stream: set-up seconds";
  for (double s : setup_seconds) std::cerr << " " << s;
  std::cerr << "\n";
  std::size_t samples_per_run = 0;
  for (const Dataset& task : tasks) samples_per_run += task.size();

  const int default_threads = faction::ParallelThreadCount();
  SpanRecorder spans(4096);
  SpanRecorder* recorder = options.trace ? &spans : nullptr;

  // Measure: protocol runs at kTimedThreads, one learner seed each. A
  // traced run repeats every run untraced, so the tracing overhead is
  // measured on identical work.
  faction::SetParallelThreadCount(kTimedThreads);
  const std::size_t run_count =
      static_cast<std::size_t>(std::max(2, options.seconds / kSecondsPerRun));
  std::vector<std::uint64_t> learner_seeds;
  std::vector<PaperRun> runs, untraced;
  for (std::size_t i = 0; i < run_count; ++i) {
    learner_seeds.push_back(MixSeed(options.seed, i));
    runs.push_back(RunOnce(tasks, learner_seeds[i], recorder, i));
    if (options.trace) {
      untraced.push_back(RunOnce(tasks, learner_seeds[i], nullptr, i));
    }
  }
  std::size_t attempted = 0, failed = 0;
  for (const std::vector<PaperRun>* set : {&runs, &untraced}) {
    for (const PaperRun& run : *set) {
      ++attempted;
      if (!run.ok) {
        ++failed;
        report->Fail("protocol run failed: " + run.error);
      }
    }
  }
  report->set_attempted(attempted);
  report->set_failed(failed);
  if (failed > 0) return;

  // Output checks: RunMethodOnStream on the default pool reproduces the
  // first run bitwise, and so does every untraced repeat of a traced run.
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    if (!SameQuality(untraced[i].summary, runs[i].summary)) {
      report->Fail("traced and untraced protocol runs differ");
    }
  }
  faction::SetParallelThreadCount(default_threads);
  const std::int64_t default_start = SpanRecorder::NowNs();
  const faction::Result<faction::RunResult> pooled =
      faction::RunMethodOnStream("FACTION", tasks,
                                 faction::ExperimentDefaults(),
                                 learner_seeds[0]);
  const double default_seconds = Seconds(SpanRecorder::NowNs() -
                                         default_start);
  faction::SetParallelThreadCount(kTimedThreads);
  if (!pooled.ok()) {
    report->Fail("default-pool run failed: " + pooled.status().ToString());
    return;
  }
  if (!SameQuality(pooled.value().summary, runs[0].summary)) {
    report->Fail("accuracy/ddp/eod differ between " +
                 std::to_string(kTimedThreads) + " and " +
                 std::to_string(default_threads) + " threads");
  }

  std::vector<double> walls, cpu;
  for (const PaperRun& run : runs) {
    walls.push_back(run.wall_seconds);
    cpu.push_back(run.cpu_seconds);
  }
  std::cerr << "paper_stream: protocol run wall/cpu seconds";
  for (const PaperRun& run : runs) {
    std::cerr << " " << run.wall_seconds << "/" << run.cpu_seconds;
  }
  std::cerr << "\n";
  const double stream_s = Median(walls);

  if (!options.trace) {
    double accuracy = 0.0, ddp = 0.0, eod = 0.0;
    const double n = static_cast<double>(runs.size());
    for (const PaperRun& run : runs) {
      accuracy += run.summary.mean_accuracy / n;
      ddp += run.summary.mean_ddp / n;
      eod += run.summary.mean_eod / n;
    }
    report->Add("setup_s", Median(setup_seconds), "s");
    report->Add("stream_s", stream_s, "s");
    report->Add("cpu_us_per_arrival",
                1e6 * Median(cpu) / static_cast<double>(samples_per_run),
                "us");
    report->Add("accuracy", accuracy, "fraction");
    report->Add("ddp", ddp, "fraction");
    report->Add("eod", eod, "fraction");
    report->Add("sustained_rate",
                static_cast<double>(samples_per_run) / stream_s, "1/s");
    // A batch job without checkpoints recovers by re-running.
    report->Add("recovery_s", stream_s, "s");
    report->Add("rss_mb", PeakRssMb(), "MB");
    return;
  }

  // Per-layer metrics (traced run).
  // Self times from the spans: a run's self time is everything outside
  // strategy selection (training, evaluation, bookkeeping).
  std::vector<double> select_ms, untraced_walls;
  for (const SpanRecorder::Span& span : spans.spans()) {
    if (std::strcmp(span.name, "core.select") == 0) {
      select_ms.push_back(1e-6 * static_cast<double>(span.end_ns -
                                                     span.start_ns));
    }
  }
  const SpanRecorder::NameTotals run_totals = spans.Totals().at("stream.run");
  for (const PaperRun& run : untraced) {
    untraced_walls.push_back(run.wall_seconds);
  }
  const double untraced_s = Median(untraced_walls);

  // Program telemetry for the tensor counters: one more run with the
  // registry on (it must not change results either).
  faction::Telemetry::Enable()->Reset();
  const PaperRun counted =
      RunOnce(tasks, learner_seeds[0], nullptr, 0);
  faction::Telemetry* telemetry = faction::Telemetry::Get();
  const double gemm_calls =
      static_cast<double>(telemetry->CounterValue("simd.gemm_calls"));
  const double gemm_flops = telemetry->HistogramFor("simd.gemm_flops").sum;
  faction::Telemetry::Disable();
  if (!counted.ok || !SameQuality(counted.summary, runs[0].summary)) {
    report->Fail("telemetry-on protocol run differs");
  }

  report->Add("core.select_ms_p50", Median(select_ms), "ms");
  report->Add("core.select_ms_p99", NearestRank(&select_ms, 0.99).value,
              "ms");
  report->Add("stream.train_eval_s",
              run_totals.self_seconds / static_cast<double>(run_totals.count),
              "s");
  report->Add("parallel.threads", default_threads, "count");
  report->Add("parallel.scaling", untraced_s / default_seconds, "ratio");
  report->Add("tensor.gemm_calls", gemm_calls, "count");
  report->Add("tensor.gemm_flops", gemm_flops, "count");
  report->Add("data.stream_gen_s", Median(setup_seconds), "s");
  report->Add("trace.overhead_frac", stream_s / untraced_s - 1.0,
              "fraction");
  if (!spans.WriteJsonl(options.work_dir + "/trace-paper_stream.jsonl",
                        [](const SpanRecorder::Span&) { return true; })) {
    report->Fail("could not write the span file");
  }
}

}  // namespace perfbench
