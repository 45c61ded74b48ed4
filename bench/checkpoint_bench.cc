// Checkpoint/state-streaming benchmark (DESIGN.md §17): the three numbers
// the PR10 regression gate pins.
//
//   1. Capture latency: CaptureSessionState on a warmed learner — the only
//      checkpoint work the hot drain path ever does. Reported as median /
//      p99 nanoseconds over many captures.
//   2. Serving SLO under active snapshotting: p99 per-step latency of the
//      multi-stream serve loop with checkpointing off vs. on (aggressive
//      interval). The gate requires the ratio stay within 1.10 — the
//      double-buffer flip plus background serialization must not bend the
//      tail.
//   3. Warm-start vs. replay at `sessions` sessions: rebuilding the fleet
//      from checkpoints via ServeRuntime::WarmStart against re-processing
//      every arrival. The gate requires >= 10x.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <chrono>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "common/timer.h"
#include "core/streaming_faction.h"
#include "data/dataset.h"
#include "serve/checkpoint.h"
#include "serve/serve_runtime.h"
#include "serve/session.h"
#include "serve/state_codec.h"
#include "stream/trace.h"

namespace faction {
namespace {

struct BenchOptions {
  int workers = 2;
  std::size_t sessions = 64;
  std::size_t steps = 2000;
  std::size_t capture_iters = 200;
  std::size_t interval_steps = 256;
  /// When false (default) the run exports FACTION_NO_FSYNC=1: the SLO
  /// ratio then pins the checkpoint orchestration overhead (buffer flip,
  /// background serialization, tmp+rename rotation) rather than the disk's
  /// barrier latency, which on a small CI box shares the only core with
  /// the drain path. --durable restores full fsync commits.
  bool durable = false;
  /// Fraction of the calibrated saturation capacity the SLO phases offer.
  /// Deep headroom by design: the gate asks whether background
  /// checkpointing bends the tail at provisioned load, and on a shared
  /// 1-2 core CI host the calibration itself is noisy, so the paced runs
  /// must sit well inside the stable regime.
  double utilization = 0.25;
  std::uint64_t seed = 1;
  std::string dir = "/tmp/faction_checkpoint_bench";
  std::string out;    // JSON report path ("" = stdout only)
  std::string trace;  // run trace path ("" = none)
};

StreamingFactionConfig SessionConfig(std::uint64_t seed) {
  StreamingFactionConfig config;
  config.model.input_dim = 6;
  config.model.hidden_dims = {8};
  config.model.num_classes = 2;
  config.train.epochs = 2;
  config.train.batch_size = 16;
  config.warm_start = 12;
  config.burn_in = 6;
  config.refit_interval = 20;
  config.seed = seed;
  return config;
}

std::vector<Example> MakeStream(std::size_t n, std::size_t dim,
                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Example> stream(n);
  for (std::size_t i = 0; i < n; ++i) {
    Example& ex = stream[i];
    ex.label = rng.Bernoulli(0.5) ? 1 : 0;
    ex.sensitive = rng.Bernoulli(0.5) ? 1 : -1;
    ex.environment = 0;
    ex.x.resize(dim);
    const double center = ex.label == 1 ? 1.5 : -1.5;
    const double shift = ex.sensitive == 1 ? 0.4 : -0.4;
    for (std::size_t d = 0; d < dim; ++d) {
      ex.x[d] = rng.Gaussian(center + shift, 1.0);
    }
  }
  return stream;
}

/// Percentile from the fixed log-spaced telemetry bucketing (same
/// interpolation as bench/serve_loadgen.cc, which keeps it file-local).
double HistogramPercentile(const Telemetry::HistogramSnapshot& snap,
                           double q) {
  if (snap.count == 0) return 0.0;
  const double target = q * static_cast<double>(snap.count);
  double cumulative = 0.0;
  for (std::size_t slot = 0; slot < snap.buckets.size(); ++slot) {
    const double in_bucket = static_cast<double>(snap.buckets[slot]);
    if (cumulative + in_bucket < target) {
      cumulative += in_bucket;
      continue;
    }
    if (slot == 0) return Telemetry::kFirstBound;
    if (slot == snap.buckets.size() - 1) return snap.max;
    const double lower =
        Telemetry::kFirstBound * std::ldexp(1.0, static_cast<int>(slot) - 1);
    const double upper = lower * 2.0;
    const double frac =
        in_bucket > 0.0 ? (target - cumulative) / in_bucket : 0.0;
    return lower + frac * (upper - lower);
  }
  return snap.max;
}

/// Phase 1: capture latency on a warmed learner.
struct CaptureReport {
  double median_ns = 0.0;
  double p99_ns = 0.0;
  double encode_ns_median = 0.0;
  double encode_ns_p99 = 0.0;
};

CaptureReport RunCapturePhase(const BenchOptions& options) {
  const StreamingFactionConfig config = SessionConfig(options.seed);
  StreamingFaction faction(config);
  const std::vector<Example> stream =
      MakeStream(options.steps, config.model.input_dim, options.seed + 7);
  for (const Example& ex : stream) {
    if (faction.ShouldQuery(ex).value()) {
      FACTION_CHECK(faction.ProvideLabel(ex).ok());
    }
  }

  SessionState state;
  CaptureSessionState(faction, &state);  // warm the destination
  std::vector<double> samples;
  samples.reserve(options.capture_iters);
  for (std::size_t i = 0; i < options.capture_iters; ++i) {
    Timer timer;
    CaptureSessionState(faction, &state);
    samples.push_back(timer.ElapsedSeconds() * 1e9);
  }
  std::sort(samples.begin(), samples.end());
  CaptureReport report;
  report.median_ns = samples[samples.size() / 2];
  report.p99_ns = samples[(samples.size() * 99) / 100];

  // The cold half: what each background serialize job costs in CPU.
  std::string encoded;
  samples.clear();
  for (std::size_t i = 0; i < options.capture_iters; ++i) {
    Timer timer;
    EncodeSessionState(state, &encoded);
    samples.push_back(timer.ElapsedSeconds() * 1e9);
  }
  std::sort(samples.begin(), samples.end());
  report.encode_ns_median = samples[samples.size() / 2];
  report.encode_ns_p99 = samples[(samples.size() * 99) / 100];
  return report;
}

/// Phase 2: p99 per-step serve latency, checkpointing off vs. on. Offers
/// the same round-robin arrival matrix both times as an open-loop paced
/// schedule at `target_rate` total arrivals/second — the BENCH_PR7
/// methodology: the SLO is measured at provisioned load with headroom,
/// not at 100% saturation where any background byte trades against the
/// tail one-for-one.
double RunServePhase(const BenchOptions& options,
                     const std::vector<std::vector<Example>>& streams,
                     double target_rate, bool checkpoints) {
  Telemetry* telemetry = Telemetry::Enable();
  telemetry->Reset();

  ServeRuntimeOptions runtime_options;
  runtime_options.workers = options.workers;
  runtime_options.max_sessions = options.sessions;
  runtime_options.mailbox_capacity = 256;
  runtime_options.record_latency = true;
  ServeRuntime runtime(runtime_options);
  if (checkpoints) {
    CheckpointOptions ckpt;
    ckpt.dir = options.dir;
    ckpt.interval_steps = options.interval_steps;
    runtime.EnableCheckpoints(ckpt);
  }

  std::vector<ServeSession*> sessions;
  for (std::size_t s = 0; s < options.sessions; ++s) {
    ServeSessionOptions session_options;
    session_options.stream_id = s;
    session_options.faction = SessionConfig(options.seed + s);
    sessions.push_back(runtime.CreateSession(session_options));
  }
  // The first quarter is warm-up (per-arrival training until warm_start,
  // first refits): reset the histogram once it passes so the reported
  // tail is steady-state serving.
  const std::size_t total = options.steps * options.sessions;
  const std::size_t warmup = total / 4;
  Timer timer;
  for (std::size_t k = 0; k < total; ++k) {
    if (k == warmup) telemetry->Reset();
    const double due = static_cast<double>(k) / target_rate;
    // Sleep through long waits so the producer does not spin the core
    // away from the workers (essential on low-core hosts); yield through
    // the final stretch for schedule accuracy.
    for (double now = timer.ElapsedSeconds(); now < due;
         now = timer.ElapsedSeconds()) {
      if (due - now > 2e-4) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      } else {
        std::this_thread::yield();
      }
    }
    const std::size_t s = k % options.sessions;
    const std::size_t i = k / options.sessions;
    while (!runtime.Offer(sessions[s], streams[s][i])) {
      std::this_thread::yield();
    }
  }
  runtime.Drain();
  if (checkpoints) {
    // Pin one final generation per session so phase 3 restores the full
    // `steps`-deep state.
    for (ServeSession* session : sessions) {
      runtime.checkpoints()->SnapshotNow(session);
    }
    runtime.checkpoints()->Flush();
    FACTION_CHECK(runtime.checkpoints()->failures() == 0);
  }
  const Telemetry::HistogramSnapshot snap =
      telemetry->HistogramFor("serve.step.latency_seconds");
  std::cerr << "checkpoint_bench:   p50 " << HistogramPercentile(snap, 0.50)
            << " p90 " << HistogramPercentile(snap, 0.90) << " p95 "
            << HistogramPercentile(snap, 0.95) << " p99 "
            << HistogramPercentile(snap, 0.99) << " max " << snap.max
            << "\n";
  if (checkpoints) {
    std::cerr << "checkpoint_bench:   serialized "
              << TelemetryCounterValue("serve.checkpoint.serialized")
              << " skipped_busy "
              << TelemetryCounterValue("serve.checkpoint.skipped_busy")
              << "\n";
  }
  const double p99 = HistogramPercentile(snap, 0.99);
  Telemetry::Disable();
  return p99;
}

/// Phase 3a: replay recovery — re-process every arrival of every session.
/// The arrival log (`streams`) is handed in pre-built: reading the log
/// back is common to both recovery paths, so only the re-processing is
/// timed.
double RunReplayRecovery(const BenchOptions& options,
                         const std::vector<std::vector<Example>>& streams) {
  Timer timer;
  ServeRuntimeOptions runtime_options;
  runtime_options.workers = options.workers;
  runtime_options.max_sessions = options.sessions;
  runtime_options.record_latency = false;
  ServeRuntime runtime(runtime_options);
  std::vector<ServeSession*> sessions;
  for (std::size_t s = 0; s < options.sessions; ++s) {
    ServeSessionOptions session_options;
    session_options.stream_id = s;
    session_options.faction = SessionConfig(options.seed + s);
    session_options.mailbox_capacity = options.steps;
    sessions.push_back(runtime.CreateSession(session_options));
  }
  for (std::size_t i = 0; i < options.steps; ++i) {
    for (std::size_t s = 0; s < options.sessions; ++s) {
      while (!runtime.Offer(sessions[s], streams[s][i])) {
      }
    }
  }
  runtime.Drain();
  return timer.ElapsedSeconds();
}

/// Phase 3b: warm-start recovery from the manifest phase 2 committed.
double RunWarmStartRecovery(const BenchOptions& options,
                            std::size_t* restored_sessions) {
  Timer timer;
  ServeRuntimeOptions runtime_options;
  runtime_options.workers = options.workers;
  runtime_options.max_sessions = options.sessions;
  runtime_options.record_latency = false;
  ServeRuntime runtime(runtime_options);
  Result<WarmStartReport> report =
      runtime.WarmStart(options.dir + "/manifest");
  FACTION_CHECK(report.ok());
  *restored_sessions = report.value().sessions;
  return timer.ElapsedSeconds();
}

int Run(const BenchOptions& options) {
  ::mkdir(options.dir.c_str(), 0755);
  if (!options.durable) ::setenv("FACTION_NO_FSYNC", "1", 1);

  std::vector<std::vector<Example>> streams;
  streams.reserve(options.sessions);
  for (std::size_t s = 0; s < options.sessions; ++s) {
    streams.push_back(MakeStream(options.steps,
                                 SessionConfig(options.seed).model.input_dim,
                                 options.seed + 1000 + s));
  }

  std::cerr << "checkpoint_bench: capture phase...\n";
  const CaptureReport capture = RunCapturePhase(options);
  // The saturated replay run doubles as the capacity calibration for the
  // paced SLO phases.
  std::cerr << "checkpoint_bench: replay recovery (capacity calibration)"
               "...\n";
  const double replay_seconds = RunReplayRecovery(options, streams);
  const double capacity =
      static_cast<double>(options.steps * options.sessions) /
      replay_seconds;
  const double target_rate = options.utilization * capacity;
  std::cerr << "checkpoint_bench: capacity " << capacity
            << " steps/s; pacing at " << target_rate << "\n";
  std::cerr << "checkpoint_bench: serve phase (plain)...\n";
  const double p99_plain = RunServePhase(options, streams, target_rate,
                                         false);
  std::cerr << "checkpoint_bench: serve phase (snapshotting)...\n";
  const double p99_snapshot = RunServePhase(options, streams, target_rate,
                                            true);
  std::cerr << "checkpoint_bench: warm-start recovery...\n";
  std::size_t restored_sessions = 0;
  const double warmstart_seconds =
      RunWarmStartRecovery(options, &restored_sessions);
  FACTION_CHECK(restored_sessions == options.sessions);

  const double p99_ratio =
      p99_plain > 0.0 ? p99_snapshot / p99_plain : 1.0;
  const double speedup =
      warmstart_seconds > 0.0 ? replay_seconds / warmstart_seconds : 0.0;

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"checkpoint_bench\",\n"
       << "  \"workers\": " << options.workers << ",\n"
       << "  \"sessions\": " << options.sessions << ",\n"
       << "  \"steps\": " << options.steps << ",\n"
       << "  \"interval_steps\": " << options.interval_steps << ",\n"
       << "  \"durable\": " << (options.durable ? "true" : "false")
       << ",\n"
       << "  \"utilization\": " << JsonNumber(options.utilization) << ",\n"
       << "  \"target_rate\": " << JsonNumber(target_rate) << ",\n"
       << "  \"capture_ns_median\": " << JsonNumber(capture.median_ns)
       << ",\n"
       << "  \"capture_ns_p99\": " << JsonNumber(capture.p99_ns) << ",\n"
       << "  \"encode_ns_median\": " << JsonNumber(capture.encode_ns_median)
       << ",\n"
       << "  \"encode_ns_p99\": " << JsonNumber(capture.encode_ns_p99)
       << ",\n"
       << "  \"p99_plain_seconds\": " << JsonNumber(p99_plain) << ",\n"
       << "  \"p99_snapshot_seconds\": " << JsonNumber(p99_snapshot)
       << ",\n"
       << "  \"p99_ratio\": " << JsonNumber(p99_ratio) << ",\n"
       << "  \"replay_seconds\": " << JsonNumber(replay_seconds) << ",\n"
       << "  \"warmstart_seconds\": " << JsonNumber(warmstart_seconds)
       << ",\n"
       << "  \"warmstart_speedup\": " << JsonNumber(speedup) << "\n"
       << "}\n";

  std::cout << json.str();
  if (!options.out.empty()) {
    std::ofstream out(options.out);
    out << json.str();
    if (!out.good()) {
      std::cerr << "checkpoint_bench: failed to write " << options.out
                << "\n";
      return 1;
    }
  }

  if (!options.trace.empty()) {
    Result<std::unique_ptr<TraceWriter>> writer =
        TraceWriter::Create(options.trace);
    if (!writer.ok()) {
      std::cerr << "checkpoint_bench: " << writer.status().ToString()
                << "\n";
      return 1;
    }
    TraceWriter::ServeInfo serve;
    serve.workers = options.workers;
    serve.sessions = options.sessions;
    TraceWriter::CheckpointInfo checkpoint;
    checkpoint.enabled = true;
    checkpoint.interval_steps = options.interval_steps;
    FACTION_CHECK(writer.value()
                      ->WriteRunStart("checkpoint_bench", serve, {}, {},
                                      checkpoint)
                      .ok());
    FACTION_CHECK(writer.value()->WriteRunEnd(0, 0, 0).ok());
  }
  return 0;
}

bool ParseArgs(int argc, char** argv, BenchOptions* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    bool ok = true;
    if (arg == "--workers" && (v = next())) {
      std::size_t workers = 0;
      ok = ParseSizeFlag("--workers", v, &workers) && workers <= 1024;
      if (workers > 1024) std::cerr << "--workers: at most 1024\n";
      options->workers = static_cast<int>(workers);
    } else if (arg == "--sessions" && (v = next())) {
      ok = ParseSizeFlag("--sessions", v, &options->sessions);
    } else if (arg == "--steps" && (v = next())) {
      ok = ParseSizeFlag("--steps", v, &options->steps);
    } else if (arg == "--capture-iters" && (v = next())) {
      ok = ParseSizeFlag("--capture-iters", v,
                         &options->capture_iters);
    } else if (arg == "--interval-steps" && (v = next())) {
      ok = ParseSizeFlag("--interval-steps", v,
                         &options->interval_steps);
    } else if (arg == "--seed" && (v = next())) {
      ok = ParseUintFlag("--seed", v, &options->seed);
    } else if (arg == "--dir" && (v = next())) {
      options->dir = v;
    } else if (arg == "--out" && (v = next())) {
      options->out = v;
    } else if (arg == "--trace" && (v = next())) {
      options->trace = v;
    } else if (arg == "--utilization" && (v = next())) {
      ok = ParseDoubleFlag("--utilization", v, &options->utilization);
    } else if (arg == "--durable") {
      options->durable = true;
    } else {
      std::cerr << "usage: checkpoint_bench [--workers N] [--sessions N]"
                   " [--steps N] [--capture-iters N] [--interval-steps N]"
                   " [--seed N] [--dir PATH] [--out PATH] [--trace PATH]"
                   " [--utilization F] [--durable]\n";
      return false;
    }
    if (!ok) return false;
  }
  return options->workers >= 0 && options->sessions >= 1 &&
         options->steps >= 1 && options->capture_iters >= 10 &&
         options->interval_steps >= 1 && options->utilization > 0.0 &&
         options->utilization <= 1.0;
}

}  // namespace
}  // namespace faction

int main(int argc, char** argv) {
  faction::BenchOptions options;
  if (!faction::ParseArgs(argc, argv, &options)) return 2;
  return faction::Run(options);
}
