// Load generator for the multi-stream serving runtime (ROADMAP item 2):
// an open-loop Poisson-plus-burst arrival process over N sessions,
// reporting p50/p95/p99 per-step latency (from the telemetry histogram
// the serve layer populates), steady-state throughput, sessions/core, and
// a within-run multiplex-efficiency ratio. tools/bench.sh runs this as
// the SLO regression gate and folds the JSON into BENCH_PR7.json.
//
// Three phases:
//   1. Calibrate: one session, synchronous runtime — the single-stream
//      straight-line step rate this host can do.
//   2. Load: N sessions on W workers, arrivals scheduled open-loop at
//      `utilization` x the calibrated rate, with periodic burst windows
//      at `burst_factor` x the base rate. Latency percentiles come from
//      the "serve.step.latency_seconds" histogram.
//   3. Saturation: offer round-robin as fast as possible; the achieved
//      rate over the calibrated rate is the multiplex efficiency (1.0 =
//      the serve layer adds no overhead on this core count).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "common/timer.h"
#include "core/streaming_faction.h"
#include "data/dataset.h"
#include "serve/serve_runtime.h"
#include "serve/session.h"
#include "stream/trace.h"

namespace faction {
namespace {

struct LoadgenOptions {
  int workers = 2;
  std::size_t sessions = 64;
  double duration_seconds = 3.0;
  /// Offered load as a fraction of the calibrated single-stream rate.
  double utilization = 0.6;
  double burst_factor = 4.0;
  /// Fraction of each 0.5 s window spent in a burst.
  double burst_fraction = 0.1;
  double saturation_seconds = 1.0;
  std::uint64_t seed = 1;
  /// Per-session density forgetting (DESIGN.md §15): sliding window over
  /// each session's estimator (0 = off) and per-label decay (1 = off).
  std::size_t density_window = 0;
  double density_decay = 1.0;
  std::string out;    // JSON report path ("" = stdout only)
  std::string trace;  // run trace path ("" = none)
};

StreamingFactionConfig SessionConfig(const LoadgenOptions& options,
                                     std::uint64_t seed) {
  StreamingFactionConfig config;
  config.model.input_dim = 6;
  config.model.hidden_dims = {8};
  config.model.num_classes = 2;
  config.train.epochs = 2;
  config.train.batch_size = 16;
  config.warm_start = 12;
  config.burn_in = 6;
  config.refit_interval = 20;
  config.density_window = options.density_window;
  config.density_decay = options.density_decay;
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

/// Percentile from the fixed log-spaced telemetry bucketing: find the
/// bucket where the cumulative count crosses q, interpolate linearly
/// within its [lower, upper) bounds. Bucket slot i in [1, kNumBuckets]
/// spans [kFirstBound * 2^(i-1), kFirstBound * 2^i).
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
    if (slot == 0) return Telemetry::kFirstBound;  // underflow bucket
    if (slot == snap.buckets.size() - 1) return snap.max;  // overflow
    const double lower =
        Telemetry::kFirstBound * std::ldexp(1.0, static_cast<int>(slot) - 1);
    const double upper = lower * 2.0;
    const double frac =
        in_bucket > 0.0 ? (target - cumulative) / in_bucket : 0.0;
    return lower + frac * (upper - lower);
  }
  return snap.max;
}

std::size_t TotalSteps(const std::vector<ServeSession*>& sessions) {
  std::size_t total = 0;
  for (const ServeSession* s : sessions) total += s->steps();
  return total;
}

struct LoadReport {
  std::size_t offered = 0;
  std::size_t shed = 0;
  std::size_t steps = 0;
  double elapsed_seconds = 0.0;
  double throughput = 0.0;
  double achieved_fraction = 1.0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
};

/// Phase 1: single-stream synchronous step rate (steps/second).
double Calibrate(const LoadgenOptions& loadgen_options, std::uint64_t seed) {
  ServeRuntimeOptions options;
  options.workers = 0;
  options.max_sessions = 1;
  // Keep latency recording on so the calibrated rate carries the same
  // instrumentation cost as the load/saturation phases — the multiplex
  // efficiency ratio must compare like with like.
  options.record_latency = true;
  ServeRuntime runtime(options);
  ServeSessionOptions session_options;
  session_options.stream_id = 0;
  session_options.faction = SessionConfig(loadgen_options, seed);
  ServeSession* session = runtime.CreateSession(session_options);
  const std::vector<Example> stream =
      MakeStream(240, session_options.faction.model.input_dim, seed + 7);
  // Warm: one pass covers warm-start and several refit cycles.
  for (const Example& ex : stream) runtime.Offer(session, ex);
  // Measure: three more passes of pure steady state.
  constexpr int kPasses = 3;
  Timer timer;
  for (int p = 0; p < kPasses; ++p) {
    for (const Example& ex : stream) runtime.Offer(session, ex);
  }
  const double elapsed = timer.ElapsedSeconds();
  runtime.Drain();
  return static_cast<double>(kPasses * stream.size()) / elapsed;
}

LoadReport RunLoadPhase(ServeRuntime& runtime,
                        const std::vector<ServeSession*>& sessions,
                        const std::vector<std::vector<Example>>& streams,
                        std::vector<std::size_t>& cursors,
                        const LoadgenOptions& options, double target_rate) {
  Rng rng(options.seed + 101);
  constexpr double kBurstPeriod = 0.5;
  const std::size_t steps_before = TotalSteps(sessions);
  std::size_t offered = 0;
  std::size_t shed = 0;

  Timer timer;
  double next_arrival = 0.0;
  for (;;) {
    const double now = timer.ElapsedSeconds();
    if (now >= options.duration_seconds) break;
    if (now < next_arrival) {
      std::this_thread::yield();
      continue;
    }
    const std::size_t s =
        static_cast<std::size_t>(rng.UniformInt(sessions.size()));
    const std::vector<Example>& stream = streams[s];
    if (runtime.Offer(sessions[s], stream[cursors[s] % stream.size()])) {
      ++offered;
    } else {
      ++shed;
    }
    ++cursors[s];
    // Open loop: the next arrival time advances on the schedule, never on
    // completions. Burst windows multiply the instantaneous rate.
    const double phase = std::fmod(now, kBurstPeriod) / kBurstPeriod;
    const double rate = phase < options.burst_fraction
                            ? target_rate * options.burst_factor
                            : target_rate;
    next_arrival += -std::log(1.0 - rng.Uniform()) / rate;
    // An overloaded schedule must not drift unboundedly behind the clock.
    next_arrival = std::max(next_arrival, now - 0.25);
  }
  runtime.Drain();
  const double elapsed = timer.ElapsedSeconds();

  LoadReport report;
  report.offered = offered;
  report.shed = shed;
  report.steps = TotalSteps(sessions) - steps_before;
  report.elapsed_seconds = elapsed;
  report.throughput = static_cast<double>(report.steps) / elapsed;
  report.achieved_fraction =
      offered + shed == 0
          ? 1.0
          : static_cast<double>(report.steps) /
                static_cast<double>(offered + shed);
  if (Telemetry* t = Telemetry::Get()) {
    const Telemetry::HistogramSnapshot snap =
        t->HistogramFor("serve.step.latency_seconds");
    report.p50 = HistogramPercentile(snap, 0.50);
    report.p95 = HistogramPercentile(snap, 0.95);
    report.p99 = HistogramPercentile(snap, 0.99);
  }
  return report;
}

struct SaturationReport {
  std::size_t steps = 0;
  double elapsed_seconds = 0.0;
  double throughput = 0.0;
};

SaturationReport RunSaturationPhase(
    ServeRuntime& runtime, const std::vector<ServeSession*>& sessions,
    const std::vector<std::vector<Example>>& streams,
    std::vector<std::size_t>& cursors, const LoadgenOptions& options) {
  const std::size_t steps_before = TotalSteps(sessions);
  Timer timer;
  while (timer.ElapsedSeconds() < options.saturation_seconds) {
    std::size_t accepted = 0;
    for (std::size_t s = 0; s < sessions.size(); ++s) {
      const std::vector<Example>& stream = streams[s];
      if (runtime.Offer(sessions[s], stream[cursors[s] % stream.size()])) {
        ++cursors[s];
        ++accepted;
      }
      // A full mailbox just means the workers are behind; saturation
      // measures the drain rate, not the offer rate.
    }
    // Every mailbox full: yield the core to the workers instead of
    // spinning against them (essential on low-core hosts).
    if (accepted == 0) std::this_thread::yield();
  }
  runtime.Drain();
  SaturationReport report;
  report.elapsed_seconds = timer.ElapsedSeconds();
  report.steps = TotalSteps(sessions) - steps_before;
  report.throughput =
      static_cast<double>(report.steps) / report.elapsed_seconds;
  return report;
}

int Run(const LoadgenOptions& options) {
  Telemetry::Enable()->Reset();

  const double calibrated_rate = Calibrate(options, options.seed);
  std::cerr << "serve_loadgen: calibrated single-stream rate "
            << calibrated_rate << " steps/s\n";

  ServeRuntimeOptions runtime_options;
  runtime_options.workers = options.workers;
  runtime_options.max_sessions = options.sessions;
  // Sized for the burst windows, not the sustained rate: a burst at
  // burst_factor x utilization of the calibrated rate queues roughly
  // (burst_factor - 1) * utilization * rate * window / sessions arrivals
  // per session on average (tens, spread unevenly by the uniform session
  // pick), so 64 slots shed several percent at the default settings
  // while 256 absorbs the spike and lets the SLO measure latency rather
  // than loss.
  runtime_options.mailbox_capacity = 256;
  runtime_options.record_latency = true;
  ServeRuntime runtime(runtime_options);

  std::vector<ServeSession*> sessions;
  std::vector<std::vector<Example>> streams;
  std::vector<std::size_t> cursors(options.sessions, 0);
  sessions.reserve(options.sessions);
  streams.reserve(options.sessions);
  for (std::size_t s = 0; s < options.sessions; ++s) {
    ServeSessionOptions session_options;
    session_options.stream_id = s;
    session_options.faction = SessionConfig(options, options.seed + 100 + s);
    sessions.push_back(runtime.CreateSession(session_options));
    streams.push_back(MakeStream(
        240, session_options.faction.model.input_dim, options.seed + s));
  }

  const double target_rate = options.utilization * calibrated_rate;
  const LoadReport load = RunLoadPhase(runtime, sessions, streams, cursors,
                                       options, target_rate);
  const SaturationReport saturation = RunSaturationPhase(
      runtime, sessions, streams, cursors, options);

  const double multiplex_efficiency =
      calibrated_rate > 0.0 ? saturation.throughput / calibrated_rate : 0.0;
  const double sessions_per_core =
      static_cast<double>(options.sessions) /
      static_cast<double>(std::max(options.workers, 1));

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"serve_loadgen\",\n"
       << "  \"workers\": " << options.workers << ",\n"
       << "  \"sessions\": " << options.sessions << ",\n"
       << "  \"calibrated_steps_per_second\": "
       << JsonNumber(calibrated_rate) << ",\n"
       << "  \"load\": {\n"
       << "    \"target_rate\": " << JsonNumber(target_rate) << ",\n"
       << "    \"offered\": " << load.offered << ",\n"
       << "    \"shed\": " << load.shed << ",\n"
       << "    \"steps\": " << load.steps << ",\n"
       << "    \"elapsed_seconds\": " << JsonNumber(load.elapsed_seconds)
       << ",\n"
       << "    \"throughput_steps_per_second\": "
       << JsonNumber(load.throughput) << ",\n"
       << "    \"achieved_fraction\": "
       << JsonNumber(load.achieved_fraction) << ",\n"
       << "    \"p50_seconds\": " << JsonNumber(load.p50) << ",\n"
       << "    \"p95_seconds\": " << JsonNumber(load.p95) << ",\n"
       << "    \"p99_seconds\": " << JsonNumber(load.p99) << "\n"
       << "  },\n"
       << "  \"saturation\": {\n"
       << "    \"steps\": " << saturation.steps << ",\n"
       << "    \"elapsed_seconds\": "
       << JsonNumber(saturation.elapsed_seconds) << ",\n"
       << "    \"throughput_steps_per_second\": "
       << JsonNumber(saturation.throughput) << ",\n"
       << "    \"multiplex_efficiency\": "
       << JsonNumber(multiplex_efficiency) << ",\n"
       << "    \"sessions_per_core\": " << JsonNumber(sessions_per_core)
       << "\n"
       << "  }\n"
       << "}\n";

  std::cout << json.str();
  if (!options.out.empty()) {
    std::ofstream out(options.out);
    out << json.str();
    if (!out.good()) {
      std::cerr << "serve_loadgen: failed to write " << options.out << "\n";
      return 1;
    }
  }

  if (!options.trace.empty()) {
    Result<std::unique_ptr<TraceWriter>> writer =
        TraceWriter::Create(options.trace);
    if (!writer.ok()) {
      std::cerr << "serve_loadgen: " << writer.status().ToString() << "\n";
      return 1;
    }
    TraceWriter::ServeInfo serve;
    serve.workers = options.workers;
    serve.sessions = options.sessions;
    TraceWriter::DensityInfo density;
    density.window = options.density_window;
    density.decay = options.density_decay;
    FACTION_CHECK(
        writer.value()->WriteRunStart("serve_loadgen", serve, density).ok());
    FACTION_CHECK(writer.value()->WriteRunEnd(0, 0, 0).ok());
  }
  return 0;
}

bool ParseArgs(int argc, char** argv, LoadgenOptions* options) {
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
    } else if (arg == "--duration-seconds" && (v = next())) {
      ok = ParseDoubleFlag("--duration-seconds", v,
                           &options->duration_seconds);
    } else if (arg == "--utilization" && (v = next())) {
      ok = ParseDoubleFlag("--utilization", v, &options->utilization);
    } else if (arg == "--burst-factor" && (v = next())) {
      ok = ParseDoubleFlag("--burst-factor", v, &options->burst_factor);
    } else if (arg == "--burst-fraction" && (v = next())) {
      ok = ParseDoubleFlag("--burst-fraction", v, &options->burst_fraction);
    } else if (arg == "--saturation-seconds" && (v = next())) {
      ok = ParseDoubleFlag("--saturation-seconds", v,
                           &options->saturation_seconds);
    } else if (arg == "--seed" && (v = next())) {
      ok = ParseUintFlag("--seed", v, &options->seed);
    } else if (arg == "--density-window" && (v = next())) {
      ok = ParseSizeFlag("--density-window", v, &options->density_window);
    } else if (arg == "--density-decay" && (v = next())) {
      ok = ParseDoubleFlag("--density-decay", v, &options->density_decay);
    } else if (arg == "--out" && (v = next())) {
      options->out = v;
    } else if (arg == "--trace" && (v = next())) {
      options->trace = v;
    } else {
      std::cerr << "usage: serve_loadgen [--workers N] [--sessions N]"
                   " [--duration-seconds S] [--utilization F]"
                   " [--burst-factor F] [--burst-fraction F]"
                   " [--saturation-seconds S] [--seed N]"
                   " [--density-window N] [--density-decay F] [--out PATH]"
                   " [--trace PATH]\n";
      return false;
    }
    if (!ok) return false;
  }
  return options->workers >= 0 && options->sessions >= 1 &&
         options->duration_seconds > 0.0 && options->utilization > 0.0 &&
         options->density_decay > 0.0 && options->density_decay <= 1.0;
}

}  // namespace
}  // namespace faction

int main(int argc, char** argv) {
  faction::LoadgenOptions options;
  if (!faction::ParseArgs(argc, argv, &options)) return 2;
  return faction::Run(options);
}
