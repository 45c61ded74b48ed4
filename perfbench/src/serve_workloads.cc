// Workloads "serve_young" and "serve_aged": open-loop Poisson arrivals at
// a fixed ladder of absolute rates, offered from one generator thread to a
// ServeRuntime with two workers and program telemetry on. Latency runs
// from each arrival's due time to the moment the generator observes the
// session's step count pass it. See perfbench/README.md.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/telemetry.h"
#include "core/streaming_faction.h"
#include "density/fair_density.h"
#include "fairness/metrics.h"
#include "nn/mlp.h"
#include "nn/trainer.h"
#include "serve/checkpoint.h"
#include "serve/serve_runtime.h"
#include "serve/session.h"
#include "serve/state_codec.h"
#include "src/fingerprint.h"
#include "src/schedule.h"
#include "src/spans.h"
#include "src/stats.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

using faction::Example;
using faction::ServeRuntime;
using faction::ServeSession;

constexpr int kWorkers = 2;
/// Threads of the synchronous replays. Four (one per vCPU) slowed each
/// other: the same seed's replay read 9.3-12.5 CPU s on four threads and
/// 7.6-9.2 on two.
constexpr int kReplayThreads = 2;
/// WarmStart repeats; recovery_s is their median. About 5 s of work, so
/// the median spans the minutes-scale swings of a shared host's CPU speed
/// better than a shorter burst would.
constexpr int kRecoveryRepeats = 31;
constexpr std::size_t kInputDim = 6;
/// Arrivals per environment of a session's drifting stream.
constexpr std::size_t kEnvironmentLength = 1500;
/// Arrivals offered to both the live and the warm-started fleet after
/// recovery, whose decisions must agree bitwise.
constexpr std::size_t kNextArrivals = 64;
constexpr double kBacklogPeriodSeconds = 0.01;
constexpr std::size_t kSamplesBeyondP99 = 10;
constexpr double kDrainTimeoutSeconds = 90.0;

struct ServeConfig {
  std::string name;
  std::size_t sessions = 0;
  /// Arrivals each session absorbs during set-up (warm-up or aging).
  std::size_t age = 0;
  std::size_t density_window = 0;
  /// 0 = checkpoints off.
  std::size_t checkpoint_interval = 0;
  /// Absolute offered rates (arrivals/s), ascending, each held for its
  /// share of the run's seconds.
  std::vector<double> rates;
  std::vector<double> shares;
  std::size_t reference_rung = 0;
  double p99_limit_seconds = 0.0;
  std::size_t mailbox = 0;
  std::size_t probes_per_session = 0;
  /// Set-ups per run; setup_s is their median.
  int setup_repeats = 0;
  /// The span file keeps every trace_stride-th session and offer.
  std::uint64_t trace_stride = 1;
};

ServeConfig YoungConfig() {
  ServeConfig c;
  c.name = "serve_young";
  c.sessions = 1024;
  c.age = 64;
  c.rates = {10000, 15000, 25000, 35000};
  c.shares = {0.1, 0.7, 0.1, 0.1};
  c.reference_rung = 1;
  c.p99_limit_seconds = 0.020;
  c.mailbox = 256;
  c.probes_per_session = 256;
  c.setup_repeats = 9;
  c.trace_stride = 16;
  return c;
}

ServeConfig AgedConfig() {
  ServeConfig c;
  c.name = "serve_aged";
  c.sessions = 16;
  c.age = 6000;
  c.density_window = 256;
  c.checkpoint_interval = 256;
  c.rates = {1000, 3000, 4000, 5000};
  c.shares = {0.1, 0.7, 0.1, 0.1};
  c.reference_rung = 1;
  c.p99_limit_seconds = 0.050;
  c.mailbox = 2048;
  c.probes_per_session = 16384;
  c.setup_repeats = 3;
  c.trace_stride = 2;
  return c;
}

/// The serve loadgen's session learner configuration.
faction::StreamingFactionConfig SessionConfig(const ServeConfig& config,
                                              std::uint64_t seed) {
  faction::StreamingFactionConfig f;
  f.model.input_dim = kInputDim;
  f.model.hidden_dims = {8};
  f.model.num_classes = 2;
  f.train.epochs = 2;
  f.train.batch_size = 16;
  f.warm_start = 12;
  f.burn_in = 6;
  f.refit_interval = 20;
  f.density_window = config.density_window;
  f.seed = seed;
  return f;
}

double Seconds(std::int64_t ns) { return 1e-9 * static_cast<double>(ns); }

std::uint64_t LearnerSeed(std::uint64_t seed, std::size_t s) {
  return MixSeed(seed, 1000 + s);
}
std::uint64_t SourceSeed(std::uint64_t seed, std::size_t s) {
  return MixSeed(seed, 2000 + s);
}
std::uint64_t ProbeSeed(std::uint64_t seed, std::size_t s) {
  return MixSeed(seed, 3000 + s);
}

/// A serving fleet plus what the generator handed it.
struct Fleet {
  std::unique_ptr<ServeRuntime> runtime;
  std::vector<ServeSession*> sessions;
  std::vector<ArrivalSource> sources;
  /// Source draws each session's mailbox rejected (indices into its
  /// source's sequence); the replay skips them.
  std::vector<std::vector<std::size_t>> shed_draws;
};

/// Closed-loop feeding: offers `counts[s]` examples from next(s, &ex) to
/// each session, never more than the mailbox holds, so nothing is shed.
/// Each visit fills a session's mailbox as far as it goes, so a session
/// drains a batch per scheduled job rather than being woken per arrival.
/// Returns false when an Offer is still refused.
bool FeedClosedLoop(ServeRuntime* runtime,
                    const std::vector<ServeSession*>& sessions,
                    const std::vector<std::size_t>& counts,
                    const std::function<void(std::size_t, Example*)>& next) {
  std::vector<std::size_t> fed(sessions.size(), 0);
  std::vector<std::size_t> base(sessions.size());
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    base[s] = sessions[s]->steps();
  }
  Example ex;
  for (;;) {
    bool pending = false, progressed = false;
    for (std::size_t s = 0; s < sessions.size(); ++s) {
      if (fed[s] == counts[s]) continue;
      pending = true;
      const std::size_t done = sessions[s]->steps() - base[s];
      while (fed[s] < counts[s] &&
             fed[s] - done < sessions[s]->mailbox_capacity()) {
        next(s, &ex);
        if (!runtime->Offer(sessions[s], ex)) return false;
        ++fed[s];
        progressed = true;
      }
    }
    if (!pending) break;
    if (!progressed) std::this_thread::yield();
  }
  runtime->Drain();
  return true;
}

/// Set-up: runtime, sessions, aging/warm-up, and (aged) checkpoints.
bool BuildFleet(const ServeConfig& config, std::uint64_t seed,
                const std::vector<std::size_t>& scheduled,
                const std::string& checkpoint_dir, Fleet* fleet) {
  fleet->sessions.clear();
  fleet->sources.clear();
  fleet->runtime.reset();
  faction::ServeRuntimeOptions options;
  options.workers = kWorkers;
  options.max_sessions = config.sessions;
  options.mailbox_capacity = config.mailbox;
  options.record_latency = true;
  fleet->runtime = std::make_unique<ServeRuntime>(options);
  fleet->shed_draws.assign(config.sessions, {});
  for (std::size_t s = 0; s < config.sessions; ++s) {
    faction::ServeSessionOptions session;
    session.stream_id = s;
    session.faction = SessionConfig(config, LearnerSeed(seed, s));
    session.decision_log_capacity = config.age + scheduled[s] + kNextArrivals;
    fleet->sessions.push_back(fleet->runtime->CreateSession(session));
    fleet->sources.emplace_back(SourceSeed(seed, s), kInputDim,
                                kEnvironmentLength);
  }
  const std::vector<std::size_t> counts(config.sessions, config.age);
  if (!FeedClosedLoop(fleet->runtime.get(), fleet->sessions, counts,
                      [&](std::size_t s, Example* ex) {
                        fleet->sources[s].Next(ex);
                      })) {
    return false;
  }
  if (config.checkpoint_interval > 0) {
    std::filesystem::remove_all(checkpoint_dir);
    std::filesystem::create_directories(checkpoint_dir);
    faction::CheckpointOptions checkpoints;
    checkpoints.dir = checkpoint_dir;
    checkpoints.interval_steps = config.checkpoint_interval;
    fleet->runtime->EnableCheckpoints(checkpoints);
  }
  return true;
}

struct LoadResult {
  bool drained = false;
  /// CPU seconds the process spent from the start of the load until the
  /// fleet drained, less the generator thread's: the serve workers'
  /// execution, mailbox and job-system scheduling, parking and waking,
  /// telemetry and background checkpoint jobs.
  double serve_cpu_seconds = 0.0;
  std::size_t accepted = 0;
  /// Per scheduled arrival: due-to-completion seconds, +inf when shed.
  std::vector<double> latency;
  /// Per rung.
  std::vector<std::vector<double>> lag;
  std::vector<std::vector<double>> backlog;
  std::vector<std::size_t> attempted;
  std::vector<std::size_t> failed;
};

/// The open-loop generator. Arrival i is due at t0 + schedule[i].due no
/// matter how late earlier arrivals ran (a stall is never clamped away).
/// While waiting for the next due time it polls sessions with arrivals in
/// flight and stamps completions.
LoadResult RunLoad(Fleet* fleet, const std::vector<ScheduledArrival>& schedule,
                   std::size_t rungs, SpanRecorder* spans) {
  const std::size_t n = schedule.size();
  const std::size_t sessions = fleet->sessions.size();
  LoadResult result;
  result.latency.assign(n, std::numeric_limits<double>::infinity());
  result.lag.assign(rungs, {});
  result.backlog.assign(rungs, {});
  result.attempted.assign(rungs, 0);
  result.failed.assign(rungs, 0);

  // Per-session FIFO of in-flight arrival indices. It can hold more than
  // the mailbox (completions are observed late), so it is twice the size
  // and a full FIFO is polled before the push.
  const std::size_t fifo = 2 * fleet->sessions[0]->mailbox_capacity();
  std::vector<std::uint32_t> pending(sessions * fifo);
  std::vector<std::size_t> head(sessions, 0), count(sessions, 0);
  std::vector<std::size_t> base(sessions), seen(sessions, 0);
  for (std::size_t s = 0; s < sessions; ++s) {
    base[s] = fleet->sessions[s]->steps();
  }
  std::vector<std::uint32_t> active;
  std::vector<std::int64_t> due_ns(n);
  std::size_t accepted = 0, completed = 0;

  const auto poll_session = [&](std::size_t s, std::int64_t now) {
    const std::size_t done = fleet->sessions[s]->steps() - base[s];
    while (seen[s] < done) {
      const std::uint32_t i = pending[s * fifo + head[s]];
      head[s] = (head[s] + 1) % fifo;
      --count[s];
      ++seen[s];
      ++completed;
      result.latency[i] = Seconds(now - due_ns[i]);
    }
  };
  const auto poll = [&](std::int64_t now) {
    for (std::size_t k = 0; k < active.size();) {
      const std::uint32_t s = active[k];
      poll_session(s, now);
      if (count[s] == 0) {
        active[k] = active.back();
        active.pop_back();
      } else {
        ++k;
      }
    }
  };

  const double process_cpu_start = ProcessCpuSeconds();
  const double generator_cpu_start = ThreadCpuSeconds();
  const std::int64_t t0 = SpanRecorder::NowNs() + 1000000;
  for (std::size_t i = 0; i < n; ++i) {
    due_ns[i] = t0 + static_cast<std::int64_t>(schedule[i].due * 1e9);
  }
  const std::int64_t backlog_period =
      static_cast<std::int64_t>(kBacklogPeriodSeconds * 1e9);
  std::int64_t next_backlog = t0;
  Example ex;
  for (std::size_t i = 0; i < n; ++i) {
    const ScheduledArrival& arrival = schedule[i];
    const std::size_t s = arrival.session;
    fleet->sources[s].Next(&ex);
    std::int64_t now = SpanRecorder::NowNs();
    while (now < due_ns[i]) {
      poll(now);
      now = SpanRecorder::NowNs();
    }
    result.lag[arrival.rung].push_back(Seconds(now - due_ns[i]));
    ++result.attempted[arrival.rung];
    const std::int32_t span =
        spans != nullptr ? spans->Begin("serve.offer", SpanRecorder::kNoParent,
                                        i)
                         : 0;
    const bool ok = fleet->runtime->Offer(fleet->sessions[s], ex);
    if (spans != nullptr) spans->End(span);
    if (ok) {
      if (count[s] == fifo) poll_session(s, SpanRecorder::NowNs());
      pending[s * fifo + (head[s] + count[s]) % fifo] =
          static_cast<std::uint32_t>(i);
      if (count[s]++ == 0) active.push_back(static_cast<std::uint32_t>(s));
      ++accepted;
    } else {
      ++result.failed[arrival.rung];
      fleet->shed_draws[s].push_back(fleet->sources[s].drawn() - 1);
    }
    // Keep completion stamps fresh while the generator runs behind.
    if ((i & 15) == 0) poll(SpanRecorder::NowNs());
    if (now >= next_backlog) {
      result.backlog[arrival.rung].push_back(
          static_cast<double>(accepted - completed));
      next_backlog += backlog_period;
    }
  }
  const std::int64_t deadline =
      SpanRecorder::NowNs() +
      static_cast<std::int64_t>(kDrainTimeoutSeconds * 1e9);
  while (completed < accepted) {
    const std::int64_t now = SpanRecorder::NowNs();
    if (now > deadline) return result;
    poll(now);
  }
  fleet->runtime->Drain();
  result.drained = true;
  result.accepted = accepted;
  result.serve_cpu_seconds =
      (ProcessCpuSeconds() - process_cpu_start) -
      (ThreadCpuSeconds() - generator_cpu_start);
  return result;
}

/// Fleet-pooled quality of the sessions' current models on fresh probe
/// arrivals drawn at each session's current age. Each probe is also
/// evaluated in the other group (ArrivalSource::OtherGroup): the traffic's
/// groups differ only by a small shift, so two independent group samples
/// would bury the gap ddp and eod measure under sampling noise.
struct Quality {
  double accuracy = 0.0, ddp = 0.0, eod = 0.0;
  bool ok = false;
};

Quality ProbeQuality(const ServeConfig& config, std::uint64_t seed,
                     const Fleet& fleet) {
  std::vector<int> yhat, labels, sensitive;
  Example drawn, other;
  for (std::size_t s = 0; s < fleet.sessions.size(); ++s) {
    ArrivalSource probe(ProbeSeed(seed, s), kInputDim,
                        kEnvironmentLength,
                        fleet.sessions[s]->steps());
    for (std::size_t k = 0; k < config.probes_per_session; ++k) {
      probe.Next(&drawn);
      ArrivalSource::OtherGroup(drawn, &other);
      for (const Example* ex : {&drawn, &other}) {
        const faction::Result<int> predicted =
            fleet.sessions[s]->faction().Predict(ex->x);
        if (!predicted.ok()) return {};
        yhat.push_back(predicted.value());
        labels.push_back(ex->label);
        sensitive.push_back(ex->sensitive);
      }
    }
  }
  const faction::Result<double> accuracy = faction::Accuracy(yhat, labels);
  const faction::Result<double> ddp =
      faction::DemographicParityDifference(yhat, sensitive);
  const faction::Result<double> eod =
      faction::EqualizedOddsDifference(yhat, labels, sensitive);
  if (!accuracy.ok() || !ddp.ok() || !eod.ok()) return {};
  return Quality{accuracy.value(), ddp.value(), eod.value(), true};
}

/// Regenerates the accepted arrivals of session s, in order, skipping the
/// draws its mailbox shed: calls visit(k, ex) for accepted arrival k.
void ForEachAccepted(std::uint64_t seed, const Fleet& fleet, std::size_t s,
                     const std::function<void(std::size_t, const Example&)>&
                         visit) {
  ArrivalSource source(SourceSeed(seed, s), kInputDim,
                       kEnvironmentLength);
  const std::vector<std::size_t>& shed = fleet.shed_draws[s];
  const std::size_t draws = fleet.sources[s].drawn();
  std::size_t next_shed = 0, k = 0;
  Example ex;
  for (std::size_t d = 0; d < draws; ++d) {
    source.Next(&ex);
    if (next_shed < shed.size() && shed[next_shed] == d) {
      ++next_shed;
      continue;
    }
    visit(k++, ex);
  }
}

/// Runs body(t, s) for every session s on kReplayThreads threads t
/// (sessions strided across threads). Returns the CPU seconds the threads
/// spent, which unlike wall time does not count time the host took the
/// CPU away.
double ParallelSessions(std::size_t sessions,
                        const std::function<void(int, std::size_t)>& body) {
  std::vector<double> cpu_seconds(kReplayThreads, 0.0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kReplayThreads; ++t) {
    threads.emplace_back([&, t] {
      // Sessions are independent; keep each replay on its own thread the
      // way a serve worker runs it.
      faction::ScopedForceSerialParallel serial;
      const double start = ThreadCpuSeconds();
      for (std::size_t s = static_cast<std::size_t>(t); s < sessions;
           s += kReplayThreads) {
        body(t, s);
      }
      cpu_seconds[t] = ThreadCpuSeconds() - start;
    });
  }
  for (std::thread& thread : threads) thread.join();
  double total = 0.0;
  for (double seconds : cpu_seconds) total += seconds;
  return total;
}

/// The parity oracle: every session's accepted arrivals replayed through a
/// synchronous (workers = 0) runtime. Returns the replayed decision logs
/// and sets the replay's wall and CPU seconds.
std::vector<std::vector<std::uint8_t>> SyncReplay(const ServeConfig& config,
                                                  std::uint64_t seed,
                                                  const Fleet& fleet,
                                                  double* wall_seconds,
                                                  double* cpu_seconds) {
  const std::size_t sessions = fleet.sessions.size();
  std::vector<std::vector<std::uint8_t>> decisions(sessions);
  const std::int64_t start = SpanRecorder::NowNs();
  std::vector<std::unique_ptr<ServeRuntime>> runtimes(kReplayThreads);
  *cpu_seconds = ParallelSessions(sessions, [&](int t, std::size_t s) {
    if (!runtimes[t]) {
      faction::ServeRuntimeOptions options;
      options.workers = 0;
      options.max_sessions = sessions;
      options.mailbox_capacity = 4;
      options.record_latency = false;
      runtimes[t] = std::make_unique<ServeRuntime>(options);
    }
    faction::ServeSessionOptions session;
    session.stream_id = s;
    session.faction = SessionConfig(config, LearnerSeed(seed, s));
    session.decision_log_capacity = fleet.sessions[s]->decisions().size();
    ServeSession* replica = runtimes[t]->CreateSession(session);
    ForEachAccepted(seed, fleet, s, [&](std::size_t, const Example& ex) {
      runtimes[t]->Offer(replica, ex);
    });
    decisions[s] = replica->decisions();
  });
  *wall_seconds = Seconds(SpanRecorder::NowNs() - start);
  return decisions;
}

/// Per-arrival costs from a replay that calls StreamingFaction directly.
struct RefitRecord {
  std::size_t age = 0;
  std::size_t pool_rows = 0;
  double seconds = 0.0;
};

struct CoreReplay {
  double wall_seconds = 0.0;
  bool decisions_match = true;
  /// Per session, per accepted arrival: service seconds (spans only).
  std::vector<std::vector<double>> service;
  std::vector<double> should_query_ns, fold_ns;
  std::vector<RefitRecord> refits;
  std::size_t arrivals = 0, queries = 0;
  SpanRecorder spans;
};

/// Replays every session on StreamingFaction directly (kReplayThreads
/// threads). With `traced`, each arrival is a "core.step" span with
/// "core.should_query" and "core.fold" or "core.refit" children; a labeled
/// arrival is a refit exactly when the learner's refit rule fires
/// (refit_interval labels since the last refit, or the first pool of
/// warm_start labels), which the telemetry replay cross-checks against the
/// program's own "streaming.refit" counter.
CoreReplay ReplayCore(const ServeConfig& config, std::uint64_t seed,
                      const Fleet& fleet, bool traced) {
  const std::size_t sessions = fleet.sessions.size();
  CoreReplay out;
  out.service.assign(sessions, {});
  std::vector<SpanRecorder> recorders(kReplayThreads);
  std::vector<CoreReplay> partial(kReplayThreads);
  const std::int64_t start = SpanRecorder::NowNs();
  ParallelSessions(sessions, [&](int t, std::size_t s) {
    CoreReplay& mine = partial[t];
    SpanRecorder& spans = recorders[t];
    const faction::StreamingFactionConfig fc =
        SessionConfig(config, LearnerSeed(seed, s));
    faction::StreamingFaction learner(fc);
    const std::vector<std::uint8_t>& live = fleet.sessions[s]->decisions();
    std::size_t since_refit = 0;
    bool trained = false;
    std::vector<double>& service = out.service[s];
    ForEachAccepted(seed, fleet, s, [&](std::size_t k, const Example& ex) {
      const std::uint64_t group = (static_cast<std::uint64_t>(s) << 32) | k;
      const std::int32_t step =
          traced ? spans.Begin("core.step", SpanRecorder::kNoParent, group)
                 : 0;
      std::int32_t child =
          traced ? spans.Begin("core.should_query", step, group) : 0;
      const faction::Result<bool> query = learner.ShouldQuery(ex);
      if (traced) mine.should_query_ns.push_back(spans.End(child));
      const bool take = query.ok() && query.value();
      if (!query.ok() || k >= live.size() || live[k] != (take ? 1 : 0)) {
        mine.decisions_match = false;
      }
      if (take) {
        const std::size_t pool_rows = learner.pool_size() + 1;
        ++since_refit;
        const bool refit = since_refit >= fc.refit_interval ||
                           (!trained && pool_rows >= fc.warm_start);
        if (traced) {
          child = spans.Begin(refit ? "core.refit" : "core.fold", step,
                              group);
        }
        if (!learner.ProvideLabel(ex).ok()) mine.decisions_match = false;
        if (traced) {
          const std::int64_t ns = spans.End(child);
          if (refit) {
            mine.refits.push_back(RefitRecord{k, pool_rows, 1e-9 * ns});
          } else {
            mine.fold_ns.push_back(static_cast<double>(ns));
          }
        }
        if (refit) {
          since_refit = 0;
          trained = true;
        }
        ++mine.queries;
      }
      if (traced) service.push_back(1e-9 * spans.End(step));
      ++mine.arrivals;
    });
    if (learner.samples_seen() != live.size()) mine.decisions_match = false;
  });
  out.wall_seconds = Seconds(SpanRecorder::NowNs() - start);
  for (int t = 0; t < kReplayThreads; ++t) {
    CoreReplay& p = partial[t];
    out.decisions_match = out.decisions_match && p.decisions_match;
    out.should_query_ns.insert(out.should_query_ns.end(),
                               p.should_query_ns.begin(),
                               p.should_query_ns.end());
    out.fold_ns.insert(out.fold_ns.end(), p.fold_ns.begin(), p.fold_ns.end());
    out.refits.insert(out.refits.end(), p.refits.begin(), p.refits.end());
    out.arrivals += p.arrivals;
    out.queries += p.queries;
    out.spans.Append(std::move(recorders[t]));
  }
  return out;
}

template <typename Fn>
double MedianSeconds(int repeats, Fn&& fn) {
  std::vector<double> times;
  for (int r = 0; r < repeats; ++r) {
    const std::int64_t start = SpanRecorder::NowNs();
    fn();
    times.push_back(Seconds(SpanRecorder::NowNs() - start));
  }
  return Median(times);
}

/// nn and density layer costs on one session's pool, taken through
/// CaptureSessionState.
void TimeRefitLayers(const ServeSession& session, Report* report) {
  faction::SessionState state;
  faction::CaptureSessionState(session.faction(), &state);
  faction::Dataset pool(state.config.model.input_dim);
  Example ex;
  for (std::size_t i = 0; i < state.pool_size; ++i) {
    const double* row = state.pool_features.row_data(i);
    ex.x.assign(row, row + state.pool_features.cols());
    ex.label = state.pool_labels[i];
    ex.sensitive = state.pool_sensitive[i];
    ex.environment = state.pool_environments[i];
    if (!pool.Append(ex).ok()) {
      report->Fail("could not rebuild the captured pool");
      return;
    }
  }
  // Serve workers run every learner call with the parallel layer forced
  // serial; time the layers the same way.
  faction::ScopedForceSerialParallel serial;
  faction::Rng rng(state.config.seed);
  faction::MlpClassifier model(state.config.model, &rng);
  faction::Workspace workspace;
  bool ok = true;
  const double train_s = MedianSeconds(3, [&] {
    ok = ok && faction::TrainClassifier(&model, pool, state.config.train,
                                        &rng, &workspace)
                   .ok();
  });
  const faction::Matrix features = model.ExtractFeatures(pool.features());
  faction::CovarianceConfig covariance = state.config.covariance;
  covariance.forgetting = state.config.density_window > 0 ||
                          state.config.density_decay < 1.0;
  const double fit_s = MedianSeconds(3, [&] {
    ok = ok && faction::FairDensityEstimator::Fit(features, pool.labels(),
                                                  pool.sensitive(), covariance)
                   .ok();
  });
  if (!ok) report->Fail("nn/density layer timing failed");
  report->Add("nn.train_ms", 1e3 * train_s, "ms");
  report->Add("density.fit_ms", 1e3 * fit_s, "ms");
  report->Add("nn.pool_rows", static_cast<double>(state.pool_size), "count");
}

/// serve/checkpoint + state_codec costs on one idle session.
void TimeCheckpointLayers(const ServeSession& session, Report* report) {
  faction::SessionState state;
  faction::CaptureSessionState(session.faction(), &state);  // warm buffers
  const double capture_s = MedianSeconds(5, [&] {
    faction::CaptureSessionState(session.faction(), &state);
  });
  std::string encoded;
  const double encode_s =
      MedianSeconds(3, [&] { faction::EncodeSessionState(state, &encoded); });
  bool ok = true;
  faction::SessionState decoded;
  const double decode_s = MedianSeconds(3, [&] {
    std::istringstream in(encoded);
    ok = ok && faction::DecodeSessionState(in, "perfbench", &decoded).ok();
  });
  const double restore_s = MedianSeconds(3, [&] {
    faction::StreamingFaction restored(decoded.config);
    ok = ok && faction::RestoreSessionState(decoded, &restored).ok();
  });
  if (!ok) report->Fail("checkpoint codec round trip failed");
  report->Add("checkpoint.capture_us", 1e6 * capture_s, "us");
  report->Add("checkpoint.encode_ms", 1e3 * encode_s, "ms");
  report->Add("checkpoint.bytes", static_cast<double>(encoded.size()), "B");
  report->Add("checkpoint.decode_ms", 1e3 * decode_s, "ms");
  report->Add("checkpoint.restore_ms", 1e3 * restore_s, "ms");
}

std::uint64_t Counter(const char* name) {
  const faction::Telemetry* t = faction::Telemetry::Get();
  return t == nullptr ? 0 : t->CounterValue(name);
}

/// Warm-starts the fleet from its manifest `kRecoveryRepeats` times, then
/// checks the last recovered fleet against the live one: catch-up arrivals
/// from each checkpoint to the live step count, then kNextArrivals new
/// arrivals to both, must produce bitwise-equal decisions. Returns the
/// median CPU seconds of the calling thread per WarmStart, which restores
/// the sessions one by one on that thread: its wall time on a quiet host,
/// without the time a shared host takes the CPU away.
double RecoverAndCompare(const ServeConfig& config, std::uint64_t seed,
                         Fleet* fleet, double* lag_steps, Report* report) {
  faction::CheckpointManager* checkpoints = fleet->runtime->checkpoints();
  checkpoints->Flush();
  if (checkpoints->failures() != 0) {
    report->Fail("checkpoint manager reported " +
                 std::to_string(checkpoints->failures()) + " failures");
  }
  const std::string manifest = checkpoints->ManifestPath();
  const faction::Result<std::vector<faction::CheckpointManifestEntry>>
      entries = faction::CheckpointManager::ReadManifest(manifest);
  if (!entries.ok() || entries.value().size() != fleet->sessions.size()) {
    report->Fail("manifest missing or incomplete");
    return 0.0;
  }
  std::map<std::uint64_t, std::size_t> checkpoint_steps;
  double lag = 0.0;
  std::size_t max_lag = 0;
  for (const faction::CheckpointManifestEntry& entry : entries.value()) {
    const std::size_t live = fleet->sessions[entry.stream_id]->steps();
    checkpoint_steps[entry.stream_id] = entry.steps;
    lag += static_cast<double>(live - entry.steps);
    max_lag = std::max<std::size_t>(max_lag, live - entry.steps);
  }
  *lag_steps = lag / static_cast<double>(entries.value().size());

  std::unique_ptr<ServeRuntime> recovered;
  std::vector<double> times;
  for (int r = 0; r < kRecoveryRepeats; ++r) {
    faction::ServeRuntimeOptions options;
    options.workers = kWorkers;
    options.max_sessions = config.sessions;
    options.mailbox_capacity = config.mailbox;
    recovered.reset();
    recovered = std::make_unique<ServeRuntime>(options);
    faction::WarmStartOptions warm;
    warm.decision_log_capacity = max_lag + kNextArrivals;
    const double start = ThreadCpuSeconds();
    const faction::Result<faction::WarmStartReport> warmed =
        recovered->WarmStart(manifest, warm);
    times.push_back(ThreadCpuSeconds() - start);
    if (!warmed.ok() || warmed.value().sessions != config.sessions) {
      report->Fail("WarmStart failed: " +
                   (warmed.ok() ? std::string("session count")
                                : warmed.status().ToString()));
      return Median(times);
    }
  }

  // Catch-up arrivals [checkpoint steps, live steps) to the recovered fleet.
  std::vector<ServeSession*> restored(config.sessions);
  std::vector<std::vector<Example>> catch_up(config.sessions);
  std::vector<std::size_t> counts(config.sessions);
  for (std::size_t s = 0; s < config.sessions; ++s) {
    restored[s] = recovered->registry().Find(s);
    const std::size_t from = checkpoint_steps[s];
    ForEachAccepted(seed, *fleet, s, [&](std::size_t k, const Example& ex) {
      if (k >= from) catch_up[s].push_back(ex);
    });
    counts[s] = catch_up[s].size();
  }
  std::vector<std::size_t> cursor(config.sessions, 0);
  bool fed = FeedClosedLoop(recovered.get(), restored, counts,
                            [&](std::size_t s, Example* ex) {
                              *ex = catch_up[s][cursor[s]++];
                            });
  // kNextArrivals fresh arrivals to both fleets.
  std::vector<std::vector<Example>> next(config.sessions);
  for (std::size_t s = 0; s < config.sessions; ++s) {
    next[s].resize(kNextArrivals);
    for (Example& ex : next[s]) fleet->sources[s].Next(&ex);
  }
  const std::vector<std::size_t> next_counts(config.sessions, kNextArrivals);
  std::vector<std::size_t> live_cursor(config.sessions, 0);
  std::vector<std::size_t> restored_cursor(config.sessions, 0);
  fed = fed && FeedClosedLoop(fleet->runtime.get(), fleet->sessions,
                              next_counts, [&](std::size_t s, Example* ex) {
                                *ex = next[s][live_cursor[s]++];
                              });
  fed = fed && FeedClosedLoop(recovered.get(), restored, next_counts,
                              [&](std::size_t s, Example* ex) {
                                *ex = next[s][restored_cursor[s]++];
                              });
  if (!fed) report->Fail("an arrival was refused after recovery");
  for (std::size_t s = 0; s < config.sessions; ++s) {
    const std::vector<std::uint8_t>& live = fleet->sessions[s]->decisions();
    const std::vector<std::uint8_t> expected(
        live.begin() + static_cast<std::ptrdiff_t>(checkpoint_steps[s]),
        live.end());
    const std::ptrdiff_t at = FirstMismatch(expected, restored[s]->decisions());
    if (at >= 0) {
      report->Fail("warm-started session " + std::to_string(s) +
                   " diverges from the live fleet at arrival " +
                   std::to_string(checkpoint_steps[s] +
                                  static_cast<std::size_t>(at)));
    }
  }
  std::cerr << config.name << ": WarmStart CPU seconds median "
            << Median(times) << ", min "
            << *std::min_element(times.begin(), times.end()) << ", max "
            << *std::max_element(times.begin(), times.end()) << " over "
            << times.size() << "\n";
  return Median(times);
}

}  // namespace

std::ptrdiff_t FirstMismatch(const std::vector<std::uint8_t>& expected,
                             const std::vector<std::uint8_t>& actual) {
  const std::size_t n = std::min(expected.size(), actual.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (expected[i] != actual[i]) return static_cast<std::ptrdiff_t>(i);
  }
  if (expected.size() != actual.size()) return static_cast<std::ptrdiff_t>(n);
  return -1;
}

void RunServeWorkload(const Options& options, Report* report) {
  const ServeConfig config =
      options.workload == "serve_aged" ? AgedConfig() : YoungConfig();
  const std::string checkpoint_dir =
      options.work_dir + "/checkpoints-" + config.name;

  // Set-up, repeated: schedule, sessions, aging; the last fleet serves.
  std::vector<Rung> rungs;
  for (std::size_t r = 0; r < config.rates.size(); ++r) {
    rungs.push_back(
        Rung{config.rates[r],
             config.shares[r] * static_cast<double>(options.seconds)});
  }
  std::vector<ScheduledArrival> schedule;
  std::vector<double> setup_seconds, schedule_seconds;
  Fleet fleet;
  for (int r = 0; r < config.setup_repeats; ++r) {
    const std::int64_t start = SpanRecorder::NowNs();
    schedule = BuildSchedule(options.seed, rungs, config.sessions);
    schedule_seconds.push_back(Seconds(SpanRecorder::NowNs() - start));
    std::vector<std::size_t> scheduled(config.sessions, 0);
    for (const ScheduledArrival& a : schedule) ++scheduled[a.session];
    if (!BuildFleet(config, options.seed, scheduled, checkpoint_dir,
                    &fleet)) {
      report->Fail("set-up was refused an arrival");
      return;
    }
    setup_seconds.push_back(Seconds(SpanRecorder::NowNs() - start));
  }
  std::cerr << config.name << ": set-up seconds";
  for (double s : setup_seconds) std::cerr << " " << s;
  std::cerr << "\n";

  // Load: the ladder, open loop, telemetry on.
  faction::Telemetry::Enable()->Reset();
  SpanRecorder load_spans(options.trace ? schedule.size() : 0);
  const LoadResult load = RunLoad(&fleet, schedule, rungs.size(),
                                  options.trace ? &load_spans : nullptr);
  const std::uint64_t stolen = Counter("serve.jobs.stolen");
  const std::uint64_t parked = Counter("serve.workers.parked");
  const std::uint64_t skipped = Counter("serve.checkpoint.skipped_busy");
  const std::uint64_t gemm_calls = Counter("simd.gemm_calls");
  const double gemm_flops =
      faction::Telemetry::Get()->HistogramFor("simd.gemm_flops").sum;
  faction::Telemetry::Disable();
  std::size_t attempted = 0, failed = 0;
  for (std::size_t r = 0; r < rungs.size(); ++r) {
    attempted += load.attempted[r];
    failed += load.failed[r];
  }
  report->set_attempted(attempted);
  report->set_failed(failed);
  if (!load.drained) {
    report->Fail("fleet did not drain within the timeout");
    return;
  }

  // Latencies per rung and per window; a window holds about as many
  // arrivals as a p99 needs for ten samples beyond it, and a rung's p50/p99
  // are the medians over its windows.
  const double window_arrivals =
      static_cast<double>(SamplesNeeded(0.99, kSamplesBeyondP99));
  std::vector<double> rung_start(rungs.size(), 0.0);
  for (std::size_t r = 1; r < rungs.size(); ++r) {
    rung_start[r] = rung_start[r - 1] + rungs[r - 1].seconds;
  }
  std::vector<std::vector<std::vector<double>>> windows(rungs.size());
  for (std::size_t r = 0; r < rungs.size(); ++r) {
    windows[r].resize(static_cast<std::size_t>(
        std::ceil(rungs[r].seconds * rungs[r].rate / window_arrivals)));
  }
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const std::size_t r = schedule[i].rung;
    const std::size_t w = std::min(
        windows[r].size() - 1,
        static_cast<std::size_t>((schedule[i].due - rung_start[r]) *
                                 rungs[r].rate / window_arrivals));
    windows[r][w].push_back(load.latency[i]);
  }
  std::vector<RungOutcome> outcomes(rungs.size());
  std::vector<WindowedQuantile> p50(rungs.size()), p99(rungs.size());
  for (std::size_t r = 0; r < rungs.size(); ++r) {
    p50[r] = MedianOfWindows(&windows[r], 0.50);
    p99[r] = MedianOfWindows(&windows[r], 0.99);
    outcomes[r].rate = rungs[r].rate;
    outcomes[r].p99_seconds = p99[r].value;
    outcomes[r].attempted = load.attempted[r];
    outcomes[r].failed = load.failed[r];
    outcomes[r].backlog_growing =
        BacklogGrowing(load.backlog[r], 16.0 + 0.02 * rungs[r].rate);
    std::vector<double> lag = load.lag[r];
    std::cerr << config.name << ": rung " << rungs[r].rate << "/s attempted "
              << outcomes[r].attempted << " failed " << outcomes[r].failed
              << " p50 " << p50[r].value << " p99 " << p99[r].value
              << " lag_p99 " << NearestRank(&lag, 0.99).value
              << " backlog_growing " << outcomes[r].backlog_growing << "\n";
  }
  const std::size_t ref = config.reference_rung;
  const Quality quality = ProbeQuality(config, options.seed, fleet);
  if (!quality.ok) report->Fail("quality probe failed");

  if (options.trace) {
    TimeRefitLayers(*fleet.sessions[0], report);
    if (config.checkpoint_interval > 0) {
      TimeCheckpointLayers(*fleet.sessions[0], report);
    }
  }

  // Output check: every session's decision log equals a synchronous
  // replay of the arrivals it accepted.
  double replay_seconds = 0.0, replay_cpu_seconds = 0.0;
  std::vector<std::vector<std::uint8_t>> replayed = SyncReplay(
      config, options.seed, fleet, &replay_seconds, &replay_cpu_seconds);
  if (options.plant_mismatch && !replayed[0].empty()) {
    replayed[0].back() ^= 1;
  }
  for (std::size_t s = 0; s < config.sessions; ++s) {
    const std::ptrdiff_t at =
        FirstMismatch(replayed[s], fleet.sessions[s]->decisions());
    if (at >= 0) {
      report->Fail("session " + std::to_string(s) +
                   " decision log differs from its synchronous replay at "
                   "arrival " +
                   std::to_string(at));
    }
  }

  // Traced run: replays on StreamingFaction directly, plain, with
  // telemetry, and with spans.
  CoreReplay plain, telemetry_on, traced;
  if (options.trace) {
    plain = ReplayCore(config, options.seed, fleet, false);
    faction::Telemetry::Enable()->Reset();
    telemetry_on = ReplayCore(config, options.seed, fleet, false);
    const std::uint64_t program_refits = Counter("streaming.refit");
    faction::Telemetry::Disable();
    traced = ReplayCore(config, options.seed, fleet, true);
    if (!plain.decisions_match || !telemetry_on.decisions_match ||
        !traced.decisions_match) {
      report->Fail("StreamingFaction replay differs from the served log");
    }
    if (program_refits != traced.refits.size()) {
      report->Fail("refit classification disagrees with streaming.refit (" +
                   std::to_string(traced.refits.size()) + " vs " +
                   std::to_string(program_refits) + ")");
    }
  }

  double recovery_s = replay_seconds;  // without checkpoints: log replay
  double lag_steps = 0.0;
  if (config.checkpoint_interval > 0) {
    recovery_s =
        RecoverAndCompare(config, options.seed, &fleet, &lag_steps, report);
  }

  if (!options.trace) {
    report->Add("setup_s", Median(setup_seconds), "s");
    report->Add("stream_s", replay_cpu_seconds, "s");
    report->Add("cpu_us_per_arrival",
                1e6 * load.serve_cpu_seconds /
                    static_cast<double>(std::max<std::size_t>(load.accepted,
                                                              1)),
                "us");
    report->Add("accuracy", quality.accuracy, "fraction");
    report->Add("ddp", quality.ddp, "fraction");
    report->Add("eod", quality.eod, "fraction");
    report->Add("sustained_rate",
                SustainedRate(outcomes, config.p99_limit_seconds), "1/s");
    report->Add("recovery_s", recovery_s, "s");
    report->Add("rss_mb", PeakRssMb(), "MB");
    std::cerr << config.name << ": reference rung " << config.rates[ref]
              << "/s, p99 = median over " << p99[ref].windows
              << " windows of >= " << p99[ref].min_count << " samples (>= "
              << p99[ref].min_beyond << " beyond p99)\n";
    return;
  }

  // serve layer.
  std::vector<double> offer_us;
  for (const SpanRecorder::Span& span : load_spans.spans()) {
    if (schedule[span.group].rung == ref) {
      offer_us.push_back(1e-3 * static_cast<double>(span.end_ns -
                                                     span.start_ns));
    }
  }
  std::vector<double> lag = load.lag[ref];
  double backlog_max = 0.0;
  for (double b : load.backlog[ref]) backlog_max = std::max(backlog_max, b);
  // Wait share at the reference rung: latency not explained by the
  // arrival's replayed service time.
  double latency_sum = 0.0, service_sum = 0.0;
  std::vector<std::size_t> position(config.sessions, config.age);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const std::size_t s = schedule[i].session;
    if (!std::isfinite(load.latency[i])) continue;
    const std::size_t k = position[s]++;
    if (schedule[i].rung == ref && k < traced.service[s].size()) {
      latency_sum += load.latency[i];
      service_sum += traced.service[s][k];
    }
  }
  report->Add("serve.step_p50_s", p50[ref].value, "s");
  report->Add("serve.step_p99_s", p99[ref].value, "s");
  report->Add("serve.offer_us_p99", NearestRank(&offer_us, 0.99).value, "us");
  report->Add("serve.gen_lag_p99_s", NearestRank(&lag, 0.99).value, "s");
  report->Add("serve.backlog_max", backlog_max, "count");
  report->Add("serve.wait_share",
              latency_sum > 0.0 ? 1.0 - service_sum / latency_sum : 0.0,
              "fraction");
  report->Add("serve.jobs_stolen", static_cast<double>(stolen), "count");
  report->Add("serve.workers_parked", static_cast<double>(parked), "count");

  // core layer.
  std::vector<double> sq = traced.should_query_ns;
  std::vector<double> fold = traced.fold_ns;
  report->Add("core.should_query_ns_p50", NearestRank(&sq, 0.5).value, "ns");
  report->Add("core.should_query_ns_p99", NearestRank(&sq, 0.99).value, "ns");
  report->Add("core.fold_ns_p50", NearestRank(&fold, 0.5).value, "ns");
  report->Add("core.fold_ns_p99", NearestRank(&fold, 0.99).value, "ns");
  struct AgeBucket {
    const char* suffix;
    std::size_t lo, hi;
  };
  const AgeBucket buckets[] = {{"age_0_1k", 0, 1000},
                               {"age_1k_4k", 1000, 4000},
                               {"age_4k_up", 4000,
                                std::numeric_limits<std::size_t>::max()}};
  double refit_total = 0.0, pool_rows = 0.0;
  for (const RefitRecord& refit : traced.refits) {
    refit_total += refit.seconds;
    pool_rows += static_cast<double>(refit.pool_rows);
  }
  for (const AgeBucket& bucket : buckets) {
    std::vector<double> ms;
    for (const RefitRecord& refit : traced.refits) {
      if (refit.age >= bucket.lo && refit.age < bucket.hi) {
        ms.push_back(1e3 * refit.seconds);
      }
    }
    const std::string suffix = std::string(".") + bucket.suffix;
    report->Add("core.refit_ms_p50" + suffix, NearestRank(&ms, 0.5).value,
                "ms");
    report->Add("core.refit_ms_p99" + suffix, NearestRank(&ms, 0.99).value,
                "ms");
    report->Add("core.refits" + suffix, static_cast<double>(ms.size()),
                "count");
  }
  double step_total = 0.0;
  for (const std::vector<double>& per_session : traced.service) {
    for (double s : per_session) step_total += s;
  }
  report->Add("core.refit_share",
              step_total > 0.0 ? refit_total / step_total : 0.0, "fraction");
  const double arrivals =
      static_cast<double>(std::max<std::size_t>(traced.arrivals, 1));
  report->Add("core.query_rate",
              static_cast<double>(traced.queries) / arrivals, "fraction");
  report->Add("core.pool_rows_mean",
              traced.refits.empty()
                  ? 0.0
                  : pool_rows / static_cast<double>(traced.refits.size()),
              "count");

  if (config.checkpoint_interval > 0) {
    report->Add("checkpoint.skipped_busy", static_cast<double>(skipped),
                "count");
    report->Add("checkpoint.lag_steps", lag_steps, "count");
  }
  report->Add("parallel.threads", faction::ParallelThreadCount(), "count");
  report->Add("telemetry.overhead_frac",
              telemetry_on.wall_seconds / plain.wall_seconds - 1.0,
              "fraction");
  report->Add("tensor.gemm_calls", static_cast<double>(gemm_calls), "count");
  report->Add("tensor.gemm_flops", gemm_flops, "count");
  report->Add("data.stream_gen_s", Median(schedule_seconds), "s");
  report->Add("trace.overhead_frac",
              traced.wall_seconds / plain.wall_seconds - 1.0, "fraction");

  // Every span fed the metrics above; the file keeps the spans of every
  // trace_stride-th session and offer so it stays a few tens of MB.
  SpanRecorder all = std::move(load_spans);
  all.Append(std::move(traced.spans));
  const auto keep = [&](const SpanRecorder::Span& span) {
    const std::uint64_t key =
        span.parent == SpanRecorder::kNoParent &&
                std::strcmp(span.name, "serve.offer") == 0
            ? span.group
            : span.group >> 32;
    return key % config.trace_stride == 0;
  };
  if (!all.WriteJsonl(options.work_dir + "/trace-" + config.name + ".jsonl",
                      keep)) {
    report->Fail("could not write the span file");
  }
}

}  // namespace perfbench
