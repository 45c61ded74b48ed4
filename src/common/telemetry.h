#ifndef FACTION_COMMON_TELEMETRY_H_
#define FACTION_COMMON_TELEMETRY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/alloc_audit.h"
#include "common/timer.h"

namespace faction {

class TelemetryCounter;
class TelemetryHistogram;

/// Process-wide run metrics: monotonic counters, gauges, and fixed-bucket
/// log-spaced histograms (see DESIGN.md §11).
///
/// The registry is disabled by default and every instrumentation site goes
/// through a metric handle (TelemetryCounter / TelemetryHistogram, or the
/// TelemetryCount / TelemetryObserve macros, which declare one handle per
/// call site), whose disabled path is a single atomic pointer load plus a
/// branch — no allocation, no lock.
///
/// Hot and cold paths. A handle resolves its metric name to a dense slot
/// once, under the registry mutex, on its first enabled use. After that an
/// enabled write touches only the calling thread's shard: relaxed atomics
/// that no other thread writes, so it takes no lock, looks nothing up, and
/// allocates nothing. The registry owns every shard and merges them when
/// read; a thread's shard returns to a free list when the thread exits,
/// with its values kept, so totals survive worker churn and the shard
/// count stays bounded by the peak number of live writer threads. Gauges,
/// name registration, and every read stay on the mutex.
///
/// Determinism. Instrumentation must never change results: sites only
/// *observe* (the acquisition loop, training, density refits, drift
/// detection, evaluation, the serve offer and step paths). Counters are
/// bumped concurrently — by serve workers, checkpoint jobs, and the
/// orchestration thread — yet their merged values are identical for any
/// worker-thread count and any thread-to-shard assignment, because integer
/// sums commute. The scheduler (common/job_system.h) never writes
/// telemetry, since its activity varies with timing; ServeRuntime::Drain()
/// publishes its steal and park counts as "serve.jobs.stolen" and
/// "serve.workers.parked".
///
/// Counter names are dot-separated lowercase paths ("evaluator.tasks",
/// "faction.density_full_refit"). Histograms observing wall-clock durations
/// use a ".seconds" suffix; their *values* are inherently non-deterministic
/// while their counts remain deterministic.
class Telemetry {
 public:
  /// Histogram bucketing: kNumBuckets log-spaced buckets with upper bounds
  /// kFirstBound * 2^i, plus an underflow bucket (index 0, values below
  /// kFirstBound including zero/negative) and an overflow bucket (last
  /// index). Fixed at compile time so snapshots are comparable across runs.
  static constexpr double kFirstBound = 1e-9;
  static constexpr int kNumBuckets = 64;

  /// Shard capacity: the most distinct counter and histogram names a
  /// process may register. Slot 0 of each is a sink that absorbs writes to
  /// names registered past capacity (logged once, never reported).
  static constexpr std::size_t kMaxCounters = 256;
  static constexpr std::size_t kMaxHistograms = 32;

  struct HistogramSnapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  ///< meaningful only when count > 0
    double max = 0.0;  ///< meaningful only when count > 0
    /// kNumBuckets + 2 slots: [underflow, bucket 0..kNumBuckets-1, overflow].
    std::vector<std::uint64_t> buckets;
  };

  /// Bucket slot (0..kNumBuckets+1) a value falls into.
  static int BucketIndex(double value);

  /// The enabled registry, or nullptr when telemetry is off. The fast path
  /// for every instrumentation helper.
  static Telemetry* Get() {
    return instance_.load(std::memory_order_acquire);
  }

  /// Turns the process-wide registry on (idempotent) and returns it. State
  /// accumulated before a Disable() is retained; call Reset() for a clean
  /// slate.
  static Telemetry* Enable();

  /// Turns instrumentation off. The registry's contents remain readable
  /// through the pointer returned by the preceding Enable().
  static void Disable();

  /// Constructible only through Enable(): the process has one registry,
  /// and metric handles and thread shards are bound to it.
  struct Key {
   private:
    friend class Telemetry;
    Key() = default;
  };
  explicit Telemetry(Key key);
  ~Telemetry();
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// By-name add for a counter name built at run time. Each call looks the
  /// name up under the mutex (registering it on first sight), so it belongs
  /// on cold paths; every other site holds a handle.
  void AddCounter(const std::string& name, std::uint64_t delta = 1);

  /// Sets the named gauge to `value` (last-write-wins; under the mutex).
  void SetGauge(const std::string& name, double value);

  /// Current value of a counter, summed over every shard; 0 when it was
  /// never touched.
  std::uint64_t CounterValue(const std::string& name) const;

  /// Current value of a gauge; 0.0 when it was never set.
  double GaugeValue(const std::string& name) const;

  /// Snapshot of a histogram merged over every shard; zero-count snapshot
  /// when it was never observed. Read while writers run, each field is a
  /// valid recent value but the fields need not agree with each other.
  HistogramSnapshot HistogramFor(const std::string& name) const;

  /// All counters touched since the last Reset(), sorted by name
  /// (deterministic iteration order).
  std::vector<std::pair<std::string, std::uint64_t>> Counters() const;

  /// All gauges, sorted by name.
  std::vector<std::pair<std::string, double>> Gauges() const;

  /// Names of all histograms observed since the last Reset(), sorted.
  std::vector<std::string> HistogramNames() const;

  /// Clears every counter, gauge, and histogram. Valid only while no
  /// thread is writing telemetry (shards are zeroed in place, and a write
  /// racing the zeroing may survive it); every caller resets between runs.
  /// Registered names and the handles that resolved them stay valid.
  void Reset();

  /// Renders a markdown section (counters table, gauge table, histogram
  /// count/mean/min/max table). Sections with no entries are omitted.
  void WriteMarkdown(std::ostream& os) const;

  /// Number of thread shards ever created (live plus parked on the free
  /// list): bounded by the peak number of concurrently live writers.
  std::size_t ShardCount() const;

 private:
  friend class TelemetryCounter;
  friend class TelemetryHistogram;
  struct Shard;
  struct ShardReturn;
  using SlotMap = std::map<std::string, std::uint32_t, std::less<>>;

  // Hot path: the calling thread's shard (acquired on its first write).
  Shard& LocalShard();
  Shard& AcquireShard();
  void ReleaseShard(Shard* shard);
  void AddSlot(std::uint32_t slot, std::uint64_t delta);
  void ObserveSlot(std::uint32_t slot, double value);

  // Cold path: name -> slot, registering the name on first sight.
  std::uint32_t CounterSlot(const char* name);
  std::uint32_t HistogramSlot(const char* name);
  static std::uint32_t Register(SlotMap* slots, std::size_t capacity,
                                const char* kind, const char* name);

  std::uint64_t SumCounter(std::uint32_t slot) const;        // mu_ held
  HistogramSnapshot MergeHistogram(std::uint32_t slot) const;  // mu_ held
  bool CounterTouched(std::uint32_t slot) const;             // mu_ held

  static std::atomic<Telemetry*> instance_;
  // The calling thread's shard (trivial, so reads need no init guard), and
  // the object whose thread-exit destructor parks it on the free list.
  static thread_local Shard* thread_shard_;
  static thread_local ShardReturn thread_shard_return_;

  mutable std::mutex mu_;
  SlotMap counter_slots_;
  SlotMap histogram_slots_;
  std::map<std::string, double> gauges_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<Shard*> free_shards_;
};

/// A counter handle. Constant-initialized (declare it `constinit`, at
/// namespace scope or as a function-local static), it resolves `name` to a
/// registry slot on its first enabled Add and keeps the slot for the life
/// of the process. `name` must be a string literal: the handle keeps the
/// pointer, and tools/lint.py enforces it under src/.
class TelemetryCounter {
 public:
  constexpr explicit TelemetryCounter(const char* name) : name_(name) {}
  TelemetryCounter(const TelemetryCounter&) = delete;
  TelemetryCounter& operator=(const TelemetryCounter&) = delete;

  /// Adds `delta` to the counter on the calling thread's shard; one
  /// pointer load and a branch when telemetry is off.
  void Add(std::uint64_t delta = 1) const {
    if (Telemetry* t = Telemetry::Get()) AddEnabled(t, delta);
  }

 private:
  static constexpr std::uint32_t kUnresolved = ~std::uint32_t{0};
  void AddEnabled(Telemetry* t, std::uint64_t delta) const;

  const char* name_;
  mutable std::atomic<std::uint32_t> slot_{kUnresolved};
};

/// A histogram handle; the same contract as TelemetryCounter.
class TelemetryHistogram {
 public:
  constexpr explicit TelemetryHistogram(const char* name) : name_(name) {}
  TelemetryHistogram(const TelemetryHistogram&) = delete;
  TelemetryHistogram& operator=(const TelemetryHistogram&) = delete;

  /// Records `value` on the calling thread's shard; one pointer load and a
  /// branch when telemetry is off.
  void Observe(double value) const {
    if (Telemetry* t = Telemetry::Get()) ObserveEnabled(t, value);
  }

 private:
  static constexpr std::uint32_t kUnresolved = ~std::uint32_t{0};
  void ObserveEnabled(Telemetry* t, double value) const;

  const char* name_;
  mutable std::atomic<std::uint32_t> slot_{kUnresolved};
};

/// Instrumentation helpers: each call site gets its own constant-initialized
/// handle (no guard, no registration until the first enabled call), so the
/// disabled path is one pointer load and a branch and the enabled path, once
/// registered, does not allocate, lock, or look anything up. `name` must be
/// a string literal; `delta` defaults to 1.
#define TelemetryCount(name, ...)                                   \
  do {                                                              \
    static constinit const ::faction::TelemetryCounter              \
        faction_telemetry_site_(name);                              \
    faction_telemetry_site_.Add(__VA_ARGS__);                       \
  } while (false)

#define TelemetryObserve(name, value)                               \
  do {                                                              \
    static constinit const ::faction::TelemetryHistogram            \
        faction_telemetry_site_(name);                              \
    faction_telemetry_site_.Observe(value);                         \
  } while (false)

/// Sets a gauge by name. Gauges have one cold call site, so they stay on
/// the registry mutex; the key build runs under a ScopedAllocationAllow so
/// an allocation ban (alloc_audit.h) measures the pipeline, not the report.
inline void TelemetryGauge(const char* name, double value) {
  if (Telemetry* t = Telemetry::Get()) {
    ScopedAllocationAllow allow_instrumentation;
    t->SetGauge(name, value);
  }
}

/// Reads a counter through the enabled registry; 0 when telemetry is off.
/// Used by trace writers to fold counter deltas into per-task records.
inline std::uint64_t TelemetryCounterValue(const char* name) {
  if (Telemetry* t = Telemetry::Get()) {
    ScopedAllocationAllow allow_instrumentation;
    return t->CounterValue(name);
  }
  return 0;
}

/// RAII wall-clock timer recording elapsed seconds into a histogram on
/// destruction. When telemetry is disabled at construction the destructor
/// does nothing (and the clock is never read).
class ScopedTimer {
 public:
  explicit ScopedTimer(const TelemetryHistogram& histogram)
      : histogram_(histogram), active_(Telemetry::Get() != nullptr) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    if (active_) histogram_.Observe(timer_.ElapsedSeconds());
  }

  /// Seconds since construction (0.0 when telemetry was disabled then).
  double ElapsedSeconds() const {
    return active_ ? timer_.ElapsedSeconds() : 0.0;
  }

 private:
  const TelemetryHistogram& histogram_;
  bool active_;
  Timer timer_;
};

}  // namespace faction

#endif  // FACTION_COMMON_TELEMETRY_H_
