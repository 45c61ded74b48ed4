#include "common/telemetry.h"

#include <algorithm>
#include <array>
#include <string_view>

#include "common/logging.h"
#include "common/table.h"

namespace faction {

namespace {

constexpr std::size_t kSlots =
    static_cast<std::size_t>(Telemetry::kNumBuckets) + 2;

// Upper bounds of the kNumBuckets log-spaced buckets, built once by the
// doubling that defines them (exact: doubling never rounds short of
// overflow, and the last bound is kFirstBound * 2^64).
constexpr std::array<double, Telemetry::kNumBuckets> kUpperBounds = [] {
  std::array<double, Telemetry::kNumBuckets> bounds{};
  double bound = Telemetry::kFirstBound;
  for (double& b : bounds) {
    bound *= 2.0;
    b = bound;
  }
  return bounds;
}();

// A shard slot has exactly one writer, its owning thread, so a relaxed
// load-add-store is a complete update; readers merge with relaxed loads.
void Bump(std::atomic<std::uint64_t>* cell, std::uint64_t delta) {
  cell->store(cell->load(std::memory_order_relaxed) + delta,
              std::memory_order_relaxed);
}

}  // namespace

struct Telemetry::Shard {
  struct Histogram {
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> min{0.0};
    std::atomic<double> max{0.0};
    std::array<std::atomic<std::uint64_t>, kSlots> buckets{};
  };

  std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
  // Whether the counter was added to since the last Reset (an add of 0
  // still lists the counter, as a map entry would).
  std::array<std::atomic<bool>, kMaxCounters> touched{};
  std::array<Histogram, kMaxHistograms> histograms{};

  void Zero() {
    for (auto& c : counters) c.store(0, std::memory_order_relaxed);
    for (auto& t : touched) t.store(false, std::memory_order_relaxed);
    for (Histogram& h : histograms) {
      h.count.store(0, std::memory_order_relaxed);
      h.sum.store(0.0, std::memory_order_relaxed);
      h.min.store(0.0, std::memory_order_relaxed);
      h.max.store(0.0, std::memory_order_relaxed);
      for (auto& b : h.buckets) b.store(0, std::memory_order_relaxed);
    }
  }
};

struct Telemetry::ShardReturn {
  Telemetry* owner = nullptr;
  ~ShardReturn() {
    if (owner != nullptr && thread_shard_ != nullptr) {
      owner->ReleaseShard(thread_shard_);
    }
    thread_shard_ = nullptr;
  }
};

std::atomic<Telemetry*> Telemetry::instance_{nullptr};
thread_local Telemetry::Shard* Telemetry::thread_shard_ = nullptr;
thread_local Telemetry::ShardReturn Telemetry::thread_shard_return_;

Telemetry::Telemetry(Key /*key*/) {}
Telemetry::~Telemetry() = default;

Telemetry* Telemetry::Enable() {
  // Never destroyed: worker threads may exit (and park their shards) after
  // static destructors run, and handles keep their slots for the process's
  // life. The pointer keeps the registry reachable for leak checkers.
  static Telemetry* const global =
      std::make_unique<Telemetry>(Key()).release();
  instance_.store(global, std::memory_order_release);
  return global;
}

void Telemetry::Disable() {
  instance_.store(nullptr, std::memory_order_release);
}

int Telemetry::BucketIndex(double value) {
  if (!(value >= kFirstBound)) return 0;  // underflow (incl. NaN/negative)
  // First bound above the value; past the last bound is the overflow slot.
  return 1 + static_cast<int>(std::upper_bound(kUpperBounds.begin(),
                                               kUpperBounds.end(), value) -
                              kUpperBounds.begin());
}

// ------------------------------------------------------------- hot path

Telemetry::Shard& Telemetry::LocalShard() {
  if (Shard* shard = thread_shard_) return *shard;
  return AcquireShard();
}

void Telemetry::AddSlot(std::uint32_t slot, std::uint64_t delta) {
  Shard& shard = LocalShard();
  Bump(&shard.counters[slot], delta);
  std::atomic<bool>& touched = shard.touched[slot];
  if (!touched.load(std::memory_order_relaxed)) {
    touched.store(true, std::memory_order_relaxed);
  }
}

void Telemetry::ObserveSlot(std::uint32_t slot, double value) {
  Shard::Histogram& h = LocalShard().histograms[slot];
  const std::uint64_t n = h.count.load(std::memory_order_relaxed);
  if (n == 0 || value < h.min.load(std::memory_order_relaxed)) {
    h.min.store(value, std::memory_order_relaxed);
  }
  if (n == 0 || value > h.max.load(std::memory_order_relaxed)) {
    h.max.store(value, std::memory_order_relaxed);
  }
  h.sum.store(h.sum.load(std::memory_order_relaxed) + value,
              std::memory_order_relaxed);
  Bump(&h.buckets[static_cast<std::size_t>(BucketIndex(value))], 1);
  h.count.store(n + 1, std::memory_order_relaxed);
}

void TelemetryCounter::AddEnabled(Telemetry* t, std::uint64_t delta) const {
  std::uint32_t slot = slot_.load(std::memory_order_relaxed);
  if (slot == kUnresolved) {
    slot = t->CounterSlot(name_);
    slot_.store(slot, std::memory_order_relaxed);
  }
  t->AddSlot(slot, delta);
}

void TelemetryHistogram::ObserveEnabled(Telemetry* t, double value) const {
  std::uint32_t slot = slot_.load(std::memory_order_relaxed);
  if (slot == kUnresolved) {
    slot = t->HistogramSlot(name_);
    slot_.store(slot, std::memory_order_relaxed);
  }
  t->ObserveSlot(slot, value);
}

// ------------------------------------------------------------ cold path

Telemetry::Shard& Telemetry::AcquireShard() {
  // Once per thread: a parked shard if one is free, else a new one.
  ScopedAllocationAllow allow_instrumentation;
  std::lock_guard<std::mutex> lock(mu_);
  Shard* shard = nullptr;
  if (!free_shards_.empty()) {
    shard = free_shards_.back();
    free_shards_.pop_back();
  } else {
    shards_.push_back(std::make_unique<Shard>());
    shard = shards_.back().get();
  }
  thread_shard_ = shard;
  thread_shard_return_.owner = this;  // arms the thread-exit return
  return *shard;
}

void Telemetry::ReleaseShard(Shard* shard) {
  ScopedAllocationAllow allow_instrumentation;
  std::lock_guard<std::mutex> lock(mu_);
  free_shards_.push_back(shard);
}

std::uint32_t Telemetry::Register(SlotMap* slots, std::size_t capacity,
                                  const char* kind, const char* name) {
  const auto it = slots->find(std::string_view(name));
  if (it != slots->end()) return it->second;
  // Slot 0 is the sink: it is never listed under a name.
  if (slots->size() + 1 >= capacity) {
    static std::once_flag warned;
    std::call_once(warned, [&] {
      FACTION_LOG(kWarning) << "telemetry: more than " << capacity - 1 << " "
                            << kind << " names; '" << name
                            << "' and later ones are not recorded";
    });
    return 0;
  }
  const auto slot = static_cast<std::uint32_t>(slots->size() + 1);
  slots->emplace(name, slot);
  return slot;
}

std::uint32_t Telemetry::CounterSlot(const char* name) {
  ScopedAllocationAllow allow_instrumentation;
  std::lock_guard<std::mutex> lock(mu_);
  return Register(&counter_slots_, kMaxCounters, "counter", name);
}

std::uint32_t Telemetry::HistogramSlot(const char* name) {
  ScopedAllocationAllow allow_instrumentation;
  std::lock_guard<std::mutex> lock(mu_);
  return Register(&histogram_slots_, kMaxHistograms, "histogram", name);
}

void Telemetry::AddCounter(const std::string& name, std::uint64_t delta) {
  AddSlot(CounterSlot(name.c_str()), delta);
}

void Telemetry::SetGauge(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  gauges_[name] = value;
}

// ---------------------------------------------------------------- reads

std::uint64_t Telemetry::SumCounter(std::uint32_t slot) const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->counters[slot].load(std::memory_order_relaxed);
  }
  return total;
}

bool Telemetry::CounterTouched(std::uint32_t slot) const {
  return std::any_of(shards_.begin(), shards_.end(), [&](const auto& shard) {
    return shard->touched[slot].load(std::memory_order_relaxed);
  });
}

Telemetry::HistogramSnapshot Telemetry::MergeHistogram(
    std::uint32_t slot) const {
  HistogramSnapshot snap;
  snap.buckets.assign(kSlots, 0);
  for (const auto& shard : shards_) {
    const Shard::Histogram& h = shard->histograms[slot];
    const std::uint64_t n = h.count.load(std::memory_order_relaxed);
    if (n == 0) continue;
    const double lo = h.min.load(std::memory_order_relaxed);
    const double hi = h.max.load(std::memory_order_relaxed);
    if (snap.count == 0 || lo < snap.min) snap.min = lo;
    if (snap.count == 0 || hi > snap.max) snap.max = hi;
    snap.count += n;
    snap.sum += h.sum.load(std::memory_order_relaxed);
    for (std::size_t b = 0; b < kSlots; ++b) {
      snap.buckets[b] += h.buckets[b].load(std::memory_order_relaxed);
    }
  }
  return snap;
}

std::uint64_t Telemetry::CounterValue(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counter_slots_.find(name);
  return it == counter_slots_.end() ? 0 : SumCounter(it->second);
}

double Telemetry::GaugeValue(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

Telemetry::HistogramSnapshot Telemetry::HistogramFor(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = histogram_slots_.find(name);
  if (it == histogram_slots_.end()) {
    HistogramSnapshot empty;
    empty.buckets.assign(kSlots, 0);
    return empty;
  }
  return MergeHistogram(it->second);
}

std::vector<std::pair<std::string, std::uint64_t>> Telemetry::Counters()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& [name, slot] : counter_slots_) {
    if (CounterTouched(slot)) out.emplace_back(name, SumCounter(slot));
  }
  return out;
}

std::vector<std::pair<std::string, double>> Telemetry::Gauges() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {gauges_.begin(), gauges_.end()};
}

std::vector<std::string> Telemetry::HistogramNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  for (const auto& [name, slot] : histogram_slots_) {
    const bool observed =
        std::any_of(shards_.begin(), shards_.end(), [&](const auto& shard) {
          return shard->histograms[slot].count.load(
                     std::memory_order_relaxed) > 0;
        });
    if (observed) names.push_back(name);
  }
  return names;
}

std::size_t Telemetry::ShardCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shards_.size();
}

void Telemetry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& shard : shards_) shard->Zero();
  gauges_.clear();
}

void Telemetry::WriteMarkdown(std::ostream& os) const {
  os << "## Telemetry\n\n";
  const auto counters = Counters();
  if (!counters.empty()) {
    Table table({"counter", "value"});
    for (const auto& kv : counters) {
      table.AddRow({kv.first, std::to_string(kv.second)});
    }
    table.Print(os);
    os << "\n";
  }
  const auto gauges = Gauges();
  if (!gauges.empty()) {
    Table table({"gauge", "value"});
    for (const auto& kv : gauges) {
      table.AddRow({kv.first, FormatCell(kv.second, 6)});
    }
    table.Print(os);
    os << "\n";
  }
  const auto names = HistogramNames();
  if (!names.empty()) {
    Table table({"histogram", "count", "mean", "min", "max"});
    for (const std::string& name : names) {
      const HistogramSnapshot snap = HistogramFor(name);
      const double mean =
          snap.count > 0 ? snap.sum / static_cast<double>(snap.count) : 0.0;
      table.AddRow({name, std::to_string(snap.count), FormatCell(mean, 6),
                    FormatCell(snap.count > 0 ? snap.min : 0.0, 6),
                    FormatCell(snap.count > 0 ? snap.max : 0.0, 6)});
    }
    table.Print(os);
    os << "\n";
  }
}

}  // namespace faction
