#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "common/check.h"
#include "common/job_system.h"

namespace faction {

namespace {

// True while the current thread is executing a ParallelFor body or any
// JobSystem job; ParallelFor calls made then run serially inline.
thread_local bool tl_inside_parallel = false;

int DefaultThreadCount() {
  if (const char* env = std::getenv("FACTION_NUM_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != nullptr && end != env && *end == '\0' && v >= 1 &&
        v <= 4096) {
      return static_cast<int>(v);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0U ? 1 : static_cast<int>(hw);
}

// The process-wide JobSystem regions fork onto: threads - 1 workers, the
// caller of a region being the last thread. Built by the first region that
// needs it and dropped by SetParallelThreadCount. Its arena holds one
// region's worth of jobs (threads - 1); a slot that a concurrent region
// cannot submit runs on that region's caller.
struct Scheduler {
  std::mutex mu;  // guards pool creation and replacement
  std::atomic<int> threads{DefaultThreadCount()};
  std::unique_ptr<JobSystem> pool;
};

Scheduler& GetScheduler() {
  static Scheduler scheduler;
  return scheduler;
}

JobSystem& Pool() {
  Scheduler& s = GetScheduler();
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.pool == nullptr) {
    JobSystem::Options options;
    options.workers = s.threads.load() - 1;
    options.max_jobs = static_cast<std::size_t>(options.workers);
    s.pool = std::make_unique<JobSystem>(options);
  }
  return *s.pool;
}

// Bumped (and notified) each time a slot job returns, in any region. A
// joining caller blocks on it instead of spinning; it is process-wide
// because a region's own fields die with the caller's stack frame the
// moment its last job is seen returning.
std::atomic<std::uint32_t> g_slot_jobs_returned{0};

// One fork-join region, on its caller's stack. Slot s owns the static chunk
// run [nchunks*s/n, nchunks*(s+1)/n), so which thread claims a slot never
// changes a result.
struct Region {
  internal::ErasedChunkBody body;
  const void* ctx;
  std::size_t begin, end, grain, nchunks, n_tasks;
  std::atomic<std::size_t> next_slot{0};
  std::atomic<std::size_t> returned{0};  // slot jobs that have returned
  std::atomic_flag failed{};  // set by the first slot to throw
  std::exception_ptr error{};
};

// Claims and runs slots until none remain. A throwing slot stops at the
// throwing chunk; the first exception is kept for the caller.
void RunSlots(Region* r) {
  for (std::size_t s = r->next_slot.fetch_add(1); s < r->n_tasks;
       s = r->next_slot.fetch_add(1)) {
    try {
      const std::size_t chunk_hi = r->nchunks * (s + 1) / r->n_tasks;
      for (std::size_t c = r->nchunks * s / r->n_tasks; c < chunk_hi; ++c) {
        const std::size_t lo = r->begin + c * r->grain;
        r->body(r->ctx, c, lo, std::min(r->end, lo + r->grain));
      }
    } catch (...) {
      if (!r->failed.test_and_set()) r->error = std::current_exception();
    }
  }
}

void SlotJob(void* ctx) {
  Region* r = static_cast<Region*>(ctx);
  RunSlots(r);
  r->returned.fetch_add(1);  // the job's last touch of *r
  g_slot_jobs_returned.fetch_add(1);
  g_slot_jobs_returned.notify_all();
}

}  // namespace

ScopedForceSerialParallel::ScopedForceSerialParallel()
    : prev_(tl_inside_parallel) {
  tl_inside_parallel = true;
}

ScopedForceSerialParallel::~ScopedForceSerialParallel() {
  tl_inside_parallel = prev_;
}

int ParallelThreadCount() {
  return GetScheduler().threads.load();
}

void SetParallelThreadCount(int n) {
  FACTION_CHECK(!tl_inside_parallel);
  Scheduler& s = GetScheduler();
  std::lock_guard<std::mutex> lock(s.mu);
  s.pool.reset();  // waits out the epilogues of returned slot jobs
  s.threads.store(std::max(1, n));
}

std::size_t ParallelChunkCount(std::size_t begin, std::size_t end,
                               std::size_t grain) {
  if (end <= begin) return 0;
  const std::size_t g = grain == 0 ? 1 : grain;
  return (end - begin + g - 1) / g;
}

namespace internal {

void ParallelForChunksErased(std::size_t begin, std::size_t end,
                             std::size_t grain, ErasedChunkBody body,
                             const void* ctx) {
  if (end <= begin) return;
  const std::size_t g = grain == 0 ? 1 : grain;
  const std::size_t nchunks = (end - begin + g - 1) / g;
  const std::size_t n_tasks = std::min(
      static_cast<std::size_t>(ParallelThreadCount()), nchunks);
  if (n_tasks <= 1 || tl_inside_parallel) {
    for (std::size_t c = 0; c < nchunks; ++c) {
      const std::size_t lo = begin + c * g;
      const std::size_t hi = std::min(end, lo + g);
      body(ctx, c, lo, hi);
    }
    return;
  }
  Region region{body, ctx, begin, end, g, nchunks, n_tasks};
  JobSystem& pool = Pool();
  std::size_t submitted = 0;
  while (submitted + 1 < n_tasks && pool.TrySubmit(&SlotJob, &region)) {
    ++submitted;
  }
  {
    ScopedForceSerialParallel serial;
    RunSlots(&region);
  }
  // Helping join: every submitted job must have returned before the region
  // leaves this frame. Run what is queued (a job finding no slot left
  // returns at once) and block only when nothing is runnable.
  for (;;) {
    const std::uint32_t seen = g_slot_jobs_returned.load();
    if (region.returned.load() == submitted) break;
    if (!pool.RunOne()) g_slot_jobs_returned.wait(seen);
  }
  if (region.error != nullptr) std::rethrow_exception(region.error);
}

}  // namespace internal

}  // namespace faction
