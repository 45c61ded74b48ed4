#ifndef FACTION_COMMON_PARALLEL_H_
#define FACTION_COMMON_PARALLEL_H_

#include <cstddef>
#include <memory>
#include <type_traits>

// Deterministic parallel execution layer.
//
// ParallelFor is a fork-join region on the process's one scheduler, a
// JobSystem (common/job_system.h) with ParallelThreadCount() - 1 workers:
// the caller and up to n - 1 slot jobs claim n slots, each a fixed run of
// chunks, and the caller helps until every job has returned. Top-level
// regions from several threads run concurrently; a slot the full job arena
// cannot take runs on its caller. The determinism contract:
//
//   * The index range is split into chunks of `grain` consecutive indices.
//     The chunk layout depends ONLY on (begin, end, grain) — never on the
//     thread count — so chunk-indexed partial results (e.g. per-chunk
//     gradient buffers combined in chunk order) are reproducible.
//   * Each chunk is executed by exactly one thread; chunks never split.
//   * The body must write only to chunk-disjoint outputs (no shared
//     accumulators). Reductions go through per-chunk partials combined in
//     chunk order by the caller.
//
// Under this contract every result is bitwise identical for any thread
// count, including the serial path. FACTION_NUM_THREADS configures the
// worker count (default: hardware concurrency; 1 forces the serial path).
//
// Grain-size guidance: pick the smallest grain whose per-chunk work is
// ~10us or more (a few thousand double ops). Too-small grains waste time on
// chunk bookkeeping; too-large grains starve threads on short ranges.
//
// Nested ParallelFor calls are safe: a call made from inside a parallel
// body, or from inside any JobSystem job, runs serially inline on the
// calling thread and submits nothing.
//
// The entry points are templates that type-erase the body into a plain
// function pointer + context pointer. Unlike std::function — whose
// small-buffer optimisation tops out at two words on libstdc++ — this
// never heap-allocates, no matter how much the body captures, which keeps
// ParallelFor legal inside ScopedAllocationBan regions (alloc_audit.h).

namespace faction {

/// Number of threads the parallel layer may use (>= 1). Resolved once from
/// FACTION_NUM_THREADS (default: hardware concurrency).
int ParallelThreadCount();

/// Overrides the thread count at runtime and rebuilds the workers; used by
/// tests and embedders. Values < 1 clamp to 1. Must not run inside, or
/// concurrently with, any ParallelFor.
void SetParallelThreadCount(int n);

/// Number of chunks ParallelFor will form for this range/grain. Callers
/// sizing per-chunk partial buffers use this; it is independent of the
/// thread count.
std::size_t ParallelChunkCount(std::size_t begin, std::size_t end,
                               std::size_t grain);

/// RAII guard forcing every ParallelFor issued by the current thread to run
/// serially inline while the guard lives — the same code path a nested
/// ParallelFor takes. JobSystem::Execute wraps every job body in one, so a
/// serve step or a region slot never forks again: serve workers multiplex
/// many independent sessions, and the inline path keeps job execution
/// allocation-free (the scheduler builds its workers lazily on first use).
/// Results are unchanged by construction: the determinism contract above
/// makes every parallel result bitwise identical to the serial path.
/// Guards nest.
class ScopedForceSerialParallel {
 public:
  ScopedForceSerialParallel();
  ~ScopedForceSerialParallel();

  ScopedForceSerialParallel(const ScopedForceSerialParallel&) = delete;
  ScopedForceSerialParallel& operator=(const ScopedForceSerialParallel&) =
      delete;

 private:
  bool prev_;
};

namespace internal {

/// Erased chunk body: body(ctx, chunk, chunk_begin, chunk_end). The ctx is
/// const because the thunks below invoke the caller's functor through its
/// const call operator (reference captures stay mutable through it).
using ErasedChunkBody = void (*)(const void* ctx, std::size_t chunk,
                                 std::size_t chunk_begin,
                                 std::size_t chunk_end);

/// Allocation-free core of ParallelFor/ParallelForChunks. Splits
/// [begin, end) into grain-sized chunks and runs them as a fork-join region
/// per the determinism contract. The first exception thrown by any chunk is
/// rethrown on the calling thread after every slot job has returned.
void ParallelForChunksErased(std::size_t begin, std::size_t end,
                             std::size_t grain, ErasedChunkBody body,
                             const void* ctx);

}  // namespace internal

/// Runs fn(chunk, chunk_begin, chunk_end) over consecutive chunks of at
/// most `grain` indices covering [begin, end). Use when the body writes
/// per-chunk partial results that the caller combines in chunk order.
template <typename Fn>
void ParallelForChunks(std::size_t begin, std::size_t end, std::size_t grain,
                       Fn&& fn) {
  using Body = typename std::remove_reference<Fn>::type;
  internal::ParallelForChunksErased(
      begin, end, grain,
      [](const void* ctx, std::size_t chunk, std::size_t lo,
         std::size_t hi) {
        (*static_cast<const Body*>(ctx))(chunk, lo, hi);
      },
      std::addressof(fn));
}

/// Runs fn(chunk_begin, chunk_end) over consecutive chunks of at most
/// `grain` indices covering [begin, end). See the determinism contract
/// above.
template <typename Fn>
void ParallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                 Fn&& fn) {
  using Body = typename std::remove_reference<Fn>::type;
  internal::ParallelForChunksErased(
      begin, end, grain,
      [](const void* ctx, std::size_t /*chunk*/, std::size_t lo,
         std::size_t hi) { (*static_cast<const Body*>(ctx))(lo, hi); },
      std::addressof(fn));
}

}  // namespace faction

#endif  // FACTION_COMMON_PARALLEL_H_
