#ifndef PERFBENCH_SRC_SCHEDULE_H_
#define PERFBENCH_SRC_SCHEDULE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "data/dataset.h"

// Open-loop arrival schedules and per-session example sources. Both are
// pure functions of the workload seed: the schedule never reads a clock
// and never adapts to how fast the system under test runs.

namespace perfbench {

/// One rung of the ladder: an absolute Poisson rate held for `seconds`.
struct Rung {
  double rate = 0.0;
  double seconds = 0.0;
};

/// One scheduled arrival: when it is due (seconds after the load phase
/// starts), which session it goes to, and which rung it belongs to.
struct ScheduledArrival {
  double due = 0.0;
  std::uint32_t session = 0;
  std::uint32_t rung = 0;
};

/// Poisson arrivals at each rung's rate, rungs back to back in order,
/// sessions drawn uniformly. Depends on (seed, rungs, sessions) only.
std::vector<ScheduledArrival> BuildSchedule(std::uint64_t seed,
                                            const std::vector<Rung>& rungs,
                                            std::size_t sessions);

/// Mixes a seed with a stream index into an independent generator seed
/// (splitmix64 finalizer).
std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t index);

/// The example stream one serving session sees: the serve loadgen's
/// MakeStream distribution (balanced labels and groups, class centres
/// +-1.5, group shift +-0.4) plus an environment that changes every
/// `environment_length` arrivals, cycling through four. Each environment
/// moves the mean by 0.5 per dimension, with alternating signs, orthogonal
/// to the class axis. Environment 0 is exactly MakeStream's distribution.
/// Each call to Next draws the session's next example; the sequence
/// depends only on the seed. `first_index` starts the environment clock
/// later (probe sets drawn at a session's current age).
class ArrivalSource {
 public:
  ArrivalSource(std::uint64_t seed, std::size_t dim,
                std::size_t environment_length, std::size_t first_index = 0);

  /// Overwrites *out (resizing x once) with the next example.
  void Next(faction::Example* out);

  std::size_t drawn() const { return drawn_; }

  /// The example `ex` with its sensitive group flipped: the same label,
  /// environment and noise, with the group shift on the other side. A
  /// probe set of such pairs measures the group gap of a model without the
  /// sampling noise of two independent group samples.
  static void OtherGroup(const faction::Example& ex, faction::Example* out);

 private:
  faction::Rng rng_;
  std::size_t dim_;
  std::size_t environment_length_;
  std::size_t drawn_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SCHEDULE_H_
