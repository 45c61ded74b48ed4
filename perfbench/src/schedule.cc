#include "src/schedule.h"

#include <cmath>

namespace perfbench {

std::vector<ScheduledArrival> BuildSchedule(std::uint64_t seed,
                                            const std::vector<Rung>& rungs,
                                            std::size_t sessions) {
  faction::Rng rng(MixSeed(seed, 0x5c4edu));
  double expected = 0.0;
  for (const Rung& rung : rungs) expected += rung.rate * rung.seconds;
  std::vector<ScheduledArrival> schedule;
  schedule.reserve(static_cast<std::size_t>(expected * 1.05) + 16);
  double start = 0.0;
  for (std::size_t r = 0; r < rungs.size(); ++r) {
    const double end = start + rungs[r].seconds;
    double t = start;
    for (;;) {
      t += -std::log(1.0 - rng.Uniform()) / rungs[r].rate;
      if (t >= end) break;
      ScheduledArrival arrival;
      arrival.due = t;
      arrival.session = static_cast<std::uint32_t>(rng.UniformInt(sessions));
      arrival.rung = static_cast<std::uint32_t>(r);
      schedule.push_back(arrival);
    }
    start = end;
  }
  return schedule;
}

std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

ArrivalSource::ArrivalSource(std::uint64_t seed, std::size_t dim,
                             std::size_t environment_length,
                             std::size_t first_index)
    : rng_(seed),
      dim_(dim),
      environment_length_(environment_length),
      drawn_(first_index) {}

namespace {
constexpr double kGroupShift = 0.4;
}  // namespace

void ArrivalSource::Next(faction::Example* out) {
  const int environment =
      static_cast<int>((drawn_ / environment_length_) % 4);
  ++drawn_;
  // The serve loadgen's MakeStream draws, in its order: balanced labels,
  // balanced groups, class centres +-1.5, group shift +-0.4.
  out->label = rng_.Bernoulli(0.5) ? 1 : 0;
  out->sensitive = rng_.Bernoulli(0.5) ? 1 : -1;
  out->environment = environment;
  out->x.resize(dim_);
  const double center = out->label == 1 ? 1.5 : -1.5;
  const double shift = out->sensitive == 1 ? kGroupShift : -kGroupShift;
  const double drift = 0.5 * static_cast<double>(environment);
  for (std::size_t d = 0; d < dim_; ++d) {
    // The drift alternates its sign across dimensions, so (for an even
    // dim) it is orthogonal to the class axis: class separation stays the
    // loadgen's while the feature distribution the density model tracks
    // moves with the environment.
    const double sign = (d % 2 == 0) ? 1.0 : -1.0;
    out->x[d] = rng_.Gaussian(center + shift + sign * drift, 1.0);
  }
}

void ArrivalSource::OtherGroup(const faction::Example& ex,
                               faction::Example* out) {
  *out = ex;
  out->sensitive = -ex.sensitive;
  const double move = 2.0 * kGroupShift * static_cast<double>(out->sensitive);
  for (double& v : out->x) v += move;
}

}  // namespace perfbench
