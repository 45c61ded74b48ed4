#ifndef PERFBENCH_SRC_STATS_H_
#define PERFBENCH_SRC_STATS_H_

#include <cstddef>
#include <vector>

// Order statistics and the rate-ladder rules the benchmark reports with.

namespace perfbench {

/// A nearest-rank percentile together with the sample it came from.
struct Quantile {
  double value = 0.0;
  std::size_t count = 0;   ///< samples the percentile was taken over
  std::size_t beyond = 0;  ///< samples strictly above the chosen rank
};

/// Nearest-rank percentile: the value at rank ceil(q * n) (1-based) of the
/// sorted sample. `values` is sorted in place. Empty input gives count 0.
Quantile NearestRank(std::vector<double>* values, double q);

/// A percentile taken per time window, then the median across windows:
/// rare host stalls land in few windows, so the figure tracks the typical
/// window rather than where the stalls happened to fall.
struct WindowedQuantile {
  double value = 0.0;
  std::size_t windows = 0;      ///< windows with at least one sample
  std::size_t min_count = 0;    ///< fewest samples in a counted window
  std::size_t min_beyond = 0;   ///< fewest samples beyond the rank
};

/// Median over non-empty windows of each window's nearest-rank q-quantile
/// (the lower middle for an even count). Windows are sorted in place.
WindowedQuantile MedianOfWindows(std::vector<std::vector<double>>* windows,
                                 double q);

/// Median (nearest-rank q = 0.5) of a copy of `values`; 0 when empty.
double Median(std::vector<double> values);

/// Samples a percentile q needs so that at least `min_beyond` samples lie
/// beyond its rank: the smallest n with n - ceil(q * n) >= min_beyond.
std::size_t SamplesNeeded(double q, std::size_t min_beyond);

/// One rung of an open-loop rate ladder, as measured.
struct RungOutcome {
  double rate = 0.0;          ///< offered arrivals per second (absolute)
  double p99_seconds = 0.0;   ///< shed/failed arrivals count as infinite
  std::size_t attempted = 0;
  std::size_t failed = 0;     ///< shed or failed arrivals
  bool backlog_growing = false;
};

/// A rung is sustained when its p99 (failures counting as misses) meets
/// the limit and its backlog is not growing.
bool RungSustained(const RungOutcome& rung, double p99_limit_seconds);

/// Highest rate among sustained rungs; 0 when none is sustained.
double SustainedRate(const std::vector<RungOutcome>& rungs,
                     double p99_limit_seconds);

/// Whether a backlog series (arrivals offered minus completed, sampled at
/// a fixed period across one rung) grows: the mean over its last quarter
/// exceeds 1.5x the mean over its second quarter plus `slack` arrivals.
bool BacklogGrowing(const std::vector<double>& backlog, double slack);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STATS_H_
