#include "src/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

Quantile NearestRank(std::vector<double>* values, double q) {
  Quantile out;
  out.count = values->size();
  if (values->empty()) return out;
  std::sort(values->begin(), values->end());
  const double n = static_cast<double>(values->size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, values->size());
  out.value = (*values)[rank - 1];
  out.beyond = values->size() - rank;
  return out;
}

WindowedQuantile MedianOfWindows(std::vector<std::vector<double>>* windows,
                                 double q) {
  WindowedQuantile out;
  std::vector<double> per_window;
  for (std::vector<double>& window : *windows) {
    if (window.empty()) continue;
    const Quantile quantile = NearestRank(&window, q);
    per_window.push_back(quantile.value);
    out.min_count = out.windows == 0
                        ? quantile.count
                        : std::min(out.min_count, quantile.count);
    out.min_beyond = out.windows == 0
                         ? quantile.beyond
                         : std::min(out.min_beyond, quantile.beyond);
    ++out.windows;
  }
  out.value = Median(per_window);
  return out;
}

double Median(std::vector<double> values) {
  return NearestRank(&values, 0.5).value;
}

std::size_t SamplesNeeded(double q, std::size_t min_beyond) {
  std::size_t n = min_beyond + 1;
  while (n - static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))) <
         min_beyond) {
    ++n;
  }
  return n;
}

bool RungSustained(const RungOutcome& rung, double p99_limit_seconds) {
  return rung.attempted > 0 && rung.p99_seconds <= p99_limit_seconds &&
         !rung.backlog_growing;
}

double SustainedRate(const std::vector<RungOutcome>& rungs,
                     double p99_limit_seconds) {
  double best = 0.0;
  for (const RungOutcome& rung : rungs) {
    if (RungSustained(rung, p99_limit_seconds)) {
      best = std::max(best, rung.rate);
    }
  }
  return best;
}

bool BacklogGrowing(const std::vector<double>& backlog, double slack) {
  const std::size_t n = backlog.size();
  if (n < 8) return false;
  const auto mean = [&](std::size_t lo, std::size_t hi) {
    double sum = 0.0;
    for (std::size_t i = lo; i < hi; ++i) sum += backlog[i];
    return sum / static_cast<double>(hi - lo);
  };
  const double second = mean(n / 4, n / 2);
  const double last = mean(n - n / 4, n);
  return last > 1.5 * second + slack;
}

}  // namespace perfbench
