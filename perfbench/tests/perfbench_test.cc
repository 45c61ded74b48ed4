// Tests of the benchmark's own helpers: percentile choice and sample
// counts, the rate-ladder rules, schedule reproducibility per seed, strict
// flag parsing, and the decision-parity check. Build and run:
//
//   cmake -S perfbench -B .bench_build/perfbench
//   cmake --build .bench_build/perfbench --target perfbench_test
//   .bench_build/perfbench/perfbench_test
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/args.h"
#include "src/schedule.h"
#include "src/spans.h"
#include "src/stats.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);
  return v;
}

TEST(Percentile, NearestRankReportsItsSample) {
  std::vector<double> v = OneTo(100);
  const Quantile p99 = NearestRank(&v, 0.99);
  EXPECT_EQ(p99.value, 99.0);
  EXPECT_EQ(p99.count, 100u);
  EXPECT_EQ(p99.beyond, 1u);
  const Quantile p50 = NearestRank(&v, 0.50);
  EXPECT_EQ(p50.value, 50.0);
  EXPECT_EQ(p50.beyond, 50u);
  std::vector<double> empty;
  EXPECT_EQ(NearestRank(&empty, 0.99).count, 0u);
}

TEST(Percentile, SamplesNeededForTenBeyond) {
  EXPECT_EQ(SamplesNeeded(0.99, 10), 1000u);
  EXPECT_EQ(SamplesNeeded(0.50, 10), 20u);
  std::vector<double> v = OneTo(1000);
  EXPECT_EQ(NearestRank(&v, 0.99).beyond, 10u);
  std::vector<double> w = OneTo(999);
  EXPECT_EQ(NearestRank(&w, 0.99).beyond, 9u);
}

TEST(Percentile, MedianOfWindowsIgnoresAMinorityOfStalledWindows) {
  std::vector<std::vector<double>> windows;
  for (int w = 0; w < 9; ++w) {
    std::vector<double> window = OneTo(1000);
    if (w % 4 == 0) {  // three stalled windows out of nine
      for (double& x : window) x += 5000.0;
    }
    windows.push_back(window);
  }
  windows.emplace_back();  // an empty window is skipped
  const WindowedQuantile q = MedianOfWindows(&windows, 0.99);
  EXPECT_EQ(q.value, 990.0);
  EXPECT_EQ(q.windows, 9u);
  EXPECT_EQ(q.min_count, 1000u);
  EXPECT_EQ(q.min_beyond, 10u);
}

TEST(Ladder, SustainedRateIsTheHighestPassingRung) {
  std::vector<RungOutcome> rungs(4);
  const double rates[] = {1000, 2000, 4000, 8000};
  const double p99[] = {0.002, 0.003, 0.009, 0.5};
  for (int i = 0; i < 4; ++i) {
    rungs[i].rate = rates[i];
    rungs[i].p99_seconds = p99[i];
    rungs[i].attempted = 100;
  }
  EXPECT_EQ(SustainedRate(rungs, 0.010), 4000.0);
  EXPECT_EQ(SustainedRate(rungs, 0.001), 0.0);
  // A growing backlog fails a rung whatever its p99.
  rungs[2].backlog_growing = true;
  EXPECT_EQ(SustainedRate(rungs, 0.010), 2000.0);
  // Shed arrivals count as infinite latency, so a rung whose p99 is
  // infinite fails.
  rungs[1].p99_seconds = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(RungSustained(rungs[1], 0.010));
  EXPECT_EQ(SustainedRate(rungs, 0.010), 1000.0);
}

TEST(Ladder, BacklogGrowth) {
  std::vector<double> flat(100, 10.0);
  EXPECT_FALSE(BacklogGrowing(flat, 16.0));
  std::vector<double> ramp;
  for (int i = 0; i < 100; ++i) ramp.push_back(50.0 * i);
  EXPECT_TRUE(BacklogGrowing(ramp, 16.0));
  std::vector<double> short_series = {0, 100, 1000};
  EXPECT_FALSE(BacklogGrowing(short_series, 16.0));
}

TEST(Schedule, DependsOnTheSeedAlone) {
  const std::vector<Rung> rungs = {{1000.0, 1.0}, {4000.0, 0.5}};
  const std::vector<ScheduledArrival> a = BuildSchedule(7, rungs, 16);
  const std::vector<ScheduledArrival> b = BuildSchedule(7, rungs, 16);
  const std::vector<ScheduledArrival> c = BuildSchedule(8, rungs, 16);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due, b[i].due);
    EXPECT_EQ(a[i].session, b[i].session);
    EXPECT_EQ(a[i].rung, b[i].rung);
  }
  bool differs = a.size() != c.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].due != c[i].due || a[i].session != c[i].session;
  }
  EXPECT_TRUE(differs);
}

TEST(Schedule, RungsAreBackToBackAtTheirRates) {
  const std::vector<Rung> rungs = {{2000.0, 2.0}, {8000.0, 1.0}};
  const std::vector<ScheduledArrival> s = BuildSchedule(3, rungs, 64);
  std::size_t counts[2] = {0, 0};
  double previous = 0.0;
  for (const ScheduledArrival& a : s) {
    EXPECT_GE(a.due, previous);
    previous = a.due;
    EXPECT_LT(a.session, 64u);
    if (a.rung == 0) {
      EXPECT_LT(a.due, 2.0);
    } else {
      EXPECT_GE(a.due, 2.0);
      EXPECT_LT(a.due, 3.0);
    }
    ++counts[a.rung];
  }
  // Poisson counts: 4000 and 8000 expected; allow five standard deviations.
  EXPECT_NEAR(static_cast<double>(counts[0]), 4000.0, 5 * std::sqrt(4000.0));
  EXPECT_NEAR(static_cast<double>(counts[1]), 8000.0, 5 * std::sqrt(8000.0));
}

TEST(Schedule, ArrivalSourceIsReproduciblePerSeed) {
  ArrivalSource a(11, 6, 100), b(11, 6, 100), c(12, 6, 100);
  faction::Example x, y, z;
  bool any_difference = false;
  for (int i = 0; i < 250; ++i) {
    a.Next(&x);
    b.Next(&y);
    c.Next(&z);
    EXPECT_EQ(x.x, y.x);
    EXPECT_EQ(x.label, y.label);
    EXPECT_EQ(x.sensitive, y.sensitive);
    EXPECT_EQ(x.environment, (i / 100) % 4);
    any_difference = any_difference || x.x != z.x;
  }
  EXPECT_TRUE(any_difference);
  EXPECT_EQ(a.drawn(), 250u);
}

TEST(Schedule, OtherGroupFlipsOnlyTheGroupShift) {
  ArrivalSource source(5, 6, 100);
  faction::Example ex, other, back;
  for (int i = 0; i < 20; ++i) {
    source.Next(&ex);
    ArrivalSource::OtherGroup(ex, &other);
    EXPECT_EQ(other.sensitive, -ex.sensitive);
    EXPECT_EQ(other.label, ex.label);
    EXPECT_EQ(other.environment, ex.environment);
    ASSERT_EQ(other.x.size(), ex.x.size());
    for (std::size_t d = 0; d < ex.x.size(); ++d) {
      EXPECT_NEAR(other.x[d] - ex.x[d], 0.8 * other.sensitive, 1e-12);
    }
    ArrivalSource::OtherGroup(other, &back);
    EXPECT_EQ(back.sensitive, ex.sensitive);
  }
}

TEST(Parity, FirstMismatchCatchesAPlantedMismatch) {
  std::vector<std::uint8_t> live = {1, 0, 0, 1, 1, 0, 1};
  std::vector<std::uint8_t> replay = live;
  EXPECT_EQ(FirstMismatch(live, replay), -1);
  replay[4] ^= 1;
  EXPECT_EQ(FirstMismatch(live, replay), 4);
  replay = live;
  replay.pop_back();
  EXPECT_EQ(FirstMismatch(live, replay), 6);
  EXPECT_EQ(FirstMismatch({}, {}), -1);
}

std::vector<const char*> Argv(std::initializer_list<const char*> args) {
  std::vector<const char*> v = {"perfbench"};
  v.insert(v.end(), args);
  return v;
}

bool Parses(std::initializer_list<const char*> args, Options* options) {
  const std::vector<const char*> argv = Argv(args);
  std::string error;
  return ParseOptions(static_cast<int>(argv.size()), argv.data(), options,
                      &error);
}

TEST(Args, StrictNumericFlags) {
  Options o;
  ASSERT_TRUE(Parses({"--workload", "serve_aged", "--seed", "42",
                      "--seconds", "20", "--trace", "1"},
                     &o));
  EXPECT_EQ(o.workload, "serve_aged");
  EXPECT_EQ(o.seed, 42u);
  EXPECT_EQ(o.seconds, 20);
  EXPECT_TRUE(o.trace);
  Options bad;
  EXPECT_FALSE(Parses({"--workload", "w", "--seed", "10x"}, &bad));
  EXPECT_FALSE(Parses({"--workload", "w", "--seed", "-1"}, &bad));
  EXPECT_FALSE(Parses({"--workload", "w", "--seed", ""}, &bad));
  EXPECT_FALSE(Parses({"--workload", "w", "--seed", "99999999999999999999"},
                      &bad));
  EXPECT_FALSE(Parses({"--workload", "w", "--seconds", "0"}, &bad));
  EXPECT_FALSE(Parses({"--workload", "w", "--seconds", "1.5"}, &bad));
  EXPECT_FALSE(Parses({"--workload", "w", "--seconds", "61"}, &bad));
  EXPECT_FALSE(Parses({"--workload", "w", "--trace", "2"}, &bad));
  EXPECT_FALSE(Parses({"--workload", "w", "--bogus", "1"}, &bad));
  EXPECT_FALSE(Parses({"--seed", "1"}, &bad));
  EXPECT_FALSE(Parses({"--workload"}, &bad));
}

TEST(Spans, SelfTimeSubtractsChildren) {
  SpanRecorder spans;
  const std::int32_t root = spans.Begin("root", SpanRecorder::kNoParent, 1);
  const std::int32_t child = spans.Begin("child", root, 1);
  spans.End(child);
  spans.End(root);
  const auto totals = spans.Totals();
  const SpanRecorder::NameTotals& r = totals.at("root");
  const SpanRecorder::NameTotals& c = totals.at("child");
  EXPECT_EQ(r.count, 1u);
  EXPECT_NEAR(r.self_seconds, r.total_seconds - c.total_seconds, 1e-12);
  EXPECT_EQ(c.self_seconds, c.total_seconds);
}

}  // namespace
}  // namespace perfbench
