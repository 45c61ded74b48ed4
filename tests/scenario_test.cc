#include "data/scenario.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/presets.h"
#include "data/streams.h"
#include "gtest/gtest.h"

namespace faction {
namespace {

// Bitwise matrix equality (no tolerance: the determinism contract is exact).
void ExpectSameMatrix(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      ASSERT_EQ(a(i, j), b(i, j)) << "row " << i << " col " << j;
    }
  }
}

void ExpectSameTask(const Dataset& a, const Dataset& b) {
  ExpectSameMatrix(a.features(), b.features());
  EXPECT_EQ(a.labels(), b.labels());
  EXPECT_EQ(a.sensitive(), b.sensitive());
  EXPECT_EQ(a.environments(), b.environments());
}

// ------------------------------------------------------------------ SubSeed

TEST(SubSeedTest, GoldenValues) {
  // Pinned FNV-1a values: a change here silently re-seeds every stream, so
  // the constants are part of the reproducibility contract.
  EXPECT_EQ(SubSeed(0, ""), 1469598103934665603ULL);
  EXPECT_EQ(SubSeed(7, "rcmnist/prototypes"), 534959728108762854ULL);
  EXPECT_EQ(SubSeed(7, "rcmnist/env/0/task/0"), 8699483202193576342ULL);
}

TEST(SubSeedTest, TagAndSeedBothMatter) {
  EXPECT_NE(SubSeed(7, "a/b"), SubSeed(7, "a/c"));
  EXPECT_NE(SubSeed(7, "a/b"), SubSeed(8, "a/b"));
  EXPECT_EQ(SubSeed(7, "a/b"), SubSeed(7, "a/b"));
}

// ------------------------------------------------------- seed decoupling

TEST(SeedDecouplingTest, TasksPerEnvironmentDoesNotPerturbOtherTasks) {
  // Regression: generator draws used to flow through one shared RNG, so
  // adding a task to one environment re-seeded every later draw. With
  // per-task sub-seeds, the k-th task of environment e is bitwise identical
  // whether the plan holds 3 or 4 tasks per environment.
  RcmnistConfig three;
  three.scale.samples_per_task = 80;
  three.scale.seed = 21;
  three.tasks_per_environment = 3;
  RcmnistConfig four = three;
  four.tasks_per_environment = 4;
  const Result<std::vector<Dataset>> s3 = MakeRcmnistStream(three);
  const Result<std::vector<Dataset>> s4 = MakeRcmnistStream(four);
  ASSERT_TRUE(s3.ok());
  ASSERT_TRUE(s4.ok());
  const std::size_t envs = three.biases.size();
  ASSERT_EQ(s3.value().size(), envs * 3);
  ASSERT_EQ(s4.value().size(), envs * 4);
  for (std::size_t e = 0; e < envs; ++e) {
    for (std::size_t k = 0; k < 3; ++k) {
      ExpectSameTask(s3.value()[e * 3 + k], s4.value()[e * 4 + k]);
    }
  }
}

TEST(SeedDecouplingTest, EnvironmentPrototypesIgnorePlanShape) {
  RcmnistConfig three;
  three.scale.seed = 33;
  RcmnistConfig four = three;
  three.tasks_per_environment = 3;
  four.tasks_per_environment = 4;
  const Result<StreamBlueprint> b3 = MakeRcmnistBlueprint(three);
  const Result<StreamBlueprint> b4 = MakeRcmnistBlueprint(four);
  ASSERT_TRUE(b3.ok());
  ASSERT_TRUE(b4.ok());
  ASSERT_EQ(b3.value().environments.size(), b4.value().environments.size());
  for (std::size_t e = 0; e < b3.value().environments.size(); ++e) {
    EXPECT_EQ(b3.value().environments[e].class0_mean,
              b4.value().environments[e].class0_mean);
    EXPECT_EQ(b3.value().environments[e].class1_mean,
              b4.value().environments[e].class1_mean);
    EXPECT_EQ(b3.value().environments[e].group_offset,
              b4.value().environments[e].group_offset);
  }
}

// ----------------------------------------------------------- DSL parsing

TEST(ScenarioParseTest, DefaultsAndRoundTrip) {
  const Result<ScenarioConfig> parsed = ParseScenario("nysf");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().base, "nysf");
  EXPECT_EQ(parsed.value().drift, ScenarioConfig::DriftShape::kAbrupt);
  EXPECT_EQ(parsed.value().order, ScenarioConfig::TaskOrder::kPlan);
  EXPECT_DOUBLE_EQ(parsed.value().label_noise, 0.0);
  EXPECT_EQ(parsed.value().label_delay, 0u);
  EXPECT_EQ(CanonicalScenarioSpec(parsed.value()), "nysf");
}

TEST(ScenarioParseTest, FullSpecRoundTrip) {
  const std::string spec =
      "rcmnist;drift=recurring:3;order=adversarial;label_noise=0.05;"
      "label_delay=2;imbalance=0.3";
  const Result<ScenarioConfig> parsed = ParseScenario(spec);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().drift, ScenarioConfig::DriftShape::kRecurring);
  EXPECT_EQ(parsed.value().recurring_cycles, 3u);
  EXPECT_EQ(parsed.value().order, ScenarioConfig::TaskOrder::kAdversarial);
  EXPECT_DOUBLE_EQ(parsed.value().label_noise, 0.05);
  EXPECT_EQ(parsed.value().label_delay, 2u);
  EXPECT_DOUBLE_EQ(parsed.value().group_imbalance, 0.3);
  // Canonical form is layer-order-normalized and re-parses identically.
  const std::string canon = CanonicalScenarioSpec(parsed.value());
  EXPECT_EQ(canon, spec);
  const Result<ScenarioConfig> reparsed = ParseScenario(canon);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(CanonicalScenarioSpec(reparsed.value()), canon);
}

TEST(ScenarioParseTest, GradualDefaultsToOneStep) {
  const Result<ScenarioConfig> parsed = ParseScenario("ffhq;drift=gradual");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().gradual_steps, 1u);
  EXPECT_EQ(CanonicalScenarioSpec(parsed.value()), "ffhq;drift=gradual:1");
}

TEST(ScenarioParseTest, RejectsMalformedSpecs) {
  const char* bad[] = {
      "",                                // missing base
      "mnist",                           // unknown base
      "rcmnist;volume=11",               // unknown key
      "rcmnist;drift=sideways",          // unknown drift shape
      "rcmnist;drift=abrupt:3",          // abrupt takes no argument
      "rcmnist;drift=gradual:0",         // out of range
      "rcmnist;drift=recurring:17",      // out of range
      "rcmnist;order=chaotic",           // unknown order
      "rcmnist;label_noise=0.6",         // above 0.5
      "rcmnist;label_noise=abc",         // not a number
      "rcmnist;label_noise=0.1x",        // trailing junk
      "rcmnist;label_delay=-1",          // negative
      "nysf;label_delay= -1",            // blank-prefixed negative
      "nysf;label_delay= 1",             // leading blank
      "nysf;drift=gradual: 3",           // leading blank
      "nysf;label_noise= 0.1",           // leading blank
      "rcmnist;imbalance=0.95",          // above 0.9
      "rcmnist;drift=abrupt;drift=gradual",  // duplicate key
      "rcmnist;order",                   // missing '='
  };
  for (const char* spec : bad) {
    EXPECT_FALSE(ParseScenario(spec).ok()) << "accepted: " << spec;
  }
}

TEST(ScenarioParseTest, StationaryIsAValidBase) {
  EXPECT_TRUE(ParseScenario("stationary").ok());
}

TEST(ScenarioParseTest, PresetSpecsAllParse) {
  for (const std::string& spec : ScenarioPresetSpecs()) {
    EXPECT_TRUE(ParseScenario(spec).ok()) << spec;
  }
}

// -------------------------------------------------------- materialization

StreamScale SmallScale(std::uint64_t seed = 17) {
  StreamScale scale;
  scale.samples_per_task = 60;
  scale.seed = seed;
  return scale;
}

TEST(ScenarioStreamTest, WorldSeedReproducibility) {
  // Every cell of the matrix is reproducible bitwise from (spec, scale).
  for (const std::string& spec : ScenarioPresetSpecs()) {
    const Result<std::vector<Dataset>> a = MakeScenarioStream(spec,
                                                              SmallScale());
    const Result<std::vector<Dataset>> b = MakeScenarioStream(spec,
                                                              SmallScale());
    ASSERT_TRUE(a.ok()) << spec;
    ASSERT_TRUE(b.ok()) << spec;
    ASSERT_EQ(a.value().size(), b.value().size()) << spec;
    for (std::size_t t = 0; t < a.value().size(); ++t) {
      ExpectSameTask(a.value()[t], b.value()[t]);
    }
  }
}

TEST(ScenarioStreamTest, RecurringRepeatsThePlan) {
  const Result<std::vector<Dataset>> base =
      MakeScenarioStream("rcmnist", SmallScale());
  const Result<std::vector<Dataset>> rec =
      MakeScenarioStream("rcmnist;drift=recurring:2", SmallScale());
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(rec.ok());
  ASSERT_EQ(rec.value().size(), base.value().size() * 2);
  const std::size_t n = base.value().size();
  for (std::size_t t = 0; t < n; ++t) {
    // Cycle 1 is the base stream bit-for-bit; cycle 2 revisits the same
    // environments with fresh (occurrence-counter-seeded) draws.
    ExpectSameTask(rec.value()[t], base.value()[t]);
    EXPECT_EQ(rec.value()[n + t].environments(),
              base.value()[t].environments());
  }
}

TEST(ScenarioStreamTest, GradualInsertsTransitionTasks) {
  const Result<std::vector<Dataset>> base =
      MakeScenarioStream("rcmnist", SmallScale());
  const Result<std::vector<Dataset>> grad =
      MakeScenarioStream("rcmnist;drift=gradual:2", SmallScale());
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(grad.ok());
  // 12 base tasks, 3 environment boundaries, 2 transition tasks each.
  EXPECT_EQ(base.value().size(), 12u);
  EXPECT_EQ(grad.value().size(), 18u);
  // Transition tasks attribute themselves to a real environment id.
  for (const Dataset& task : grad.value()) {
    for (const int env : task.environments()) {
      EXPECT_GE(env, 0);
      EXPECT_LT(env, 4);
    }
  }
}

TEST(ScenarioStreamTest, AdversarialOrderIsAPermutation) {
  const Result<StreamBlueprint> base =
      MakePaperBlueprint("fairface", SmallScale());
  ASSERT_TRUE(base.ok());
  const Result<ScenarioConfig> config =
      ParseScenario("fairface;order=adversarial");
  ASSERT_TRUE(config.ok());
  const Result<StreamBlueprint> adv =
      BuildScenarioBlueprint(config.value(), SmallScale());
  ASSERT_TRUE(adv.ok());
  ASSERT_EQ(adv.value().plan.size(), base.value().plan.size());
  std::vector<int> base_envs, adv_envs;
  for (const TaskPlan& tp : base.value().plan) {
    base_envs.push_back(tp.environment);
  }
  for (const TaskPlan& tp : adv.value().plan) {
    adv_envs.push_back(tp.environment);
  }
  std::vector<int> base_sorted = base_envs, adv_sorted = adv_envs;
  std::sort(base_sorted.begin(), base_sorted.end());
  std::sort(adv_sorted.begin(), adv_sorted.end());
  EXPECT_EQ(base_sorted, adv_sorted);  // permutation, nothing lost
  EXPECT_NE(base_envs, adv_envs);      // and actually reordered
  // The walk maximizes task-to-task change. The greedy tail can be forced
  // into same-environment repeats once only the current environment's
  // tasks remain, so compare adjacency counts instead of forbidding them:
  // the base env-major plan has 2 same-env adjacencies per block.
  auto same_adjacent = [](const std::vector<int>& envs) {
    std::size_t count = 0;
    for (std::size_t i = 1; i < envs.size(); ++i) {
      if (envs[i] == envs[i - 1]) ++count;
    }
    return count;
  };
  EXPECT_EQ(same_adjacent(base_envs), 14u);
  EXPECT_LT(same_adjacent(adv_envs), 4u);
}

TEST(ScenarioStreamTest, LabelNoiseKeepsFeaturesBitIdentical) {
  const Result<std::vector<Dataset>> clean =
      MakeScenarioStream("celeba", SmallScale());
  const Result<std::vector<Dataset>> noisy =
      MakeScenarioStream("celeba;label_noise=0.2", SmallScale());
  ASSERT_TRUE(clean.ok());
  ASSERT_TRUE(noisy.ok());
  ASSERT_EQ(clean.value().size(), noisy.value().size());
  std::size_t flipped = 0;
  for (std::size_t t = 0; t < clean.value().size(); ++t) {
    ExpectSameMatrix(clean.value()[t].features(),
                     noisy.value()[t].features());
    EXPECT_EQ(clean.value()[t].sensitive(), noisy.value()[t].sensitive());
    for (std::size_t i = 0; i < clean.value()[t].size(); ++i) {
      if (clean.value()[t].labels()[i] != noisy.value()[t].labels()[i]) {
        ++flipped;
      }
    }
  }
  // ~20% of all labels flip; far more than 0, far less than half.
  const std::size_t total =
      clean.value().size() * clean.value()[0].size();
  EXPECT_GT(flipped, total / 10);
  EXPECT_LT(flipped, total / 3);
}

TEST(ScenarioStreamTest, LabelDelayOnlyTouchesBoundaryTasks) {
  const Result<std::vector<Dataset>> base =
      MakeScenarioStream("rcmnist", SmallScale());
  const Result<std::vector<Dataset>> delayed =
      MakeScenarioStream("rcmnist;label_delay=1", SmallScale());
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(delayed.ok());
  ASSERT_EQ(base.value().size(), delayed.value().size());
  for (std::size_t t = 0; t < base.value().size(); ++t) {
    // Recorded environment ids are unchanged — supervision lag must not
    // break per-environment attribution.
    EXPECT_EQ(base.value()[t].environments(),
              delayed.value()[t].environments());
    if (t % 3 != 0 || t == 0) {
      // Interior of an environment block: the lagged environment equals
      // the current one, so the task is bitwise untouched.
      ExpectSameTask(base.value()[t], delayed.value()[t]);
    }
  }
}

TEST(ScenarioStreamTest, ImbalanceSuppressesTheProtectedGroup) {
  const Result<std::vector<Dataset>> base =
      MakeScenarioStream("rcmnist", SmallScale());
  const Result<std::vector<Dataset>> skewed =
      MakeScenarioStream("rcmnist;imbalance=0.6", SmallScale());
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(skewed.ok());
  double base_frac = 0.0, skewed_frac = 0.0;
  for (const Dataset& t : base.value()) base_frac += t.GroupFraction();
  for (const Dataset& t : skewed.value()) skewed_frac += t.GroupFraction();
  base_frac /= static_cast<double>(base.value().size());
  skewed_frac /= static_cast<double>(skewed.value().size());
  EXPECT_LT(skewed_frac, base_frac - 0.1);
  EXPECT_GT(skewed_frac, 0.0);
}

TEST(ScenarioStreamTest, PresetSpecsAllMaterialize) {
  StreamScale scale;
  scale.samples_per_task = 40;
  scale.seed = 5;
  for (const std::string& spec : ScenarioPresetSpecs()) {
    const Result<std::vector<Dataset>> stream =
        MakeScenarioStream(spec, scale);
    ASSERT_TRUE(stream.ok()) << spec << ": " << stream.status().ToString();
    EXPECT_FALSE(stream.value().empty()) << spec;
  }
}

// ------------------------------------------------- new strategies, smoke

ExperimentDefaults SmokeDefaults() {
  ExperimentDefaults defaults;
  defaults.budget_per_task = 40;
  defaults.acquisition_batch = 20;
  defaults.warm_start = 40;
  defaults.hidden_dims = {12, 6};
  defaults.epochs = 2;
  return defaults;
}

TEST(NewStrategyTest, BanditLearnsOnStationaryScenario) {
  StreamScale scale;
  scale.samples_per_task = 150;
  scale.seed = 11;
  const Result<std::vector<Dataset>> stream =
      MakeScenarioStream("stationary", scale);
  ASSERT_TRUE(stream.ok());
  const Result<RunResult> run =
      RunMethodOnStream("Bandit", stream.value(), SmokeDefaults(), 3);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GT(run.value().per_task.back().accuracy, 0.6);
}

TEST(NewStrategyTest, DisentangledLearnsOnStationaryScenario) {
  StreamScale scale;
  scale.samples_per_task = 150;
  scale.seed = 11;
  const Result<std::vector<Dataset>> stream =
      MakeScenarioStream("stationary", scale);
  ASSERT_TRUE(stream.ok());
  const Result<RunResult> run =
      RunMethodOnStream("Disentangled", stream.value(), SmokeDefaults(), 3);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GT(run.value().per_task.back().accuracy, 0.6);
}

TEST(NewStrategyTest, RunsAreDeterministic) {
  StreamScale scale;
  scale.samples_per_task = 100;
  scale.seed = 19;
  const Result<std::vector<Dataset>> stream =
      MakeScenarioStream("rcmnist;drift=recurring:2", scale);
  ASSERT_TRUE(stream.ok());
  for (const char* method : {"Bandit", "Disentangled"}) {
    const Result<RunResult> a =
        RunMethodOnStream(method, stream.value(), SmokeDefaults(), 9);
    const Result<RunResult> b =
        RunMethodOnStream(method, stream.value(), SmokeDefaults(), 9);
    ASSERT_TRUE(a.ok()) << method;
    ASSERT_TRUE(b.ok()) << method;
    ASSERT_EQ(a.value().per_task.size(), b.value().per_task.size());
    for (std::size_t t = 0; t < a.value().per_task.size(); ++t) {
      EXPECT_EQ(a.value().per_task[t].accuracy,
                b.value().per_task[t].accuracy)
          << method << " task " << t;
      EXPECT_EQ(a.value().per_task[t].queries_used,
                b.value().per_task[t].queries_used)
          << method << " task " << t;
    }
  }
}

TEST(NewStrategyTest, ExtendedMethodNamesAllConstruct) {
  const ExperimentDefaults defaults;
  for (const std::string& method : ExtendedMethodNames()) {
    EXPECT_TRUE(MakeStrategy(method, defaults).ok()) << method;
  }
}

}  // namespace
}  // namespace faction
