#include "data/scenario.h"

#include <charconv>
#include <set>

#include "common/flags.h"
#include "common/rng.h"

namespace faction {

namespace {

// ------------------------------------------------------------ DSL parsing

Status BadSpec(const std::string& what, const std::string& token) {
  return Status::InvalidArgument("scenario: " + what + ": '" + token + "'");
}

bool IsKnownBase(const std::string& name) {
  if (name == "stationary") return true;
  for (const std::string& known : PaperDatasetNames()) {
    if (name == known) return true;
  }
  return false;
}

// Parses "drift=gradual:2"-style values: shape name plus an optional
// ":<count>" argument.
Status ParseDrift(const std::string& value, ScenarioConfig* config) {
  std::string shape = value;
  std::string arg;
  const std::size_t colon = value.find(':');
  if (colon != std::string::npos) {
    shape = value.substr(0, colon);
    arg = value.substr(colon + 1);
  }
  if (shape == "abrupt") {
    if (!arg.empty()) return BadSpec("drift=abrupt takes no argument", value);
    config->drift = ScenarioConfig::DriftShape::kAbrupt;
    return Status::Ok();
  }
  if (shape == "gradual") {
    config->drift = ScenarioConfig::DriftShape::kGradual;
    if (!arg.empty()) {
      if (ParseSize(arg.c_str(), &config->gradual_steps) != nullptr ||
          config->gradual_steps == 0 || config->gradual_steps > 16) {
        return BadSpec("gradual steps must be an integer in [1, 16]", value);
      }
    }
    return Status::Ok();
  }
  if (shape == "recurring") {
    config->drift = ScenarioConfig::DriftShape::kRecurring;
    if (!arg.empty()) {
      if (ParseSize(arg.c_str(), &config->recurring_cycles) != nullptr ||
          config->recurring_cycles == 0 || config->recurring_cycles > 16) {
        return BadSpec("recurring cycles must be an integer in [1, 16]",
                       value);
      }
    }
    return Status::Ok();
  }
  return BadSpec("unknown drift shape", value);
}

// --------------------------------------------------- blueprint transforms

// Signature of an environment for the adversarial ordering: the class-0
// mean plus the additive shift — the direction covariate drift actually
// moves the data.
std::vector<double> EnvSignature(const EnvironmentSpec& env) {
  std::vector<double> sig = env.class0_mean;
  for (std::size_t j = 0; j < env.shift.size() && j < sig.size(); ++j) {
    sig[j] += env.shift[j];
  }
  return sig;
}

double SquaredDistance(const std::vector<double>& a,
                       const std::vector<double>& b) {
  double d2 = 0.0;
  for (std::size_t j = 0; j < a.size() && j < b.size(); ++j) {
    const double d = a[j] - b[j];
    d2 += d * d;
  }
  return d2;
}

// Greedy max-distance walk: starting from the first task, repeatedly jump
// to the remaining task whose environment is farthest from the current one
// (ties by plan index). Maximizes consecutive environment change — the
// adversarial ordering for a drift adapter.
void AdversarialOrder(const std::vector<EnvironmentSpec>& envs,
                      std::vector<TaskPlan>* plan) {
  if (plan->size() < 3) return;
  std::vector<std::vector<double>> signatures;
  signatures.reserve(envs.size());
  for (const EnvironmentSpec& env : envs) {
    signatures.push_back(EnvSignature(env));
  }
  std::vector<TaskPlan> ordered;
  ordered.reserve(plan->size());
  std::vector<bool> used(plan->size(), false);
  std::size_t current = 0;
  used[0] = true;
  ordered.push_back((*plan)[0]);
  for (std::size_t step = 1; step < plan->size(); ++step) {
    const auto& cur_sig =
        signatures[static_cast<std::size_t>((*plan)[current].environment)];
    double best = -1.0;
    std::size_t best_idx = 0;
    for (std::size_t i = 0; i < plan->size(); ++i) {
      if (used[i]) continue;
      const double d2 = SquaredDistance(
          cur_sig,
          signatures[static_cast<std::size_t>((*plan)[i].environment)]);
      if (d2 > best) {
        best = d2;
        best_idx = i;
      }
    }
    used[best_idx] = true;
    ordered.push_back((*plan)[best_idx]);
    current = best_idx;
  }
  *plan = std::move(ordered);
}

void ShuffleOrder(std::uint64_t world_seed, const std::string& tag,
                  std::vector<TaskPlan>* plan) {
  Rng rng(SubSeed(world_seed, tag + "/scenario/order/shuffle"));
  std::vector<std::size_t> perm;
  rng.Permutation(plan->size(), &perm);
  std::vector<TaskPlan> shuffled;
  shuffled.reserve(plan->size());
  for (const std::size_t i : perm) shuffled.push_back((*plan)[i]);
  *plan = std::move(shuffled);
}

double Lerp(double a, double b, double t) { return a + t * (b - a); }

// A blend of two environments at fraction t in [0, 1]: continuous fields
// interpolate linearly; discrete structure (rotation, sensitive channel)
// comes from the nearer endpoint.
EnvironmentSpec BlendEnvironments(const EnvironmentSpec& from,
                                  const EnvironmentSpec& to, double t) {
  const EnvironmentSpec& nearer = t < 0.5 ? from : to;
  EnvironmentSpec env = nearer;
  for (std::size_t j = 0; j < env.class0_mean.size(); ++j) {
    env.class0_mean[j] = Lerp(from.class0_mean[j], to.class0_mean[j], t);
    env.class1_mean[j] = Lerp(from.class1_mean[j], to.class1_mean[j], t);
  }
  const std::size_t dim = env.class0_mean.size();
  std::vector<double> shift(dim, 0.0);
  for (std::size_t j = 0; j < dim; ++j) {
    const double sf = j < from.shift.size() ? from.shift[j] : 0.0;
    const double st = j < to.shift.size() ? to.shift[j] : 0.0;
    shift[j] = Lerp(sf, st, t);
  }
  env.shift = std::move(shift);
  env.noise = Lerp(from.noise, to.noise, t);
  env.bias = Lerp(from.bias, to.bias, t);
  env.positive_fraction =
      Lerp(from.positive_fraction, to.positive_fraction, t);
  return env;
}

// Inserts `steps` interpolated transition tasks at every boundary between
// tasks of different environments. Transition tasks record the nearer
// endpoint's environment id, so per-environment metrics stay attributable.
void GradualTransitions(std::size_t steps, StreamBlueprint* bp) {
  std::vector<TaskPlan> plan;
  plan.reserve(bp->plan.size() * (1 + steps));
  for (std::size_t i = 0; i < bp->plan.size(); ++i) {
    plan.push_back(bp->plan[i]);
    if (i + 1 >= bp->plan.size()) break;
    const TaskPlan& cur = bp->plan[i];
    const TaskPlan& next = bp->plan[i + 1];
    if (cur.environment == next.environment) continue;
    // By value: the push_back below may reallocate bp->environments.
    const EnvironmentSpec from =
        bp->environments[static_cast<std::size_t>(cur.environment)];
    const EnvironmentSpec to =
        bp->environments[static_cast<std::size_t>(next.environment)];
    for (std::size_t s = 1; s <= steps; ++s) {
      const double t =
          static_cast<double>(s) / static_cast<double>(steps + 1);
      TaskPlan tp;
      tp.environment = static_cast<int>(bp->environments.size());
      tp.num_samples = cur.num_samples;
      tp.record_environment =
          t < 0.5 ? cur.environment : next.environment;
      bp->environments.push_back(BlendEnvironments(from, to, t));
      plan.push_back(tp);
    }
  }
  bp->plan = std::move(plan);
}

void RecurringCycles(std::size_t cycles, StreamBlueprint* bp) {
  const std::vector<TaskPlan> once = bp->plan;
  bp->plan.clear();
  bp->plan.reserve(once.size() * cycles);
  for (std::size_t c = 0; c < cycles; ++c) {
    bp->plan.insert(bp->plan.end(), once.begin(), once.end());
  }
}

// Supervision lag: task i keeps its covariate environment but draws its
// label-coupling fields (bias, positive fraction) from the environment of
// task i-k — the label process a k-task-delayed oracle would exhibit.
void DelayLabels(std::size_t delay, StreamBlueprint* bp) {
  const std::vector<TaskPlan> plan = bp->plan;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const std::size_t lag_index = i >= delay ? i - delay : 0;
    const int cur_env = plan[i].environment;
    const int lag_env = plan[lag_index].environment;
    if (lag_env == cur_env) continue;
    EnvironmentSpec hybrid =
        bp->environments[static_cast<std::size_t>(cur_env)];
    const EnvironmentSpec& lagged =
        bp->environments[static_cast<std::size_t>(lag_env)];
    hybrid.bias = lagged.bias;
    hybrid.positive_fraction = lagged.positive_fraction;
    TaskPlan& tp = bp->plan[i];
    if (tp.record_environment < 0) tp.record_environment = cur_env;
    tp.environment = static_cast<int>(bp->environments.size());
    bp->environments.push_back(std::move(hybrid));
  }
}

// Flips each label with probability `p`, under a per-task sub-seed — the
// features stay bit-identical to the noise-free stream.
Result<std::vector<Dataset>> ApplyLabelNoise(
    std::vector<Dataset> tasks, double p, std::uint64_t world_seed,
    const std::string& tag) {
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    Rng rng(SubSeed(world_seed,
                    tag + "/scenario/label_noise/task/" + std::to_string(t)));
    Dataset noisy(tasks[t].dim());
    Example e;
    for (std::size_t i = 0; i < tasks[t].size(); ++i) {
      tasks[t].GetInto(i, &e);
      if (rng.Bernoulli(p)) e.label = 1 - e.label;
      FACTION_RETURN_IF_ERROR(noisy.Append(e));
    }
    tasks[t] = std::move(noisy);
  }
  return tasks;
}

}  // namespace

Result<ScenarioConfig> ParseScenario(const std::string& spec) {
  ScenarioConfig config;
  std::vector<std::string> tokens;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t semi = spec.find(';', start);
    const std::size_t end = semi == std::string::npos ? spec.size() : semi;
    tokens.push_back(spec.substr(start, end - start));
    if (semi == std::string::npos) break;
    start = semi + 1;
  }
  if (tokens.empty() || tokens[0].empty()) {
    return BadSpec("missing base dataset", spec);
  }
  if (!IsKnownBase(tokens[0])) {
    return BadSpec("unknown base dataset", tokens[0]);
  }
  config.base = tokens[0];

  std::set<std::string> seen;
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (token.empty()) return BadSpec("empty layer", spec);
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) return BadSpec("layer needs key=value",
                                                token);
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (!seen.insert(key).second) return BadSpec("duplicate layer", key);
    if (key == "drift") {
      FACTION_RETURN_IF_ERROR(ParseDrift(value, &config));
    } else if (key == "order") {
      if (value == "plan") {
        config.order = ScenarioConfig::TaskOrder::kPlan;
      } else if (value == "adversarial") {
        config.order = ScenarioConfig::TaskOrder::kAdversarial;
      } else if (value == "shuffle") {
        config.order = ScenarioConfig::TaskOrder::kShuffle;
      } else {
        return BadSpec("unknown task order", value);
      }
    } else if (key == "label_noise") {
      if (ParseDouble(value.c_str(), &config.label_noise) != nullptr ||
          config.label_noise < 0.0 || config.label_noise > 0.5) {
        return BadSpec("label_noise must be a number in [0, 0.5]", value);
      }
    } else if (key == "label_delay") {
      if (ParseSize(value.c_str(), &config.label_delay) != nullptr) {
        return BadSpec("label_delay must be a non-negative integer", value);
      }
    } else if (key == "imbalance") {
      if (ParseDouble(value.c_str(), &config.group_imbalance) != nullptr ||
          config.group_imbalance < 0.0 || config.group_imbalance > 0.9) {
        return BadSpec("imbalance must be a number in [0, 0.9]", value);
      }
    } else {
      return BadSpec("unknown layer key", key);
    }
  }
  return config;
}

std::string CanonicalScenarioSpec(const ScenarioConfig& config) {
  std::string spec = config.base;
  switch (config.drift) {
    case ScenarioConfig::DriftShape::kAbrupt:
      break;
    case ScenarioConfig::DriftShape::kGradual:
      spec += ";drift=gradual:" + std::to_string(config.gradual_steps);
      break;
    case ScenarioConfig::DriftShape::kRecurring:
      spec += ";drift=recurring:" + std::to_string(config.recurring_cycles);
      break;
  }
  switch (config.order) {
    case ScenarioConfig::TaskOrder::kPlan:
      break;
    case ScenarioConfig::TaskOrder::kAdversarial:
      spec += ";order=adversarial";
      break;
    case ScenarioConfig::TaskOrder::kShuffle:
      spec += ";order=shuffle";
      break;
  }
  // Shortest decimals that parse back to the same double ("0.05" stays
  // "0.05"; %g would cut 0.123456789 to 0.123457).
  const auto shortest = [](double value) {
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
  };
  if (config.label_noise > 0.0) {
    spec += ";label_noise=" + shortest(config.label_noise);
  }
  if (config.label_delay > 0) {
    spec += ";label_delay=" + std::to_string(config.label_delay);
  }
  if (config.group_imbalance > 0.0) {
    spec += ";imbalance=" + shortest(config.group_imbalance);
  }
  return spec;
}

Result<StreamBlueprint> BuildScenarioBlueprint(const ScenarioConfig& config,
                                               const StreamScale& scale) {
  FACTION_ASSIGN_OR_RETURN(StreamBlueprint bp,
                           MakePaperBlueprint(config.base, scale));
  switch (config.order) {
    case ScenarioConfig::TaskOrder::kPlan:
      break;
    case ScenarioConfig::TaskOrder::kAdversarial:
      AdversarialOrder(bp.environments, &bp.plan);
      break;
    case ScenarioConfig::TaskOrder::kShuffle:
      ShuffleOrder(bp.world_seed, bp.tag, &bp.plan);
      break;
  }
  switch (config.drift) {
    case ScenarioConfig::DriftShape::kAbrupt:
      break;
    case ScenarioConfig::DriftShape::kGradual:
      GradualTransitions(config.gradual_steps, &bp);
      break;
    case ScenarioConfig::DriftShape::kRecurring:
      RecurringCycles(config.recurring_cycles, &bp);
      break;
  }
  if (config.label_delay > 0) DelayLabels(config.label_delay, &bp);
  if (config.group_imbalance > 0.0) {
    for (EnvironmentSpec& env : bp.environments) {
      env.group_rate_scale = 1.0 - config.group_imbalance;
    }
  }
  return bp;
}

Result<std::vector<Dataset>> MakeScenarioStream(const ScenarioConfig& config,
                                                const StreamScale& scale) {
  FACTION_ASSIGN_OR_RETURN(StreamBlueprint bp,
                           BuildScenarioBlueprint(config, scale));
  FACTION_ASSIGN_OR_RETURN(std::vector<Dataset> tasks,
                           MaterializeStream(bp));
  if (config.label_noise > 0.0) {
    return ApplyLabelNoise(std::move(tasks), config.label_noise,
                           bp.world_seed, bp.tag);
  }
  return tasks;
}

Result<std::vector<Dataset>> MakeScenarioStream(const std::string& spec,
                                                const StreamScale& scale) {
  FACTION_ASSIGN_OR_RETURN(ScenarioConfig config, ParseScenario(spec));
  return MakeScenarioStream(config, scale);
}

const std::vector<std::string>& ScenarioPresetSpecs() {
  static const std::vector<std::string> specs = {
      "stationary",
      "rcmnist",
      "rcmnist;drift=recurring:2;order=adversarial",
      "nysf;drift=gradual:2",
      "fairface;order=shuffle;label_noise=0.05",
      "celeba;label_delay=1;imbalance=0.3",
  };
  return specs;
}

}  // namespace faction
