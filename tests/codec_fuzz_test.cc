// Seeded mutation fuzz over the text decoders and parsers: the session
// checkpoint codec (a grow-only and a windowed session), the v2 model
// serializer, the checkpoint manifest reader and the scenario DSL (its
// preset specs). Each trial substitutes 1-6 bytes (1-2 in a spec) of a
// valid input built in-test from fixed seeds. Every mutant must either be rejected with a
// Status or survive: a session survivor decodes, restores, and takes enough
// arrivals for a refit and a window eviction; a model survivor predicts; a
// scenario survivor re-parses from its canonical spec to the same config
// and builds its stream. An abort anywhere fails the suite.
//
// Mutants that decode and run are counted as silent accepts: without a
// per-record checksum the codec cannot tell a corrupted value from a real
// one, so that count is reported, not asserted.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "common/rng.h"
#include "core/streaming_faction.h"
#include "data/dataset.h"
#include "data/scenario.h"
#include "nn/serialize.h"
#include "serve/checkpoint.h"
#include "serve/state_codec.h"

namespace faction {
namespace {

constexpr int kTrialsPerCorpus = 400;
constexpr std::uint64_t kFuzzSeed = 0xF0221;
// The last surviving mutant is written here before it runs, so a crash
// leaves its reproducer behind.
constexpr char kLastSurvivor[] = "/tmp/faction_codec_fuzz_last_survivor";

StreamingFactionConfig CorpusConfig(bool windowed) {
  StreamingFactionConfig config;
  config.model.input_dim = 4;
  config.model.hidden_dims = {6};
  config.model.num_classes = 2;
  config.train.epochs = 2;
  config.train.batch_size = 16;
  config.warm_start = 12;
  config.burn_in = 6;
  config.refit_interval = 16;
  config.seed = 17;
  if (windowed) {
    config.density_window = 24;
    config.density_decay = 0.97;
  }
  return config;
}

Example MakeExample(std::size_t dim, Rng* rng) {
  Example ex;
  ex.label = rng->Bernoulli(0.5) ? 1 : 0;
  ex.sensitive = rng->Bernoulli(0.5) ? 1 : -1;
  ex.environment = 0;
  ex.x.resize(dim);
  for (double& v : ex.x) {
    v = rng->Gaussian(ex.label == 1 ? 1.0 : -1.0, 1.0) + 0.3 * ex.sensitive;
  }
  return ex;
}

std::string SessionCorpus(bool windowed) {
  StreamingFaction learner(CorpusConfig(windowed));
  Rng rng(windowed ? 71 : 70);
  for (int i = 0; i < 90; ++i) {
    const Example ex = MakeExample(4, &rng);
    if (learner.ShouldQuery(ex).value()) {
      EXPECT_TRUE(learner.ProvideLabel(ex).ok());
    }
  }
  SessionState state;
  CaptureSessionState(learner, &state);
  state.stream_id = 3;
  state.generation = 2;
  state.steps = 90;
  if (windowed) {
    EXPECT_GT(state.ring_size, 0u);
  }
  EXPECT_TRUE(state.density.has_value);
  std::string encoded;
  EncodeSessionState(state, &encoded);
  return encoded;
}

std::string ModelCorpus() {
  MlpConfig config;
  config.input_dim = 4;
  config.hidden_dims = {5, 3};
  config.spectral.enabled = true;
  Rng rng(72);
  MlpClassifier model(config, &rng);
  std::ostringstream os;
  EXPECT_TRUE(SaveModel(model, os).ok());
  return os.str();
}

std::string ManifestCorpus() {
  return "faction-manifest v1\n"
         "sessions 3\n"
         "0 4 1024 session-0-g4.ckpt\n"
         "7 2 512 session-7-g2.ckpt\n"
         "12 9 2304 session-12-g9.ckpt\n";
}

/// Substitutes 1 to max_edits bytes, each with a different byte: half the
/// time one that keeps a number a number, otherwise any byte.
std::string Mutate(const std::string& text, int max_edits, Rng* rng) {
  static const std::string kNumeric = "0123456789abcdefpx+-. \n";
  std::string out = text;
  const int edits = 1 + static_cast<int>(rng->UniformInt(max_edits));
  for (int e = 0; e < edits; ++e) {
    const std::size_t pos = rng->UniformInt(out.size());
    char c = out[pos];
    while (c == out[pos]) {
      c = rng->Bernoulli(0.5)
              ? kNumeric[rng->UniformInt(kNumeric.size())]
              : static_cast<char>(rng->UniformInt(256));
    }
    out[pos] = c;
  }
  return out;
}

void KeepReproducer(const std::string& mutant) {
  std::ofstream f(kLastSurvivor, std::ios::trunc);
  f << mutant;
}

struct Tally {
  int rejected = 0;
  int accepted = 0;
};

/// Decodes a session mutant; a survivor is restored into a learner built
/// from its own config and fed arrivals until it has bought enough labels
/// for a refit and, when windowed, an eviction.
void RunSessionTrial(const std::string& mutant, Tally* tally) {
  std::istringstream is(mutant);
  SessionState state;
  if (!DecodeSessionState(is, "mutant", &state).ok()) {
    ++tally->rejected;
    return;
  }
  KeepReproducer(mutant);
  StreamingFaction learner(state.config);
  if (!RestoreSessionState(state, &learner).ok()) {
    ++tally->rejected;
    return;
  }
  const std::size_t dim = state.config.model.input_dim;
  const std::size_t goal = learner.pool_size() +
                           state.config.refit_interval +
                           state.config.density_window + 2;
  Rng rng(state.seen);
  for (int i = 0; i < 600 && learner.pool_size() < goal; ++i) {
    const Example ex = MakeExample(dim, &rng);
    const Result<bool> query = learner.ShouldQuery(ex);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    if (query.value()) {
      // A failed refit is a Status, not a crash; either outcome is fine.
      (void)learner.ProvideLabel(ex);
    }
  }
  ++tally->accepted;
}

void RunModelTrial(const std::string& mutant, Tally* tally) {
  std::istringstream is(mutant);
  Result<MlpClassifier> loaded = LoadModel(is, "mutant");
  if (!loaded.ok()) {
    ++tally->rejected;
    return;
  }
  KeepReproducer(mutant);
  const MlpClassifier& model = loaded.value();
  Rng rng(5);
  Matrix x(8, model.config().input_dim);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.Gaussian(0, 1);
  EXPECT_EQ(8u, model.Predict(x).size());
  std::ostringstream os;
  (void)SaveModel(model, os);
  ++tally->accepted;
}

void RunManifestTrial(const std::string& mutant, Tally* tally) {
  const std::string path =
      testing::TempDir() + "faction_codec_fuzz_manifest";
  {
    std::ofstream f(path, std::ios::trunc | std::ios::binary);
    f << mutant;
  }
  const Result<std::vector<CheckpointManifestEntry>> entries =
      CheckpointManager::ReadManifest(path);
  std::remove(path.c_str());
  if (!entries.ok()) {
    ++tally->rejected;
    return;
  }
  for (const CheckpointManifestEntry& e : entries.value()) {
    EXPECT_FALSE(e.filename.empty());
  }
  ++tally->accepted;
}

void ExpectSameScenario(const ScenarioConfig& a, const ScenarioConfig& b,
                        const std::string& spec) {
  EXPECT_EQ(a.base, b.base) << spec;
  EXPECT_EQ(a.drift, b.drift) << spec;
  EXPECT_EQ(a.gradual_steps, b.gradual_steps) << spec;
  EXPECT_EQ(a.recurring_cycles, b.recurring_cycles) << spec;
  EXPECT_EQ(a.order, b.order) << spec;
  EXPECT_EQ(a.label_noise, b.label_noise) << spec;
  EXPECT_EQ(a.label_delay, b.label_delay) << spec;
  EXPECT_EQ(a.group_imbalance, b.group_imbalance) << spec;
}

/// A spec that parses must re-parse from its canonical form to the same
/// config, and its stream must build (or fail with a Status).
void RunScenarioTrial(const std::string& mutant, Tally* tally) {
  const Result<ScenarioConfig> parsed = ParseScenario(mutant);
  if (!parsed.ok()) {
    ++tally->rejected;
    return;
  }
  KeepReproducer(mutant);
  const std::string canonical = CanonicalScenarioSpec(parsed.value());
  const Result<ScenarioConfig> reparsed = ParseScenario(canonical);
  ASSERT_TRUE(reparsed.ok()) << mutant << " -> " << canonical;
  ExpectSameScenario(parsed.value(), reparsed.value(), mutant);
  StreamScale scale;
  scale.samples_per_task = 24;
  (void)MakeScenarioStream(parsed.value(), scale);
  ++tally->accepted;
}

TEST(CodecFuzz, MutantsNeverAbort) {
  struct Corpus {
    const char* name;
    std::vector<std::string> texts;  // trial t mutates texts[t % size]
    int max_edits;  // a spec is a few dozen bytes: two edits, not six
    void (*run)(const std::string&, Tally*);
  };
  std::vector<std::string> specs = ScenarioPresetSpecs();
  // Pinned regression input: %g once cut these to six digits, so the
  // canonical spec re-parsed to a different config.
  specs.push_back("nysf;label_noise=0.123456789;imbalance=0.30000000000000004");
  const Corpus corpora[] = {
      {"grow-only session", {SessionCorpus(false)}, 6, &RunSessionTrial},
      {"windowed session", {SessionCorpus(true)}, 6, &RunSessionTrial},
      {"v2 model", {ModelCorpus()}, 6, &RunModelTrial},
      {"manifest", {ManifestCorpus()}, 6, &RunManifestTrial},
      {"scenario presets", specs, 2, &RunScenarioTrial},
  };
  Rng rng(kFuzzSeed);
  int trials = 0;
  for (const Corpus& corpus : corpora) {
    std::size_t bytes = 0;
    for (const std::string& text : corpus.texts) {
      // The unmutated corpus itself must be accepted.
      Tally clean;
      corpus.run(text, &clean);
      EXPECT_EQ(1, clean.accepted) << corpus.name << ": " << text;
      bytes += text.size();
    }
    Tally tally;
    for (int t = 0; t < kTrialsPerCorpus; ++t) {
      const std::string& text =
          corpus.texts[static_cast<std::size_t>(t) % corpus.texts.size()];
      corpus.run(Mutate(text, corpus.max_edits, &rng), &tally);
      ++trials;
    }
    std::printf("codec_fuzz %-18s %5zu bytes  %d trials: %d rejected, %d "
                "silently accepted, 0 aborts\n",
                corpus.name, bytes, kTrialsPerCorpus, tally.rejected,
                tally.accepted);
    EXPECT_EQ(kTrialsPerCorpus, tally.rejected + tally.accepted);
  }
  EXPECT_GE(trials, 2000);
  std::remove(kLastSurvivor);
}

}  // namespace
}  // namespace faction
