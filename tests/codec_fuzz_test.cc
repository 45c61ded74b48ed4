// Seeded mutation fuzz over the text decoders: the session checkpoint codec
// (a grow-only and a windowed session) and the v2 model serializer. Each
// trial substitutes 1-6 bytes of a valid file built in-test from fixed
// seeds. Every mutant must either be rejected with a Status or survive
// decode, restore, and enough arrivals for a refit and a window eviction
// (a model survivor must predict). An abort anywhere fails the suite.
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
#include "nn/serialize.h"
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

/// Substitutes 1-6 bytes, each with a different byte: half the time one
/// that keeps a number a number, otherwise any byte.
std::string Mutate(const std::string& text, Rng* rng) {
  static const std::string kNumeric = "0123456789abcdefpx+-. \n";
  std::string out = text;
  const int edits = 1 + static_cast<int>(rng->UniformInt(6));
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

TEST(CodecFuzz, SessionAndModelMutantsNeverAbort) {
  struct Corpus {
    const char* name;
    std::string text;
    bool session;
  };
  const Corpus corpora[] = {
      {"grow-only session", SessionCorpus(false), true},
      {"windowed session", SessionCorpus(true), true},
      {"v2 model", ModelCorpus(), false},
  };
  Rng rng(kFuzzSeed);
  int trials = 0;
  for (const Corpus& corpus : corpora) {
    Tally tally;
    for (int t = 0; t < kTrialsPerCorpus; ++t) {
      const std::string mutant = Mutate(corpus.text, &rng);
      if (corpus.session) {
        RunSessionTrial(mutant, &tally);
      } else {
        RunModelTrial(mutant, &tally);
      }
      ++trials;
    }
    std::printf("codec_fuzz %-18s %5zu bytes  %d trials: %d rejected, %d "
                "silently accepted, 0 aborts\n",
                corpus.name, corpus.text.size(), kTrialsPerCorpus,
                tally.rejected, tally.accepted);
    EXPECT_EQ(kTrialsPerCorpus, tally.rejected + tally.accepted);
  }
  EXPECT_GE(trials, 1000);
  std::remove(kLastSurvivor);
}

}  // namespace
}  // namespace faction
