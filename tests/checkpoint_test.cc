// Checkpoint/state-streaming tests (DESIGN.md §17): bitwise
// capture/encode/decode/restore round trips for the full session state,
// kill-then-restore decision parity at any worker count, warm-start from a
// manifest, generation/rotation protocol, the never-stall skip path, and
// the cross-shard sufficient-stats merge.
#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "common/parallel.h"
#include "common/rng.h"
#include "core/streaming_faction.h"
#include "data/dataset.h"
#include "density/fair_density.h"
#include "serve/checkpoint.h"
#include "serve/serve_runtime.h"
#include "serve/session.h"
#include "serve/state_codec.h"

namespace faction {
namespace {

// ---------------------------------------------------------------------------
// Shared helpers (mirroring tests/serve_test.cc's replay harness).

StreamingFactionConfig SmallConfig(std::uint64_t seed) {
  StreamingFactionConfig config;
  config.model.input_dim = 6;
  config.model.hidden_dims = {8};
  config.model.num_classes = 2;
  config.train.epochs = 2;
  config.train.batch_size = 16;
  config.warm_start = 12;
  config.burn_in = 6;
  config.refit_interval = 20;
  config.seed = seed;
  return config;
}

// Sliding window + exponential decay: exercises the eviction ring and the
// forgetting-mode (ridge) Gaussian state in the codec.
StreamingFactionConfig WindowedConfig(std::uint64_t seed) {
  StreamingFactionConfig config = SmallConfig(seed);
  config.density_window = 48;
  config.density_decay = 0.99;
  return config;
}

std::vector<Example> MakeStream(std::size_t n, std::size_t dim,
                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Example> stream(n);
  for (std::size_t i = 0; i < n; ++i) {
    Example& ex = stream[i];
    ex.label = rng.Bernoulli(0.5) ? 1 : 0;
    ex.sensitive = rng.Bernoulli(0.5) ? 1 : -1;
    ex.environment = 0;
    ex.x.resize(dim);
    const double center = ex.label == 1 ? 1.5 : -1.5;
    const double shift = ex.sensitive == 1 ? 0.4 : -0.4;
    for (std::size_t d = 0; d < dim; ++d) {
      ex.x[d] = rng.Gaussian(center + shift, 1.0);
    }
  }
  return stream;
}

std::vector<std::uint64_t> ParamBits(const StreamingFaction& faction) {
  std::vector<std::uint64_t> bits;
  for (const Matrix* m : faction.model().Parameters()) {
    const std::size_t n = m->rows() * m->cols();
    const std::size_t base = bits.size();
    bits.resize(base + n);
    static_assert(sizeof(double) == sizeof(std::uint64_t), "");
    std::memcpy(bits.data() + base, m->data(), n * sizeof(double));
  }
  return bits;
}

// Folds stream[begin, end) into the learner, recording query decisions.
void RunStream(StreamingFaction* faction, const std::vector<Example>& stream,
               std::size_t begin, std::size_t end,
               std::vector<std::uint8_t>* decisions) {
  for (std::size_t i = begin; i < end; ++i) {
    const bool query = faction->ShouldQuery(stream[i]).value();
    if (query) {
      ASSERT_TRUE(faction->ProvideLabel(stream[i]).ok());
    }
    if (decisions != nullptr) decisions->push_back(query ? 1 : 0);
  }
}

// Fresh per-test scratch directory under /tmp (unique per test name and
// process so stale files from earlier runs cannot leak in).
std::string MakeScratchDir(const std::string& name) {
  const std::string dir = "/tmp/faction_ckpt_" + name + "_" +
                          std::to_string(static_cast<long long>(::getpid()));
  ::mkdir(dir.c_str(), 0755);
  // Clear anything a previous in-process test invocation left behind.
  for (int g = 0; g < 64; ++g) {
    for (int s = 0; s < 64; ++s) {
      std::remove((dir + "/session-" + std::to_string(s) + ".gen" +
                   std::to_string(g) + ".ckpt")
                      .c_str());
    }
  }
  std::remove((dir + "/manifest").c_str());
  return dir;
}

bool FileExists(const std::string& path) {
  std::ifstream f(path);
  return f.good();
}

// ---------------------------------------------------------------------------
// Codec round trips.

class CheckpointCodecTest : public testing::TestWithParam<bool> {};

// Capture -> encode -> decode -> encode must be byte-identical: the text
// format loses nothing the codec captured (hexfloat doubles round-trip
// bit-for-bit, including -inf log-weights of zero-mass cells).
TEST_P(CheckpointCodecTest, EncodeDecodeEncodeIsByteIdentical) {
  const StreamingFactionConfig config =
      GetParam() ? WindowedConfig(11) : SmallConfig(11);
  StreamingFaction faction(config);
  const std::vector<Example> stream =
      MakeStream(100, config.model.input_dim, 2025);
  RunStream(&faction, stream, 0, 100, nullptr);

  SessionState state;
  CaptureSessionState(faction, &state);
  state.stream_id = 7;
  state.generation = 3;
  state.steps = 100;

  std::string first;
  EncodeSessionState(state, &first);
  ASSERT_FALSE(first.empty());

  std::istringstream is(first);
  SessionState decoded;
  const Status decode = DecodeSessionState(is, "roundtrip", &decoded);
  ASSERT_TRUE(decode.ok()) << decode.ToString();
  EXPECT_EQ(7u, decoded.stream_id);
  EXPECT_EQ(3u, decoded.generation);
  EXPECT_EQ(100u, decoded.steps);
  EXPECT_EQ(state.pool_size, decoded.pool_size);
  EXPECT_EQ(state.ring_size, decoded.ring_size);
  EXPECT_EQ(state.density.has_value, decoded.density.has_value);

  std::string second;
  EncodeSessionState(decoded, &second);
  EXPECT_EQ(first, second);
}

// The core guarantee: a learner restored from a checkpoint produces
// bitwise-identical future decisions and parameters to the uninterrupted
// learner.
TEST_P(CheckpointCodecTest, KillThenRestoreIsBitwiseIdentical) {
  const StreamingFactionConfig config =
      GetParam() ? WindowedConfig(21) : SmallConfig(21);
  const std::vector<Example> stream =
      MakeStream(140, config.model.input_dim, 404);

  StreamingFaction uninterrupted(config);
  std::vector<std::uint8_t> reference;
  RunStream(&uninterrupted, stream, 0, 140, &reference);

  StreamingFaction killed(config);
  std::vector<std::uint8_t> before;
  RunStream(&killed, stream, 0, 70, &before);

  // "Kill": serialize, forget the learner, decode, restore into a fresh
  // one built from the checkpointed config.
  SessionState state;
  CaptureSessionState(killed, &state);
  std::string encoded;
  EncodeSessionState(state, &encoded);
  std::istringstream is(encoded);
  SessionState decoded;
  ASSERT_TRUE(DecodeSessionState(is, "kill", &decoded).ok());

  StreamingFaction restored(decoded.config);
  const Status restore = RestoreSessionState(decoded, &restored);
  ASSERT_TRUE(restore.ok()) << restore.ToString();

  std::vector<std::uint8_t> after;
  RunStream(&restored, stream, 70, 140, &after);
  std::vector<std::uint8_t> tail(reference.begin() + 70, reference.end());
  EXPECT_EQ(tail, after);
  EXPECT_EQ(ParamBits(uninterrupted), ParamBits(restored));
  EXPECT_EQ(uninterrupted.queries_made(), restored.queries_made());
  EXPECT_EQ(uninterrupted.samples_seen(), restored.samples_seen());
  EXPECT_EQ(uninterrupted.pool_size(), restored.pool_size());
}

INSTANTIATE_TEST_SUITE_P(GrowOnlyAndWindowed, CheckpointCodecTest,
                         testing::Values(false, true));

TEST(CheckpointCodec, RestoreRejectsConfigMismatch) {
  StreamingFaction faction(SmallConfig(5));
  RunStream(&faction, MakeStream(40, 6, 9), 0, 40, nullptr);
  SessionState state;
  CaptureSessionState(faction, &state);

  StreamingFactionConfig other = SmallConfig(5);
  other.model.hidden_dims = {4};
  StreamingFaction wrong(other);
  EXPECT_FALSE(RestoreSessionState(state, &wrong).ok());
}

TEST(CheckpointCodec, DecodeErrorsNameSourceAndByteOffset) {
  StreamingFaction faction(SmallConfig(3));
  RunStream(&faction, MakeStream(30, 6, 5), 0, 30, nullptr);
  SessionState state;
  CaptureSessionState(faction, &state);
  std::string encoded;
  EncodeSessionState(state, &encoded);

  // Truncate mid-payload: the decode error must name the logical source
  // and the byte offset where parsing stopped.
  std::istringstream is(encoded.substr(0, encoded.size() / 2));
  SessionState out;
  const Status status = DecodeSessionState(is, "half.ckpt", &out);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(std::string::npos, status.message().find("half.ckpt"))
      << status.ToString();
  EXPECT_NE(std::string::npos, status.message().find("@byte"))
      << status.ToString();

  const Status missing =
      DecodeSessionStateFromFile("/tmp/no_such_faction_ckpt.ckpt", &out);
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(std::string::npos,
            missing.message().find("/tmp/no_such_faction_ckpt.ckpt"))
      << missing.ToString();
}

std::vector<std::string> Tokens(const std::string& text) {
  std::istringstream is(text);
  std::vector<std::string> tokens;
  for (std::string token; is >> token;) tokens.push_back(token);
  return tokens;
}

// tests/data/session_windowed.ckpt was written by the original
// hand-written encoder after FixtureStream(60) ran through a learner with
// this config, stamped stream 42, generation 5, step 60.
StreamingFactionConfig FixtureConfig() {
  StreamingFactionConfig config;
  config.model.input_dim = 3;
  config.model.hidden_dims = {4};
  config.train.epochs = 2;
  config.train.batch_size = 8;
  config.warm_start = 10;
  config.burn_in = 4;
  config.refit_interval = 12;
  config.density_window = 12;
  config.density_decay = 0.95;
  config.seed = 1234;
  return config;
}

std::vector<Example> FixtureStream(std::size_t n) {
  Rng rng(77);
  std::vector<Example> stream(n);
  for (std::size_t i = 0; i < n; ++i) {
    Example& ex = stream[i];
    ex.label = rng.Bernoulli(0.5) ? 1 : 0;
    ex.sensitive = rng.Bernoulli(0.5) ? 1 : -1;
    ex.environment = static_cast<int>(i / 20);
    ex.x.resize(3);
    for (double& v : ex.x) {
      v = rng.Gaussian(ex.label == 1 ? 1.0 : -1.0, 1.0) + 0.3 * ex.sensitive;
    }
  }
  return stream;
}

// A round trip alone cannot tell two same-typed fields apart if encoder
// and decoder swap them alike, so pin what each field of the fixture
// means: the config and header, the warm-start rows of the pool, and the
// relations a Gaussian's fields keep with one another.
void ExpectFixtureSemantics(const SessionState& s) {
  const StreamingFactionConfig want = FixtureConfig();
  EXPECT_EQ(42u, s.stream_id);
  EXPECT_EQ(5u, s.generation);
  EXPECT_EQ(60u, s.steps);
  EXPECT_EQ(want.lambda, s.config.lambda);
  EXPECT_EQ(want.alpha, s.config.alpha);
  EXPECT_EQ(want.warm_start, s.config.warm_start);
  EXPECT_EQ(want.burn_in, s.config.burn_in);
  EXPECT_EQ(want.refit_interval, s.config.refit_interval);
  EXPECT_EQ(want.density_window, s.config.density_window);
  EXPECT_EQ(want.density_decay, s.config.density_decay);
  EXPECT_EQ(want.seed, s.config.seed);
  EXPECT_EQ(want.model.input_dim, s.config.model.input_dim);
  EXPECT_EQ(want.model.hidden_dims, s.config.model.hidden_dims);
  EXPECT_EQ(want.train.epochs, s.config.train.epochs);
  EXPECT_EQ(want.train.batch_size, s.config.train.batch_size);
  EXPECT_EQ(want.train.learning_rate, s.config.train.learning_rate);
  EXPECT_EQ(want.covariance.shrinkage, s.config.covariance.shrinkage);
  EXPECT_EQ(want.covariance.jitter, s.config.covariance.jitter);
  EXPECT_EQ(60u, s.seen);
  EXPECT_EQ(s.pool_size, s.queried);
  EXPECT_LT(s.labels_since_refit, want.refit_interval);
  EXPECT_LE(s.norm_min, s.norm_max);
  // The first warm_start arrivals are always queried.
  const std::vector<Example> stream = FixtureStream(want.warm_start);
  for (std::size_t i = 0; i < want.warm_start; ++i) {
    EXPECT_EQ(stream[i].label, s.pool_labels[i]) << "row " << i;
    EXPECT_EQ(stream[i].sensitive, s.pool_sensitive[i]) << "row " << i;
    EXPECT_EQ(stream[i].environment, s.pool_environments[i]) << "row " << i;
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(stream[i].x[j], s.pool_features(i, j), 1e-12);
    }
  }
  for (const LinearSnapshot& layer : s.layers) {
    EXPECT_EQ(1.0, layer.scale);  // spectral normalization is off
    EXPECT_TRUE(layer.sn_u.empty());
  }
  double weight_sum = 0.0;
  for (int c = 0; c < DensitySnapshot::kCells; ++c) {
    const GaussianSnapshot& g = s.density.components[c];
    weight_sum += s.density.weights[c];
    EXPECT_NEAR(std::log(s.density.weights[c]), s.density.log_weights[c],
                1e-12);
    EXPECT_EQ(s.density.counts[c], g.count);
    EXPECT_TRUE(g.forgetting);
    double log_det = 0.0;
    for (std::size_t a = 0; a < s.density.dim; ++a) {
      EXPECT_NEAR(g.sum[a] / g.weight, g.mean[a], 1e-9) << "cell " << c;
      EXPECT_GT(g.chol(a, a), 0.0);
      log_det += 2.0 * std::log(g.chol(a, a));
      for (std::size_t b = a + 1; b < s.density.dim; ++b) {
        EXPECT_EQ(0.0, g.chol(a, b)) << "factor must be lower-triangular";
      }
    }
    EXPECT_NEAR(log_det, g.log_det, 1e-9) << "cell " << c;
  }
  EXPECT_NEAR(1.0, weight_sum, 1e-12);
}

// Pins the "faction-session v1" format: the fixture (pool, ring and all
// four density cells non-empty) decodes to the state it was written from,
// restores, and re-encodes to the same token sequence.
TEST(CheckpointCodec, PinnedFixtureRoundTripsTokenIdentical) {
  const std::string path =
      std::string(FACTION_TEST_DATA_DIR) + "/session_windowed.ckpt";
  std::ifstream file(path);
  ASSERT_TRUE(file.is_open()) << path;
  std::stringstream contents;
  contents << file.rdbuf();
  const std::string pinned = contents.str();

  std::istringstream is(pinned);
  SessionState decoded;
  const Status decode = DecodeSessionState(is, path, &decoded);
  ASSERT_TRUE(decode.ok()) << decode.ToString();
  EXPECT_GT(decoded.pool_size, 0u);
  EXPECT_GT(decoded.ring_size, 0u);
  ASSERT_TRUE(decoded.density.has_value);
  for (int c = 0; c < DensitySnapshot::kCells; ++c) {
    EXPECT_TRUE(decoded.density.present[c]) << "cell " << c;
  }
  ExpectFixtureSemantics(decoded);

  StreamingFaction restored(decoded.config);
  const Status restore = RestoreSessionState(decoded, &restored);
  ASSERT_TRUE(restore.ok()) << restore.ToString();
  SessionState recaptured;
  CaptureSessionState(restored, &recaptured);
  recaptured.stream_id = decoded.stream_id;
  recaptured.generation = decoded.generation;
  recaptured.steps = decoded.steps;
  std::string reencoded;
  EncodeSessionState(recaptured, &reencoded);
  EXPECT_EQ(Tokens(pinned), Tokens(reencoded));
}

// A decay outside (0, 1] would pass decode and then trip the CHECK in the
// StreamingFaction constructor that WarmStart runs on the decoded config.
TEST(CheckpointCodec, DecodeRejectsDensityDecayOutsideUnitInterval) {
  StreamingFaction faction(WindowedConfig(4));
  RunStream(&faction, MakeStream(40, 6, 8), 0, 40, nullptr);
  SessionState state;
  CaptureSessionState(faction, &state);
  for (const double decay : {0.0, -0.5, 1.5}) {
    state.config.density_decay = decay;
    std::string encoded;
    EncodeSessionState(state, &encoded);
    std::istringstream is(encoded);
    SessionState decoded;
    const Status status = DecodeSessionState(is, "decay.ckpt", &decoded);
    if (status.ok()) StreamingFaction learner(decoded.config);
    EXPECT_FALSE(status.ok()) << "decay " << decay;
    EXPECT_NE(std::string::npos, status.message().find("density_decay"))
        << status.ToString();
  }
}

// ---------------------------------------------------------------------------
// Restore validation: states that decode cleanly but that the learner would
// abort on later (at the next refit or window eviction) are rejected with a
// Status by RestoreSessionState.

// A windowed learner whose ring is full and whose four density cells are
// all present.
SessionState WindowedSnapshot() {
  StreamingFaction faction(WindowedConfig(13));
  RunStream(&faction, MakeStream(140, 6, 2718), 0, 140, nullptr);
  SessionState state;
  CaptureSessionState(faction, &state);
  EXPECT_EQ(state.config.density_window, state.ring_size);
  EXPECT_TRUE(state.density.has_value);
  for (int c = 0; c < DensitySnapshot::kCells; ++c) {
    EXPECT_TRUE(state.density.present[c]) << "cell " << c;
  }
  return state;
}

// Restores `state` into a learner built from its config and, when the
// restore is accepted, drives it through a refit and window evictions —
// where corrupt state would abort.
Status RestoreAndDrive(const SessionState& state) {
  StreamingFaction learner(state.config);
  FACTION_RETURN_IF_ERROR(RestoreSessionState(state, &learner));
  RunStream(&learner, MakeStream(200, 6, 31415), 0, 200, nullptr);
  return Status::Ok();
}

int CellOf(const SessionState& s, std::size_t ring_index) {
  return FairDensityEstimator::ComponentIndex(s.ring_label[ring_index],
                                              s.ring_sensitive[ring_index]);
}

TEST(RestoreValidation, UntouchedSnapshotRestoresAndRuns) {
  EXPECT_TRUE(RestoreAndDrive(WindowedSnapshot()).ok());
}

TEST(RestoreValidation, RejectsPoolLabelOutsideClasses) {
  for (const int label : {2, 6, -1}) {
    SessionState state = WindowedSnapshot();
    state.pool_labels[state.pool_size / 2] = label;
    EXPECT_FALSE(RestoreAndDrive(state).ok()) << "label " << label;
  }
}

TEST(RestoreValidation, RejectsSensitiveOutsidePlusMinusOne) {
  for (const int sensitive : {0, 2, -3}) {
    SessionState pool = WindowedSnapshot();
    pool.pool_sensitive[pool.pool_size - 1] = sensitive;
    EXPECT_FALSE(RestoreAndDrive(pool).ok()) << "pool " << sensitive;
    SessionState ring = WindowedSnapshot();
    ring.ring_sensitive[0] = sensitive;
    EXPECT_FALSE(RestoreAndDrive(ring).ok()) << "ring " << sensitive;
  }
}

TEST(RestoreValidation, RejectsRingLabelOutsideClasses) {
  SessionState state = WindowedSnapshot();
  state.ring_label[0] = 3;
  EXPECT_FALSE(RestoreAndDrive(state).ok());
}

TEST(RestoreValidation, RejectsRingLargerThanDensityTotal) {
  // Each fold re-adds the row its eviction removed, so only a total below
  // one trips the eviction CHECK; any total under ring_size is corrupt.
  for (const std::size_t total : {std::size_t{0}, std::size_t{1}}) {
    SessionState state = WindowedSnapshot();
    state.density.total = total;
    EXPECT_FALSE(RestoreAndDrive(state).ok()) << "total " << total;
  }
}

TEST(RestoreValidation, RejectsRingEntryInAbsentCell) {
  SessionState state = WindowedSnapshot();
  state.density.present[CellOf(state, 0)] = false;
  EXPECT_FALSE(RestoreAndDrive(state).ok());
}

TEST(RestoreValidation, RejectsRingEntriesBeyondCellCount) {
  // Cell of the oldest entry claims a single row while the ring holds more
  // of them: the second eviction would hit a dropped component.
  SessionState state = WindowedSnapshot();
  const int cell = CellOf(state, 0);
  std::size_t in_cell = 0;
  for (std::size_t i = 0; i < state.ring_size; ++i) {
    if (CellOf(state, i) == cell) ++in_cell;
  }
  ASSERT_GE(in_cell, 2u);
  state.density.counts[cell] = 1;
  state.density.components[cell].count = 1;
  EXPECT_FALSE(RestoreAndDrive(state).ok());
}

TEST(RestoreValidation, RejectsRingWeightsBeyondComponentMass) {
  SessionState state = WindowedSnapshot();
  state.density.components[CellOf(state, 0)].weight = 1e-3;
  EXPECT_FALSE(RestoreAndDrive(state).ok());
}

// ---------------------------------------------------------------------------
// Serve-layer checkpointing: background snapshots, manifest, warm-start.

TEST(CheckpointManager, SnapshotRotationAndGenerationResume) {
  const std::string dir = MakeScratchDir("rotate");
  CheckpointOptions ckpt;
  ckpt.dir = dir;
  ckpt.interval_steps = 10;
  ckpt.keep_generations = 2;

  ServeRuntimeOptions runtime_options;
  runtime_options.workers = 0;  // inline: deterministic snapshot timing
  runtime_options.record_latency = false;
  const std::vector<Example> stream = MakeStream(60, 6, 77);
  {
    ServeRuntime runtime(runtime_options);
    runtime.EnableCheckpoints(ckpt);
    ServeSessionOptions options;
    options.stream_id = 4;
    options.faction = SmallConfig(31);
    options.mailbox_capacity = 64;
    ServeSession* session = runtime.CreateSession(options);
    for (std::size_t i = 0; i < 50; ++i) {
      ASSERT_TRUE(runtime.Offer(session, stream[i]));
    }
    runtime.Drain();
    runtime.checkpoints()->Flush();
    EXPECT_EQ(0u, runtime.checkpoints()->failures());
  }

  // Snapshots fired at steps 10..50 -> generations 1..5; only the last
  // keep_generations files survive rotation.
  EXPECT_FALSE(FileExists(dir + "/session-4.gen3.ckpt"));
  EXPECT_TRUE(FileExists(dir + "/session-4.gen4.ckpt"));
  EXPECT_TRUE(FileExists(dir + "/session-4.gen5.ckpt"));

  Result<std::vector<CheckpointManifestEntry>> manifest =
      CheckpointManager::ReadManifest(dir + "/manifest");
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_EQ(1u, manifest.value().size());
  EXPECT_EQ(4u, manifest.value()[0].stream_id);
  EXPECT_EQ(5u, manifest.value()[0].generation);
  EXPECT_EQ(50u, manifest.value()[0].steps);
  EXPECT_EQ("session-4.gen5.ckpt", manifest.value()[0].filename);

  // Warm-start resumes the generation sequence: the next snapshot commits
  // generation 6, not 1 (which would silently shadow rotation history).
  ServeRuntime runtime2(runtime_options);
  runtime2.EnableCheckpoints(ckpt);
  Result<WarmStartReport> report = runtime2.WarmStart(dir + "/manifest");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(1u, report.value().sessions);
  EXPECT_EQ(5u, report.value().max_generation);
  EXPECT_EQ(50u, report.value().total_steps);

  ServeSession* restored = runtime2.registry().Find(4);
  ASSERT_NE(nullptr, restored);
  EXPECT_EQ(50u, restored->steps());
  for (std::size_t i = 50; i < 60; ++i) {
    ASSERT_TRUE(runtime2.Offer(restored, stream[i]));
  }
  runtime2.Drain();
  runtime2.checkpoints()->Flush();
  EXPECT_TRUE(FileExists(dir + "/session-4.gen6.ckpt"));
  manifest = CheckpointManager::ReadManifest(dir + "/manifest");
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(6u, manifest.value()[0].generation);
  EXPECT_EQ(60u, manifest.value()[0].steps);
}

// A session restored through the full serve path (checkpoint files +
// manifest + WarmStart) must continue with bitwise-identical decisions to
// the uninterrupted reference — at every worker count.
TEST(ServeWarmStart, KillThenRestoreDecisionParityAcrossWorkerCounts) {
  constexpr std::size_t kSessions = 8;
  constexpr std::size_t kHalf = 60;
  constexpr std::size_t kTotal = 120;
  const std::string dir = MakeScratchDir("warmstart");

  // Reference: uninterrupted standalone learners.
  std::vector<std::vector<std::uint8_t>> reference(kSessions);
  std::vector<std::vector<std::uint64_t>> reference_bits(kSessions);
  std::vector<std::vector<Example>> streams(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    const StreamingFactionConfig config = SmallConfig(300 + s);
    streams[s] = MakeStream(kTotal, config.model.input_dim, 900 + s);
    StreamingFaction faction(config);
    RunStream(&faction, streams[s], 0, kTotal, &reference[s]);
    reference_bits[s] = ParamBits(faction);
  }

  // Phase 1: serve the first half with checkpointing on, snapshot every
  // session at exactly kHalf steps, then "kill" the runtime.
  CheckpointOptions ckpt;
  ckpt.dir = dir;
  ckpt.interval_steps = 25;
  {
    ServeRuntimeOptions runtime_options;
    runtime_options.workers = 4;
    runtime_options.max_sessions = kSessions;
    runtime_options.record_latency = false;
    ServeRuntime runtime(runtime_options);
    runtime.EnableCheckpoints(ckpt);
    std::vector<ServeSession*> sessions;
    for (std::size_t s = 0; s < kSessions; ++s) {
      ServeSessionOptions options;
      options.stream_id = s;
      options.faction = SmallConfig(300 + s);
      options.mailbox_capacity = kHalf;
      sessions.push_back(runtime.CreateSession(options));
    }
    for (std::size_t i = 0; i < kHalf; ++i) {
      for (std::size_t s = 0; s < kSessions; ++s) {
        ASSERT_TRUE(runtime.Offer(sessions[s], streams[s][i]));
      }
    }
    runtime.Drain();
    // Interval snapshots fired mid-run at worker-timing-dependent steps;
    // pin the final generation at exactly kHalf steps (the test thread is
    // the sole holder once Drain returned).
    for (ServeSession* session : sessions) {
      ASSERT_EQ(kHalf, session->steps());
      EXPECT_TRUE(runtime.checkpoints()->SnapshotNow(session));
    }
    runtime.checkpoints()->Flush();
    EXPECT_EQ(0u, runtime.checkpoints()->failures());
  }

  // Phase 2: warm-start a fresh runtime from the manifest and serve the
  // second half — once inline, once on 4 workers.
  for (const int workers : {0, 4}) {
    ServeRuntimeOptions runtime_options;
    runtime_options.workers = workers;
    runtime_options.max_sessions = kSessions;
    runtime_options.record_latency = false;
    ServeRuntime runtime(runtime_options);
    WarmStartOptions warm;
    warm.mailbox_capacity = kTotal;
    warm.decision_log_capacity = kTotal;
    Result<WarmStartReport> report =
        runtime.WarmStart(dir + "/manifest", warm);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(kSessions, report.value().sessions);
    EXPECT_EQ(kSessions * kHalf, report.value().total_steps);

    for (std::size_t i = kHalf; i < kTotal; ++i) {
      for (std::size_t s = 0; s < kSessions; ++s) {
        ServeSession* session = runtime.registry().Find(s);
        ASSERT_NE(nullptr, session);
        ASSERT_TRUE(runtime.Offer(session, streams[s][i]));
      }
    }
    runtime.Drain();

    for (std::size_t s = 0; s < kSessions; ++s) {
      ServeSession* session = runtime.registry().Find(s);
      ASSERT_NE(nullptr, session);
      EXPECT_EQ(kTotal, session->steps()) << "workers " << workers;
      const std::vector<std::uint8_t> tail(reference[s].begin() + kHalf,
                                           reference[s].end());
      EXPECT_EQ(tail, session->decisions())
          << "session " << s << " workers " << workers;
      EXPECT_EQ(reference_bits[s], ParamBits(session->faction()))
          << "session " << s << " workers " << workers;
    }
  }
}

// Both buffers in serializer hands -> the snapshot is skipped, never
// stalled. (Statuses are forced by hand: the deterministic stand-in for a
// serializer backlog.)
// A corrupt session count used to size the entry vector directly (a
// length_error or bad_alloc out of WarmStart); it must be a Status.
TEST(CheckpointManager, ReadManifestRejectsCorruptCounts) {
  const std::string dir = MakeScratchDir("manifest");
  const std::string path = dir + "/manifest";
  for (const char* count : {"99999999999999", "-1", "3"}) {
    {
      std::ofstream f(path, std::ios::trunc);
      f << "faction-manifest v1\nsessions " << count
        << "\n0 1 10 session-0.gen1.ckpt\n";
    }
    const Result<std::vector<CheckpointManifestEntry>> manifest =
        CheckpointManager::ReadManifest(path);
    ASSERT_FALSE(manifest.ok()) << count;
    EXPECT_NE(std::string::npos, manifest.status().message().find("@byte"))
        << manifest.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(CheckpointManager, SkipsWhenBothBuffersBusy) {
  const std::string dir = MakeScratchDir("busy");
  CheckpointOptions ckpt;
  ckpt.dir = dir;
  ckpt.interval_steps = 1;
  ServeRuntimeOptions runtime_options;
  runtime_options.workers = 0;
  runtime_options.record_latency = false;
  ServeRuntime runtime(runtime_options);
  runtime.EnableCheckpoints(ckpt);
  ServeSessionOptions options;
  options.stream_id = 1;
  options.faction = SmallConfig(2);
  ServeSession* session = runtime.CreateSession(options);
  const std::vector<Example> stream = MakeStream(5, 6, 3);
  for (const Example& ex : stream) ASSERT_TRUE(runtime.Offer(session, ex));
  runtime.Drain();

  CheckpointSlot* slot = session->checkpoint_slot();
  ASSERT_NE(nullptr, slot);
  const std::uint64_t generation_before = slot->next_generation;
  slot->buffers[0].status.store(CheckpointBuffer::kQueued);
  slot->buffers[1].status.store(CheckpointBuffer::kQueued);
  EXPECT_FALSE(runtime.checkpoints()->SnapshotNow(session));
  EXPECT_EQ(generation_before, slot->next_generation);
  slot->buffers[0].status.store(CheckpointBuffer::kFree);
  slot->buffers[1].status.store(CheckpointBuffer::kFree);
  EXPECT_TRUE(runtime.checkpoints()->SnapshotNow(session));
  runtime.checkpoints()->Flush();
}

// Registry churn: session addresses and ids must stay stable across
// register/unregister cycles (node-stable storage — a drain job holds raw
// session pointers while other sessions come and go).
TEST(SessionRegistryChurn, PointersStableAcrossRegisterUnregisterCycles) {
  SessionRegistry registry;
  std::vector<ServeSession*> survivors;
  for (std::uint64_t id = 0; id < 32; ++id) {
    ServeSessionOptions options;
    options.stream_id = id;
    options.faction.model.input_dim = 4;
    options.faction.model.hidden_dims = {4};
    survivors.push_back(registry.Create(options));
  }
  // Each cycle evicts the previous cycle's churn cohort and registers a
  // fresh one under new ids; the original even-id sessions must stay
  // reachable at the same addresses throughout.
  std::vector<std::uint64_t> churn_ids;
  for (std::uint64_t id = 1; id < 32; id += 2) churn_ids.push_back(id);
  for (int cycle = 0; cycle < 4; ++cycle) {
    for (std::uint64_t id : churn_ids) EXPECT_TRUE(registry.Erase(id));
    for (std::uint64_t id = 0; id < 32; id += 2) {
      ASSERT_EQ(survivors[id], registry.Find(id)) << "cycle " << cycle;
      EXPECT_EQ(id, registry.Find(id)->stream_id());
    }
    churn_ids.clear();
    for (std::uint64_t i = 0; i < 16; ++i) {
      const std::uint64_t id = 1000 + 100 * cycle + i;
      ServeSessionOptions options;
      options.stream_id = id;
      options.faction.model.input_dim = 4;
      options.faction.model.hidden_dims = {4};
      ASSERT_NE(nullptr, registry.Create(options));
      churn_ids.push_back(id);
    }
    for (std::uint64_t id = 0; id < 32; id += 2) {
      ASSERT_EQ(survivors[id], registry.Find(id)) << "cycle " << cycle;
    }
  }
}

// ---------------------------------------------------------------------------
// Cross-shard sufficient-stats merge.

// Density level: merging two half-fits must reproduce the union fit's
// sufficient statistics (counts exactly; densities to rounding).
TEST(MergeSufficientStats, DensityMergeMatchesUnionFit) {
  const std::size_t dim = 4;
  const std::size_t n = 240;
  Rng rng(9);
  Matrix features(n, dim);
  std::vector<int> labels(n), sensitive(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = rng.Bernoulli(0.5) ? 1 : 0;
    sensitive[i] = rng.Bernoulli(0.5) ? 1 : -1;
    for (std::size_t d = 0; d < dim; ++d) {
      features.row_data(i)[d] = rng.Gaussian(labels[i] * 2.0 - 1.0, 1.0);
    }
  }
  auto subset = [&](std::size_t begin, std::size_t end, Matrix* f,
                    std::vector<int>* l, std::vector<int>* s) {
    *f = Matrix(end - begin, dim);
    for (std::size_t i = begin; i < end; ++i) {
      for (std::size_t d = 0; d < dim; ++d) {
        f->row_data(i - begin)[d] = features.row_data(i)[d];
      }
      l->push_back(labels[i]);
      s->push_back(sensitive[i]);
    }
  };
  CovarianceConfig config;
  Matrix f1, f2;
  std::vector<int> l1, s1, l2, s2;
  subset(0, n / 2, &f1, &l1, &s1);
  subset(n / 2, n, &f2, &l2, &s2);

  Result<FairDensityEstimator> shard1 =
      FairDensityEstimator::Fit(f1, l1, s1, config);
  Result<FairDensityEstimator> shard2 =
      FairDensityEstimator::Fit(f2, l2, s2, config);
  Result<FairDensityEstimator> union_fit =
      FairDensityEstimator::Fit(features, labels, sensitive, config);
  ASSERT_TRUE(shard1.ok() && shard2.ok() && union_fit.ok());

  FairDensityEstimator merged = std::move(shard1.value());
  ASSERT_TRUE(merged.MergeFrom(shard2.value(), config).ok());
  EXPECT_EQ(union_fit.value().total_count(), merged.total_count());
  Rng probe_rng(123);
  for (int probe = 0; probe < 16; ++probe) {
    std::vector<double> z(dim);
    for (std::size_t d = 0; d < dim; ++d) z[d] = probe_rng.Gaussian(0, 1.5);
    EXPECT_NEAR(union_fit.value().LogMarginalDensity(z),
                merged.LogMarginalDensity(z), 1e-9);
  }
  for (int label = 0; label < 2; ++label) {
    for (int s : {-1, 1}) {
      EXPECT_NEAR(union_fit.value().Weight(label, s), merged.Weight(label, s),
                  1e-12);
    }
  }
}

// Pipeline level: shard session checkpoints on disk -> one global
// estimator, identical whether shards decode on one thread or four.
TEST(MergeSufficientStats, FoldsShardCheckpointsFromDisk) {
  const std::string dir = MakeScratchDir("merge");
  const StreamingFactionConfig config = SmallConfig(61);
  std::vector<std::string> paths;
  std::size_t expected_total = 0;
  for (int shard = 0; shard < 3; ++shard) {
    StreamingFaction faction(config);
    RunStream(&faction, MakeStream(100, config.model.input_dim, 500 + shard), 0,
        100, nullptr);
    SessionState state;
    CaptureSessionState(faction, &state);
    ASSERT_TRUE(state.density.has_value) << "shard " << shard;
    expected_total += state.density.total;
    std::string encoded;
    EncodeSessionState(state, &encoded);
    const std::string path =
        dir + "/shard" + std::to_string(shard) + ".ckpt";
    std::ofstream os(path, std::ios::trunc);
    os << encoded;
    ASSERT_TRUE(os.good());
    paths.push_back(path);
  }

  const int saved_threads = ParallelThreadCount();
  SetParallelThreadCount(1);
  Result<FairDensityEstimator> serial =
      MergeSufficientStats(paths, config.covariance);
  SetParallelThreadCount(4);
  Result<FairDensityEstimator> parallel =
      MergeSufficientStats(paths, config.covariance);
  SetParallelThreadCount(saved_threads);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  EXPECT_EQ(expected_total, serial.value().total_count());
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_EQ(expected_total, parallel.value().total_count());

  // Decode is pure and the fold is path-ordered at any thread count, so
  // the two merged estimators agree bitwise.
  Rng probe_rng(31);
  const std::size_t d = serial.value().dim();
  for (int probe = 0; probe < 8; ++probe) {
    std::vector<double> z(d);
    for (std::size_t j = 0; j < d; ++j) z[j] = probe_rng.Gaussian(0, 1);
    EXPECT_EQ(serial.value().LogMarginalDensity(z),
              parallel.value().LogMarginalDensity(z));
  }

  EXPECT_FALSE(MergeSufficientStats({}, config.covariance).ok());
  EXPECT_FALSE(
      MergeSufficientStats({dir + "/absent.ckpt"}, config.covariance).ok());
}

}  // namespace
}  // namespace faction
