// Serializer v2 guarantees: bitwise-exact hexfloat round-trips (including
// denormals and signed zeros), rejection of non-finite parameters on both
// save and load, and the crash-safe file save that never clobbers a good
// checkpoint.
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include "gtest/gtest.h"

#include "common/fsio.h"
#include "nn/serialize.h"

namespace faction {
namespace {

MlpClassifier MakeModel(std::uint64_t seed) {
  MlpConfig config;
  config.input_dim = 5;
  config.hidden_dims = {7};
  config.spectral.enabled = true;
  config.spectral.coeff = 2.5;
  Rng rng(seed);
  return MlpClassifier(config, &rng);
}

std::uint64_t Bits(double v) {
  std::uint64_t out = 0;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

bool FileExists(const std::string& path) {
  std::ifstream f(path);
  return f.good();
}

TEST(SerializeV2Test, HexfloatRoundTripIsBitwiseExact) {
  MlpClassifier model = MakeModel(1);
  // Plant adversarial values a decimal printer could mangle: the smallest
  // denormal, DBL_MAX, a negative zero, and values with long fractions.
  const std::vector<Matrix*> params = model.Parameters();
  ASSERT_FALSE(params.empty());
  Matrix& w = *params[0];
  ASSERT_GE(w.size(), 6u);
  w.data()[0] = 4.9406564584124654e-324;  // min denormal
  w.data()[1] = DBL_MAX;
  w.data()[2] = -0.0;
  w.data()[3] = 1.0 / 3.0;
  w.data()[4] = DBL_MIN;
  w.data()[5] = -2.2250738585072014e-308;

  std::stringstream ss;
  ASSERT_TRUE(SaveModel(model, ss).ok());
  Result<MlpClassifier> loaded = LoadModel(ss);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  const MlpClassifier& reloaded = loaded.value();
  const std::vector<const Matrix*> orig =
      static_cast<const MlpClassifier&>(model).Parameters();
  const std::vector<const Matrix*> back =
      static_cast<const MlpClassifier&>(reloaded).Parameters();
  ASSERT_EQ(orig.size(), back.size());
  for (std::size_t t = 0; t < orig.size(); ++t) {
    ASSERT_EQ(orig[t]->size(), back[t]->size());
    for (std::size_t i = 0; i < orig[t]->size(); ++i) {
      EXPECT_EQ(Bits(orig[t]->data()[i]), Bits(back[t]->data()[i]))
          << "tensor " << t << " element " << i;
    }
  }
}

TEST(SerializeV2Test, SaveRejectsNonFiniteParameters) {
  for (const double poison : {std::nan(""),
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity()}) {
    MlpClassifier model = MakeModel(2);
    model.Parameters()[1]->data()[0] = poison;
    std::stringstream ss;
    const Status saved = SaveModel(model, ss);
    EXPECT_EQ(saved.code(), StatusCode::kNumericalError)
        << saved.ToString();
    EXPECT_NE(saved.message().find("non-finite"), std::string::npos);
    // Nothing was written: the failure happens before the header.
    EXPECT_TRUE(ss.str().empty());
  }
}

// A hand-written v2 payload: a linear model (empty hidden line) whose
// second weight is `value`.
std::string LinearV2Payload(const std::string& value) {
  return "faction-mlp v2\n"
         "input_dim 2\n"
         "num_classes 2\n"
         "hidden\n"
         "spectral 0 3 1\n"
         "tensors 2\n"
         "2 2 0x1p-2 " +
         value +
         " 0x1.8p+0 0x1p+1\n"
         "1 2 0x1p-3 -0x1p+0\n";
}

// The loader rejects non-finite tensor values, matching SaveModel's
// contract, whether spelled as NaN or as an infinity.
TEST(SerializeV2Test, LoadRejectsNonFiniteTensorValues) {
  std::istringstream clean(LinearV2Payload("-0x1p-1"));
  const Result<MlpClassifier> ok = LoadModel(clean);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(-0.5, static_cast<const MlpClassifier&>(ok.value())
                      .Parameters()[0]
                      ->data()[1]);

  for (const char* poison : {"nan", "inf", "-inf", "-nan"}) {
    std::istringstream is(LinearV2Payload(poison));
    const Result<MlpClassifier> loaded = LoadModel(is);
    ASSERT_FALSE(loaded.ok()) << poison;
    EXPECT_NE(loaded.status().message().find("non-finite"), std::string::npos)
        << loaded.status().ToString();
  }
}

// The decimal v1 format is retired: only v2 loads.
TEST(SerializeV2Test, LoadRejectsRetiredV1Format) {
  std::string v1 = LinearV2Payload("-0.5");
  v1.replace(v1.find("v2"), 2, "v1");
  std::istringstream is(v1);
  const Result<MlpClassifier> loaded = LoadModel(is);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("unsupported version v1"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(SerializeV2Test, LoadRejectsMalformedTokens) {
  const std::string bad =
      "faction-mlp v2\n"
      "input_dim 2\n"
      "num_classes 2\n"
      "hidden\n"
      "spectral 0 1 1\n"
      "tensors 2\n"
      "2 2 0.25 0.5xyz 1.5 2.0\n"
      "1 2 0.125 -1\n";
  std::istringstream is(bad);
  EXPECT_FALSE(LoadModel(is).ok());
}

TEST(SerializeV2Test, FailedSaveLeavesPriorCheckpointIntact) {
  const std::string path = "/tmp/faction_serialize_crash_safe.model";
  std::remove(path.c_str());
  MlpClassifier good = MakeModel(3);
  ASSERT_TRUE(SaveModelToFile(good, path).ok());

  // A later save of a corrupted model fails...
  MlpClassifier poisoned = MakeModel(4);
  poisoned.Parameters()[0]->data()[0] = std::nan("");
  const Status failed = SaveModelToFile(poisoned, path);
  EXPECT_EQ(failed.code(), StatusCode::kNumericalError);

  // ...but the original checkpoint still loads, bit-for-bit, and no temp
  // file is left behind.
  Result<MlpClassifier> reloaded = LoadModelFromFile(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  const std::vector<const Matrix*> orig =
      static_cast<const MlpClassifier&>(good).Parameters();
  const std::vector<const Matrix*> back =
      static_cast<const MlpClassifier&>(reloaded.value()).Parameters();
  ASSERT_EQ(orig.size(), back.size());
  for (std::size_t t = 0; t < orig.size(); ++t) {
    for (std::size_t i = 0; i < orig[t]->size(); ++i) {
      EXPECT_EQ(Bits(orig[t]->data()[i]), Bits(back[t]->data()[i]));
    }
  }
  EXPECT_FALSE(FileExists(path + ".tmp"));
  std::remove(path.c_str());
}

// Regression: SaveModelToFile used to rename without any fsync, so a
// power loss could persist the rename before the data blocks — a
// correctly-named torn checkpoint. A durable save issues (at least) the
// tmp-file fsync and the parent-directory fsync.
TEST(SerializeV2Test, SaveToFileFsyncsBeforeRename) {
  const std::string path = "/tmp/faction_serialize_fsync.model";
  std::remove(path.c_str());
  MlpClassifier model = MakeModel(7);

  const std::uint64_t fsyncs_before = FsyncCallsForTest();
  ASSERT_TRUE(SaveModelToFile(model, path).ok());
  EXPECT_GE(FsyncCallsForTest(), fsyncs_before + 2)
      << "durable save must fsync the tmp file and the parent directory";

  // The FACTION_NO_FSYNC escape hatch (bulk runs) skips the fsyncs but
  // keeps the atomic tmp+rename.
  ::setenv("FACTION_NO_FSYNC", "1", 1);
  const std::uint64_t fsyncs_mid = FsyncCallsForTest();
  ASSERT_TRUE(SaveModelToFile(model, path).ok());
  EXPECT_EQ(fsyncs_mid, FsyncCallsForTest());
  ::unsetenv("FACTION_NO_FSYNC");

  EXPECT_TRUE(LoadModelFromFile(path).ok());
  EXPECT_FALSE(FileExists(path + ".tmp"));
  std::remove(path.c_str());
}

// Load errors must name the failing file and the byte offset where the
// parse stopped, so a truncated checkpoint points at its own damage.
TEST(SerializeV2Test, LoadErrorsNameSourceAndByteOffset) {
  const std::string path = "/tmp/faction_serialize_truncated.model";
  MlpClassifier model = MakeModel(8);
  std::ostringstream os;
  ASSERT_TRUE(SaveModel(model, os).ok());
  const std::string full = os.str();
  {
    std::ofstream f(path, std::ios::trunc);
    f << full.substr(0, full.size() / 2);
  }
  Result<MlpClassifier> loaded = LoadModelFromFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(std::string::npos, loaded.status().message().find(path))
      << loaded.status().ToString();
  EXPECT_NE(std::string::npos, loaded.status().message().find("@byte"))
      << loaded.status().ToString();
  std::remove(path.c_str());

  // Streams loaded without a source label still report the offset.
  std::istringstream is(full.substr(0, full.size() / 2));
  Result<MlpClassifier> unnamed = LoadModel(is);
  ASSERT_FALSE(unnamed.ok());
  EXPECT_NE(std::string::npos, unnamed.status().message().find("@byte"))
      << unnamed.status().ToString();
}

TEST(SerializeV2Test, SaveToUnopenablePathFails) {
  MlpClassifier model = MakeModel(5);
  const Status saved =
      SaveModelToFile(model, "/tmp/no_such_dir_faction/x.model");
  EXPECT_EQ(saved.code(), StatusCode::kNotFound);
}

TEST(SerializeV2Test, ConstParametersMatchMutableParameters) {
  MlpClassifier model = MakeModel(6);
  const std::vector<Matrix*> mut = model.Parameters();
  const std::vector<const Matrix*> cons =
      static_cast<const MlpClassifier&>(model).Parameters();
  ASSERT_EQ(mut.size(), cons.size());
  for (std::size_t i = 0; i < mut.size(); ++i) {
    EXPECT_EQ(static_cast<const Matrix*>(mut[i]), cons[i]);
  }
}

}  // namespace
}  // namespace faction
