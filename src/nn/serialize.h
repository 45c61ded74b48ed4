#ifndef FACTION_NN_SERIALIZE_H_
#define FACTION_NN_SERIALIZE_H_

#include <istream>
#include <ostream>
#include <string>

#include "common/rng.h"
#include "common/status.h"
#include "nn/mlp.h"

namespace faction {

/// Serializes the classifier (architecture + parameters) to a versioned
/// text format (current: v2, hexfloat tensor payload for bitwise-exact
/// round-trips). Deployed online learners use this to checkpoint theta_t
/// between tasks or hand a trained model to a serving process.
///
/// Models with non-finite (NaN/Inf) parameters are rejected with
/// kNumericalError *before* anything is written: a non-finite weight would
/// serialize into a checkpoint no loader can read.
Status SaveModel(const MlpClassifier& model, std::ostream& os);

/// Reads a v2 model back, parameters bit-for-bit. Fails with a descriptive
/// status on format or version mismatches (only v2 is readable), on tensor
/// shapes that disagree with the stored architecture, and on non-finite
/// tensor values. `source` names the stream in error messages (the
/// file path, or any logical label); every parse failure also reports the
/// byte offset where reading stopped, so a truncated or corrupted
/// checkpoint points at its own damage.
Result<MlpClassifier> LoadModel(std::istream& is,
                                const std::string& source = "");

/// Crash-safe, durable file save: writes to `path + ".tmp"`, fsyncs it,
/// renames it over `path`, and fsyncs the parent directory
/// (common/fsio.h), so a failed save never truncates an existing good
/// checkpoint and a completed save survives power loss. Set the
/// FACTION_NO_FSYNC environment variable to skip the fsyncs (bulk
/// experiment runs where durability does not matter); atomicity is
/// unaffected.
Status SaveModelToFile(const MlpClassifier& model, const std::string& path);
/// Opens and loads `path`; decode errors carry the path and byte offset.
Result<MlpClassifier> LoadModelFromFile(const std::string& path);

}  // namespace faction

#endif  // FACTION_NN_SERIALIZE_H_
