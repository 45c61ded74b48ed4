#include "nn/serialize.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <limits>
#include <utility>
#include <vector>

#include "common/fsio.h"
#include "common/token_reader.h"

namespace faction {

namespace {

// v2 prints hexfloat tensor payloads, which round-trip every finite double
// bit-for-bit on any conforming strtod.
constexpr int kFormatVersion = 2;
constexpr char kMagic[] = "faction-mlp";

}  // namespace

Status SaveModel(const MlpClassifier& model, std::ostream& os) {
  const MlpConfig& config = model.config();
  const std::vector<const Matrix*> params = model.Parameters();
  // Reject non-finite parameters up front: a NaN/Inf weight would
  // serialize as "nan"/"inf", which no loader accepts — the checkpoint
  // would save "successfully" and then be unreadable.
  for (std::size_t t = 0; t < params.size(); ++t) {
    const Matrix& p = *params[t];
    for (std::size_t i = 0; i < p.size(); ++i) {
      if (!std::isfinite(p.data()[i])) {
        return Status::NumericalError(
            "SaveModel: non-finite parameter in tensor " + std::to_string(t) +
            " at element " + std::to_string(i));
      }
    }
  }
  os << kMagic << " v" << kFormatVersion << "\n";
  os << "input_dim " << config.input_dim << "\n";
  os << "num_classes " << config.num_classes << "\n";
  os << "hidden";
  for (std::size_t width : config.hidden_dims) os << ' ' << width;
  os << "\n";
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "spectral " << (config.spectral.enabled ? 1 : 0) << ' '
     << config.spectral.coeff << ' ' << config.spectral.power_iterations
     << "\n";
  os << "tensors " << params.size() << "\n";
  // Hexfloat payload: exact binary round-trip for every finite double,
  // including denormals and signed zeros.
  os << std::hexfloat;
  for (const Matrix* p : params) {
    os << p->rows() << ' ' << p->cols();
    for (std::size_t i = 0; i < p->size(); ++i) os << ' ' << p->data()[i];
    os << "\n";
  }
  os << std::defaultfloat;
  if (!os.good()) return Status::Internal("SaveModel: stream write failed");
  return Status::Ok();
}

Result<MlpClassifier> LoadModel(std::istream& is, const std::string& source) {
  TokenReader r(is, "LoadModel", source);
  std::string token;
  FACTION_RETURN_IF_ERROR(r.Token(&token, "magic header"));
  if (token != kMagic) return r.Fail("bad magic header");
  FACTION_RETURN_IF_ERROR(r.Token(&token, "format version"));
  if (token != "v" + std::to_string(kFormatVersion)) {
    return r.Fail("unsupported version " + token);
  }
  MlpConfig config;
  config.hidden_dims.clear();
  FACTION_RETURN_IF_ERROR(r.Expect("input_dim"));
  FACTION_RETURN_IF_ERROR(r.Read(&config.input_dim, "input_dim"));
  FACTION_RETURN_IF_ERROR(r.Expect("num_classes"));
  FACTION_RETURN_IF_ERROR(r.Read(&config.num_classes, "num_classes"));
  // Hidden widths run up to the "spectral" tag.
  FACTION_RETURN_IF_ERROR(r.Expect("hidden"));
  while (r.Token(&token, "hidden widths").ok() && token != "spectral") {
    std::size_t width = 0;
    const char* end = token.data() + token.size();
    if (std::from_chars(token.data(), end, width).ptr != end || width == 0) {
      return r.Fail("bad hidden width '" + token + "'");
    }
    config.hidden_dims.push_back(width);
  }
  if (token != "spectral") return r.Fail("truncated hidden widths");
  if (config.input_dim == 0 || config.num_classes < 2) {
    return r.Fail("invalid dimensions");
  }
  FACTION_RETURN_IF_ERROR(r.Read(&config.spectral.enabled, "spectral flag"));
  FACTION_RETURN_IF_ERROR(r.Read(&config.spectral.coeff, "spectral coeff"));
  FACTION_RETURN_IF_ERROR(
      r.Read(&config.spectral.power_iterations, "power_iterations"));

  // Read every tensor against the shape the architecture implies before
  // building the model, so a corrupt width cannot size an allocation.
  const auto shapes = ParameterShapes(config);
  std::vector<Matrix> tensors(shapes.size());
  std::size_t count = 0;
  FACTION_RETURN_IF_ERROR(r.Expect("tensors"));
  FACTION_RETURN_IF_ERROR(r.Read(&count, "tensor count"));
  if (count != tensors.size()) {
    return r.Fail("tensor count " + std::to_string(count) +
                  " does not match architecture (" +
                  std::to_string(tensors.size()) + ")");
  }
  for (std::size_t t = 0; t < count; ++t) {
    const auto [rows, cols] = shapes[t];
    std::size_t r_in = 0, c_in = 0;
    FACTION_RETURN_IF_ERROR(r.Read(&r_in, "tensor rows"));
    FACTION_RETURN_IF_ERROR(r.Read(&c_in, "tensor cols"));
    if (r_in != rows || c_in != cols) return r.Fail("tensor shape mismatch");
    if (rows > std::numeric_limits<std::size_t>::max() / cols) {
      return r.Fail("oversized tensor");
    }
    FACTION_RETURN_IF_ERROR(r.ExpectRoom(rows * cols, "tensor"));
    tensors[t].ResizeForOverwrite(rows, cols);
    for (std::size_t i = 0; i < rows * cols; ++i) {
      double& v = tensors[t].data()[i];
      FACTION_RETURN_IF_ERROR(r.Read(&v, "tensor value"));
      // Matching SaveModel's contract, infinities are rejected too.
      if (!std::isfinite(v)) return r.Fail("non-finite tensor value");
    }
  }
  Rng rng(0);  // initialization is immediately overwritten
  MlpClassifier model(config, &rng);
  const std::vector<Matrix*> params = model.Parameters();
  for (std::size_t t = 0; t < params.size(); ++t) {
    *params[t] = std::move(tensors[t]);
  }
  return model;
}

Status SaveModelToFile(const MlpClassifier& model, const std::string& path) {
  // Crash-safe save: serialize into a sibling temp file and rename it over
  // the target, so a failed or interrupted save never truncates an
  // existing good checkpoint.
  const std::string tmp_path = path + ".tmp";
  Status save_status;
  {
    std::ofstream os(tmp_path, std::ios::trunc);
    if (!os.is_open()) {
      return Status::NotFound("SaveModelToFile: cannot open " + tmp_path);
    }
    save_status = SaveModel(model, os);
    if (save_status.ok()) {
      os.flush();
      if (!os.good()) {
        save_status = Status::Internal("SaveModelToFile: flush failed for " +
                                       tmp_path);
      }
    }
  }
  if (!save_status.ok()) {
    std::remove(tmp_path.c_str());
    return save_status;
  }
  // Durable commit (fsync tmp -> rename -> fsync parent): rename alone is
  // atomic but not durable — on power loss the filesystem may persist the
  // rename before the data blocks, leaving a correctly-named torn
  // checkpoint. CommitFileDurable removes the tmp file on failure.
  return CommitFileDurable(tmp_path, path);
}

Result<MlpClassifier> LoadModelFromFile(const std::string& path) {
  std::ifstream is(path);
  if (!is.is_open()) {
    return Status::NotFound("LoadModelFromFile: cannot open " + path);
  }
  return LoadModel(is, path);
}

}  // namespace faction
