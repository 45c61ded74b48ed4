// FACTION_HOT: CaptureSessionState runs on the serve dispatch path (the
// drain holder flips a snapshot buffer between drains), so this TU opts
// into the no-alloc-in-hot gate. Everything else — restore, the field
// lists, encode and decode — is cold and fenced.

#include "serve/state_codec.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/rng.h"
#include "common/token_reader.h"
#include "data/dataset.h"
#include "nn/linear.h"
#include "nn/mlp.h"

namespace faction {

// FACTION_COLD_BEGIN (restore-time validation)
namespace {

/// True when `params` has exactly the shapes the learner built from
/// `model` holds.
bool TensorShapesMatch(const MlpConfig& model,
                       const std::vector<Matrix>& params) {
  const auto shapes = ParameterShapes(model);
  if (shapes.size() != params.size()) return false;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    if (params[i].rows() != shapes[i].first ||
        params[i].cols() != shapes[i].second) {
      return false;
    }
  }
  return true;
}

/// Rejects snapshot content that decodes cleanly but that the learner
/// would abort on after restore: out-of-domain labels trip the loss CHECKs
/// at the next refit, and a ring entry the density snapshot never absorbed
/// (or whose weight exceeds the mass its component still carries) trips
/// the downdate CHECKs at the next eviction. Runs before the learner is
/// touched.
Status CheckRestorable(const SessionState& s) {
  const auto fail = [](const char* what) {
    return Status::InvalidArgument(std::string("RestoreSessionState: ") +
                                   what);
  };
  // The domain Dataset::Append admits (and the density's cells cover).
  const auto in_domain = [](const std::vector<int>& labels,
                            const std::vector<int>& sensitive) {
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (labels[i] < 0 || labels[i] >= FairDensityEstimator::kNumClasses ||
          (sensitive[i] != 1 && sensitive[i] != -1)) {
        return false;
      }
    }
    return true;
  };
  const MlpConfig& model = s.config.model;
  if (!TensorShapesMatch(model, s.params) ||
      s.layers.size() != model.hidden_dims.size() + 1) {
    return fail("model tensors do not match the architecture");
  }
  const std::size_t n = s.pool_size, rn = s.ring_size;
  if (s.pool_features.rows() != n || s.pool_labels.size() != n ||
      s.pool_sensitive.size() != n || s.pool_environments.size() != n ||
      (n > 0 && s.pool_features.cols() != model.input_dim)) {
    return fail("inconsistent pool section");
  }
  if (s.ring_label.size() != rn || s.ring_sensitive.size() != rn ||
      s.ring_weight.size() != rn || s.ring_z.rows() != rn) {
    return fail("inconsistent ring section");
  }
  if (!in_domain(s.pool_labels, s.pool_sensitive) ||
      !in_domain(s.ring_label, s.ring_sensitive)) {
    return fail("label or sensitive value out of domain");
  }

  const DensitySnapshot& d = s.density;
  if (!d.has_value) return Status::Ok();  // the ring waits for a refit
  const std::size_t feature_dim =
      model.hidden_dims.empty() ? model.input_dim : model.hidden_dims.back();
  if (d.dim != feature_dim || rn > d.total) {
    return fail("density does not match the model or the ring");
  }
  // Replay the evictions the ring will drive: each entry must hit a
  // present cell that still counts it, and every downdate that leaves the
  // component alive must leave it positive mass (the last row of a cell
  // drops the component instead of downdating it).
  std::array<std::size_t, DensitySnapshot::kCells> left_rows = d.counts;
  std::array<double, DensitySnapshot::kCells> left_mass = {};
  for (int c = 0; c < DensitySnapshot::kCells; ++c) {
    if (!d.present[c]) continue;
    if (d.components[c].count != d.counts[c]) {
      return fail("density cell count differs from its component's");
    }
    left_mass[c] = d.components[c].weight;
  }
  for (std::size_t i = 0; i < rn; ++i) {
    const int c = FairDensityEstimator::ComponentIndex(s.ring_label[i],
                                                       s.ring_sensitive[i]);
    const double w = s.ring_weight[i];
    if (!d.present[c] || left_rows[c] == 0 || !(w > 0.0) ||
        !std::isfinite(w)) {
      return fail("ring entry the density cannot release");
    }
    if (--left_rows[c] > 0 && !((left_mass[c] -= w) > 0.0)) {
      return fail("ring weights exceed the density component's mass");
    }
  }
  return Status::Ok();
}

}  // namespace
// FACTION_COLD_END

/// The single befriended accessor: every read or write of private
/// checkpointed state funnels through these static helpers, so the set of
/// fields the checkpoint covers is auditable in one place.
struct StateCodecAccess {
  // ----------------------------------------------------------- capture
  // Hot-path legal: copy assignments only (std::vector and Matrix
  // operator= reuse capacity), no local container construction.

  static void CaptureGaussian(const Gaussian& g, GaussianSnapshot* out) {
    out->count = g.count_;
    out->weight = g.weight_;
    out->ridge = g.ridge_;
    out->log_det = g.log_det_;
    out->forgetting = g.forgetting_;
    out->mean = g.mean_;
    out->sum = g.sum_;
    out->chol = g.chol_;
    out->scatter = g.scatter_;
  }

  static void CaptureDensity(const std::optional<FairDensityEstimator>& est,
                             DensitySnapshot* out) {
    out->has_value = est.has_value();
    if (!est.has_value()) return;
    const FairDensityEstimator& e = *est;
    out->dim = e.dim_;
    out->forgetting = e.forgetting_;
    out->total = e.total_;
    out->wtotal = e.wtotal_;
    for (int c = 0; c < DensitySnapshot::kCells; ++c) {
      out->present[c] = e.present_[c];
      out->counts[c] = e.counts_[c];
      out->wcounts[c] = e.wcounts_[c];
      out->weights[c] = e.weights_[c];
      out->log_weights[c] = e.log_weights_[c];
      if (e.present_[c]) {
        CaptureGaussian(e.components_[c], &out->components[c]);
      }
    }
  }

  static void CaptureLinear(const Linear& layer, Matrix* w, Matrix* b,
                            LinearSnapshot* out) {
    *w = layer.w_;
    *b = layer.b_;
    out->scale = layer.scale_;
    out->sigma = layer.sigma_;
    out->sn_sigma = layer.sn_est_.sigma;
    out->sn_u = layer.sn_est_.u;
    out->sn_v = layer.sn_est_.v;
    out->sn_rng = layer.sn_rng_.SaveState();
  }

  static void Capture(const StreamingFaction& f, SessionState* out) {
    out->config = f.config_;
    out->rng = f.rng_.SaveState();

    const MlpClassifier& model = *f.model_;
    const std::size_t num_linear = model.hidden_.size() + 1;
    out->params.resize(2 * num_linear);
    out->layers.resize(num_linear);
    for (std::size_t i = 0; i < num_linear; ++i) {
      CaptureLinear(i < model.hidden_.size() ? *model.hidden_[i] : *model.head_,
                    &out->params[2 * i], &out->params[2 * i + 1],
                    &out->layers[i]);
    }

    // Pool: read features_ directly — features() would compact the matrix
    // and discard the spare rows the zero-alloc steady state depends on.
    // The first size() rows of features_ are the valid data (row-major).
    const Dataset& pool = f.pool_;
    const std::size_t n = pool.labels_.size();
    const std::size_t d = pool.dim_;
    out->pool_size = n;
    // Grow the destination to the pool's *reserved* shape first, then trim
    // to n rows: capacity is retained, so captures between pool growths
    // are allocation-free even as n creeps up toward the reserve.
    const std::size_t reserve = n + f.config_.refit_interval + 1;
    out->pool_features.ResizeForOverwrite(reserve, d);
    out->pool_features.ResizeForOverwrite(n, d);
    std::copy(pool.features_.data(), pool.features_.data() + n * d,
              out->pool_features.data());
    out->pool_labels = pool.labels_;
    out->pool_sensitive = pool.sensitive_;
    out->pool_environments = pool.environments_;
    out->pool_labels.reserve(reserve);
    out->pool_sensitive.reserve(reserve);
    out->pool_environments.reserve(reserve);

    // Ring: canonicalize oldest-first so restore can rebuild with
    // ring_start_ = 0 (slot layout is unobservable).
    const std::size_t rn = f.ring_size_;
    const std::size_t rd = f.ring_z_.cols();
    out->ring_size = rn;
    out->ring_z.ResizeForOverwrite(rn, rd);
    out->ring_label.resize(rn);
    out->ring_sensitive.resize(rn);
    out->ring_weight.resize(rn);
    const std::size_t cap = f.ring_label_.size();
    for (std::size_t i = 0; i < rn; ++i) {
      const std::size_t slot = (f.ring_start_ + i) % cap;
      std::copy(f.ring_z_.row_data(slot), f.ring_z_.row_data(slot) + rd,
                out->ring_z.row_data(i));
      out->ring_label[i] = f.ring_label_[slot];
      out->ring_sensitive[i] = f.ring_sensitive_[slot];
      out->ring_weight[i] = f.ring_weight_[slot];
    }

    CaptureDensity(f.estimator_, &out->density);

    out->norm_count = f.normalizer_.count();
    out->norm_min = f.normalizer_.min();
    out->norm_max = f.normalizer_.max();

    out->seen = f.seen_;
    out->queried = f.queried_;
    out->labels_since_refit = f.labels_since_refit_;
    out->trained_once = f.trained_once_;
  }

  // FACTION_COLD_BEGIN (restore: warm-start path, may allocate freely)

  static void RestoreLinear(const LinearSnapshot& snap, const Matrix& w,
                            const Matrix& b, Linear* layer) {
    layer->w_ = w;
    layer->b_ = b;
    layer->scale_ = snap.scale;
    layer->sigma_ = snap.sigma;
    layer->sn_est_.sigma = snap.sn_sigma;
    layer->sn_est_.u = snap.sn_u;
    layer->sn_est_.v = snap.sn_v;
    layer->sn_rng_.RestoreState(snap.sn_rng);
  }

  static Status RestoreDensityImpl(const DensitySnapshot& snap,
                                   const CovarianceConfig& config,
                                   std::optional<FairDensityEstimator>* out) {
    if (!snap.has_value) {
      out->reset();
      return Status::Ok();
    }
    if (snap.forgetting != config.forgetting) {
      return Status::InvalidArgument(
          "RestoreDensity: snapshot/config forgetting-mode mismatch");
    }
    constexpr int kCells = DensitySnapshot::kCells;
    FairDensityEstimator est;
    est.dim_ = snap.dim;
    est.forgetting_ = snap.forgetting;
    est.total_ = snap.total;
    est.wtotal_ = snap.wtotal;
    est.components_.resize(kCells);
    est.present_.assign(snap.present.begin(), snap.present.end());
    est.counts_.assign(snap.counts.begin(), snap.counts.end());
    est.wcounts_.assign(snap.wcounts.begin(), snap.wcounts.end());
    est.weights_.assign(snap.weights.begin(), snap.weights.end());
    est.log_weights_.assign(snap.log_weights.begin(), snap.log_weights.end());
    for (int c = 0; c < kCells; ++c) {
      if (!snap.present[c]) continue;
      const GaussianSnapshot& gs = snap.components[c];
      const std::size_t d = snap.dim;
      if (gs.mean.size() != d || gs.sum.size() != d || gs.chol.rows() != d ||
          gs.chol.cols() != d || gs.scatter.rows() != d ||
          gs.scatter.cols() != d) {
        return Status::InvalidArgument(
            "RestoreDensity: component shape mismatch");
      }
      if (gs.count == 0) {
        return Status::InvalidArgument(
            "RestoreDensity: present component with zero count");
      }
      if (gs.forgetting != snap.forgetting) {
        return Status::InvalidArgument(
            "RestoreDensity: component forgetting-mode mismatch");
      }
      Gaussian& g = est.components_[c];
      g.mean_ = gs.mean;
      g.chol_ = gs.chol;
      g.log_det_ = gs.log_det;
      g.count_ = gs.count;
      g.sum_ = gs.sum;
      g.scatter_ = gs.scatter;
      g.forgetting_ = gs.forgetting;
      g.weight_ = gs.weight;
      g.ridge_ = gs.ridge;
      // Pre-size the refresh scratch so the first post-restore fold or
      // eviction is as allocation-free as in the captured session.
      g.cov_scratch_.ResizeForOverwrite(d, d);
      g.reg_scratch_.ResizeForOverwrite(d, d);
      g.chol_try_.ResizeForOverwrite(d, d);
      if (gs.forgetting) {
        g.down_v_.assign(d, 0.0);
        g.down_p_.assign(d, 0.0);
      }
    }
    *out = std::move(est);
    return Status::Ok();
  }

  static Status Restore(const SessionState& s, StreamingFaction* f) {
    const MlpConfig& model_cfg = f->config_.model;
    if (model_cfg.input_dim != s.config.model.input_dim ||
        model_cfg.num_classes != s.config.model.num_classes ||
        model_cfg.hidden_dims != s.config.model.hidden_dims) {
      return Status::InvalidArgument(
          "RestoreSessionState: learner architecture differs from the "
          "captured config; construct the learner from state.config");
    }
    if (f->config_.density_window != s.config.density_window) {
      return Status::InvalidArgument(
          "RestoreSessionState: density_window differs from the captured "
          "config; construct the learner from state.config");
    }
    FACTION_RETURN_IF_ERROR(CheckRestorable(s));
    if (s.ring_size > f->ring_label_.size() ||
        (s.ring_size > 0 && s.ring_z.cols() != f->ring_z_.cols())) {
      return Status::InvalidArgument(
          "RestoreSessionState: ring exceeds the configured density_window");
    }
    std::optional<FairDensityEstimator> density;
    FACTION_RETURN_IF_ERROR(
        RestoreDensityImpl(s.density, f->config_.covariance, &density));

    MlpClassifier& model = *f->model_;
    const std::size_t num_linear = model.hidden_.size() + 1;
    for (std::size_t i = 0; i < num_linear; ++i) {
      RestoreLinear(s.layers[i], s.params[2 * i], s.params[2 * i + 1],
                    i < model.hidden_.size() ? model.hidden_[i].get()
                                             : model.head_.get());
    }

    f->rng_.RestoreState(s.rng);

    // Pool. The snapshot's feature matrix holds exactly pool_size valid
    // rows; Reserve() re-grows the spare rows the steady state expects.
    Dataset& pool = f->pool_;
    pool.dim_ = model_cfg.input_dim;
    pool.features_ = s.pool_features;
    pool.labels_ = s.pool_labels;
    pool.sensitive_ = s.pool_sensitive;
    pool.environments_ = s.pool_environments;
    pool.Reserve(s.pool_size + f->config_.refit_interval + 1);

    // Ring: slots were canonicalized oldest-first at capture; rebuild with
    // ring_start_ = 0 into the pre-sized ring (allocated by the ctor when
    // density_window > 0).
    for (std::size_t i = 0; i < s.ring_size; ++i) {
      std::copy(s.ring_z.row_data(i), s.ring_z.row_data(i) + s.ring_z.cols(),
                f->ring_z_.row_data(i));
      f->ring_label_[i] = s.ring_label[i];
      f->ring_sensitive_[i] = s.ring_sensitive[i];
      f->ring_weight_[i] = s.ring_weight[i];
    }
    f->ring_start_ = 0;
    f->ring_size_ = s.ring_size;

    f->estimator_ = std::move(density);

    f->normalizer_.RestoreState(s.norm_count, s.norm_min, s.norm_max);
    f->seen_ = s.seen;
    f->queried_ = s.queried;
    f->labels_since_refit_ = s.labels_since_refit;
    f->trained_once_ = s.trained_once;

    // Warm the workspace arena: one scoring pass over a zero vector grows
    // every steady-state buffer ("streaming.x_row", the inference
    // ping-pong, ...) to its working size. ScoreSample consumes no RNG and
    // touches no persistent state, so this does not perturb parity.
    if (f->estimator_.has_value() && f->trained_once_) {
      std::vector<double> warm_x(model_cfg.input_dim, 0.0);
      (void)f->ScoreSample(warm_x);
    }
    return Status::Ok();
  }
  // FACTION_COLD_END
};

void CaptureSessionState(const StreamingFaction& faction, SessionState* out) {
  StateCodecAccess::Capture(faction, out);
}

// FACTION_COLD_BEGIN (field lists, encode / decode / restore: background
// jobs and warm-start only — never on the dispatch path)

Status RestoreSessionState(const SessionState& state,
                           StreamingFaction* faction) {
  return StateCodecAccess::Restore(state, faction);
}

Status RestoreDensity(const DensitySnapshot& snapshot,
                      const CovarianceConfig& config,
                      std::optional<FairDensityEstimator>* out) {
  return StateCodecAccess::RestoreDensityImpl(snapshot, config, out);
}

namespace {

// Size guards the decoder enforces before it allocates.
constexpr std::size_t kMaxVector = std::size_t{1} << 24;
constexpr std::size_t kMaxMatrixDim = std::size_t{1} << 20;
constexpr std::size_t kMaxHiddenLayers = 1024;

// ---------------------------------------------------------------- archives
//
// A field list calls, in format order:
//   Section(tag)        a tag that starts a line; later failures name it;
//   Tag(word)           a literal word on the current line;
//   Line()              a line break (text layout only; decoders ignore it);
//   Fields(x...)        scalars: bools, integers, doubles;
//   Enum(e, last)       an enum as its integer, decoded only in [0, last];
//   Count(v, max)       a container's size; the decoder caps and resizes;
//   Column(v, n)        the n values of v, sized by a count read earlier;
//   Rows(m, r, c)       the first r*c values of matrix m, no header;
//   Check(ok, problem)  decoder only: a cross-field check.
// Each writer emits exactly what its decoder reads, so one list per type
// is the whole format, in both policies:
//   text    tokens: bools as 0/1, decimal integers, hexfloat doubles; the
//           debug format, and the one tests/data/session_windowed.ckpt pins;
//   binary  a header (magic, version, payload length), the payload, and an
//           FNV-1a trailer over header and payload. Tags are their bytes,
//           scalars fixed-width little-endian (bool 1 byte, integers as
//           int64/uint64, doubles 8 bytes), and a Column or Rows one bulk
//           copy of its elements at their native width.

/// Prints into the reused output string. Doubles use %a, which
/// round-trips every finite double bit-for-bit; the infinities print as
/// "inf"/"-inf", which the decoder accepts (log_weights holds -inf for
/// zero-mass cells). printf formatting is several times cheaper than a
/// locale-aware ostream, and the serializer shares the job system with
/// drain work.
class TextWriter {
 public:
  explicit TextWriter(std::string* out) : out_(*out) { out_.clear(); }

  void Section(const char* tag) {
    Line();
    out_ += tag;
  }
  void Tag(const char* word) { Put(word, std::strlen(word)); }
  void Line() {
    if (!out_.empty() && out_.back() != '\n') out_ += '\n';
  }
  template <class... T>
  void Fields(const T&... v) {
    (Field(v), ...);
  }
  template <class E>
  void Enum(const E& e, E /*last*/) {
    Field(static_cast<int>(e));
  }
  template <class C>
  void Count(const C& c, std::size_t /*max*/) {
    Field(c.size());
  }
  template <class C>
  void Column(const C& c, std::size_t /*n*/) {
    for (const auto& x : c) Field(x);
  }
  void Rows(const Matrix& m, std::size_t rows, std::size_t cols) {
    for (std::size_t i = 0; i < rows * cols; ++i) Field(m.data()[i]);
  }
  void Check(bool, const char*) {}
  void Finish() { out_.push_back('\n'); }

 private:
  template <class T>
  void Field(const T& v) {
    char buf[32];
    if constexpr (std::is_same_v<T, bool>) {
      Put(v ? "1" : "0", 1);
    } else if constexpr (std::is_floating_point_v<T>) {
      Put(buf, static_cast<std::size_t>(
                   std::snprintf(buf, sizeof(buf), "%a", double{v})));
    } else {
      Put(buf, static_cast<std::size_t>(
                   std::to_chars(buf, buf + sizeof(buf), v).ptr - buf));
    }
  }
  void Put(const char* token, std::size_t n) {
    if (!out_.empty() && out_.back() != '\n') out_ += ' ';
    out_.append(token, n);
  }

  std::string& out_;
};

/// Decodes over the shared TokenReader. The first failure sticks and
/// turns every later call into a no-op, so a field list runs straight
/// through and the caller reads status() once.
class TextReader {
 public:
  TextReader(std::istream& is, const std::string& source)
      : reader_(is, "DecodeSessionState", source) {}

  const Status& status() const { return status_; }

  void Section(const char* tag) {
    section_ = tag;
    Tag(tag);
  }
  void Tag(const char* word) {
    if (status_.ok()) Keep(reader_.Expect(word));
  }
  void Line() {}
  template <class... T>
  void Fields(T&... v) {
    (Field(v), ...);
  }
  template <class E>
  void Enum(E& e, E last) {
    int raw = 0;
    Field(raw);
    Check(raw >= 0 && raw <= static_cast<int>(last), "has an unknown enum");
    if (status_.ok()) e = static_cast<E>(raw);
  }
  template <class C>
  void Count(C& c, std::size_t max) {
    std::size_t n = 0;
    Field(n);
    Check(n <= max, "count is oversized");
    Resize(c, n);
  }
  template <class C>
  void Column(C& c, std::size_t n) {
    Resize(c, n);
    for (auto& x : c) Field(x);
  }
  void Rows(Matrix& m, std::size_t rows, std::size_t cols) {
    Check(cols == 0 || rows <= std::numeric_limits<std::size_t>::max() / cols,
          "matrix is oversized");
    if (status_.ok()) Keep(reader_.ExpectRoom(rows * cols, section_));
    if (!status_.ok()) return;
    m.ResizeForOverwrite(rows, cols);
    for (std::size_t i = 0; i < rows * cols; ++i) Field(m.data()[i]);
  }
  void Check(bool ok, const char* problem) {
    if (status_.ok() && !ok) {
      status_ = reader_.Fail(std::string(section_) + " " + problem);
    }
  }

 private:
  template <class T>
  void Field(T& v) {
    if (status_.ok()) Keep(reader_.Read(&v, section_));
  }
  template <class C>
  void Resize(C& c, std::size_t n) {
    if (status_.ok()) Keep(reader_.ExpectRoom(n, section_));
    if (status_.ok()) c.resize(n);
  }
  void Keep(Status s) {
    if (!s.ok()) status_ = std::move(s);
  }

  TokenReader reader_;
  Status status_;
  const char* section_ = "header";
};

static_assert(std::endian::native == std::endian::little,
              "the binary policy copies scalars and columns in host order");
static_assert(sizeof(double) == 8 && sizeof(int) == 4,
              "column element widths are part of the binary format");

// "\x89" keeps the magic out of any text file, and "\r\n\x1a\n" (after
// PNG) exposes a transfer that rewrote line endings.
constexpr char kBinaryMagic[8] = {'\x89', 'F', 'S', 'S', '\r', '\n', '\x1a',
                                  '\n'};
constexpr std::uint64_t kBinaryVersion = 1;
constexpr std::size_t kVersionAt = sizeof(kBinaryMagic);
constexpr std::size_t kPayloadLengthAt = kVersionAt + 8;
constexpr std::size_t kHeaderBytes = kPayloadLengthAt + 8;
constexpr std::size_t kTrailerBytes = 8;

/// The fixed-width type a scalar field travels as.
template <class T>
using Wire = std::conditional_t<
    std::is_same_v<T, bool>, std::uint8_t,
    std::conditional_t<std::is_floating_point_v<T>, double,
                       std::conditional_t<std::is_signed_v<T>, std::int64_t,
                                          std::uint64_t>>>;

/// Bytes the smallest encoding of one element of C takes (1 for
/// structured elements), so a count can be checked against the bytes left.
template <class C>
constexpr std::size_t kMinElementBytes =
    std::is_arithmetic_v<typename C::value_type>
        ? sizeof(Wire<typename C::value_type>)
        : 1;

Status DecodeError(const std::string& source, std::size_t at,
                   const std::string& what) {
  return Status::InvalidArgument("DecodeSessionState: " + what + " in " +
                                 source + " @byte " + std::to_string(at));
}

bool AnyNan(const double* p, std::size_t n) {
  bool nan = false;
  for (std::size_t i = 0; i < n; ++i) nan |= p[i] != p[i];
  return nan;
}

/// Appends the binary encoding to the reused output string: header first
/// (the payload length is patched in by Finish), then the payload, then
/// the checksum trailer.
class BinaryWriter {
 public:
  explicit BinaryWriter(std::string* out) : out_(*out) {
    out_.assign(kBinaryMagic, sizeof(kBinaryMagic));
    Put(kBinaryVersion);
    Put(std::uint64_t{0});
  }

  void Section(const char* tag) { Tag(tag); }
  void Tag(const char* word) { out_.append(word, std::strlen(word)); }
  void Line() {}
  template <class... T>
  void Fields(const T&... v) {
    (Put(static_cast<Wire<T>>(v)), ...);
  }
  template <class E>
  void Enum(const E& e, E /*last*/) {
    Put(static_cast<std::int64_t>(e));
  }
  template <class C>
  void Count(const C& c, std::size_t /*max*/) {
    Put(std::uint64_t{c.size()});
  }
  template <class C>
  void Column(const C& c, std::size_t n) {
    Bytes(c.data(), n * sizeof(typename C::value_type));
  }
  void Rows(const Matrix& m, std::size_t rows, std::size_t cols) {
    Bytes(m.data(), rows * cols * sizeof(double));
  }
  void Check(bool, const char*) {}
  void Finish() {
    const std::uint64_t payload = out_.size() - kHeaderBytes;
    std::memcpy(out_.data() + kPayloadLengthAt, &payload, sizeof(payload));
    Put(Fnv1a64Words(out_));
  }

 private:
  template <class W>
  void Put(W w) {
    Bytes(&w, sizeof(w));
  }
  void Bytes(const void* p, std::size_t n) {
    out_.append(static_cast<const char*>(p), n);
  }

  std::string& out_;
};

/// Decodes a binary payload whose header and checksum DecodeBinary has
/// already verified. The reader keeps every guard the text reader has
/// (field-list checks, count caps, counts that fit the bytes left, 0/1
/// bools, integers in range, no NaN) and names the section and byte
/// offset of a failure; the first one sticks, as in TextReader.
class BinaryReader {
 public:
  BinaryReader(std::string_view bytes, std::size_t end,
               const std::string& source)
      : bytes_(bytes), end_(end), source_(source) {}

  const Status& status() const { return status_; }

  void Section(const char* tag) {
    section_ = tag;
    Tag(tag);
  }
  void Tag(const char* word) {
    const std::size_t n = std::strlen(word);
    const char* p = Take(n);
    if (p != nullptr && std::memcmp(p, word, n) != 0) {
      Fail(std::string("expected '") + word + "'");
    }
  }
  void Line() {}
  template <class... T>
  void Fields(T&... v) {
    (Field(v), ...);
  }
  template <class E>
  void Enum(E& e, E last) {
    int raw = 0;
    Field(raw);
    Check(raw >= 0 && raw <= static_cast<int>(last), "has an unknown enum");
    if (status_.ok()) e = static_cast<E>(raw);
  }
  template <class C>
  void Count(C& c, std::size_t max) {
    std::size_t n = 0;
    Field(n);
    Check(n <= max, "count is oversized");
    Resize(c, n, kMinElementBytes<C>);
  }
  template <class C>
  void Column(C& c, std::size_t n) {
    Resize(c, n, sizeof(typename C::value_type));
    CopyOut(c.data(), n);
  }
  void Rows(Matrix& m, std::size_t rows, std::size_t cols) {
    Check(cols == 0 || rows <= std::numeric_limits<std::size_t>::max() / cols,
          "matrix is oversized");
    Room(rows * cols, sizeof(double));
    if (!status_.ok()) return;
    m.ResizeForOverwrite(rows, cols);
    CopyOut(m.data(), rows * cols);
  }
  void Check(bool ok, const char* problem) {
    if (!ok) Fail(std::string(section_) + " " + problem);
  }
  void Finish() {
    if (status_.ok() && pos_ != end_) Fail("trailing bytes after 'end'");
  }

 private:
  template <class T>
  void Field(T& v) {
    Wire<T> w;
    const char* p = Take(sizeof(w));
    if (p == nullptr) return;
    std::memcpy(&w, p, sizeof(w));
    if constexpr (std::is_same_v<T, bool>) {
      if (w > 1) return Fail(std::string("non-boolean ") + section_);
      v = w == 1;
    } else if constexpr (std::is_floating_point_v<T>) {
      if (std::isnan(w)) return Fail(std::string("non-finite ") + section_);
      v = w;
    } else {
      if (!std::in_range<T>(w)) return Fail(std::string("bad ") + section_);
      v = static_cast<T>(w);
    }
  }
  template <class C>
  void Resize(C& c, std::size_t n, std::size_t element_bytes) {
    Room(n, element_bytes);
    if (status_.ok()) c.resize(n);
  }
  /// Fails unless `n` elements of `element_bytes` fit in the bytes left,
  /// so a corrupt count cannot size an allocation beyond its input.
  void Room(std::size_t n, std::size_t element_bytes) {
    if (status_.ok() && n > (end_ - pos_) / element_bytes) {
      Fail(std::string("oversized ") + section_);
    }
  }
  /// Copies the next n elements into dst in one memcpy; doubles must not
  /// be NaN.
  template <class T>
  void CopyOut(T* dst, std::size_t n) {
    const char* p = Take(n * sizeof(T));
    if (p == nullptr || n == 0) return;
    std::memcpy(dst, p, n * sizeof(T));
    if constexpr (std::is_floating_point_v<T>) {
      if (AnyNan(dst, n)) Fail(std::string("non-finite ") + section_);
    }
  }
  /// The next n payload bytes, or null (after failing) when they run past
  /// the payload.
  const char* Take(std::size_t n) {
    if (!status_.ok()) return nullptr;
    if (n > end_ - pos_) {
      Fail(std::string("truncated ") + section_);
      return nullptr;
    }
    const char* p = bytes_.data() + pos_;
    pos_ += n;
    return p;
  }
  void Fail(const std::string& what) {
    if (status_.ok()) status_ = DecodeError(source_, pos_, what);
  }

  std::string_view bytes_;
  std::size_t pos_ = kHeaderBytes;
  std::size_t end_;
  const std::string& source_;
  Status status_;
  const char* section_ = "header";
};

// ------------------------------------------------------------- field lists
//
// One Visit per snapshot type; S is the type itself (decode) or its const
// form (encode).

template <class S, class T>
concept Snapshot = std::same_as<std::remove_const_t<S>, T>;

template <class Ar, class V>
void VisitVector(Ar& ar, V& v) {
  ar.Count(v, kMaxVector);
  ar.Column(v, v.size());
}

template <class Ar, Snapshot<Matrix> M>
void VisitMatrix(Ar& ar, M& m) {
  std::size_t rows = m.rows(), cols = m.cols();
  ar.Fields(rows, cols);
  ar.Check(rows <= kMaxMatrixDim && cols <= kMaxMatrixDim &&
               (cols == 0 || rows <= kMaxMatrixDim / cols + 1),
           "matrix is oversized");
  ar.Rows(m, rows, cols);
}

template <class Ar, Snapshot<Rng::State> S>
void Visit(Ar& ar, S& s) {
  ar.Fields(s.s[0], s.s[1], s.s[2], s.s[3], s.have_cached_gaussian,
            s.cached_gaussian);
}

template <class Ar, Snapshot<CovarianceConfig> S>
void Visit(Ar& ar, S& c) {
  ar.Section("covariance");
  ar.Fields(c.shrinkage, c.jitter, c.max_jitter_doublings, c.forgetting,
            c.ridge);
}

template <class Ar, Snapshot<MlpConfig> S>
void Visit(Ar& ar, S& c) {
  ar.Section("model");
  ar.Fields(c.input_dim, c.num_classes);
  // MlpClassifier CHECKs num_classes; zero widths would let a corrupt
  // dimension size the learner's buffers without any data behind it.
  ar.Check(c.input_dim > 0 && c.num_classes >= 2, "dimensions are invalid");
  ar.Count(c.hidden_dims, kMaxHiddenLayers);
  for (auto& width : c.hidden_dims) {
    ar.Fields(width);
    ar.Check(width > 0, "width is zero");
  }
  ar.Section("spectral");
  ar.Fields(c.spectral.enabled, c.spectral.coeff,
            c.spectral.power_iterations);
}

template <class Ar, Snapshot<TrainConfig> S>
void Visit(Ar& ar, S& t) {
  ar.Section("train");
  ar.Fields(t.epochs, t.batch_size, t.learning_rate, t.momentum,
            t.weight_decay, t.use_fairness_penalty);
  ar.Enum(t.fairness.notion, FairnessNotion::kDeo);
  ar.Fields(t.fairness.mu, t.fairness.epsilon, t.fairness.symmetric,
            t.use_individual_penalty, t.individual.weight,
            t.individual.bandwidth, t.individual.similarity_cutoff,
            t.individual.max_pairs);
}

template <class Ar, Snapshot<StreamingFactionConfig> S>
void Visit(Ar& ar, S& c) {
  ar.Section("config");
  ar.Fields(c.lambda, c.alpha, c.warm_start, c.burn_in, c.refit_interval,
            c.incremental_density, c.density_window, c.density_decay,
            c.seed);
  // The StreamingFaction constructor CHECKs this range.
  ar.Check(c.density_decay > 0.0 && c.density_decay <= 1.0,
           "density_decay is outside (0, 1]");
  // Each sizes a row buffer the learner allocates up front (the eviction
  // ring, the pool's reserve before a refit): cap them like any matrix.
  ar.Check(c.density_window <= kMaxMatrixDim &&
               c.refit_interval <= kMaxMatrixDim,
           "density_window or refit_interval is oversized");
  Visit(ar, c.covariance);
  Visit(ar, c.model);
  Visit(ar, c.train);
}

template <class Ar, Snapshot<LinearSnapshot> S>
void Visit(Ar& ar, S& l) {
  ar.Line();
  ar.Fields(l.scale, l.sigma, l.sn_sigma);
  VisitVector(ar, l.sn_u);
  VisitVector(ar, l.sn_v);
  Visit(ar, l.sn_rng);
}

template <class Ar, Snapshot<GaussianSnapshot> S>
void Visit(Ar& ar, S& g) {
  ar.Section("gaussian");
  ar.Fields(g.count, g.weight, g.ridge, g.log_det, g.forgetting);
  ar.Section("mean");
  VisitVector(ar, g.mean);
  ar.Section("sum");
  VisitVector(ar, g.sum);
  ar.Section("chol");
  VisitMatrix(ar, g.chol);
  ar.Section("scatter");
  VisitMatrix(ar, g.scatter);
}

template <class Ar, Snapshot<DensitySnapshot> S>
void Visit(Ar& ar, S& d) {
  ar.Section("density");
  ar.Fields(d.has_value);
  if (!d.has_value) return;
  ar.Line();
  ar.Fields(d.dim, d.forgetting, d.total, d.wtotal);
  for (int c = 0; c < DensitySnapshot::kCells; ++c) {
    ar.Section("cell");
    ar.Fields(d.present[c], d.counts[c], d.wcounts[c], d.weights[c],
              d.log_weights[c]);
    if (d.present[c]) Visit(ar, d.components[c]);
  }
}

template <class Ar, Snapshot<SessionState> S>
void Visit(Ar& ar, S& s) {
  ar.Section("faction-session");
  ar.Tag("v1");
  ar.Section("stream");
  ar.Fields(s.stream_id, s.generation, s.steps);
  Visit(ar, s.config);
  ar.Section("rng");
  Visit(ar, s.rng);

  // One (weight, bias) tensor pair and one LinearSnapshot per Linear.
  const std::size_t num_linear = s.config.model.hidden_dims.size() + 1;
  ar.Section("tensors");
  ar.Count(s.params, 2 * num_linear);
  for (auto& m : s.params) {
    ar.Line();
    VisitMatrix(ar, m);
  }
  // The learner built from the config must have exactly these shapes, so
  // a corrupt width cannot size its buffers beyond the input.
  ar.Check(TensorShapesMatch(s.config.model, s.params),
           "do not match the architecture");
  ar.Section("layers");
  ar.Count(s.layers, num_linear);
  ar.Check(s.layers.size() == num_linear, "do not match the architecture");
  for (auto& l : s.layers) Visit(ar, l);

  std::size_t pool_dim = s.pool_features.cols();
  ar.Section("pool");
  ar.Fields(s.pool_size, pool_dim);
  ar.Check(pool_dim == s.config.model.input_dim,
           "dimension does not match the model input");
  ar.Rows(s.pool_features, s.pool_size, pool_dim);
  ar.Section("labels");
  ar.Column(s.pool_labels, s.pool_size);
  ar.Section("sensitive");
  ar.Column(s.pool_sensitive, s.pool_size);
  ar.Section("environments");
  ar.Column(s.pool_environments, s.pool_size);

  std::size_t ring_dim = s.ring_z.cols();
  ar.Section("ring");
  ar.Fields(s.ring_size, ring_dim);
  ar.Check(s.ring_size <= s.config.density_window,
           "size exceeds density_window");
  ar.Rows(s.ring_z, s.ring_size, ring_dim);
  ar.Section("ringlabels");
  ar.Column(s.ring_label, s.ring_size);
  ar.Section("ringsensitive");
  ar.Column(s.ring_sensitive, s.ring_size);
  ar.Section("ringweights");
  ar.Column(s.ring_weight, s.ring_size);

  ar.Section("normalizer");
  ar.Fields(s.norm_count, s.norm_min, s.norm_max);
  ar.Section("counters");
  ar.Fields(s.seen, s.queried, s.labels_since_refit, s.trained_once);
  Visit(ar, s.density);
  ar.Section("end");
}

/// Verifies the header and checksum of a binary encoding, then runs the
/// field list over its payload.
Status DecodeBinary(std::string_view bytes, const std::string& source,
                    SessionState* out) {
  if (bytes.size() < kHeaderBytes + kTrailerBytes) {
    return DecodeError(source, bytes.size(), "truncated header");
  }
  std::uint64_t version = 0, payload = 0, stored = 0;
  std::memcpy(&version, bytes.data() + kVersionAt, sizeof(version));
  std::memcpy(&payload, bytes.data() + kPayloadLengthAt, sizeof(payload));
  if (version != kBinaryVersion) {
    return DecodeError(source, kVersionAt,
                       "unsupported binary version " + std::to_string(version));
  }
  const std::size_t room = bytes.size() - kHeaderBytes - kTrailerBytes;
  if (payload > room) {
    return DecodeError(source, bytes.size(),
                       "truncated: the header declares " +
                           std::to_string(payload) + " payload bytes");
  }
  const std::size_t end = kHeaderBytes + static_cast<std::size_t>(payload);
  if (payload < room) {
    return DecodeError(source, end + kTrailerBytes,
                       "trailing bytes after the checksum");
  }
  std::memcpy(&stored, bytes.data() + end, sizeof(stored));
  if (stored != Fnv1a64Words(bytes.substr(0, end))) {
    return DecodeError(source, end, "checksum mismatch");
  }
  BinaryReader reader(bytes, end, source);
  Visit(reader, *out);
  reader.Finish();
  return reader.status();
}

/// The rest of `is`, read in one read when the stream can report its
/// length. A short read only shortens the result, which decode reports as
/// truncation.
std::string ReadRest(std::istream& is) {
  const std::streampos start = is.tellg();
  if (start != std::streampos(-1) && is.seekg(0, std::ios::end)) {
    const std::streamoff size = is.tellg() - start;
    is.seekg(start);
    std::string bytes(static_cast<std::size_t>(size), '\0');
    is.read(bytes.data(), size);
    bytes.resize(static_cast<std::size_t>(is.gcount()));
    return bytes;
  }
  is.clear();
  std::ostringstream rest;
  rest << is.rdbuf();
  return std::move(rest).str();
}

}  // namespace

void EncodeSessionState(const SessionState& state, std::string* out,
                        SessionFormat format) {
  if (format == SessionFormat::kText) {
    TextWriter writer(out);
    Visit(writer, state);
    writer.Finish();
  } else {
    BinaryWriter writer(out);
    Visit(writer, state);
    writer.Finish();
  }
}

Status DecodeSessionState(std::string_view bytes, const std::string& source,
                          SessionState* out) {
  if (bytes.substr(0, sizeof(kBinaryMagic)) ==
      std::string_view(kBinaryMagic, sizeof(kBinaryMagic))) {
    return DecodeBinary(bytes, source, out);
  }
  std::istringstream is{std::string(bytes)};
  TextReader reader(is, source);
  Visit(reader, *out);
  return reader.status();
}

Status DecodeSessionState(std::istream& is, const std::string& source,
                          SessionState* out) {
  return DecodeSessionState(ReadRest(is), source, out);
}

Status DecodeSessionStateFromFile(const std::string& path,
                                  SessionState* out) {
  std::ifstream is(path, std::ios::binary);
  if (!is.is_open()) {
    return Status::NotFound("DecodeSessionStateFromFile: cannot open " +
                            path);
  }
  return DecodeSessionState(is, path, out);
}

// FACTION_COLD_END

}  // namespace faction
