#include "nn/mlp.h"

#include <utility>

#include "common/check.h"
#include "common/workspace.h"
#include "tensor/ops.h"

namespace faction {

std::vector<std::pair<std::size_t, std::size_t>> ParameterShapes(
    const MlpConfig& config) {
  std::vector<std::pair<std::size_t, std::size_t>> shapes;
  std::size_t in = config.input_dim;
  for (std::size_t i = 0; i <= config.hidden_dims.size(); ++i) {
    const std::size_t out = i < config.hidden_dims.size()
                                ? config.hidden_dims[i]
                                : config.num_classes;
    shapes.emplace_back(out, in);
    shapes.emplace_back(1, out);
    in = out;
  }
  return shapes;
}

MlpClassifier::MlpClassifier(const MlpConfig& config, Rng* rng)
    : config_(config) {
  FACTION_CHECK_GE(config_.num_classes, std::size_t{2});
  std::size_t in = config_.input_dim;
  for (std::size_t width : config_.hidden_dims) {
    hidden_.push_back(
        std::make_unique<Linear>(in, width, config_.spectral, rng));
    relus_.emplace_back();
    in = width;
  }
  // The classification head is never spectrally normalized: the Lipschitz
  // constraint is a property of the feature extractor only.
  SpectralNormConfig no_sn;
  head_ = std::make_unique<Linear>(in, config_.num_classes, no_sn, rng);
  acts_.resize(hidden_.size());
}

Matrix MlpClassifier::Forward(const Matrix& x) {
  Matrix logits;
  ForwardInto(x, &logits);
  return logits;
}

void MlpClassifier::ForwardInto(const Matrix& x, Matrix* out) {
  FACTION_CHECK_EQ(x.cols(), config_.input_dim);
  const Matrix* h = &x;
  for (std::size_t i = 0; i < hidden_.size(); ++i) {
    hidden_[i]->ForwardInto(*h, &acts_[i]);
    relus_[i].ForwardInPlace(&acts_[i]);
    h = &acts_[i];
  }
  last_features_ = *h;  // reuses capacity across same-shape batches
  head_->ForwardInto(*h, out);
}

Matrix MlpClassifier::Logits(const Matrix& x) const {
  Matrix h = x;
  for (const auto& lin : hidden_) {
    h = Relu::ForwardInference(lin->ForwardInference(h));
  }
  return head_->ForwardInference(h);
}

void MlpClassifier::LogitsInto(const Matrix& x, Workspace* ws,
                               Matrix* out) const {
  Matrix* features = ws->MatrixFor("mlp.infer_features", x.rows(),
                                   feature_dim());
  ExtractFeaturesInto(x, ws, features);
  head_->ForwardInferenceInto(*features, out);
}

Matrix MlpClassifier::ExtractFeatures(const Matrix& x) const {
  Matrix h = x;
  for (const auto& lin : hidden_) {
    h = Relu::ForwardInference(lin->ForwardInference(h));
  }
  return h;
}

void MlpClassifier::ExtractFeaturesInto(const Matrix& x, Workspace* ws,
                                        Matrix* out) const {
  FACTION_CHECK_EQ(x.cols(), config_.input_dim);
  if (hidden_.empty()) {
    *out = x;  // copy-assign: reuses capacity across same-shape batches
    return;
  }
  // Hidden chain ping-pongs between two Workspace buffers; the final layer
  // writes straight into *out. The input of each layer never aliases its
  // output: x is the caller's matrix, and a/b alternate.
  const Matrix* h = &x;
  Matrix* a = ws->MatrixFor("mlp.infer_a", 0, 0);
  Matrix* b = ws->MatrixFor("mlp.infer_b", 0, 0);
  for (std::size_t i = 0; i < hidden_.size(); ++i) {
    Matrix* target = i + 1 == hidden_.size() ? out : a;
    hidden_[i]->ForwardInferenceInto(*h, target);
    Relu::ForwardInferenceInPlace(target);
    h = target;
    std::swap(a, b);
  }
}

void MlpClassifier::Backward(const Matrix& dlogits) {
  // Nothing reads the gradient with respect to the model input, so the
  // first Linear (the head of a linear model) skips that product.
  head_->BackwardInto(dlogits, hidden_.empty() ? nullptr : &dbuf_);
  for (std::size_t ii = hidden_.size(); ii > 0; --ii) {
    const std::size_t i = ii - 1;
    relus_[i].BackwardInPlace(&dbuf_);
    hidden_[i]->BackwardInto(dbuf_, i == 0 ? nullptr : &dbuf_swap_);
    std::swap(dbuf_, dbuf_swap_);
  }
}

void MlpClassifier::ZeroGrad() {
  for (auto& lin : hidden_) lin->ZeroGrad();
  head_->ZeroGrad();
}

std::vector<Matrix*> MlpClassifier::Parameters() {
  std::vector<Matrix*> out;
  for (auto& lin : hidden_) {
    out.push_back(lin->weight());
    out.push_back(lin->bias());
  }
  out.push_back(head_->weight());
  out.push_back(head_->bias());
  return out;
}

std::vector<const Matrix*> MlpClassifier::Parameters() const {
  std::vector<const Matrix*> out;
  for (const auto& lin : hidden_) {
    const Linear& layer = *lin;
    out.push_back(&layer.weight());
    out.push_back(&layer.bias());
  }
  const Linear& head = *head_;
  out.push_back(&head.weight());
  out.push_back(&head.bias());
  return out;
}

std::vector<Matrix*> MlpClassifier::Gradients() {
  std::vector<Matrix*> out;
  for (auto& lin : hidden_) {
    out.push_back(lin->weight_grad());
    out.push_back(lin->bias_grad());
  }
  out.push_back(head_->weight_grad());
  out.push_back(head_->bias_grad());
  return out;
}

}  // namespace faction
