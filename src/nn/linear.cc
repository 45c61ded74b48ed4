#include "nn/linear.h"

#include <cmath>

#include "common/check.h"

#include "tensor/linalg.h"
#include "tensor/ops.h"

namespace faction {

Linear::Linear(std::size_t in_dim, std::size_t out_dim,
               const SpectralNormConfig& sn, Rng* rng)
    : sn_(sn),
      w_(out_dim, in_dim),
      b_(1, out_dim),
      gw_(out_dim, in_dim),
      gb_(1, out_dim),
      sn_rng_(rng->Fork()) {
  // He initialization: N(0, 2/fan_in), appropriate for ReLU stacks.
  const double std = std::sqrt(2.0 / static_cast<double>(in_dim));
  for (std::size_t i = 0; i < w_.size(); ++i) {
    w_.data()[i] = rng->Gaussian(0.0, std);
  }
}

void Linear::RefreshSpectralScale() {
  if (!sn_.enabled) {
    scale_ = 1.0;
    return;
  }
  PowerIterationInto(w_, sn_.power_iterations, &sn_rng_, &sn_est_);
  sigma_ = sn_est_.sigma;
  FACTION_DCHECK_FINITE(sigma_);
  scale_ = sigma_ > sn_.coeff && sigma_ > 0.0 ? sn_.coeff / sigma_ : 1.0;
}

Matrix Linear::Forward(const Matrix& x) {
  Matrix y;
  ForwardInto(x, &y);
  return y;
}

void Linear::ForwardInto(const Matrix& x, Matrix* y) {
  FACTION_CHECK_EQ(x.cols(), in_dim());
  RefreshSpectralScale();
  cached_input_ = x;  // vector copy-assign: reuses capacity, no alloc
  MatMulBtInto(x, w_, y);
  if (scale_ != 1.0) {
    for (std::size_t i = 0; i < y->size(); ++i) y->data()[i] *= scale_;
  }
  // Bias broadcast straight from b_'s storage (the vector-building
  // AddRowBroadcast overload would allocate per call).
  const double* bias = b_.row_data(0);
  for (std::size_t i = 0; i < y->rows(); ++i) {
    double* r = y->row_data(i);
    for (std::size_t j = 0; j < y->cols(); ++j) r[j] += bias[j];
  }
}

Matrix Linear::ForwardInference(const Matrix& x) const {
  Matrix y;
  ForwardInferenceInto(x, &y);
  return y;
}

void Linear::ForwardInferenceInto(const Matrix& x, Matrix* y) const {
  FACTION_CHECK_EQ(x.cols(), in_dim());
  MatMulBtInto(x, w_, y);
  if (scale_ != 1.0) {
    for (std::size_t i = 0; i < y->size(); ++i) y->data()[i] *= scale_;
  }
  // Bias broadcast straight from b_'s storage: the same per-element adds
  // as AddRowBroadcast over a copied bias row, without the copies.
  const double* bias = b_.row_data(0);
  for (std::size_t i = 0; i < y->rows(); ++i) {
    double* r = y->row_data(i);
    for (std::size_t j = 0; j < y->cols(); ++j) r[j] += bias[j];
  }
}

Matrix Linear::Backward(const Matrix& dy) {
  Matrix dx;
  BackwardInto(dy, &dx);
  return dx;
}

void Linear::BackwardInto(const Matrix& dy, Matrix* dx) {
  FACTION_CHECK_EQ(dy.rows(), cached_input_.rows());
  FACTION_CHECK_EQ(dy.cols(), out_dim());
  // dW_eff = dy^T x; with W_eff = scale*W (scale treated as constant),
  // dW = scale * dW_eff.
  MatMulAtInto(dy, cached_input_, &dw_scratch_);
  AddScaled(&gw_, dw_scratch_, scale_);
  ColSumsInto(dy, &db_scratch_);
  for (std::size_t j = 0; j < b_.cols(); ++j) gb_(0, j) += db_scratch_[j];
  if (dx == nullptr) return;
  // dx = dy * W_eff = scale * dy * W.
  MatMulInto(dy, w_, dx);
  if (scale_ != 1.0) {
    for (std::size_t i = 0; i < dx->size(); ++i) dx->data()[i] *= scale_;
  }
}

void Linear::ZeroGrad() {
  gw_.Fill(0.0);
  gb_.Fill(0.0);
}

}  // namespace faction
