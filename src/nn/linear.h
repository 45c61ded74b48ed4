#ifndef FACTION_NN_LINEAR_H_
#define FACTION_NN_LINEAR_H_

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "tensor/linalg.h"
#include "tensor/matrix.h"

namespace faction {

struct StateCodecAccess;  // serve/state_codec.cc checkpoint accessor

/// Configuration for spectral normalization of a Linear layer's weight
/// (Miyato et al., used by the paper's feature extractor to keep the feature
/// space smooth and sensitive — the property the density-based epistemic
/// uncertainty estimate relies on).
struct SpectralNormConfig {
  bool enabled = false;
  /// Soft Lipschitz budget: the effective weight is W * min(1, coeff/sigma),
  /// so layers with spectral norm below `coeff` are untouched.
  double coeff = 3.0;
  /// Power-iteration steps per forward pass; the iteration vector is
  /// persistent across steps, so 1 suffices in practice.
  int power_iterations = 1;
};

/// Fully connected layer y = x * W_eff^T + b with optional spectral
/// normalization and cached activations for layer-wise backpropagation.
///
/// Shapes: x is (n x in), W is (out x in), b is (1 x out), y is (n x out).
class Linear {
 public:
  /// He-initializes the weight for the given fan-in.
  Linear(std::size_t in_dim, std::size_t out_dim,
         const SpectralNormConfig& sn, Rng* rng);

  std::size_t in_dim() const { return w_.cols(); }
  std::size_t out_dim() const { return w_.rows(); }

  /// Forward pass; caches the input for Backward. During training call
  /// Forward; for pure inference ForwardInference avoids the cache.
  Matrix Forward(const Matrix& x);

  /// Allocation-free training forward: writes the output into *y (resized,
  /// capacity retained; must not alias x). Value-identical to Forward.
  void ForwardInto(const Matrix& x, Matrix* y);

  /// Forward pass without caching (const). Uses the effective (normalized)
  /// weight computed from the current persistent power-iteration state.
  Matrix ForwardInference(const Matrix& x) const;

  /// Allocation-free inference forward: writes into *y (resized, capacity
  /// retained; must not alias x). Bitwise-identical to ForwardInference.
  void ForwardInferenceInto(const Matrix& x, Matrix* y) const;

  /// Backpropagates dL/dy, accumulating weight gradients, and returns
  /// dL/dx. Must follow a Forward call with the matching batch.
  Matrix Backward(const Matrix& dy);

  /// Allocation-free variant of Backward: writes dL/dx into *dx (must not
  /// alias dy), or skips that product when dx is null (the first layer's
  /// input gradient has no reader). Gradient temporaries live in
  /// persistent member scratch.
  void BackwardInto(const Matrix& dy, Matrix* dx);

  /// Clears accumulated gradients.
  void ZeroGrad();

  /// Parameter / gradient access for the optimizer.
  Matrix* weight() { return &w_; }
  Matrix* bias() { return &b_; }
  Matrix* weight_grad() { return &gw_; }
  Matrix* bias_grad() { return &gb_; }
  const Matrix& weight() const { return w_; }
  const Matrix& bias() const { return b_; }

  /// The scale min(1, coeff/sigma) applied at the last Forward (1 when
  /// spectral normalization is disabled).
  double last_scale() const { return scale_; }

  /// Estimated spectral norm of W from the last Forward (0 before any
  /// forward when normalization is disabled).
  double last_sigma() const { return sigma_; }

 private:
  // The codec checkpoints the persistent spectral state (sn_est_, sn_rng_,
  // scale_, sigma_): ForwardInference applies scale_ and each training
  // Forward draws from sn_rng_, so restore-time parity needs them exact.
  friend struct StateCodecAccess;

  void RefreshSpectralScale();

  SpectralNormConfig sn_;
  Matrix w_;   // (out x in)
  Matrix b_;   // (1 x out)
  Matrix gw_;  // gradient accumulator, same shape as w_
  Matrix gb_;  // gradient accumulator, same shape as b_
  Matrix cached_input_;
  Matrix dw_scratch_;              // dy^T x temporary, reused across steps
  std::vector<double> db_scratch_;  // column sums of dy, reused across steps
  // Persistent power-iteration state: u doubles as the classic warm-start
  // vector, and PowerIterationInto reuses u/v as working buffers so a
  // steady-state spectral refresh performs no heap allocation.
  SpectralEstimate sn_est_;
  Rng sn_rng_;
  double scale_ = 1.0;
  double sigma_ = 0.0;
};

}  // namespace faction

#endif  // FACTION_NN_LINEAR_H_
