#ifndef FACTION_COMMON_RNG_H_
#define FACTION_COMMON_RNG_H_

#include <cstdint>
#include <string_view>
#include <vector>

namespace faction {

/// Derives a component sub-seed from a world seed and a textual tag by
/// folding the tag into an FNV-1a hash of the seed. Every independently
/// seeded component of a stream or scenario (prototype draws, group
/// offsets, each task's sample draws, label-noise layers, ...) takes its
/// own tag, so changing how much one component consumes — or whether it
/// runs at all — cannot perturb any other component's draws. Equal
/// (seed, tag) pairs always map to the same sub-seed.
std::uint64_t SubSeed(std::uint64_t world_seed, std::string_view tag);

/// FNV-1a over `bytes` taken as 8-byte little-endian words, each step
/// followed by a fixed rotation (the last 0-7 bytes plain FNV-1a, one at
/// a time): a checksum at word rather than byte cost. Each step is a
/// bijection of the running hash, so a change confined to one word always
/// changes the result, and the rotation lets a difference in a word's top
/// bits reach every bit, where plain word-wise FNV-1a lets two such
/// differences in different words cancel.
std::uint64_t Fnv1a64Words(std::string_view bytes);

/// Deterministic pseudo-random number generator (xoshiro256**).
///
/// Every stochastic component in the library draws from an explicitly seeded
/// Rng so that experiment runs are reproducible bit-for-bit: repeated runs of
/// the same configuration differ only through the run index that is folded
/// into the seed.
class Rng {
 public:
  /// Seeds the generator. Equal seeds yield equal streams.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Returns the next raw 64-bit value.
  std::uint64_t NextU64();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Precondition: n > 0.
  std::uint64_t UniformInt(std::uint64_t n);

  /// Standard normal via Box-Muller (cached second draw).
  double Gaussian();

  /// Normal with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  /// Bernoulli trial returning true with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Fills `out` with a uniformly random permutation of [0, n).
  void Permutation(std::size_t n, std::vector<std::size_t>* out);

  /// Draws an index in [0, weights.size()) proportionally to non-negative
  /// weights; falls back to uniform when all weights are zero.
  std::size_t Categorical(const std::vector<double>& weights);

  /// Derives an independent child generator; used to give each component of
  /// an experiment its own stream without coupling their consumption order.
  Rng Fork();

  /// Complete generator position: the four xoshiro256** state words plus
  /// the Box-Muller cached-draw latch. Capturing and restoring a State
  /// makes the future output sequence bitwise identical to the captured
  /// generator's — the primitive the session checkpoint codec
  /// (serve/state_codec.h) builds its replay-free restores on.
  struct State {
    std::uint64_t s[4] = {0, 0, 0, 0};
    bool have_cached_gaussian = false;
    double cached_gaussian = 0.0;
  };

  State SaveState() const;
  void RestoreState(const State& state);

 private:
  std::uint64_t state_[4];
  bool have_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace faction

#endif  // FACTION_COMMON_RNG_H_
