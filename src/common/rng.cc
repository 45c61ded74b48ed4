#include "common/rng.h"

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstring>

namespace faction {

namespace {

inline std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// splitmix64 expands a single seed into well-mixed state words.
inline std::uint64_t SplitMix64(std::uint64_t* x) {
  std::uint64_t z = (*x += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;
constexpr int kWordRotation = 29;

}  // namespace

std::uint64_t SubSeed(std::uint64_t world_seed, std::string_view tag) {
  // FNV-1a over the tag bytes, with the world seed XOR-folded into the
  // offset basis (the FactionGenerator::sub_seed construction). The result
  // is passed through Rng's splitmix64 expansion on use, so consecutive
  // tags need no extra avalanche here.
  std::uint64_t h = kFnvOffsetBasis ^ world_seed;
  for (const char c : tag) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t Fnv1a64Words(std::string_view bytes) {
  static_assert(std::endian::native == std::endian::little,
                "words are read in the checkpoint's little-endian order");
  std::uint64_t h = kFnvOffsetBasis;
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t word;
    std::memcpy(&word, bytes.data() + i, sizeof(word));
    // The multiply only carries a difference toward the high bits; the
    // rotation brings it back down. Without it a difference confined to
    // the top bits never reaches the low ones, so flipping bit 63 of any
    // two words leaves the hash unchanged.
    h = Rotl((h ^ word) * kFnvPrime, kWordRotation);
  }
  for (; i < bytes.size(); ++i) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[i]));
    h *= kFnvPrime;
  }
  return h;
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& w : state_) w = SplitMix64(&s);
}

std::uint64_t Rng::NextU64() {
  const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53 high bits give a uniform double in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

std::uint64_t Rng::UniformInt(std::uint64_t n) {
  // Rejection sampling removes modulo bias.
  const std::uint64_t threshold = -n % n;
  for (;;) {
    const std::uint64_t r = NextU64();
    if (r >= threshold) return r % n;
  }
}

double Rng::Gaussian() {
  if (have_cached_gaussian_) {
    have_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = Uniform();
  } while (u1 <= 1e-300);
  const double u2 = Uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * M_PI * u2;
  cached_gaussian_ = radius * std::sin(angle);
  have_cached_gaussian_ = true;
  return radius * std::cos(angle);
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * Gaussian();
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return Uniform() < p;
}

void Rng::Permutation(std::size_t n, std::vector<std::size_t>* out) {
  out->resize(n);
  for (std::size_t i = 0; i < n; ++i) (*out)[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(UniformInt(i));
    std::swap((*out)[i - 1], (*out)[j]);
  }
}

std::size_t Rng::Categorical(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    if (w > 0.0) total += w;
  }
  if (total <= 0.0) {
    return static_cast<std::size_t>(UniformInt(weights.size()));
  }
  double target = Uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    target -= w;
    if (target <= 0.0) return i;
  }
  return weights.size() - 1;
}

Rng Rng::Fork() { return Rng(NextU64()); }

Rng::State Rng::SaveState() const {
  State state;
  for (int i = 0; i < 4; ++i) state.s[i] = state_[i];
  state.have_cached_gaussian = have_cached_gaussian_;
  state.cached_gaussian = cached_gaussian_;
  return state;
}

void Rng::RestoreState(const State& state) {
  for (int i = 0; i < 4; ++i) state_[i] = state.s[i];
  have_cached_gaussian_ = state.have_cached_gaussian;
  cached_gaussian_ = state.cached_gaussian;
}

}  // namespace faction
