// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Deterministic random number generation for the simulator.
//
// Every stochastic component in SOS draws from an explicitly seeded Rng.
// Reproducibility is a hard requirement: the same (config, seed) pair must
// produce bit-identical simulations, so we implement our own small generators
// instead of relying on std::mt19937 distribution implementations (which are
// not guaranteed identical across standard libraries).
//
// Rng               -- xoshiro256** core generator.
// SplitMix64        -- seed expander; also used to derive independent streams
//                      from (seed, key...) tuples, e.g. per-page error streams.

#ifndef SOS_SRC_COMMON_RNG_H_
#define SOS_SRC_COMMON_RNG_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

namespace sos {

// SplitMix64: tiny, fast, and full-period over 2^64. Used for seed expansion
// and for hashing stream keys into seeds.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ull;
    uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

// Continues a DeriveSeed chain: DeriveSeedFrom(DeriveSeed({a, b}), {c, d}) ==
// DeriveSeed({a, b, c, d}). Lets a caller that reuses a key prefix (a NAND
// block's {device_seed, block_id}) mix it once and append the rest per use.
inline uint64_t DeriveSeedFrom(uint64_t prefix, std::initializer_list<uint64_t> keys) {
  // Chain each key through SplitMix64 so that any single-bit change in any
  // key yields an unrelated stream.
  uint64_t acc = prefix;
  for (uint64_t k : keys) {
    SplitMix64 mix(acc ^ k);
    acc = mix.Next();
  }
  return acc;
}

// Mixes an arbitrary number of 64-bit keys into a single well-distributed
// seed. Used to derive independent deterministic streams, e.g.
// DeriveSeed(device_seed, block_id, page_id, read_count).
inline uint64_t DeriveSeed(std::initializer_list<uint64_t> keys) {
  return DeriveSeedFrom(0x5bf03635f0c48d32ull, keys);
}

// xoshiro256**: the simulator's workhorse generator. Passes BigCrush, fast,
// and trivially portable.
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    SplitMix64 mix(seed);
    for (auto& word : s_) {
      word = mix.Next();
    }
  }

  // Raw 64 uniform bits.
  uint64_t NextU64();

  // Uniform in [0, bound). bound == 0 returns 0.
  uint64_t NextBounded(uint64_t bound);

  // Uniform double in [0, 1).
  double NextDouble();

  // True with probability p (clamped to [0,1]).
  bool NextBool(double p);

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  // Approximate normal via sum of 12 uniforms (Irwin-Hall); adequate for
  // workload jitter and avoids libm differences across platforms.
  double NextGaussian(double mean, double stddev);

  // Exponential with the given mean (> 0).
  double NextExponential(double mean);

  // Number of successes in n Bernoulli(p) trials. Uses exact sampling for
  // small n*p and a normal approximation for large n to keep page-error
  // sampling O(1) even for billions of bits.
  uint64_t NextBinomial(uint64_t n, double p);

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextBounded(i));
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  std::array<uint64_t, 4> s_;
};

}  // namespace sos

#endif  // SOS_SRC_COMMON_RNG_H_
