// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/common/rng.h"

#include <cmath>

namespace sos {

namespace {
inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  if (bound == 0) {
    return 0;
  }
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    uint64_t r = NextU64();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

double Rng::NextDouble() {
  // 53 high bits -> [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

bool Rng::NextBool(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return NextDouble() < p;
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(NextBounded(span));
}

double Rng::NextGaussian(double mean, double stddev) {
  double sum = 0.0;
  for (int i = 0; i < 12; ++i) {
    sum += NextDouble();
  }
  return mean + stddev * (sum - 6.0);
}

double Rng::NextExponential(double mean) {
  double u = NextDouble();
  // Guard against log(0).
  if (u >= 1.0) {
    u = 0x1.fffffffffffffp-1;
  }
  return -mean * std::log(1.0 - u);
}

uint64_t Rng::NextBinomial(uint64_t n, double p) {
  if (n == 0 || p <= 0.0) {
    return 0;
  }
  if (p >= 1.0) {
    return n;
  }
  const double np = static_cast<double>(n) * p;
  if (n <= 64) {
    // Exact Bernoulli trials.
    uint64_t count = 0;
    for (uint64_t i = 0; i < n; ++i) {
      count += NextBool(p) ? 1u : 0u;
    }
    return count;
  }
  if (np < 16.0) {
    // Inverse-transform Poisson-like exact sampling via waiting times
    // (geometric skips). O(np) expected.
    const double log_q = std::log1p(-p);
    uint64_t count = 0;
    double sum = 0.0;
    for (;;) {
      double u = NextDouble();
      if (u >= 1.0) {
        u = 0x1.fffffffffffffp-1;
      }
      sum += std::log(1.0 - u) / log_q;
      if (sum > static_cast<double>(n)) {
        return count;
      }
      ++count;
    }
  }
  // Normal approximation with continuity correction; clamp to [0, n].
  const double sigma = std::sqrt(np * (1.0 - p));
  double draw = NextGaussian(np, sigma) + 0.5;
  if (draw < 0.0) {
    return 0;
  }
  if (draw > static_cast<double>(n)) {
    return n;
  }
  return static_cast<uint64_t>(draw);
}

}  // namespace sos
