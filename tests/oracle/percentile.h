// Copyright (c) 2026 The SOS Authors. MIT License.
//
// The sort-every-sample percentile: linear interpolation between order
// statistics of a sorted copy. A test oracle only -- Percentiles
// (src/common/stats.h) keeps counts per distinct value instead, and must
// return exactly what this returns.

#ifndef SOS_TESTS_ORACLE_PERCENTILE_H_
#define SOS_TESTS_ORACLE_PERCENTILE_H_

#include <algorithm>
#include <cstddef>
#include <vector>

namespace sos {

// p in [0, 100]. Returns 0 when `samples` is empty.
inline double SortedPercentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

}  // namespace sos

#endif  // SOS_TESTS_ORACLE_PERCENTILE_H_
