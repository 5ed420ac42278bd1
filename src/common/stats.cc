// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/common/stats.h"

#include <algorithm>
#include <cmath>

namespace sos {

void RunningStats::Add(double x) {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double Percentiles::Get(double p) const {
  if (count_ == 0) {
    return 0.0;
  }
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(count_ - 1);
  const uint64_t lo = static_cast<uint64_t>(rank);
  const uint64_t hi = std::min(lo + 1, count_ - 1);
  const double frac = rank - static_cast<double>(lo);
  // Walk cumulative counts to the values holding order statistics lo and hi.
  auto it = counts_.begin();
  uint64_t seen = it->second;  // samples valued at most it->first
  while (seen <= lo) {
    seen += (++it)->second;
  }
  const double lo_value = it->first;
  while (seen <= hi) {
    seen += (++it)->second;
  }
  return lo_value * (1.0 - frac) + it->first * frac;
}

}  // namespace sos
