// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Streaming and batch statistics used by benchmarks and monitors.
//
// RunningStats -- Welford-style online mean/variance/min/max, O(1) memory.
// Percentiles  -- batch percentile computation over a retained sample vector.

#ifndef SOS_SRC_COMMON_STATS_H_
#define SOS_SRC_COMMON_STATS_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace sos {

// Online mean/variance accumulator (Welford's algorithm); numerically stable
// for long simulations.
class RunningStats {
 public:
  void Add(double x);

  uint64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;

 private:
  uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Retains all samples; answers arbitrary percentile queries with linear
// interpolation between order statistics.
class Percentiles {
 public:
  void Add(double x) { samples_.push_back(x); }
  void Reserve(size_t n) { samples_.reserve(n); }

  // p in [0, 100]. Returns 0 when empty. Sorts lazily on first query.
  double Get(double p);

  size_t count() const { return samples_.size(); }

 private:
  std::vector<double> samples_;
  bool sorted_ = false;
};

}  // namespace sos

#endif  // SOS_SRC_COMMON_STATS_H_
