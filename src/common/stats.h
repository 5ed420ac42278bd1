// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Streaming and batch statistics used by benchmarks and monitors.
//
// RunningStats -- Welford-style online mean/variance/min/max, O(1) memory.
// Percentiles  -- exact percentiles over a count per distinct sample value.

#ifndef SOS_SRC_COMMON_STATS_H_
#define SOS_SRC_COMMON_STATS_H_

#include <cstdint>
#include <limits>
#include <map>

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

// Answers percentile queries by linear interpolation between order
// statistics, exactly as sorting every sample would. Memory grows with the
// number of distinct values, not samples: integer latencies repeat heavily.
class Percentiles {
 public:
  void Add(double x) { ++counts_[x]; ++count_; }

  // p in [0, 100]. Returns 0 when empty.
  double Get(double p) const;

  uint64_t count() const { return count_; }

 private:
  std::map<double, uint64_t> counts_;  // value -> number of samples
  uint64_t count_ = 0;
};

}  // namespace sos

#endif  // SOS_SRC_COMMON_STATS_H_
