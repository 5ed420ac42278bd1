// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Batch experiment driver: fan independent (LifetimeSimConfig, seed) jobs
// across a thread pool and collect results deterministically.
//
// Every sweep in this repo -- seeds x device kinds x workload intensities --
// is a set of completely independent single-threaded simulations, so the
// only parallelism worth having is "run N sims at once". The driver owns
// that pattern:
//
//   * each job constructs its own LifetimeSim (share-nothing: no state is
//     visible to any other job);
//   * results land in *job order*, never completion order, so report output
//     is byte-identical for any --jobs value;
//   * aggregation over a seed sweep (mean/stddev of the headline metrics)
//     uses RunningStats from src/common/stats.h.
//
// Benches route their sweeps through ExperimentDriver and report wall-clock
// speedup via bench_util.h; the determinism regression test
// (tests/determinism_test.cc) holds serial and parallel runs bit-identical.

#ifndef SOS_SRC_SOS_EXPERIMENT_H_
#define SOS_SRC_SOS_EXPERIMENT_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/common/thread_pool.h"
#include "src/sos/lifetime_sim.h"

namespace sos {

struct ExperimentJob {
  std::string label;  // for reports; empty is fine
  LifetimeSimConfig config;
};

struct ExperimentBatch {
  std::vector<LifetimeResult> results;  // 1:1 with the submitted jobs, in job order
  double wall_seconds = 0.0;
  size_t jobs_used = 1;  // worker count the batch actually ran with
};

// Runs batches of lifetime simulations over a fixed-size pool. jobs == 1
// runs inline on the calling thread (no pool, zero threading overhead);
// jobs == 0 uses the hardware concurrency.
class ExperimentDriver {
 public:
  explicit ExperimentDriver(size_t jobs = 1);
  ~ExperimentDriver();

  ExperimentDriver(const ExperimentDriver&) = delete;
  ExperimentDriver& operator=(const ExperimentDriver&) = delete;

  size_t jobs() const { return jobs_; }

  // Runs every job and returns results in job order. Exceptions from a sim
  // propagate to the caller after the batch drains.
  ExperimentBatch RunBatch(const std::vector<ExperimentJob>& jobs);

  // Generic deterministic fan-out for non-LifetimeSim sweeps (FTL churn
  // runs, classifier evaluations): out[i] = fn(i), in index order. Runs
  // inline when the driver was built with jobs == 1.
  template <typename Fn>
  auto Map(size_t n, Fn&& fn)
      -> std::vector<std::invoke_result_t<std::decay_t<Fn>, size_t>> {
    using T = std::invoke_result_t<std::decay_t<Fn>, size_t>;
    if (pool_ == nullptr) {
      std::vector<T> out;
      out.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        out.push_back(fn(i));
      }
      return out;
    }
    return ParallelMap(*pool_, n, std::forward<Fn>(fn));
  }

 private:
  size_t jobs_;
  ThreadPool* pool_;  // null when jobs_ == 1
};

// Clones `base` once per seed (overriding config.seed). The usual way to
// build a seed-sweep batch.
std::vector<ExperimentJob> SeedSweep(const LifetimeSimConfig& base,
                                     const std::vector<uint64_t>& seeds);

// Mean/stddev/min/max over a batch's headline metrics, one accumulator per
// metric. Aggregation order is job order, so the aggregate is as
// deterministic as the results themselves.
struct LifetimeAggregate {
  RunningStats host_bytes_written;
  RunningStats max_wear_ratio;
  RunningStats mean_wear_ratio;
  RunningStats projected_lifetime_years;
  RunningStats exported_pages;   // final
  RunningStats create_failures;
  RunningStats spare_quality;    // final
  RunningStats write_amplification;
  RunningStats files_deleted;    // auto-delete
};

LifetimeAggregate Aggregate(std::span<const LifetimeResult> results);

// Serializes every result's telemetry into one metrics JSON document. Run i's
// rows are prefixed "run.<i>.<kind-slug>." and registered in job order, so
// the bytes depend only on the results -- never on how the batch was
// scheduled (--jobs=1 and --jobs=N produce identical files).
std::string BatchMetricsJson(const std::vector<LifetimeResult>& results);

// One JSONL stream of every result's trace: a "trace.run" header line per
// run, then its events in emission order (plus a "trace.dropped" line when
// the sink overflowed). Deterministic for the same reason as the metrics.
std::string BatchTraceJsonl(const std::vector<LifetimeResult>& results);

// "mean +/- stddev" with `digits` fractional digits, e.g. "12.40 +/- 0.31".
std::string FormatMeanStddev(const RunningStats& stats, int digits);

}  // namespace sos

#endif  // SOS_SRC_SOS_EXPERIMENT_H_
