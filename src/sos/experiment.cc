// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/sos/experiment.h"

#include <chrono>
#include <cstdio>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace sos {

ExperimentDriver::ExperimentDriver(size_t jobs)
    : jobs_(jobs == 0 ? ThreadPool::DefaultThreads() : jobs),
      pool_(jobs_ > 1 ? new ThreadPool(jobs_) : nullptr) {}

ExperimentDriver::~ExperimentDriver() { delete pool_; }

ExperimentBatch ExperimentDriver::RunBatch(const std::vector<ExperimentJob>& jobs) {
  const auto start = std::chrono::steady_clock::now();
  ExperimentBatch batch;
  batch.jobs_used = jobs_;
  batch.results = Map(jobs.size(), [&jobs](size_t i) {
    // Each job owns its entire simulation stack; nothing leaks across jobs,
    // so the result depends only on (config, seed) -- never on scheduling.
    LifetimeSim sim(jobs[i].config);
    return sim.Run();
  });
  batch.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return batch;
}

std::vector<ExperimentJob> SeedSweep(const LifetimeSimConfig& base,
                                     const std::vector<uint64_t>& seeds) {
  std::vector<ExperimentJob> jobs;
  jobs.reserve(seeds.size());
  for (uint64_t seed : seeds) {
    ExperimentJob job;
    job.label = "seed " + std::to_string(seed);
    job.config = base;
    job.config.seed = seed;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

LifetimeAggregate Aggregate(std::span<const LifetimeResult> results) {
  LifetimeAggregate agg;
  for (const LifetimeResult& r : results) {
    agg.host_bytes_written.Add(static_cast<double>(r.host_bytes_written()));
    agg.max_wear_ratio.Add(r.final_max_wear_ratio());
    agg.mean_wear_ratio.Add(r.final_mean_wear_ratio());
    agg.projected_lifetime_years.Add(r.projected_lifetime_years());
    agg.exported_pages.Add(static_cast<double>(r.final_exported_pages()));
    agg.create_failures.Add(static_cast<double>(r.create_failures()));
    agg.spare_quality.Add(r.final_spare_quality());
    agg.write_amplification.Add(r.ftl().WriteAmplification());
    agg.files_deleted.Add(static_cast<double>(r.autodelete().files_deleted));
  }
  return agg;
}

std::string BatchMetricsJson(const std::vector<LifetimeResult>& results) {
  obs::MetricRegistry registry;
  for (size_t i = 0; i < results.size(); ++i) {
    const std::string prefix =
        "run." + std::to_string(i) + "." + DeviceKindSlug(results[i].kind()) + ".";
    results[i].ToMetrics(registry, prefix);
  }
  return registry.ToJson();
}

std::string BatchTraceJsonl(const std::vector<LifetimeResult>& results) {
  std::string out;
  for (size_t i = 0; i < results.size(); ++i) {
    obs::TraceEvent header{0, "trace.run"};
    header.WithU64("run", i).With("device", DeviceKindSlug(results[i].kind()));
    out += obs::TraceEventToJson(header);
    out += '\n';
    out += obs::TraceToJsonl(results[i].trace(), results[i].trace_dropped());
  }
  return out;
}

std::string FormatMeanStddev(const RunningStats& stats, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f +/- %.*f", digits, stats.mean(), digits,
                stats.stddev());
  return buf;
}

}  // namespace sos
