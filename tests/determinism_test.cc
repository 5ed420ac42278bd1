// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Determinism regression harness. The repo's contract (src/common/rng.h)
// is that the same (config, seed) produces bit-identical simulations; the
// parallel experiment driver additionally promises that fanning jobs across
// threads changes nothing. Both promises are enforced here:
//
//   1. serial rerun       == serial run   (bit-identical, all DeviceKinds)
//   2. parallel driver    == serial run   (bit-identical, all DeviceKinds)
//   3. golden summaries for two fixed seeds, so RNG or error-model drift
//      (compiler, libm, platform) is caught even when a change is
//      self-consistent within one binary.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include "src/sos/experiment.h"
#include "src/sos/lifetime_sim.h"

namespace sos {
namespace {

LifetimeSimConfig QuickConfig(DeviceKind kind, uint64_t seed, uint32_t days = 60) {
  LifetimeSimConfig config;
  config.kind = kind;
  config.seed = seed;
  config.days = days;
  config.nand.num_blocks = 128;
  config.training_files = 2000;
  config.workload.photos_per_day = 3.0;
  config.workload.reads_per_day = 40.0;
  config.workload.cache_files_per_day = 8.0;
  config.workload.app_updates_per_day = 80.0;
  config.file_size_cap = 32 * kKiB;
  config.sample_period_days = 30;
  return config;
}

// One unlabeled job per config, in config order.
std::vector<ExperimentJob> Unlabeled(const std::vector<LifetimeSimConfig>& configs) {
  std::vector<ExperimentJob> jobs;
  for (const LifetimeSimConfig& config : configs) {
    jobs.push_back({"", config});
  }
  return jobs;
}

LifetimeResult RunSerial(const LifetimeSimConfig& config) {
  LifetimeSim sim(config);
  return sim.Run();
}

// Every field, exactly. Doubles are compared with == on purpose: the two
// results come from the same binary, so any difference means real
// nondeterminism, not rounding.
void ExpectBitIdentical(const LifetimeResult& a, const LifetimeResult& b) {
  EXPECT_EQ(a.kind(), b.kind());
  EXPECT_EQ(a.host_bytes_written(), b.host_bytes_written());
  EXPECT_EQ(a.create_failures(), b.create_failures());
  EXPECT_EQ(a.final_max_wear_ratio(), b.final_max_wear_ratio());
  EXPECT_EQ(a.final_mean_wear_ratio(), b.final_mean_wear_ratio());
  EXPECT_EQ(a.final_exported_pages(), b.final_exported_pages());
  EXPECT_EQ(a.initial_exported_pages(), b.initial_exported_pages());
  EXPECT_EQ(a.final_spare_quality(), b.final_spare_quality());
  EXPECT_EQ(a.files_alive(), b.files_alive());
  EXPECT_EQ(a.retrainings(), b.retrainings());
  EXPECT_EQ(a.projected_lifetime_years(), b.projected_lifetime_years());

  EXPECT_EQ(a.ftl().host_writes(), b.ftl().host_writes());
  EXPECT_EQ(a.ftl().nand_writes(), b.ftl().nand_writes());
  EXPECT_EQ(a.ftl().parity_writes(), b.ftl().parity_writes());
  EXPECT_EQ(a.ftl().gc_relocations(), b.ftl().gc_relocations());
  EXPECT_EQ(a.ftl().wl_relocations(), b.ftl().wl_relocations());
  EXPECT_EQ(a.ftl().migrations(), b.ftl().migrations());
  EXPECT_EQ(a.ftl().refreshes(), b.ftl().refreshes());
  EXPECT_EQ(a.ftl().gc_erases(), b.ftl().gc_erases());
  EXPECT_EQ(a.ftl().background_collections(), b.ftl().background_collections());
  EXPECT_EQ(a.ftl().retired_blocks(), b.ftl().retired_blocks());
  EXPECT_EQ(a.ftl().resuscitated_blocks(), b.ftl().resuscitated_blocks());
  EXPECT_EQ(a.ftl().ecc_failures(), b.ftl().ecc_failures());
  EXPECT_EQ(a.ftl().retry_recoveries(), b.ftl().retry_recoveries());
  EXPECT_EQ(a.ftl().parity_rescues(), b.ftl().parity_rescues());
  EXPECT_EQ(a.ftl().degraded_reads(), b.ftl().degraded_reads());

  EXPECT_EQ(a.migration().scanned, b.migration().scanned);
  EXPECT_EQ(a.migration().demoted, b.migration().demoted);
  EXPECT_EQ(a.migration().promoted, b.migration().promoted);
  EXPECT_EQ(a.migration().demote_failures, b.migration().demote_failures);
  EXPECT_EQ(a.autodelete().activations, b.autodelete().activations);
  EXPECT_EQ(a.autodelete().files_deleted, b.autodelete().files_deleted);
  EXPECT_EQ(a.autodelete().bytes_freed, b.autodelete().bytes_freed);
  EXPECT_EQ(a.autodelete().exhausted, b.autodelete().exhausted);
  EXPECT_EQ(a.monitor().pages_scanned, b.monitor().pages_scanned);
  EXPECT_EQ(a.monitor().pages_refreshed, b.monitor().pages_refreshed);
  EXPECT_EQ(a.monitor().files_repaired, b.monitor().files_repaired);
  EXPECT_EQ(a.monitor().files_at_risk, b.monitor().files_at_risk);

  // Telemetry rides the same contract: metric rows and trace events are part
  // of the result, so they must be bit-identical too (operator== on the rows
  // compares every bound, bucket and field).
  EXPECT_EQ(a.daemon_activations(), b.daemon_activations());
  EXPECT_EQ(a.health_transitions(), b.health_transitions());
  EXPECT_EQ(a.trace_dropped(), b.trace_dropped());
  EXPECT_TRUE(a.device_metrics() == b.device_metrics());
  EXPECT_TRUE(a.trace() == b.trace());

  ASSERT_EQ(a.samples().size(), b.samples().size());
  for (size_t i = 0; i < a.samples().size(); ++i) {
    const DaySample& sa = a.samples()[i];
    const DaySample& sb = b.samples()[i];
    EXPECT_EQ(sa.day, sb.day) << "sample " << i;
    EXPECT_EQ(sa.max_wear_ratio, sb.max_wear_ratio) << "sample " << i;
    EXPECT_EQ(sa.mean_pec, sb.mean_pec) << "sample " << i;
    EXPECT_EQ(sa.exported_pages, sb.exported_pages) << "sample " << i;
    EXPECT_EQ(sa.fs_free_fraction, sb.fs_free_fraction) << "sample " << i;
    EXPECT_EQ(sa.live_files, sb.live_files) << "sample " << i;
    EXPECT_EQ(sa.retired_blocks, sb.retired_blocks) << "sample " << i;
    EXPECT_EQ(sa.spare_quality, sb.spare_quality) << "sample " << i;
    EXPECT_EQ(sa.spare_pages, sb.spare_pages) << "sample " << i;
  }
}

constexpr DeviceKind kAllKinds[] = {DeviceKind::kSos, DeviceKind::kTlcBaseline,
                                    DeviceKind::kQlcBaseline, DeviceKind::kPlcNaive};

TEST(DeterminismTest, SerialRerunAndParallelDriverAreBitIdentical) {
  std::vector<LifetimeSimConfig> configs;
  for (DeviceKind kind : kAllKinds) {
    configs.push_back(QuickConfig(kind, 5));
  }

  // Reference: plain serial runs on this thread.
  std::vector<LifetimeResult> serial;
  for (const LifetimeSimConfig& config : configs) {
    serial.push_back(RunSerial(config));
  }
  // The SOS run must actually relocate pages, so the comparisons below cover
  // the reads GC and wear leveling issue, not just host traffic.
  ASSERT_EQ(configs[0].kind, DeviceKind::kSos);
  EXPECT_GT(serial[0].ftl().gc_relocations() + serial[0].ftl().wl_relocations(), 0u);
  // Same (config, seed) serially again.
  for (size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE(DeviceKindName(configs[i].kind));
    ExpectBitIdentical(serial[i], RunSerial(configs[i]));
  }
  // Same batch through the parallel driver: more workers than cores is fine,
  // scheduling must not leak into results, and order must be job order.
  ExperimentDriver driver(4);
  const ExperimentBatch batch = driver.RunBatch(Unlabeled(configs));
  ASSERT_EQ(batch.results.size(), configs.size());
  EXPECT_EQ(batch.jobs_used, 4u);
  for (size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE(DeviceKindName(configs[i].kind));
    EXPECT_EQ(batch.results[i].kind(), configs[i].kind);  // job order, not completion order
    ExpectBitIdentical(serial[i], batch.results[i]);
  }
}

TEST(DeterminismTest, SeedSweepBatchMatchesIndividualRuns) {
  const std::vector<uint64_t> seeds = {3, 11, 12345};
  const std::vector<ExperimentJob> jobs = SeedSweep(QuickConfig(DeviceKind::kSos, 0), seeds);
  ASSERT_EQ(jobs.size(), seeds.size());
  for (size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(jobs[i].config.seed, seeds[i]);
  }
  ExperimentDriver driver(2);
  const ExperimentBatch batch = driver.RunBatch(jobs);
  for (size_t i = 0; i < seeds.size(); ++i) {
    SCOPED_TRACE("seed " + std::to_string(seeds[i]));
    ExpectBitIdentical(RunSerial(jobs[i].config), batch.results[i]);
  }
  // Different seeds must actually produce different workloads.
  EXPECT_NE(batch.results[0].host_bytes_written(), batch.results[1].host_bytes_written());
}

// The exported artifacts themselves -- the metrics JSON and trace JSONL a
// bench writes with --metrics-out / --trace-out -- must be byte-identical
// whether the batch ran serially or across workers, for every device kind.
// This is the telemetry determinism contract (DESIGN.md §9) at the level CI
// diffs: rendered bytes, not parsed fields.
TEST(DeterminismTest, TelemetryExportBytesAreScheduleInvariant) {
  for (const uint64_t seed : {uint64_t{5}, uint64_t{99}}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::vector<LifetimeSimConfig> configs;
    for (DeviceKind kind : kAllKinds) {
      configs.push_back(QuickConfig(kind, seed, 30));
    }

    std::vector<LifetimeResult> serial;
    for (const LifetimeSimConfig& config : configs) {
      serial.push_back(RunSerial(config));
    }
    ExperimentDriver driver(4);
    const ExperimentBatch batch = driver.RunBatch(Unlabeled(configs));
    ASSERT_EQ(batch.results.size(), serial.size());

    const std::string serial_metrics = BatchMetricsJson(serial);
    const std::string parallel_metrics = BatchMetricsJson(batch.results);
    EXPECT_EQ(serial_metrics, parallel_metrics);
    EXPECT_EQ(BatchTraceJsonl(serial), BatchTraceJsonl(batch.results));

    // The export must actually contain the instrumented layers, not vacuously
    // match as two empty documents.
    EXPECT_NE(serial_metrics.find("sim.host_bytes_written"), std::string::npos);
    EXPECT_NE(serial_metrics.find("ftl.pool."), std::string::npos);
    EXPECT_NE(serial_metrics.find("flash.die.reads"), std::string::npos);
    EXPECT_NE(serial_metrics.find("sos.daemon.activations"), std::string::npos);
  }
}

// Golden summaries for two fixed seeds. These values were produced by this
// test's own configuration at the time the harness was introduced; any
// change here means the simulation's deterministic stream moved -- either
// an intentional model change (update the goldens in the same commit) or
// cross-platform drift in the RNG / error model (a bug: both are written
// to avoid libm and std distribution differences).
struct Golden {
  uint64_t seed;
  uint64_t host_bytes_written;
  uint64_t nand_writes;
  uint64_t gc_erases;
  uint64_t migration_demoted;
  uint64_t files_alive;
  uint64_t final_exported_pages;
  double final_max_wear_ratio;
  double final_spare_quality;
};

TEST(DeterminismTest, GoldenSummariesForFixedSeeds) {
  // spare_quality goldens updated when Ftl::PickGcVictim / MaybeStaticWearLevel
  // gained strict block-id tie-breaks (soslint R1): equal-PEC/equal-score ties
  // now resolve to the lowest block id instead of hash-map order, which moves
  // SPARE data onto different (equivalent) physical blocks. All integer
  // counters were unchanged by that hardening.
  const Golden kGoldens[] = {
      {5, 182094209, 52407, 70, 718, 664, 32289, 0.0066666666666666671,
       0.96172271469443438},
      {99, 179395790, 50956, 66, 649, 612, 32289, 0.0033333333333333335,
       0.96181108467715759},
  };
  for (const Golden& golden : kGoldens) {
    SCOPED_TRACE("seed " + std::to_string(golden.seed));
    const LifetimeResult r = RunSerial(QuickConfig(DeviceKind::kSos, golden.seed));
    std::printf("golden{seed=%llu}: {%llu, %llu, %llu, %llu, %llu, %llu, %.17g, %.17g}\n",
                static_cast<unsigned long long>(golden.seed),
                static_cast<unsigned long long>(r.host_bytes_written()),
                static_cast<unsigned long long>(r.ftl().nand_writes()),
                static_cast<unsigned long long>(r.ftl().gc_erases()),
                static_cast<unsigned long long>(r.migration().demoted),
                static_cast<unsigned long long>(r.files_alive()),
                static_cast<unsigned long long>(r.final_exported_pages()),
                r.final_max_wear_ratio(), r.final_spare_quality());
    EXPECT_EQ(r.host_bytes_written(), golden.host_bytes_written);
    EXPECT_EQ(r.ftl().nand_writes(), golden.nand_writes);
    EXPECT_EQ(r.ftl().gc_erases(), golden.gc_erases);
    EXPECT_EQ(r.migration().demoted, golden.migration_demoted);
    EXPECT_EQ(r.files_alive(), golden.files_alive);
    EXPECT_EQ(r.final_exported_pages(), golden.final_exported_pages);
    EXPECT_DOUBLE_EQ(r.final_max_wear_ratio(), golden.final_max_wear_ratio);
    EXPECT_DOUBLE_EQ(r.final_spare_quality(), golden.final_spare_quality);
  }
}

// Per-handle accounting rides the determinism contract too: the flash-cache
// workload under each directed placement policy must produce bit-identical
// per-handle metric rows (ftl.handle.<label>.*) and wear variance whether the
// batch runs serially or across driver workers. This is what makes the
// bench_flash_cache metrics golden diffable in CI for any --jobs.
TEST(DeterminismTest, PerHandleMetricsAreScheduleInvariant) {
  std::vector<LifetimeSimConfig> configs;
  for (PlacementPolicy policy : {PlacementPolicy::kStatic, PlacementPolicy::kLifetime}) {
    LifetimeSimConfig config = QuickConfig(DeviceKind::kSos, 21, 45);
    config.workload_kind = WorkloadKind::kFlashCache;
    config.cache_workload.objects_per_day = 60.0;
    config.cache_workload.lookups_per_day = 200.0;
    config.sos.placement_policy = policy;
    configs.push_back(config);
  }

  std::vector<LifetimeResult> serial;
  for (const LifetimeSimConfig& config : configs) {
    serial.push_back(RunSerial(config));
  }
  ExperimentDriver driver(4);
  const ExperimentBatch batch = driver.RunBatch(Unlabeled(configs));
  ASSERT_EQ(batch.results.size(), configs.size());
  for (size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE(PlacementPolicyName(configs[i].sos.placement_policy));
    ExpectBitIdentical(serial[i], batch.results[i]);
  }

  // Non-vacuity: the directed runs actually exported per-handle rows, and
  // those rows are in the byte-diffable export both schedules agree on.
  const std::string metrics = BatchMetricsJson(batch.results);
  EXPECT_EQ(metrics, BatchMetricsJson(serial));
  EXPECT_NE(metrics.find("ftl.handle."), std::string::npos);
  EXPECT_NE(metrics.find(".write_amplification"), std::string::npos);
  EXPECT_NE(metrics.find("sim.pec_variance"), std::string::npos);
  EXPECT_NE(metrics.find("sim.bytes_served"), std::string::npos);
}

}  // namespace
}  // namespace sos
