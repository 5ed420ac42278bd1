// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Coverage for remaining public-API corners: the umbrella header compiles
// and works end to end, ECC preset properties sweep, device edge cases,
// and FS behaviour after capacity shrink.

#include <gtest/gtest.h>

#include "src/common/units.h"
#include "src/sos/sos.h"

namespace sos {
namespace {

// The umbrella header provides the whole minimal-use flow.
TEST(UmbrellaTest, MinimalUseCompilesAndRuns) {
  SimClock clock;
  SosDeviceConfig config;
  config.nand.num_blocks = 32;
  config.nand.wordlines_per_block = 4;
  config.nand.page_size_bytes = 512;
  SosDevice device(config, &clock);
  ExtentFileSystem fs(&device, &clock);
  PlacementDirectory placements(&device);
  FileMeta meta;
  meta.type = FileType::kPhoto;
  meta.path = "dcim/x.jpg";
  meta.size_bytes = kKiB;
  auto id = fs.CreateFile(meta, std::vector<uint8_t>(kKiB, 7),
                          placements.For({Durability::kCritical}).value());
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(fs.ReadFile(id.value()).ok());
  EXPECT_GT(FlashCarbonModel{}.KgPerGb(CellTech::kTlc), 0.0);
}

// --- ECC preset property sweep ------------------------------------------------

class EccPresetTest : public ::testing::TestWithParam<EccPreset> {};

TEST_P(EccPresetTest, DecodeZeroErrorsAlwaysClean) {
  const EccScheme scheme = EccScheme::FromPreset(GetParam());
  for (uint32_t page : {512u, 4096u, 16384u}) {
    const DecodeOutcome out = DecodePage(scheme, page, 0, 1);
    EXPECT_TRUE(out.corrected);
    EXPECT_EQ(out.residual_errors, 0u);
  }
}

TEST_P(EccPresetTest, PageFailureMonotonicInPageSize) {
  const EccScheme scheme = EccScheme::FromPreset(GetParam());
  if (scheme.correctable_bits == 0) {
    return;  // kNone: failure prob is degenerate
  }
  const double rber = 1e-3;
  EXPECT_LE(scheme.PageFailureProb(rber, kKiB), scheme.PageFailureProb(rber, 16384) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Presets, EccPresetTest,
                         ::testing::Values(EccPreset::kNone, EccPreset::kWeakBch,
                                           EccPreset::kBch, EccPreset::kLdpc),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case EccPreset::kNone:
                               return "none";
                             case EccPreset::kWeakBch:
                               return "weak";
                             case EccPreset::kBch:
                               return "bch";
                             case EccPreset::kLdpc:
                               return "ldpc";
                           }
                           return "x";
                         });

// --- FS behaviour after capacity shrink ----------------------------------------

TEST(CapacityShrinkTest, FsHonorsShrunkCapacity) {
  // Drive a tiny SPARE-heavy device until retirement shrinks it, then check
  // the FS refuses allocations beyond the new capacity but keeps serving
  // reads of surviving files.
  SimClock clock;
  SosDeviceConfig config;
  config.nand.num_blocks = 32;
  config.nand.wordlines_per_block = 8;
  config.nand.page_size_bytes = 512;
  config.nand.store_payloads = false;
  config.sys_share = 0.25;
  config.spare_retire_rber = 3e-4;  // retire eagerly
  SosDevice device(config, &clock);
  ExtentFileSystem fs(&device, &clock);
  PlacementDirectory placements(&device);
  const PlacementHandle critical = placements.For({Durability::kCritical}).value();
  const PlacementHandle degradable = placements.For({Durability::kDegradable}).value();

  // A keeper file on SYS.
  FileMeta keeper;
  keeper.type = FileType::kDocument;
  keeper.size_bytes = 2048;
  auto keeper_id = fs.CreateFile(keeper, {}, critical);
  ASSERT_TRUE(keeper_id.ok());

  // Churn SPARE until blocks retire.
  Rng rng(3);
  FileMeta junk;
  junk.type = FileType::kCache;
  junk.size_bytes = 4096;
  std::vector<uint64_t> junk_ids;
  for (int i = 0; i < 30000 && device.ftl().stats().retired_blocks() < 4; ++i) {
    if (!junk_ids.empty() && rng.NextBool(0.6)) {
      const size_t idx = static_cast<size_t>(rng.NextBounded(junk_ids.size()));
      IgnoreResult(fs.DeleteFile(junk_ids[idx]));
      junk_ids[idx] = junk_ids.back();
      junk_ids.pop_back();
    } else {
      auto id = fs.CreateFile(junk, {}, degradable);
      if (id.ok()) {
        junk_ids.push_back(id.value());
      }
    }
  }
  ASSERT_GT(device.ftl().stats().retired_blocks(), 0u);
  const FsStats stats = fs.Stats();
  EXPECT_LT(stats.capacity_blocks, device.ftl().nand().config().num_blocks * 40u);
  // The keeper file survived the shrink.
  EXPECT_TRUE(fs.ReadFile(keeper_id.value()).ok());
  EXPECT_TRUE(device.ftl().CheckInvariants().ok());
}

// --- Package / device edge cases -----------------------------------------------

TEST(EdgeCaseTest, RetryOnEcclessPoolIsConsistent) {
  // On a no-ECC pool a retry "recovers" only when the drift-tracked re-read
  // senses zero raw errors -- which is physically legitimate (the re-read
  // simply got every cell right). The stats and the returned flags must
  // stay consistent either way, and nothing may corrupt FTL state.
  SimClock clock;
  FtlConfig config;
  config.nand.num_blocks = 8;
  config.nand.wordlines_per_block = 4;
  config.nand.page_size_bytes = 512;
  config.nand.tech = CellTech::kPlc;
  config.nand.store_payloads = false;
  FtlPoolConfig pool;
  pool.name = "MAIN";
  pool.mode = CellTech::kPlc;
  pool.ecc = EccScheme::FromPreset(EccPreset::kNone);
  pool.retire_rber = 0.4;
  pool.read_retries = 3;
  config.pools = {pool};
  Ftl ftl(config, &clock);
  ASSERT_TRUE(ftl.Write(1, {}, 0).ok());
  clock.Advance(YearsToUs(5.0));
  uint64_t degraded = 0;
  for (int i = 0; i < 20; ++i) {
    auto read = ftl.Read(1);
    ASSERT_TRUE(read.ok());
    if (read.value().degraded) {
      ++degraded;
    }
  }
  // Accounting closes: every first-sense ECC failure ends as either a retry
  // recovery or a degraded read (no parity on this pool).
  EXPECT_EQ(ftl.stats().ecc_failures(), ftl.stats().retry_recoveries() + degraded);
  // At 5 years the first sense almost always carries errors, and the
  // drift-tracked retries recover nearly all of them.
  EXPECT_GT(ftl.stats().retry_recoveries(), 10u);
  EXPECT_TRUE(ftl.CheckInvariants().ok());
}

TEST(EdgeCaseTest, UfsViewWithStagingStillTwoLuns) {
  SimClock clock;
  SosDeviceConfig config;
  config.nand.num_blocks = 64;
  config.nand.wordlines_per_block = 8;
  config.nand.page_size_bytes = 512;
  config.enable_slc_staging = true;
  config.stage_share = 0.1;
  SosDevice device(config, &clock);
  const auto luns = UfsView(&device).Describe();
  // The stage is an internal buffer, not a host-visible unit.
  ASSERT_EQ(luns.size(), 2u);
  EXPECT_TRUE(luns[0].high_reliability);
}

TEST(EdgeCaseTest, HealthIncludesStagePool) {
  SimClock clock;
  SosDeviceConfig config;
  config.nand.num_blocks = 64;
  config.nand.wordlines_per_block = 8;
  config.nand.page_size_bytes = 512;
  config.enable_slc_staging = true;
  config.stage_share = 0.1;
  SosDevice device(config, &clock);
  const DeviceHealthReport report = CollectHealth(device, 0.1, 0);
  ASSERT_EQ(report.pools.size(), 4u);
  EXPECT_EQ(report.pools.front().name, "STAGE");
  EXPECT_EQ(report.pools.front().mode, CellTech::kSlc);
}

// --- Stats-surface redesign (FtlStats accessors / Snapshot / ToMetrics) --------

TEST(StatsSurfaceTest, AggregateStatsAreSumOfPoolStats) {
  SimClock clock;
  SosDeviceConfig config;
  config.nand.num_blocks = 32;
  config.nand.wordlines_per_block = 4;
  config.nand.page_size_bytes = 512;
  SosDevice device(config, &clock);
  ExtentFileSystem fs(&device, &clock);
  PlacementDirectory placements(&device);
  const PlacementHandle critical = placements.For({Durability::kCritical}).value();
  const PlacementHandle degradable = placements.For({Durability::kDegradable}).value();
  FileMeta meta;
  meta.type = FileType::kPhoto;
  meta.size_bytes = 4096;
  for (int i = 0; i < 20; ++i) {
    IgnoreResult(fs.CreateFile(meta, {}, i % 2 == 0 ? critical : degradable));
  }

  const Ftl& ftl = device.ftl();
  const FtlStats total = ftl.stats();
  uint64_t pool_host_writes = 0;
  uint64_t pool_nand_writes = 0;
  for (uint32_t p = 0; p < ftl.num_pools(); ++p) {
    pool_host_writes += ftl.pool_stats(p).host_writes();
    pool_nand_writes += ftl.pool_stats(p).nand_writes();
  }
  EXPECT_GT(total.host_writes(), 0u);
  EXPECT_EQ(total.host_writes(), pool_host_writes);
  EXPECT_EQ(total.nand_writes(), pool_nand_writes);

  // stats() returns a detached value: mutating the device afterwards must
  // not change an already-taken copy.
  const FtlStats before = ftl.stats();
  IgnoreResult(fs.CreateFile(meta, {}, critical));
  EXPECT_GT(ftl.stats().host_writes(), before.host_writes());
}

TEST(StatsSurfaceTest, FtlToMetricsExportsPoolsAndLatencies) {
  SimClock clock;
  SosDeviceConfig config;
  config.nand.num_blocks = 32;
  config.nand.wordlines_per_block = 4;
  config.nand.page_size_bytes = 512;
  SosDevice device(config, &clock);
  ExtentFileSystem fs(&device, &clock);
  PlacementDirectory placements(&device);
  FileMeta meta;
  meta.type = FileType::kPhoto;
  meta.size_bytes = 4096;
  auto id = fs.CreateFile(meta, {}, placements.For({Durability::kCritical}).value());
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(fs.ReadFile(id.value()).ok());

  obs::MetricRegistry registry;
  device.ftl().ToMetrics(registry, "ftl.");
  device.ftl().nand().ToMetrics(registry, "flash.die.");
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"ftl.host_writes\""), std::string::npos);
  EXPECT_NE(json.find("\"ftl.pool.SYS.host_writes\""), std::string::npos);
  EXPECT_NE(json.find("\"ftl.pool.SPARE.host_writes\""), std::string::npos);
  EXPECT_NE(json.find("\"ftl.write_amplification\""), std::string::npos);
  EXPECT_NE(json.find("\"ftl.write.latency_us\""), std::string::npos);
  EXPECT_NE(json.find("\"flash.die.read.rber\""), std::string::npos);

  // Two exports of the same device state are byte-identical.
  obs::MetricRegistry again;
  device.ftl().ToMetrics(again, "ftl.");
  device.ftl().nand().ToMetrics(again, "flash.die.");
  EXPECT_EQ(json, again.ToJson());
}

TEST(StatsSurfaceTest, LifetimeResultToMetricsCarriesDeviceRows) {
  LifetimeSimConfig config;
  config.days = 10;
  config.nand.num_blocks = 64;
  config.training_files = 500;
  config.sample_period_days = 5;
  LifetimeSim sim(config);
  const LifetimeResult result = sim.Run();

  obs::MetricRegistry registry;
  result.ToMetrics(registry, "dev.");
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"dev.sim.host_bytes_written\""), std::string::npos);
  EXPECT_NE(json.find("\"dev.sos.daemon.activations\""), std::string::npos);
  EXPECT_NE(json.find("\"dev.ftl.pool."), std::string::npos);
  EXPECT_NE(json.find("\"dev.flash.die.read.rber\""), std::string::npos);
  EXPECT_NE(json.find("\"dev.obs.trace.events\""), std::string::npos);
  // 10 days x 3 daemons (migration + monitor + autodelete run checks daily).
  EXPECT_GT(result.daemon_activations(), 0u);
}

}  // namespace
}  // namespace sos
