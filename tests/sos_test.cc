// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Tests for the SOS core: device partitioning, the three daemons, and the
// lifetime simulation driver.

#include <algorithm>

#include <gtest/gtest.h>

#include "src/classify/corpus.h"
#include "src/classify/logistic.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/sos/daemons.h"
#include "src/sos/health.h"
#include "src/sos/lifetime_sim.h"
#include "src/sos/sos_device.h"
#include "tests/oracle/exact_scoring.h"
#include "tests/oracle/probes.h"

namespace sos {
namespace {

SosDeviceConfig SmallSos(bool payloads = true) {
  SosDeviceConfig config;
  config.nand.num_blocks = 32;
  config.nand.wordlines_per_block = 4;
  config.nand.page_size_bytes = 512;
  config.nand.tech = CellTech::kPlc;
  config.nand.seed = 21;
  config.nand.store_payloads = payloads;
  return config;
}

std::vector<uint8_t> Block(uint8_t fill) { return std::vector<uint8_t>(512, fill); }

// Opens a handle of the given durability directly on the device.
PlacementHandle OpenHandle(BlockDevice& device, Durability durability) {
  PlacementSpec spec;
  spec.durability = durability;
  auto handle = device.OpenPlacement(spec);
  EXPECT_TRUE(handle.ok());
  return handle.value();
}

// --- SosDevice -------------------------------------------------------------

TEST(SosDeviceTest, PoolLayout) {
  SimClock clock;
  SosDevice device(SmallSos(), &clock);
  const PoolSnapshot sys = device.SysSnapshot();
  const PoolSnapshot spare = device.SpareSnapshot();
  const PoolSnapshot rescue = device.RescueSnapshot();
  EXPECT_EQ(sys.mode, CellTech::kQlc);     // pseudo-QLC
  EXPECT_EQ(spare.mode, CellTech::kPlc);   // native PLC
  EXPECT_EQ(rescue.mode, CellTech::kTlc);  // resuscitation target
  EXPECT_EQ(sys.total_blocks, 16u);
  EXPECT_GE(spare.total_blocks, 16u);
  EXPECT_EQ(rescue.total_blocks, 0u);  // populated only by retirement
  // SYS loses capacity to parity; SPARE is denser per block.
  EXPECT_GT(spare.exported_pages, sys.exported_pages);
}

TEST(SosDeviceTest, DirectiveRoutesWrites) {
  SimClock clock;
  SosDevice device(SmallSos(), &clock);
  const PlacementHandle critical = OpenHandle(device, Durability::kCritical);
  const PlacementHandle degradable = OpenHandle(device, Durability::kDegradable);
  ASSERT_TRUE(device.Write(1, Block(1), critical).ok());
  ASSERT_TRUE(device.Write(2, Block(2), degradable).ok());
  EXPECT_EQ(PoolsByLba(device.ftl()).at(1), device.sys_pool());
  EXPECT_EQ(PoolsByLba(device.ftl()).at(2), device.spare_pool());
}

TEST(SosDeviceTest, SysReadsAreReliable) {
  SimClock clock;
  SosDevice device(SmallSos(), &clock);
  ASSERT_TRUE(device.Write(1, Block(0x5A), OpenHandle(device, Durability::kCritical)).ok());
  clock.Advance(YearsToUs(1.0));
  auto read = device.Read(1);
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read.value().degraded);
  EXPECT_EQ(read.value().data, Block(0x5A));
}

TEST(SosDeviceTest, ReclassifyMovesData) {
  SimClock clock;
  SosDevice device(SmallSos(), &clock);
  const PlacementHandle critical = OpenHandle(device, Durability::kCritical);
  const PlacementHandle degradable = OpenHandle(device, Durability::kDegradable);
  ASSERT_TRUE(device.Write(1, Block(7), critical).ok());
  ASSERT_TRUE(device.Reclassify(1, degradable).ok());
  EXPECT_EQ(PoolsByLba(device.ftl()).at(1), device.spare_pool());
  ASSERT_TRUE(device.Reclassify(1, critical).ok());
  EXPECT_EQ(PoolsByLba(device.ftl()).at(1), device.sys_pool());
  EXPECT_EQ(device.Reclassify(42, critical).code(), StatusCode::kNotFound);
}

TEST(SosDeviceTest, BaselineDeviceBasics) {
  SimClock clock;
  NandConfig nand = SmallSos().nand;
  nand.tech = CellTech::kTlc;
  BaselineDevice device(nand, &clock, EccPreset::kBch, GcPolicy::kGreedy);
  const PlacementHandle degradable = OpenHandle(device, Durability::kDegradable);
  ASSERT_TRUE(device.Write(1, Block(3), degradable).ok());  // spec inert
  auto read = device.Read(1);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().data, Block(3));
  EXPECT_TRUE(device.Reclassify(1, OpenHandle(device, Durability::kCritical)).ok());
  EXPECT_GT(device.capacity_blocks(), 0u);
}

TEST(SosDeviceTest, SplitCapacityBeatsTlcBaseline) {
  // E6 in miniature: same die, SOS split exports more bytes than the die
  // would as TLC. (The SOS die *is* PLC; a TLC die of the same cell count
  // exports 3/5 of the PLC page count.)
  SimClock clock;
  SosDevice device(SmallSos(), &clock);
  const uint64_t sos_pages = device.ftl().ExportedPages();

  NandConfig tlc = SmallSos().nand;
  tlc.tech = CellTech::kTlc;
  SimClock clock2;
  BaselineDevice baseline(tlc, &clock2, EccPreset::kBch, GcPolicy::kGreedy);
  const uint64_t tlc_pages = baseline.ftl().ExportedPages();
  EXPECT_GT(static_cast<double>(sos_pages), static_cast<double>(tlc_pages) * 1.2);
}

TEST(SosDeviceTest, SlcStagingAbsorbsWritesAndFlushes) {
  SimClock clock;
  SosDeviceConfig config = SmallSos();
  config.nand.num_blocks = 64;
  config.enable_slc_staging = true;
  config.stage_share = 0.125;  // 8 of 64 blocks
  SosDevice device(config, &clock);
  ASSERT_TRUE(device.staging_enabled());
  EXPECT_EQ(device.StageSnapshot().mode, CellTech::kSlc);

  // A small burst lands entirely in the stage.
  const PlacementHandle critical = OpenHandle(device, Durability::kCritical);
  for (uint64_t lba = 0; lba < 8; ++lba) {
    ASSERT_TRUE(device.Write(lba, Block(static_cast<uint8_t>(lba)), critical).ok());
  }
  EXPECT_EQ(device.StageSnapshot().valid_pages, 8u);
  EXPECT_EQ(device.SysSnapshot().valid_pages, 0u);

  // Flushing moves it to pseudo-QLC; data survives.
  const auto flushed = device.FlushStage();
  ASSERT_TRUE(flushed.ok());
  EXPECT_GT(flushed.value(), 0u);
  EXPECT_GT(device.SysSnapshot().valid_pages, 0u);
  for (uint64_t lba = 0; lba < 8; ++lba) {
    auto read = device.Read(lba);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read.value().data, Block(static_cast<uint8_t>(lba)));
  }
}

TEST(SosDeviceTest, StagingHighWaterTriggersAutoFlush) {
  SimClock clock;
  SosDeviceConfig config = SmallSos();
  config.nand.num_blocks = 64;
  config.nand.store_payloads = false;
  config.enable_slc_staging = true;
  config.stage_share = 0.125;
  SosDevice device(config, &clock);
  const uint64_t stage_capacity = device.StageSnapshot().exported_pages;
  ASSERT_GT(stage_capacity, 0u);
  // Write enough SYS data to cross the high-water mark several times over.
  const PlacementHandle critical = OpenHandle(device, Durability::kCritical);
  for (uint64_t lba = 0; lba < stage_capacity * 3; ++lba) {
    ASSERT_TRUE(device.Write(lba, {}, critical).ok()) << "lba " << lba;
  }
  // The stage never overflows: auto-flush kept it at or below high water
  // (modulo the burst between checks), and SYS received the flushed data.
  EXPECT_GT(device.SysSnapshot().valid_pages, 0u);
  EXPECT_GT(device.ftl().stats().migrations(), 0u);
  EXPECT_TRUE(device.ftl().CheckInvariants().ok());
}

TEST(SosDeviceTest, StagingSpeedsUpSysWrites) {
  // The point of the stage: SLC program latency instead of pseudo-QLC.
  auto mean_write_latency = [](bool staging) {
    SimClock clock;
    SosDeviceConfig config = SmallSos();
    config.nand.num_blocks = 64;
    config.nand.wordlines_per_block = 16;  // SLC pages are scarce (1 bit/cell)
    config.nand.store_payloads = false;
    config.enable_slc_staging = staging;
    config.stage_share = 0.125;
    SosDevice device(config, &clock);
    const PlacementHandle critical = OpenHandle(device, Durability::kCritical);
    const SimTimeUs start = clock.now();
    const int writes = 20;  // fits under the flush high-water mark
    for (uint64_t lba = 0; lba < writes; ++lba) {
      EXPECT_TRUE(device.Write(lba, {}, critical).ok());
    }
    return static_cast<double>(clock.now() - start) / writes;
  };
  EXPECT_LT(mean_write_latency(true), mean_write_latency(false) / 5.0);
}

TEST(HealthTest, ReportReflectsDeviceState) {
  SimClock clock;
  SosDevice device(SmallSos(), &clock);
  const uint64_t initial = device.capacity_blocks();
  const PlacementHandle critical = OpenHandle(device, Durability::kCritical);
  const PlacementHandle degradable = OpenHandle(device, Durability::kDegradable);
  for (uint64_t lba = 0; lba < 30; ++lba) {
    ASSERT_TRUE(device.Write(lba, Block(1), lba % 2 == 0 ? critical : degradable).ok());
  }
  clock.Advance(YearsToUs(1.0));
  const DeviceHealthReport report = CollectHealth(device, 1.0, initial);
  ASSERT_EQ(report.pools.size(), 3u);  // SYS, SPARE, RESCUE (no stage)
  uint64_t valid_total = 0;
  for (const PoolHealth& pool : report.pools) {
    valid_total += pool.valid_pages;
    EXPECT_GE(pool.worst_predicted_rber, 0.0);
    EXPECT_LE(pool.est_media_quality, 1.0);
  }
  EXPECT_EQ(valid_total, 30u);
  EXPECT_DOUBLE_EQ(report.capacity_retained, 1.0);
  const std::string rendered = RenderHealth(report);
  EXPECT_NE(rendered.find("SYS"), std::string::npos);
  EXPECT_NE(rendered.find("SPARE"), std::string::npos);
  EXPECT_NE(rendered.find("capacity retained"), std::string::npos);
}

TEST(HealthTest, TaintCensusCounts) {
  SimClock clock;
  SosDevice device(SmallSos(), &clock);
  ASSERT_TRUE(device.Write(1, Block(1), OpenHandle(device, Durability::kDegradable)).ok());
  clock.Advance(YearsToUs(10.0));  // heavy degradation on ECC-less PLC
  ASSERT_TRUE(device.ftl().Refresh(1).ok());  // bakes in corruption -> taint
  const DeviceHealthReport report = CollectHealth(device, 10.0, 0);
  uint64_t tainted = 0;
  for (const PoolHealth& pool : report.pools) {
    tainted += pool.tainted_pages;
  }
  EXPECT_EQ(tainted, 1u);
}

// --- Daemons ---------------------------------------------------------------

struct DaemonFixture {
  SimClock clock;
  SosDevice device;
  ExtentFileSystem fs;
  PlacementDirectory placements;
  PlacementHandle critical;
  PlacementHandle degradable;
  std::vector<FileMeta> corpus;
  LogisticClassifier priority;
  LogisticClassifier deletion;

  explicit DaemonFixture(SosDeviceConfig config = SmallSos())
      : device(config, &clock),
        fs(&device, &clock),
        placements(&device),
        critical(placements.For({Durability::kCritical}).value()),
        degradable(placements.For({Durability::kDegradable}).value()),
        corpus(GenerateCorpus({.num_files = 4000, .seed = 99})),
        priority(LogisticClassifier::Train(AsPointers(corpus), &ExpendableLabel,
                                           CorpusConfig{}.device_age_us)),
        deletion(LogisticClassifier::Train(AsPointers(corpus), &DeletionLabel,
                                           CorpusConfig{}.device_age_us)) {}

  // Creates a file from the corpus sample `i`, scaled to a small size.
  uint64_t AddFile(size_t i, uint64_t size = kKiB) {
    FileMeta meta = corpus[i];
    meta.size_bytes = size;
    auto id = fs.CreateFile(meta, std::vector<uint8_t>(size, static_cast<uint8_t>(i)),
                            critical);
    EXPECT_TRUE(id.ok());
    return id.value();
  }

  // The file's declared durability, for placement assertions.
  Durability DurabilityOf(uint64_t id) {
    auto spec = fs.PlacementSpecOf(id);
    EXPECT_TRUE(spec.ok());
    return spec.value().durability;
  }
};

TEST(MigrationDaemonTest, DemotesExpendableKeepsCritical) {
  DaemonFixture f;
  // Add a precious photo and a junk cache file, both in SYS.
  FileMeta precious;
  precious.type = FileType::kPhoto;
  precious.path = "dcim/camera/wedding.jpg";
  precious.size_bytes = kKiB;
  precious.personal_signal = 0.99;
  FileMeta junk;
  junk.type = FileType::kCache;
  junk.path = "data/cache/app1.tmp";
  junk.size_bytes = kKiB;
  auto precious_id = f.fs.CreateFile(precious, Block(1), f.critical);
  auto junk_id = f.fs.CreateFile(junk, Block(2), f.critical);
  ASSERT_TRUE(precious_id.ok());
  ASSERT_TRUE(junk_id.ok());

  f.clock.Advance(7 * kUsPerDay);  // past min demotion age
  MigrationDaemon daemon(&f.fs, &f.placements, &f.priority, {});
  const auto stats = daemon.RunOnce(f.clock.now());
  EXPECT_EQ(stats.scanned, 2u);
  EXPECT_EQ(f.DurabilityOf(junk_id.value()), Durability::kDegradable);
  EXPECT_EQ(f.DurabilityOf(precious_id.value()), Durability::kCritical);
}

TEST(MigrationDaemonTest, RespectsMinAge) {
  DaemonFixture f;
  FileMeta junk;
  junk.type = FileType::kCache;
  junk.path = "data/cache/fresh.tmp";
  junk.size_bytes = 512;
  junk.created_us = f.clock.now();
  auto id = f.fs.CreateFile(junk, Block(1), f.critical);
  ASSERT_TRUE(id.ok());
  MigrationDaemon daemon(&f.fs, &f.placements, &f.priority, {});
  daemon.RunOnce(f.clock.now());  // file is 0 days old
  EXPECT_EQ(f.DurabilityOf(id.value()), Durability::kCritical);
}

// A decorator that overrides only Score (ExactScoring) must drive the
// daemons to the same decisions as the bare model.
TEST(MigrationDaemonTest, ScoreOnlyDecoratorMatchesBareModel) {
  struct Outcome {
    std::vector<uint64_t> stats;  // scanned/demoted/promoted/failures per pass
    std::vector<std::pair<uint64_t, uint32_t>> placements;  // (id, handle id)
    uint64_t decorator_calls = 0;
  };
  auto run = [](bool decorated) {
    DaemonFixture f;
    for (size_t i = 0; i < 80; ++i) {
      f.AddFile(i, 512);
    }
    // Corpus timestamps span the corpus device's age; start the scans after it.
    f.clock.Advance(CorpusConfig{}.device_age_us);
    ExactScoring decorator(&f.priority);
    const BinaryClassifier* model =
        decorated ? static_cast<const BinaryClassifier*>(&decorator) : &f.priority;
    // Two demoting passes, then two under a user preference protecting
    // every type, which promotes data back.
    MigrationDaemon demoter(&f.fs, &f.placements, model, {});
    MigrationDaemonConfig protective;
    protective.type_score_bias.fill(-1.0);
    MigrationDaemon promoter(&f.fs, &f.placements, model, protective);
    Outcome out;
    for (int pass = 0; pass < 4; ++pass) {
      f.clock.Advance(9 * kUsPerDay);
      // Reads move the access features between passes.
      for (size_t i = static_cast<size_t>(pass); i < 80; i += 3) {
        EXPECT_TRUE(f.fs.ReadFile(i + 1).ok());
      }
      const MigrationDaemon::RunStats stats =
          (pass < 2 ? demoter : promoter).RunOnce(f.clock.now());
      out.stats.insert(out.stats.end(),
                       {stats.scanned, stats.demoted, stats.promoted, stats.demote_failures});
    }
    f.fs.ForEachFile([&](const FileView& file) {
      out.placements.emplace_back(file.id, file.placement.id());
    });
    out.decorator_calls = decorator.calls();
    return out;
  };
  const Outcome bare = run(false);
  const Outcome decorated = run(true);
  EXPECT_EQ(decorated.stats, bare.stats);
  EXPECT_EQ(decorated.placements, bare.placements);
  EXPECT_EQ(bare.decorator_calls, 0u);
  EXPECT_EQ(decorated.decorator_calls, 4u * 80u);  // every scored file went through Score
  EXPECT_GT(bare.stats[1], 0u);   // first pass demoted
  EXPECT_EQ(bare.stats[10], bare.stats[1]);  // the protective pass promoted them all back
}

// Differential oracle for certified score windows: the bare model lets the
// daemon skip files inside a window, the decorator forces an exact score on
// every scan, and the two must make the same decision on every file on every
// pass. The run moves every window key: reads and overwrites between passes,
// creations and deletions, per-type biases, promotions, demotions that fail
// once SPARE is full, and a retrain assigned in place mid-run.
TEST(MigrationDaemonTest, ScoreWindowsMatchExactScoringEveryPass) {
  constexpr int kPasses = 130;
  constexpr int kRetrainPass = 70;
  struct Outcome {
    // Per pass: scanned/demoted/promoted/failures, then every (id, handle).
    std::vector<std::vector<uint64_t>> passes;
    MigrationDaemon::RunStats total;
    uint64_t decorator_calls = 0;
  };
  auto run = [](bool decorated) {
    SosDeviceConfig config = SmallSos();
    config.sys_share = 0.9;  // a small SPARE pool, so demotions start failing
    DaemonFixture f(config);
    for (size_t i = 0; i < 150; ++i) {
      f.AddFile(i, 512);
    }
    // Corpus timestamps span the corpus device's age; start the scans after it.
    f.clock.Advance(CorpusConfig{}.device_age_us);
    ExactScoring decorator(&f.priority);
    const BinaryClassifier* model =
        decorated ? static_cast<const BinaryClassifier*>(&decorator) : &f.priority;
    MigrationDaemonConfig daemon_config;
    daemon_config.type_score_bias[static_cast<size_t>(FileType::kDownload)] = 0.15;
    daemon_config.type_score_bias[static_cast<size_t>(FileType::kPhoto)] = -0.1;
    MigrationDaemon daemon(&f.fs, &f.placements, model, daemon_config);
    Rng rng(DeriveSeed({0x77696e646f77ull}));  // same op stream in both runs
    size_t next_corpus = 150;
    Outcome out;
    for (int pass = 0; pass < kPasses; ++pass) {
      f.clock.Advance(kUsPerDay);
      const uint64_t max_id = next_corpus;  // ids are 1-based and dense
      for (int op = 0; op < 12; ++op) {
        // Half the ops go to the newest files, whose rates move fastest.
        const uint64_t id = op % 2 == 0 ? 1 + rng.NextBounded(max_id)
                                        : max_id - rng.NextBounded(std::min<uint64_t>(max_id, 20));
        if (f.fs.Lookup(id) == nullptr) {
          continue;
        }
        const uint64_t kind = rng.NextBounded(8);
        if (kind < 4) {
          EXPECT_TRUE(f.fs.ReadFile(id).ok());
        } else if (kind < 7) {
          // Overwrite bursts move the write-rate feature alone.
          const uint64_t burst = 1 + rng.NextBounded(6);
          for (uint64_t k = 0; k < burst; ++k) {
            EXPECT_TRUE(f.fs.OverwriteFile(id, std::vector<uint8_t>(512, 0x3c)).ok());
          }
        } else {
          EXPECT_TRUE(f.fs.DeleteFile(id).ok());
        }
      }
      if (pass % 2 == 0 && next_corpus < f.corpus.size()) {
        FileMeta meta = f.corpus[next_corpus++];
        meta.size_bytes = 512;
        meta.created_us = f.clock.now();
        meta.last_accessed_us = f.clock.now();
        meta.read_count = 0;
        meta.write_count = 0;
        // Refused alike in both runs once the file system is full.
        IgnoreResult(f.fs.CreateFile(meta, std::vector<uint8_t>(512, 0x5a), f.critical));
      }
      if (pass == kRetrainPass) {
        // A retrain assigned in place, as LifetimeSim assigns its retrains,
        // to a model under which edited files are precious: from here on an
        // overwrite alone can push a file's score across a threshold.
        f.priority = LogisticClassifier::Train(
            AsPointers(f.corpus), [](const FileMeta& meta) { return meta.write_count == 0; },
            f.clock.now());
      }
      const MigrationDaemon::RunStats stats = daemon.RunOnce(f.clock.now());
      std::vector<uint64_t> record = {stats.scanned, stats.demoted, stats.promoted,
                                      stats.demote_failures};
      f.fs.ForEachFile([&](const FileView& file) {
        record.insert(record.end(), {file.id, file.placement.id()});
      });
      out.passes.push_back(std::move(record));
    }
    out.total = daemon.lifetime_stats();
    out.decorator_calls = decorator.calls();
    return out;
  };
  const Outcome windowed = run(false);
  const Outcome exact = run(true);
  ASSERT_EQ(windowed.passes.size(), exact.passes.size());
  for (size_t pass = 0; pass < exact.passes.size(); ++pass) {
    ASSERT_EQ(windowed.passes[pass], exact.passes[pass]) << "first divergence at pass " << pass;
  }
  // Every event the oracle is meant to cover happened.
  EXPECT_GT(exact.total.demoted, 0u);
  EXPECT_GT(exact.total.promoted, 0u);
  EXPECT_GT(exact.total.demote_failures, 0u);
  // The decorator never certifies a window; the bare model mostly does.
  EXPECT_EQ(exact.total.scored, exact.total.scanned);
  EXPECT_EQ(exact.decorator_calls, exact.total.scanned);
  EXPECT_LT(windowed.total.scored * 2, windowed.total.scanned);
}

// A pass sees every handle's durability as the device describes it at the
// file's turn: a closed slot that a reclassification reopens mid-pass is
// described afresh for the later files still holding it (the FDP alias), and
// a handle closed between passes is skipped on the next pass.
TEST(MigrationDaemonTest, DurabilityFollowsHandlesOpenedMidPass) {
  DaemonFixture f;  // slot 0: critical, slot 1: degradable
  // Promotions of long-lived files land in an already-open slot 2.
  const PlacementHandle critical_long =
      f.placements.For({Durability::kCritical, LifetimeHint::kLong}).value();
  const PlacementHandle stale = OpenHandle(f.device, Durability::kCritical);    // slot 3
  const PlacementHandle gone = OpenHandle(f.device, Durability::kCritical);     // slot 4
  const PlacementHandle closing = OpenHandle(f.device, Durability::kCritical);  // slot 5
  ASSERT_EQ(stale.id(), 3u);
  ASSERT_EQ(gone.id(), 4u);

  // Cache files score as expendable (demote), photos as precious (promote);
  // every file declares a long lifetime.
  MigrationDaemonConfig config;
  config.type_score_bias[static_cast<size_t>(FileType::kCache)] = 1.0;
  config.type_score_bias[static_cast<size_t>(FileType::kPhoto)] = -1.0;
  auto add = [&](FileType type, PlacementHandle handle, SimTimeUs created_us) {
    FileMeta meta;
    meta.type = type;
    meta.size_bytes = 512;
    meta.created_us = created_us;
    meta.expected_lifetime_us = 365 * kUsPerDay;
    auto id = f.fs.CreateFile(meta, Block(static_cast<uint8_t>(type)), handle);
    EXPECT_TRUE(id.ok());
    return id.value();
  };
  f.clock.Advance(7 * kUsPerDay);
  const uint64_t photo_on_stale = add(FileType::kPhoto, stale, 0);
  const uint64_t cache_on_critical = add(FileType::kCache, f.critical, 0);
  const uint64_t late_photo_on_stale = add(FileType::kPhoto, stale, 0);
  const uint64_t cache_on_gone = add(FileType::kCache, gone, 0);
  const uint64_t young_cache = add(FileType::kCache, closing, f.clock.now());
  ASSERT_TRUE(f.device.ClosePlacement(stale).ok());
  ASSERT_TRUE(f.device.ClosePlacement(gone).ok());

  MigrationDaemon daemon(&f.fs, &f.placements, &f.priority, config);
  // The first file's slot is closed: skipped. The second file's demotion
  // opens degradable/long in the lowest free slot -- the stale one -- so the
  // third file, still holding that slot, is now degradable and promoted.
  // The fourth file's slot stays closed; the young file is too new to demote.
  const MigrationDaemon::RunStats first = daemon.RunOnce(f.clock.now());
  EXPECT_EQ(first.scanned, 5u);
  EXPECT_EQ(first.demoted, 1u);
  EXPECT_EQ(first.promoted, 1u);
  EXPECT_EQ(first.demote_failures, 0u);
  EXPECT_EQ(PlacementOf(f.fs, photo_on_stale), stale);
  EXPECT_EQ(PlacementOf(f.fs, cache_on_critical), stale);  // the reopened slot
  EXPECT_EQ(f.DurabilityOf(cache_on_critical), Durability::kDegradable);
  EXPECT_EQ(PlacementOf(f.fs, late_photo_on_stale), critical_long);
  EXPECT_EQ(PlacementOf(f.fs, cache_on_gone), gone);
  EXPECT_EQ(PlacementOf(f.fs, young_cache), closing);

  // The young file's critical slot closes between passes: the next pass must
  // skip it, not act on what the previous pass saw. The first file, whose
  // slot now aliases degradable/long, is promoted.
  ASSERT_TRUE(f.device.ClosePlacement(closing).ok());
  f.clock.Advance(2 * kUsPerDay);
  const MigrationDaemon::RunStats second = daemon.RunOnce(f.clock.now());
  EXPECT_EQ(second.demoted, 0u);
  EXPECT_EQ(second.promoted, 1u);
  EXPECT_EQ(second.demote_failures, 0u);
  EXPECT_EQ(PlacementOf(f.fs, photo_on_stale), critical_long);
  EXPECT_EQ(PlacementOf(f.fs, young_cache), closing);
}

TEST(MigrationDaemonTest, HigherThresholdDemotesLess) {
  auto demoted_at = [](double threshold) {
    DaemonFixture f;
    for (size_t i = 0; i < 60; ++i) {
      f.AddFile(i, 512);
    }
    f.clock.Advance(7 * kUsPerDay);
    MigrationDaemonConfig config;
    config.demote_threshold = threshold;
    MigrationDaemon daemon(&f.fs, &f.placements, &f.priority, config);
    return daemon.RunOnce(f.clock.now()).demoted;
  };
  EXPECT_GE(demoted_at(0.5), demoted_at(0.9));
}

TEST(AutoDeleteTest, InactiveWhenSpaceAvailable) {
  DaemonFixture f;
  f.AddFile(0);
  AutoDeleteManager manager(&f.fs, &f.deletion, {});
  const auto stats = manager.RunOnce(f.clock.now());
  EXPECT_EQ(stats.activations, 0u);
  EXPECT_EQ(stats.files_deleted, 0u);
}

TEST(AutoDeleteTest, FreesSpaceUnderPressure) {
  DaemonFixture f;
  // Fill the FS almost to capacity with SPARE-placed cache junk.
  std::vector<uint64_t> ids;
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    FileMeta junk = SynthesizeFile(FileType::kCache, f.clock.now(), 0.0, rng);
    junk.size_bytes = 2048;
    auto id = f.fs.CreateFile(junk, {}, f.degradable);
    if (!id.ok()) {
      break;
    }
    ids.push_back(id.value());
  }
  ASSERT_GT(ids.size(), 10u);
  AutoDeleteConfig config;
  config.low_water_free = 0.03;
  config.high_water_free = 0.10;
  AutoDeleteManager manager(&f.fs, &f.deletion, config);
  const auto stats = manager.RunOnce(f.clock.now());
  EXPECT_EQ(stats.activations, 1u);
  EXPECT_GT(stats.files_deleted, 0u);
  const FsStats fs_stats = f.fs.Stats();
  const double free_fraction =
      static_cast<double>(fs_stats.capacity_blocks - fs_stats.used_blocks) /
      static_cast<double>(fs_stats.capacity_blocks);
  EXPECT_GE(free_fraction, 0.10);
}

TEST(AutoDeleteTest, NeverDeletesSysFiles) {
  DaemonFixture f;
  // Fill with SYS files only: auto-delete has no candidates.
  int created = 0;
  Rng rng(8);
  for (int i = 0; i < 10000; ++i) {
    FileMeta meta = SynthesizeFile(FileType::kDocument, f.clock.now(), 0.0, rng);
    meta.size_bytes = 2048;
    if (!f.fs.CreateFile(meta, {}, f.critical).ok()) {
      break;
    }
    ++created;
  }
  AutoDeleteManager manager(&f.fs, &f.deletion, {});
  const auto stats = manager.RunOnce(f.clock.now());
  EXPECT_EQ(stats.files_deleted, 0u);
  EXPECT_EQ(f.fs.Stats().files, static_cast<uint64_t>(created));
}

TEST(AutoDeleteTest, CandidatesFollowTheHandleAtEachActivation) {
  DaemonFixture f;  // slot 0: critical, slot 1: degradable
  const PlacementHandle slot = OpenHandle(f.device, Durability::kDegradable);  // slot 2
  auto add = [&](size_t i, PlacementHandle handle) {
    FileMeta meta = f.corpus[i];
    meta.size_bytes = 512;
    auto id = f.fs.CreateFile(meta, Block(static_cast<uint8_t>(i)), handle);
    EXPECT_TRUE(id.ok());
    return id.value();
  };
  add(0, f.critical);  // never a candidate
  const uint64_t junk = add(1, f.degradable);
  const uint64_t first = add(2, slot);
  const uint64_t second = add(3, slot);
  ASSERT_TRUE(f.device.ClosePlacement(slot).ok());

  // Activate on any used space and delete every candidate there is.
  AutoDeleteConfig config;
  config.low_water_free = 1.0;
  config.high_water_free = 1.0;
  AutoDeleteManager manager(&f.fs, &f.deletion, config);
  // The two files on the closed slot are not candidates.
  const auto closed = manager.RunOnce(f.clock.now());
  EXPECT_EQ(closed.activations, 1u);
  EXPECT_EQ(closed.files_deleted, 1u);
  EXPECT_EQ(f.fs.Lookup(junk), nullptr);
  EXPECT_NE(f.fs.Lookup(first), nullptr);

  // The slot reopens as degradable between activations: the next one deletes
  // its files, not acting on what the previous activation saw.
  ASSERT_EQ(OpenHandle(f.device, Durability::kDegradable).id(), slot.id());
  const auto reopened = manager.RunOnce(f.clock.now());
  EXPECT_EQ(reopened.files_deleted, 2u);
  EXPECT_EQ(f.fs.Lookup(first), nullptr);
  EXPECT_EQ(f.fs.Lookup(second), nullptr);
  EXPECT_EQ(f.fs.Stats().files, 1u);
}

TEST(DegradationMonitorTest, RefreshesAgedSparePages) {
  DaemonFixture f;
  FileMeta media;
  media.type = FileType::kVideo;
  media.path = "dcim/camera/old.mp4";
  media.size_bytes = 4096;
  auto id = f.fs.CreateFile(media, std::vector<uint8_t>(4096, 0xEE), f.critical);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(f.fs.ReclassifyFile(id.value(), f.degradable).ok());
  f.clock.Advance(YearsToUs(2.5));  // deep retention on ECC-less PLC
  DegradationMonitorConfig config;
  config.cloud_repair = false;
  DegradationMonitor monitor(&f.fs, &f.device, config);
  const auto stats = monitor.RunOnce(f.clock.now());
  EXPECT_GT(stats.pages_scanned, 0u);
  EXPECT_GT(stats.pages_refreshed, 0u);
  // Refreshed pages predict lower RBER now.
  for (uint64_t lba : f.device.ftl().LbasInPool(f.device.spare_pool())) {
    EXPECT_LT(f.device.ftl().PredictLbaRber(lba, 0.0).value(),
              f.device.config().spare_retire_rber);
  }
}

TEST(DegradationMonitorTest, CloudRepairRestoresContent) {
  DaemonFixture f;
  InMemoryCloud cloud;
  const std::vector<uint8_t> pristine(4096, 0xAB);
  FileMeta media;
  media.type = FileType::kPhoto;
  media.path = "dcim/camera/p.jpg";
  media.size_bytes = pristine.size();
  auto id = f.fs.CreateFile(media, pristine, f.critical);
  ASSERT_TRUE(id.ok());
  cloud.Store(id.value(), pristine);
  ASSERT_TRUE(f.fs.ReclassifyFile(id.value(), f.degradable).ok());
  f.clock.Advance(YearsToUs(2.5));

  DegradationMonitor monitor(&f.fs, &f.device, {}, &cloud);
  const auto stats = monitor.RunOnce(f.clock.now());
  EXPECT_GE(stats.files_repaired, 1u);
  // The stored copy is pristine again; the read itself may pick up a fresh
  // flip or two on the ECC-less pool, but the multi-year corruption is gone.
  auto read = f.fs.ReadFile(id.value());
  ASSERT_TRUE(read.ok());
  uint64_t diff_bits = 0;
  const std::vector<uint8_t>& got = read.value().data;
  ASSERT_EQ(got.size(), pristine.size());
  for (size_t i = 0; i < got.size(); ++i) {
    diff_bits += static_cast<uint64_t>(__builtin_popcount(
        static_cast<unsigned>(got[i] ^ pristine[i])));
  }
  EXPECT_LT(diff_bits, 16u);
}

// A file that stays rotten is at risk once, not once per pass: a second pass
// over the same tainted, never-overwritten files adds nothing.
TEST(DegradationMonitorTest, CountsEachFileAtRiskOnce) {
  DaemonFixture f;
  for (int i = 0; i < 4; ++i) {
    FileMeta media;
    media.type = FileType::kVideo;
    media.path = "dcim/camera/clip" + std::to_string(i) + ".mp4";
    media.size_bytes = 4096;
    auto id = f.fs.CreateFile(media, std::vector<uint8_t>(4096, 0xEE), f.critical);
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(f.fs.ReclassifyFile(id.value(), f.degradable).ok());
  }
  f.clock.Advance(YearsToUs(2.5));
  DegradationMonitor monitor(&f.fs, &f.device, {});  // cloud repair on, no cloud
  const auto first = monitor.RunOnce(f.clock.now());
  ASSERT_GT(first.files_at_risk, 0u);

  // Every file counted is still tainted when the second pass looks again.
  uint64_t tainted_files = 0;
  f.fs.ForEachFile([&](const FileView& file) {
    bool tainted = false;
    for (const Extent& extent : file.extents) {
      for (uint32_t i = 0; i < extent.blocks; ++i) {
        tainted = tainted || f.device.ftl().IsTainted(extent.lba + i);
      }
    }
    tainted_files += tainted ? 1 : 0;
  });
  EXPECT_EQ(tainted_files, first.files_at_risk);

  f.clock.Advance(30 * kUsPerDay);
  const auto second = monitor.RunOnce(f.clock.now());
  EXPECT_EQ(second.files_at_risk, 0u);
  EXPECT_EQ(monitor.lifetime_stats().files_at_risk, first.files_at_risk);
}

// --- Lifetime simulation ---------------------------------------------------

LifetimeSimConfig QuickSim(DeviceKind kind, uint32_t days = 120) {
  LifetimeSimConfig config;
  config.kind = kind;
  config.days = days;
  config.seed = 5;
  config.nand.num_blocks = 128;
  config.training_files = 2000;
  // Keep the test fast and the device ~half full at the end (a 3-year phone
  // is typically not at capacity).
  config.workload.photos_per_day = 3.0;
  config.workload.reads_per_day = 40.0;
  config.workload.cache_files_per_day = 8.0;
  // Enough in-place churn that GC cycles blocks and wear becomes visible.
  config.workload.app_updates_per_day = 80.0;
  config.file_size_cap = 32 * kKiB;
  config.sample_period_days = 30;
  return config;
}

TEST(LifetimeSimTest, SosRunsAndWears) {
  LifetimeSim sim(QuickSim(DeviceKind::kSos));
  const LifetimeResult result = sim.Run();
  EXPECT_GT(result.host_bytes_written(), 0u);
  EXPECT_GT(result.final_max_wear_ratio(), 0.0);
  EXPECT_GT(result.files_alive(), 0u);
  EXPECT_GT(result.migration().demoted, 0u);  // the daemon did its job
  EXPECT_FALSE(result.samples().empty());
  EXPECT_EQ(result.create_failures(), 0u);
  EXPECT_GT(result.final_spare_quality(), 0.8);
  EXPECT_GT(result.projected_lifetime_years(), 1.0);
}

TEST(LifetimeSimTest, BaselinesRun) {
  for (DeviceKind kind :
       {DeviceKind::kTlcBaseline, DeviceKind::kQlcBaseline, DeviceKind::kPlcNaive}) {
    LifetimeSim sim(QuickSim(kind, 60));
    const LifetimeResult result = sim.Run();
    EXPECT_GT(result.host_bytes_written(), 0u) << DeviceKindName(kind);
    EXPECT_EQ(result.final_spare_quality(), 1.0) << "baselines have no SPARE";
    EXPECT_EQ(result.migration().demoted, 0u);
  }
}

TEST(LifetimeSimTest, DeterministicForSeed) {
  auto run = [] {
    LifetimeSim sim(QuickSim(DeviceKind::kSos, 60));
    return sim.Run();
  };
  const LifetimeResult a = run();
  const LifetimeResult b = run();
  EXPECT_EQ(a.host_bytes_written(), b.host_bytes_written());
  EXPECT_EQ(a.ftl().nand_writes(), b.ftl().nand_writes());
  EXPECT_EQ(a.final_max_wear_ratio(), b.final_max_wear_ratio());
  EXPECT_EQ(a.migration().demoted, b.migration().demoted);
}

// The result carries what the run's sink recorded: under a cap the run
// overflows, the first `cap` events of an uncapped run and a drop count for
// every other one. The cap changes the trace only, never the simulation.
TEST(LifetimeSimTest, ResultCarriesTheBoundedTrace) {
  LifetimeSimConfig config = QuickSim(DeviceKind::kSos, 60);
  const LifetimeResult full = LifetimeSim(config).Run();
  ASSERT_EQ(full.trace_dropped(), 0u);
  constexpr size_t kCap = 16;
  ASSERT_GT(full.trace().size(), kCap);

  config.trace_capacity = kCap;
  const LifetimeResult capped = LifetimeSim(config).Run();
  ASSERT_EQ(capped.trace().size(), kCap);
  EXPECT_TRUE(std::equal(capped.trace().begin(), capped.trace().end(), full.trace().begin()));
  EXPECT_EQ(capped.trace_dropped(), full.trace().size() - kCap);
  EXPECT_EQ(capped.host_bytes_written(), full.host_bytes_written());
  EXPECT_EQ(capped.ftl().nand_writes(), full.ftl().nand_writes());

  obs::MetricRegistry registry;
  capped.ToMetrics(registry);
  uint64_t events = ~0ull;
  uint64_t dropped = ~0ull;
  for (const obs::MetricRow& row : registry.Snapshot()) {
    if (row.name == "obs.trace.events") {
      events = row.counter;
    } else if (row.name == "obs.trace.dropped") {
      dropped = row.counter;
    }
  }
  EXPECT_EQ(events, kCap);
  EXPECT_EQ(dropped, capped.trace_dropped());
}

TEST(LifetimeSimTest, SamplesAreOrderedAndMonotoneInWear) {
  LifetimeSim sim(QuickSim(DeviceKind::kSos));
  const LifetimeResult result = sim.Run();
  ASSERT_GE(result.samples().size(), 2u);
  for (size_t i = 1; i < result.samples().size(); ++i) {
    EXPECT_GT(result.samples()[i].day, result.samples()[i - 1].day);
    EXPECT_GE(result.samples()[i].mean_pec, result.samples()[i - 1].mean_pec);
  }
}

TEST(LifetimeSimTest, PeriodicRetrainingRuns) {
  LifetimeSimConfig config = QuickSim(DeviceKind::kSos, 120);
  config.retrain_period_days = 30;
  LifetimeSim sim(config);
  const LifetimeResult result = sim.Run();
  EXPECT_GE(result.retrainings(), 2u);
  // The retrained models keep the pipeline functional.
  EXPECT_GT(result.migration().demoted, 0u);
  EXPECT_EQ(result.create_failures(), 0u);
}

// Cloud repair inside a lifetime run: a pre-aged die rots demoted files
// within the first monitor pass. Without the cloud they are counted at risk;
// with it every one is restored from the copy the run stored at create or
// update time. With payloads off the copy is of a synthetic file, and the
// repair rewrites it at full size, which clears its taint all the same.
TEST(LifetimeSimTest, CloudRepairsWhatWouldBeAtRisk) {
  for (bool payloads : {true, false}) {
    SCOPED_TRACE(payloads ? "payloads on" : "payloads off");
    LifetimeSimConfig config = QuickSim(DeviceKind::kSos, 45);
    config.nand.store_payloads = payloads;
    config.nand.initial_pec = 200;
    const LifetimeResult local = LifetimeSim(config).Run();
    ASSERT_GT(local.monitor().files_at_risk, 0u);
    EXPECT_EQ(local.monitor().files_repaired, 0u);

    config.enable_cloud = true;
    const LifetimeResult cloud = LifetimeSim(config).Run();
    EXPECT_EQ(cloud.monitor().files_at_risk, 0u);
    EXPECT_GT(cloud.monitor().files_repaired, 0u);
  }
}

TEST(LifetimeSimTest, NameCoverage) {
  EXPECT_STRNE(DeviceKindName(DeviceKind::kSos), "???");
  EXPECT_STRNE(DeviceKindName(DeviceKind::kTlcBaseline), "???");
  EXPECT_STRNE(DeviceKindName(DeviceKind::kQlcBaseline), "???");
  EXPECT_STRNE(DeviceKindName(DeviceKind::kPlcNaive), "???");
}

}  // namespace
}  // namespace sos
