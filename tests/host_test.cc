// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Tests for the host layer: extent file system over a real SosDevice, and
// the mobile workload generator + trace format.

#include <gtest/gtest.h>

#include "src/common/units.h"
#include "src/flash/fault_hook.h"
#include "src/host/cache_workload.h"
#include "src/host/file_system.h"
#include "src/host/workload.h"
#include "src/sos/sos_device.h"
#include "tests/oracle/probes.h"

namespace sos {
namespace {

SosDeviceConfig SmallDevice() {
  SosDeviceConfig config;
  config.nand.num_blocks = 32;
  config.nand.wordlines_per_block = 4;
  config.nand.page_size_bytes = 512;
  config.nand.tech = CellTech::kPlc;
  config.nand.seed = 3;
  config.nand.store_payloads = true;
  // FS-mechanics tests want deterministic clean reads; the paper-default
  // ECC-less SPARE pool flips the odd fresh bit, so use weak BCH here.
  config.spare_ecc = EccPreset::kWeakBch;
  return config;
}

std::vector<uint8_t> Content(size_t n, uint8_t seed) {
  std::vector<uint8_t> data(n);
  for (size_t i = 0; i < n; ++i) {
    data[i] = static_cast<uint8_t>(seed + i * 7);
  }
  return data;
}

FileMeta PhotoMeta(uint64_t size) {
  FileMeta meta;
  meta.type = FileType::kPhoto;
  meta.path = "dcim/camera/img_1.jpg";
  meta.size_bytes = size;
  return meta;
}

struct FsFixture {
  SimClock clock;
  SosDevice device;
  ExtentFileSystem fs;
  PlacementDirectory placements;
  PlacementHandle critical;
  PlacementHandle degradable;

  FsFixture()
      : device(SmallDevice(), &clock),
        fs(&device, &clock),
        placements(&device),
        critical(placements.For({Durability::kCritical}).value()),
        degradable(placements.For({Durability::kDegradable}).value()) {}
};

// --- File system -----------------------------------------------------------

TEST(FileSystemTest, CreateReadRoundtrip) {
  FsFixture f;
  const auto content = Content(1500, 1);
  auto id = f.fs.CreateFile(PhotoMeta(1500), content, f.critical);
  ASSERT_TRUE(id.ok());
  auto read = f.fs.ReadFile(id.value());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().data, content);
  EXPECT_TRUE(read.value().crc_ok);
  EXPECT_FALSE(read.value().degraded);
}

TEST(FileSystemTest, ReadUpdatesAccessStats) {
  FsFixture f;
  auto id = f.fs.CreateFile(PhotoMeta(512), Content(512, 2), f.critical);
  ASSERT_TRUE(id.ok());
  const uint32_t reads_before = f.fs.Lookup(id.value())->read_count;
  ASSERT_TRUE(f.fs.ReadFile(id.value()).ok());
  EXPECT_EQ(f.fs.Lookup(id.value())->read_count, reads_before + 1);
}

TEST(FileSystemTest, MissingFileFails) {
  FsFixture f;
  EXPECT_EQ(f.fs.ReadFile(999).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(f.fs.DeleteFile(999).code(), StatusCode::kNotFound);
  EXPECT_EQ(f.fs.OverwriteFile(999, {}).code(), StatusCode::kNotFound);
  EXPECT_EQ(f.fs.Lookup(999), nullptr);
}

TEST(FileSystemTest, OverwriteInPlace) {
  FsFixture f;
  auto id = f.fs.CreateFile(PhotoMeta(kKiB), Content(kKiB, 3), f.critical);
  ASSERT_TRUE(id.ok());
  const auto updated = Content(900, 9);
  ASSERT_TRUE(f.fs.OverwriteFile(id.value(), updated).ok());
  auto read = f.fs.ReadFile(id.value());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().data, updated);
  EXPECT_TRUE(read.value().crc_ok);
}

TEST(FileSystemTest, OverwriteTooLargeRejected) {
  FsFixture f;
  auto id = f.fs.CreateFile(PhotoMeta(512), Content(512, 3), f.critical);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(f.fs.OverwriteFile(id.value(), Content(4096, 1)).code(),
            StatusCode::kInvalidArgument);
}

TEST(FileSystemTest, DeleteFreesSpace) {
  FsFixture f;
  const uint64_t used_before = f.fs.Stats().used_blocks;
  auto id = f.fs.CreateFile(PhotoMeta(4096), Content(4096, 4), f.critical);
  ASSERT_TRUE(id.ok());
  EXPECT_GT(f.fs.Stats().used_blocks, used_before);
  ASSERT_TRUE(f.fs.DeleteFile(id.value()).ok());
  EXPECT_EQ(f.fs.Stats().used_blocks, used_before);
  EXPECT_EQ(f.fs.Stats().files, 0u);
}

TEST(FileSystemTest, TrimmedBlocksAreReused) {
  FsFixture f;
  auto id1 = f.fs.CreateFile(PhotoMeta(2048), Content(2048, 5), f.critical);
  ASSERT_TRUE(id1.ok());
  ASSERT_TRUE(f.fs.DeleteFile(id1.value()).ok());
  auto id2 = f.fs.CreateFile(PhotoMeta(2048), Content(2048, 6), f.critical);
  ASSERT_TRUE(id2.ok());
  auto read = f.fs.ReadFile(id2.value());
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read.value().crc_ok);
}

TEST(FileSystemTest, OutOfSpace) {
  FsFixture f;
  const uint32_t bs = f.device.block_size();
  const uint64_t capacity_bytes = f.device.capacity_blocks() * bs;
  auto big = f.fs.CreateFile(PhotoMeta(capacity_bytes * 2), {}, f.critical);
  EXPECT_EQ(big.status().code(), StatusCode::kOutOfSpace);
}

TEST(FileSystemTest, FillThenFail) {
  FsFixture f;
  Status last = Status::Ok();
  int created = 0;
  for (int i = 0; i < 10000; ++i) {
    auto id = f.fs.CreateFile(PhotoMeta(4096), {}, f.critical);
    if (!id.ok()) {
      last = id.status();
      break;
    }
    ++created;
  }
  EXPECT_EQ(last.code(), StatusCode::kOutOfSpace);
  EXPECT_GT(created, 10);
  // FS-level accounting refused before the device physically died.
  EXPECT_FALSE(f.fs.Stats().overcommitted);
}

TEST(FileSystemTest, ReclassifyMovesPools) {
  FsFixture f;
  auto id = f.fs.CreateFile(PhotoMeta(2048), Content(2048, 7), f.critical);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(PlacementOf(f.fs, id.value()), f.critical);
  const auto sys_before = f.device.SysSnapshot().valid_pages;
  ASSERT_TRUE(f.fs.ReclassifyFile(id.value(), f.degradable).ok());
  EXPECT_EQ(PlacementOf(f.fs, id.value()), f.degradable);
  EXPECT_LT(f.device.SysSnapshot().valid_pages, sys_before);
  EXPECT_GT(f.device.SpareSnapshot().valid_pages, 0u);
  // Content survives the migration.
  auto read = f.fs.ReadFile(id.value());
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read.value().crc_ok);
}

TEST(FileSystemTest, ScanFilesSeesAll) {
  FsFixture f;
  std::vector<uint64_t> created;
  for (int i = 0; i < 5; ++i) {
    auto id = f.fs.CreateFile(PhotoMeta(512), Content(512, 1), f.critical);
    ASSERT_TRUE(id.ok());
    created.push_back(id.value());
  }
  const std::vector<const FileMeta*> metas = f.fs.ScanFiles();
  ASSERT_EQ(metas.size(), 5u);
  std::vector<uint64_t> walked;
  f.fs.ForEachFile([&](const FileView& file) {
    EXPECT_EQ(file.meta.file_id, file.id);
    EXPECT_EQ(&file.meta, metas[walked.size()]);
    EXPECT_EQ(file.placement, f.critical);
    EXPECT_EQ(file.extents.size(), 1u);
    walked.push_back(file.id);
  });
  EXPECT_EQ(walked, created);  // every file, ascending id order
}

// --- Degraded reads at the device boundary ----------------------------------

// SPARE (approximate storage, paper-default no ECC): aged data is served
// degraded-but-flagged. A read that returns different bytes than were
// written MUST carry degraded=true -- silent corruption is the one outcome
// the SPARE contract forbids.
TEST(SosDeviceDegradedReadTest, SpareServesAgedDataDegradedButFlagged) {
  SosDeviceConfig config = SmallDevice();
  config.spare_ecc = EccPreset::kNone;  // the real paper configuration
  SimClock clock;
  SosDevice device(config, &clock);
  const uint32_t page = device.block_size();
  const PlacementHandle degradable = device.OpenPlacement({Durability::kDegradable}).value();
  constexpr uint64_t kLbas = 10;
  for (uint64_t lba = 0; lba < kLbas; ++lba) {
    ASSERT_TRUE(device.Write(lba, Content(page, static_cast<uint8_t>(lba)), degradable).ok());
  }
  clock.Advance(YearsToUs(3.0));
  uint64_t degraded = 0;
  for (uint64_t lba = 0; lba < kLbas; ++lba) {
    SCOPED_TRACE("lba " + std::to_string(lba));
    auto read = device.Read(lba);
    ASSERT_TRUE(read.ok());  // approximate storage never refuses a read
    const bool wrong = read.value().data != Content(page, static_cast<uint8_t>(lba));
    if (wrong) {
      EXPECT_TRUE(read.value().degraded) << "silently corrupted SPARE read";
    }
    degraded += read.value().degraded ? 1u : 0u;
  }
  EXPECT_GT(degraded, 0u) << "aging produced no corruption; tune the test";
}

// Injects device-read failures: the first `fail_count` reads fail with
// `code`, everything else proceeds. Deterministic stand-in for a flaky bus
// (kUnavailable) or a dead die (kWornOut).
class FailingReadHook final : public NandFaultHook {
 public:
  FailingReadHook(uint64_t fail_count, StatusCode code) : remaining_(fail_count), code_(code) {}
  NandFaultAction OnNandOp(NandOpKind op, uint32_t, uint32_t) override {
    if (op == NandOpKind::kRead && remaining_ > 0) {
      --remaining_;
      return NandFaultAction::Fail(code_, "injected read fault");
    }
    return NandFaultAction::None();
  }

 private:
  uint64_t remaining_;
  StatusCode code_;
};

// SYS (strict fidelity): a host read either recovers the exact bytes or
// fails loudly -- in neither case do wrong bytes cross the host boundary.
// A transient device fault is absorbed by the FTL's deterministic retry;
// a permanent one surfaces as an error, not as corruption.
TEST(SosDeviceDegradedReadTest, SysRecoversExactlyOrErrorsLoudly) {
  SimClock clock;
  SosDevice device(SmallDevice(), &clock);
  const uint32_t page = device.block_size();
  ASSERT_TRUE(
      device.Write(3, Content(page, 3), device.OpenPlacement({Durability::kCritical}).value())
          .ok());

  // Transient: the single failed device read is retried and served exactly.
  FailingReadHook flaky(1, StatusCode::kUnavailable);
  device.ftl().nand().SetFaultHook(&flaky);
  auto read = device.Read(3);
  device.ftl().nand().SetFaultHook(nullptr);
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read.value().degraded);
  EXPECT_EQ(read.value().data, Content(page, 3));

  // Permanent (worn-out die): every attempt fails; the host sees a loud
  // error and the strict pool records no degraded delivery.
  FailingReadHook dead(~0ull, StatusCode::kWornOut);
  device.ftl().nand().SetFaultHook(&dead);
  auto dead_read = device.Read(3);
  device.ftl().nand().SetFaultHook(nullptr);
  ASSERT_FALSE(dead_read.ok());
  EXPECT_EQ(dead_read.status().code(), StatusCode::kWornOut);
  EXPECT_EQ(device.ftl().stats().degraded_reads(), 0u);

  // The device itself is healthy again once the fault clears.
  auto healthy = device.Read(3);
  ASSERT_TRUE(healthy.ok());
  EXPECT_EQ(healthy.value().data, Content(page, 3));
}

// --- Workload generator ----------------------------------------------------

TEST(WorkloadTest, DeterministicForSeed) {
  MobileWorkloadConfig config;
  config.seed = 11;
  MobileWorkloadGenerator a(config);
  MobileWorkloadGenerator b(config);
  for (uint64_t day = 0; day < 5; ++day) {
    const auto ea = a.Day(day);
    const auto eb = b.Day(day);
    ASSERT_EQ(ea.size(), eb.size()) << "day " << day;
    for (size_t i = 0; i < ea.size(); ++i) {
      EXPECT_EQ(ea[i].at, eb[i].at);
      EXPECT_EQ(static_cast<int>(ea[i].op), static_cast<int>(eb[i].op));
      EXPECT_EQ(ea[i].file_ref, eb[i].file_ref);
    }
  }
}

TEST(WorkloadTest, EventsSortedWithinDay) {
  MobileWorkloadConfig config;
  config.seed = 12;
  MobileWorkloadGenerator gen(config);
  for (uint64_t day = 0; day < 10; ++day) {
    const auto events = gen.Day(day);
    const SimTimeUs day_start = day * kUsPerDay;
    SimTimeUs prev = day_start;
    for (const auto& ev : events) {
      EXPECT_GE(ev.at, prev);
      EXPECT_LT(ev.at, day_start + kUsPerDay);
      prev = ev.at;
    }
  }
}

TEST(WorkloadTest, ReadsReferenceLiveFiles) {
  MobileWorkloadConfig config;
  config.seed = 13;
  MobileWorkloadGenerator gen(config);
  std::set<uint64_t> live;
  for (uint64_t day = 0; day < 20; ++day) {
    for (const auto& ev : gen.Day(day)) {
      switch (ev.op) {
        case WorkloadOp::kCreate:
          EXPECT_TRUE(live.insert(ev.file_ref).second);
          break;
        case WorkloadOp::kRead:
        case WorkloadOp::kUpdate:
          EXPECT_TRUE(live.contains(ev.file_ref)) << "day " << day;
          break;
        case WorkloadOp::kDelete:
          EXPECT_EQ(live.erase(ev.file_ref), 1u);
          break;
      }
    }
  }
  EXPECT_EQ(gen.live_files(), live.size());
}

TEST(WorkloadTest, MediaHeavyMix) {
  MobileWorkloadConfig config;
  config.seed = 14;
  MobileWorkloadGenerator gen(config);
  uint64_t media_bytes = 0;
  uint64_t total_bytes = 0;
  for (uint64_t day = 0; day < 60; ++day) {
    for (const auto& ev : gen.Day(day)) {
      if (ev.op != WorkloadOp::kCreate) {
        continue;
      }
      total_bytes += ev.meta.size_bytes;
      if (ev.meta.type == FileType::kPhoto || ev.meta.type == FileType::kVideo ||
          ev.meta.type == FileType::kAudio) {
        media_bytes += ev.meta.size_bytes;
      }
    }
  }
  ASSERT_GT(total_bytes, 0u);
  // Paper [66-68]: media dominates personal storage bytes.
  EXPECT_GT(static_cast<double>(media_bytes) / static_cast<double>(total_bytes), 0.5);
}

TEST(WorkloadTest, IntensityScalesWrites) {
  MobileWorkloadConfig light;
  light.seed = 15;
  MobileWorkloadConfig heavy = light;
  heavy.intensity = 4.0;
  MobileWorkloadGenerator gl(light);
  MobileWorkloadGenerator gh(heavy);
  uint64_t creates_light = 0;
  uint64_t creates_heavy = 0;
  for (uint64_t day = 0; day < 30; ++day) {
    for (const auto& ev : gl.Day(day)) {
      creates_light += ev.op == WorkloadOp::kCreate ? 1 : 0;
    }
    for (const auto& ev : gh.Day(day)) {
      creates_heavy += ev.op == WorkloadOp::kCreate ? 1 : 0;
    }
  }
  EXPECT_GT(creates_heavy, creates_light * 2);
}

// The ref contract LifetimeSim indexes by: creates mint refs 1, 2, 3... in
// order, a ref is never reused, and no event names a ref not yet minted.
TEST(WorkloadTest, CreateRefsAreDenseAndNeverReused) {
  MobileWorkloadConfig mobile;
  mobile.seed = 18;
  FlashCacheWorkloadConfig cache;
  cache.seed = 18;
  MobileWorkloadGenerator mobile_gen(mobile);
  FlashCacheWorkloadGenerator cache_gen(cache);
  for (WorkloadGenerator* gen : std::vector<WorkloadGenerator*>{&mobile_gen, &cache_gen}) {
    std::set<uint64_t> minted;
    uint64_t creates = 0;
    for (uint64_t day = 0; day < 60; ++day) {
      const std::vector<WorkloadEvent> events = gen->Day(day);
      for (const WorkloadEvent& ev : events) {
        if (ev.op == WorkloadOp::kCreate) {
          ++creates;
          EXPECT_TRUE(minted.insert(ev.file_ref).second) << "ref " << ev.file_ref << " reused";
        }
      }
      // Within a day events are time-sorted, so refs need not appear in
      // order, but the day's creates are exactly the next refs.
      ASSERT_EQ(minted.size(), creates);
      ASSERT_TRUE(minted.empty() || (*minted.begin() == 1 && *minted.rbegin() == creates))
          << "day " << day;
      for (const WorkloadEvent& ev : events) {
        EXPECT_GE(ev.file_ref, 1u);
        EXPECT_LE(ev.file_ref, creates) << "day " << day;
      }
    }
    EXPECT_GT(creates, 100u);
  }
}

TEST(WorkloadTest, DropRefRemovesFromLiveSet) {
  MobileWorkloadConfig config;
  config.seed = 16;
  MobileWorkloadGenerator gen(config);
  const auto events = gen.Day(0);
  const size_t live_before = gen.live_files();
  ASSERT_GT(live_before, 0u);
  for (const auto& ev : events) {
    if (ev.op == WorkloadOp::kCreate) {
      gen.DropRef(ev.file_ref);
      break;
    }
  }
  EXPECT_EQ(gen.live_files(), live_before - 1);
}

TEST(WorkloadTest, TraceRoundtrip) {
  MobileWorkloadConfig config;
  config.seed = 17;
  MobileWorkloadGenerator gen(config);
  std::vector<WorkloadEvent> events;
  for (uint64_t day = 0; day < 3; ++day) {
    auto day_events = gen.Day(day);
    events.insert(events.end(), day_events.begin(), day_events.end());
  }
  const std::string text = SerializeTrace(events);
  const auto parsed = ParseTrace(text);
  ASSERT_EQ(parsed.size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(parsed[i].at, events[i].at);
    EXPECT_EQ(static_cast<int>(parsed[i].op), static_cast<int>(events[i].op));
    EXPECT_EQ(parsed[i].file_ref, events[i].file_ref);
    if (events[i].op == WorkloadOp::kCreate) {
      EXPECT_EQ(parsed[i].meta.type, events[i].meta.type);
      EXPECT_EQ(parsed[i].meta.size_bytes, events[i].meta.size_bytes);
      EXPECT_EQ(parsed[i].meta.path, events[i].meta.path);
      EXPECT_EQ(parsed[i].meta.true_priority, events[i].meta.true_priority);
    }
  }
}

TEST(WorkloadTest, ParseSkipsMalformedLines) {
  const auto events = ParseTrace("garbage line\nR 100 1\nX 1 2\n");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].file_ref, 1u);
}

}  // namespace
}  // namespace sos
