// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Tests for src/fault: the CLI fault-spec grammar, bit-identical injector
// replay, the power-cut recovery verifier's determinism contract (serial
// sweep == parallel sweep, byte for byte), golden recovery counters for two
// fixed seeds (same convention as determinism_test.cc: drift here means the
// fault schedule or recovery path moved), and SosDevice remount semantics
// after a simulated power cut.

#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include "src/common/rng.h"
#include "src/common/sim_clock.h"
#include "src/common/status.h"
#include "src/fault/fault.h"
#include "src/fault/recovery_verifier.h"
#include "src/sos/sos_device.h"
#include "tests/oracle/probes.h"

namespace sos {
namespace {

// --- Fault-spec grammar ------------------------------------------------------

TEST(FaultSpecTest, ParsesEveryGrammarForm) {
  struct Case {
    const char* text;
    FaultSpec want;
  };
  const Case kCases[] = {
      {"power_cut@1000", {FaultKind::kPowerCut, 1000}},
      {"die_fail@2,d3", {FaultKind::kDieFail, 2, 3}},
      {"plane_fail@64,p1/4", {FaultKind::kPlaneFail, 64, 0, 0, 1, 4}},
      {"block_stuck@50,b7", {FaultKind::kBlockStuck, 50, 0, 7}},
      {"program_fail@1", {FaultKind::kProgramFailTransient, 1}},
      {"erase_fail@9", {FaultKind::kEraseFailTransient, 9}},
      {"read_fail@33", {FaultKind::kReadFailTransient, 33}},
      // The largest op index: 20 digits, still in range.
      {"power_cut@18446744073709551615", {FaultKind::kPowerCut, UINT64_MAX}},
      // The largest die and block indices: 2^32 - 1.
      {"die_fail@1,d4294967295", {FaultKind::kDieFail, 1, UINT32_MAX}},
      {"block_stuck@5,b4294967295", {FaultKind::kBlockStuck, 5, 0, UINT32_MAX}},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.text);
    const Result<FaultSpec> parsed = ParseFaultSpec(c.text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().message();
    EXPECT_EQ(parsed.value(), c.want);
  }
}

TEST(FaultSpecTest, RejectsMalformedSpecsWithHardErrors) {
  const char* kBad[] = {
      "",                   // empty
      "power_cut",          // no @N
      "power_cut@",         // empty op index
      "power_cut@12junk",   // trailing garbage in the number
      "bogus@@1",           // double separator
      "warp_core@5",        // unknown kind
      "die_fail@2,x3",      // unknown qualifier letter
      "plane_fail@64,p1",   // plane_fail without /M interleave
      "block_stuck@50",     // block_stuck requires ,bB
      "power_cut@18446744073709551616",  // op index above 2^64 - 1
      "power_cut@+5",       // sign prefix
      "block_stuck@50,b",   // empty block index
      // Die, block and plane indices are 32-bit: 2^32 must not wrap to 0.
      "die_fail@1,d4294967296",
      "block_stuck@5,b4294967296",
      "plane_fail@1,p4294967296/4294967297",
  };
  for (const char* text : kBad) {
    SCOPED_TRACE(std::string("'") + text + "'");
    const Result<FaultSpec> parsed = ParseFaultSpec(text);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    // The message must name the offending spec so a CLI user can find it
    // among several repeated --fault flags.
    if (text[0] != '\0') {
      EXPECT_NE(parsed.status().message().find(text), std::string::npos)
          << parsed.status().message();
    }
  }
}

// --- Injector determinism ----------------------------------------------------

// Two injectors built from the same plan must make identical decisions for an
// identical op stream -- including the seed-derived before/after coin of each
// periodic power cut. This is the replayability contract fault.h promises.
TEST(FaultInjectorTest, IdenticalPlansReplayBitIdentically) {
  FaultPlan plan;
  plan.seed = 7;
  plan.power_cut_period = 50;
  plan.specs.push_back({FaultKind::kProgramFailTransient, 123});
  plan.specs.push_back({FaultKind::kBlockStuck, 200, 0, 5});
  plan.specs.push_back({FaultKind::kReadFailTransient, 321});

  FaultInjector a(plan);
  FaultInjector b(plan);
  for (uint64_t i = 0; i < 600; ++i) {
    const NandOpKind op = i % 3 == 0   ? NandOpKind::kProgram
                          : i % 3 == 1 ? NandOpKind::kRead
                                       : NandOpKind::kErase;
    const uint32_t block = static_cast<uint32_t>(i % 32);
    const NandFaultAction act_a = a.OnNandOp(op, block, 0);
    const NandFaultAction act_b = b.OnNandOp(op, block, 0);
    ASSERT_EQ(act_a.kind, act_b.kind) << "op " << i;
    ASSERT_EQ(act_a.code, act_b.code) << "op " << i;
    ASSERT_EQ(act_a.after_op, act_b.after_op) << "op " << i;
  }
  EXPECT_EQ(a.ops_observed(), b.ops_observed());
  EXPECT_EQ(a.injected_total(), b.injected_total());
  // Periodic cuts fire at positive multiples of the period; op indices run
  // 0..599, so 50,100,...,550 = 11 cuts (index 600 is never reached).
  EXPECT_EQ(a.injected(FaultKind::kPowerCut), 11u);
  EXPECT_EQ(a.injected(FaultKind::kProgramFailTransient), 1u);
  EXPECT_EQ(a.injected(FaultKind::kReadFailTransient), 1u);
  // The stuck block keeps failing programs/erases after activation.
  EXPECT_GT(a.injected(FaultKind::kBlockStuck), 1u);
}

// --- Verifier determinism ----------------------------------------------------

VerifierConfig QuickVerifierConfig() {
  VerifierConfig config;
  config.total_ops = 1500;
  config.cut_period = 250;
  return config;
}

// The sweep's rendered report and every per-seed metrics snapshot must be
// identical whether the seeds ran on one thread or four: thread scheduling
// must not leak into verification results (the PR-1 contract, extended to
// faulted runs).
TEST(FaultVerifierTest, SweepReportAndMetricsAreScheduleInvariant) {
  const VerifierConfig config = QuickVerifierConfig();
  const std::vector<uint64_t> seeds = {1, 2, 3, 4};
  const std::vector<VerifierResult> serial = RunRecoveryVerifierSweep(config, seeds, 1);
  const std::vector<VerifierResult> parallel = RunRecoveryVerifierSweep(config, seeds, 4);
  ASSERT_EQ(serial.size(), seeds.size());
  ASSERT_EQ(parallel.size(), seeds.size());

  const std::string serial_report = RenderVerifierReport(config, serial);
  EXPECT_EQ(serial_report, RenderVerifierReport(config, parallel));
  // Not vacuous: the report carries per-seed rows and an aggregate verdict.
  EXPECT_NE(serial_report.find("seed"), std::string::npos);
  EXPECT_NE(serial_report.find("PASS"), std::string::npos);

  for (size_t i = 0; i < seeds.size(); ++i) {
    SCOPED_TRACE("seed " + std::to_string(seeds[i]));
    EXPECT_EQ(serial[i].seed, seeds[i]);  // seed order, not completion order
    EXPECT_EQ(parallel[i].seed, seeds[i]);
    EXPECT_TRUE(serial[i].ok);
    EXPECT_EQ(serial[i].power_cuts, parallel[i].power_cuts);
    EXPECT_EQ(serial[i].replayed_pages, parallel[i].replayed_pages);
    EXPECT_EQ(serial[i].orphans_reclaimed, parallel[i].orphans_reclaimed);
    EXPECT_EQ(serial[i].sys_loss, parallel[i].sys_loss);
    EXPECT_TRUE(serial[i].metrics == parallel[i].metrics);  // every row, every field
  }
  // Different seeds must actually produce different fault landings.
  EXPECT_NE(serial[0].replayed_pages, serial[1].replayed_pages);
}

// Golden recovery counters for two fixed seeds (determinism_test.cc
// convention). The printf emits the actual values in golden-initializer form
// so an intentional model change can update this table from the test log.
// Any unexplained change means the fault schedule, the OOB metadata, or the
// recovery scan moved -- all are part of the reproduction contract.
struct RecoveryGolden {
  uint64_t seed;
  uint64_t power_cuts;
  uint64_t replayed_pages;
  uint64_t orphans_reclaimed;
  uint64_t torn_writes_committed;
  uint64_t torn_writes_rolled_back;
  uint64_t trim_resurrections;
  uint64_t sys_loss;
  uint64_t invariant_failures;
};

TEST(FaultVerifierTest, GoldenRecoveryCountersForFixedSeeds) {
  const RecoveryGolden kGoldens[] = {
      {2, 6, 864, 1163, 2, 3, 30, 0, 0},
      {7, 6, 873, 1230, 2, 3, 40, 0, 0},
  };
  for (const RecoveryGolden& golden : kGoldens) {
    SCOPED_TRACE("seed " + std::to_string(golden.seed));
    VerifierConfig config = QuickVerifierConfig();
    config.seed = golden.seed;
    const Result<VerifierResult> run = RunRecoveryVerifier(config);
    ASSERT_TRUE(run.ok()) << run.status().message();
    const VerifierResult& r = run.value();
    std::printf("recovery_golden{seed=%llu}: {%llu, %llu, %llu, %llu, %llu, %llu, %llu, %llu, %llu}\n",
                static_cast<unsigned long long>(golden.seed),
                static_cast<unsigned long long>(r.seed),
                static_cast<unsigned long long>(r.power_cuts),
                static_cast<unsigned long long>(r.replayed_pages),
                static_cast<unsigned long long>(r.orphans_reclaimed),
                static_cast<unsigned long long>(r.torn_writes_committed),
                static_cast<unsigned long long>(r.torn_writes_rolled_back),
                static_cast<unsigned long long>(r.trim_resurrections),
                static_cast<unsigned long long>(r.sys_loss),
                static_cast<unsigned long long>(r.invariant_failures));
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.power_cuts, golden.power_cuts);
    EXPECT_EQ(r.replayed_pages, golden.replayed_pages);
    EXPECT_EQ(r.orphans_reclaimed, golden.orphans_reclaimed);
    EXPECT_EQ(r.torn_writes_committed, golden.torn_writes_committed);
    EXPECT_EQ(r.torn_writes_rolled_back, golden.torn_writes_rolled_back);
    EXPECT_EQ(r.trim_resurrections, golden.trim_resurrections);
    EXPECT_EQ(r.sys_loss, golden.sys_loss);
    EXPECT_EQ(r.invariant_failures, golden.invariant_failures);
  }
}

// --- SosDevice remount -------------------------------------------------------

SosDeviceConfig SmallSosConfig() {
  SosDeviceConfig config;
  config.nand.num_blocks = 32;
  config.nand.wordlines_per_block = 4;
  config.nand.page_size_bytes = 512;
  config.nand.store_payloads = true;
  config.nand.seed = 3;
  config.sys_parity_stripe = 8;
  return config;
}

std::vector<uint8_t> Payload(uint64_t lba, uint32_t size) {
  std::vector<uint8_t> data(size);
  for (uint32_t i = 0; i < size; ++i) {
    data[i] = static_cast<uint8_t>((lba * 131 + i * 31) & 0xFF);
  }
  return data;
}

TEST(SosDeviceRecoveryTest, RemountAfterPowerCutServesAckedSysData) {
  SimClock clock;
  SosDevice dev(SmallSosConfig(), &clock);
  const uint32_t page = dev.block_size();
  const PlacementHandle critical = dev.OpenPlacement({Durability::kCritical}).value();

  constexpr uint64_t kLbas = 12;
  for (uint64_t lba = 0; lba < kLbas; ++lba) {
    ASSERT_TRUE(dev.Write(lba, Payload(lba, page), critical).ok()) << "lba " << lba;
  }

  dev.ftl().nand().PowerCut();
  // Dark device: host IO must fail loudly, not hang or serve stale bytes.
  EXPECT_FALSE(dev.Read(0).ok());

  ASSERT_TRUE(dev.RecoverFromPowerLoss().ok());
  for (uint64_t lba = 0; lba < kLbas; ++lba) {
    SCOPED_TRACE("lba " + std::to_string(lba));
    const Result<BlockReadResult> read = dev.Read(lba);
    ASSERT_TRUE(read.ok());
    EXPECT_FALSE(read.value().degraded);
    EXPECT_EQ(read.value().data, Payload(lba, page));
  }
  // Pool introspection (and with it the SOS daemons' health collection) is
  // live again after the remount: the recovered SYS pool accounts for the
  // written pages, and the capacity math still adds up.
  EXPECT_GE(dev.SysSnapshot().valid_pages, kLbas);
  uint64_t valid_pages = 0;
  for (uint32_t pool = 0; pool < dev.ftl().num_pools(); ++pool) {
    valid_pages += dev.ftl().Snapshot(pool).valid_pages;
  }
  EXPECT_GT(dev.ftl().ExportedPages(), valid_pages);
  EXPECT_TRUE(dev.ftl().CheckInvariants().ok());
}

TEST(SosDeviceRecoveryTest, RecoveryIsIdempotentAcrossRepeatedCuts) {
  SimClock clock;
  SosDevice dev(SmallSosConfig(), &clock);
  const uint32_t page = dev.block_size();
  const PlacementHandle critical = dev.OpenPlacement({Durability::kCritical}).value();
  const PlacementHandle degradable = dev.OpenPlacement({Durability::kDegradable}).value();
  ASSERT_TRUE(dev.Write(5, Payload(5, page), critical).ok());

  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    dev.ftl().nand().PowerCut();
    ASSERT_TRUE(dev.RecoverFromPowerLoss().ok());
    const Result<BlockReadResult> read = dev.Read(5);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read.value().data, Payload(5, page));
    // Handles stay open across remount, and the device keeps accepting
    // writes between cuts.
    ASSERT_TRUE(dev.Write(6 + static_cast<uint64_t>(round), Payload(9, page), degradable).ok());
  }
}

// Randomized mount oracle for the flat-array recovery path: a shadow map of
// every *acked* write (distinct payload per version) is the ground truth the
// rebuilt L2P is checked against after a mid-sequence power cut. The
// recovered mapping must contain every acked-live LBA with the right pool
// class and bytes, and anything extra must be a documented trim
// resurrection (DESIGN.md §10), never an invented mapping.
TEST(SosDeviceRecoveryTest, RecoveredMappingMatchesAckedWriteOracle) {
  SimClock clock;
  SosDevice dev(SmallSosConfig(), &clock);
  const uint32_t page = dev.block_size();
  const PlacementHandle critical = dev.OpenPlacement({Durability::kCritical}).value();
  const PlacementHandle degradable = dev.OpenPlacement({Durability::kDegradable}).value();
  const uint64_t kLbas = dev.ftl().ExportedPages() / 3;
  ASSERT_GT(kLbas, 8u);

  struct Acked {
    uint32_t pool;  // owning pool at ack time (classes can overflow pools)
    uint64_t version;
  };
  std::map<uint64_t, Acked> acked;     // live acked state at the cut
  std::set<uint64_t> ever_trimmed;     // resurrection candidates
  Rng rng(DeriveSeed({0xfa017u, 0x0c1eu}));

  const auto versioned = [page](uint64_t lba, uint64_t version) {
    std::vector<uint8_t> data(page);
    for (uint32_t i = 0; i < page; ++i) {
      data[i] = static_cast<uint8_t>((lba * 131 + version * 17 + i * 31) & 0xFF);
    }
    return data;
  };

  for (uint64_t op = 0; op < 400; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    const uint64_t lba = rng.NextBounded(kLbas);
    if (rng.NextBounded(5) == 0) {  // trim
      const Status s = dev.Trim(lba);
      if (acked.erase(lba) > 0) {
        EXPECT_TRUE(s.ok()) << s.ToString();
        ever_trimmed.insert(lba);
      } else {
        EXPECT_EQ(s.code(), StatusCode::kNotFound);
      }
    } else {  // write / overwrite
      const PlacementHandle handle = rng.NextBool(0.5) ? critical : degradable;
      const Status s = dev.Write(lba, versioned(lba, op), handle);
      ASSERT_TRUE(s.ok() || s.code() == StatusCode::kOutOfSpace) << s.ToString();
      if (s.ok()) {
        acked[lba] = Acked{PoolsByLba(dev.ftl()).at(lba), op};
        ever_trimmed.erase(lba);
      }
    }
  }
  ASSERT_GT(acked.size(), 4u);

  // Lights out mid-workload: the device must fail loudly until remount.
  dev.ftl().nand().PowerCut();
  EXPECT_FALSE(dev.Read(acked.begin()->first).ok());
  EXPECT_EQ(dev.Write(0, versioned(0, 9999), critical).code(),
            StatusCode::kPowerLost);

  ASSERT_TRUE(dev.RecoverFromPowerLoss().ok());
  ASSERT_TRUE(dev.ftl().CheckInvariants().ok());
  const std::map<uint64_t, uint32_t> recovered_pools = PoolsByLba(dev.ftl());

  // Every acked-live LBA is mapped in the pool the write was acked into,
  // and an intact read returns the last acked bytes.
  for (const auto& [lba, want] : acked) {
    SCOPED_TRACE("acked lba " + std::to_string(lba));
    ASSERT_TRUE(dev.ftl().IsMapped(lba));
    EXPECT_EQ(recovered_pools.at(lba), want.pool);
    const Result<BlockReadResult> read = dev.Read(lba);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    if (!read.value().degraded && read.value().residual_bit_errors == 0) {
      EXPECT_EQ(read.value().data, versioned(lba, want.version));
    }
  }
  // Nothing materializes out of thin air: recovered ⊆ acked ∪ trimmed.
  for (uint64_t lba = 0; lba < kLbas; ++lba) {
    if (dev.ftl().IsMapped(lba) && acked.count(lba) == 0) {
      EXPECT_TRUE(ever_trimmed.count(lba) > 0)
          << "lba " << lba << " resurrected without ever being trimmed";
    }
  }
}

}  // namespace
}  // namespace sos
