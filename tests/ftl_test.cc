// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Tests for the FTL: mapping, GC, write amplification, wear leveling on/off,
// parity rescue, retirement/capacity variance, resuscitation, migration.

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/flash/fault_hook.h"
#include "src/flash/voltage_model.h"
#include "src/ftl/ftl.h"
#include "tests/oracle/probes.h"

namespace sos {
namespace {

NandConfig TestNand(uint32_t blocks = 16, CellTech tech = CellTech::kPlc) {
  NandConfig nand;
  nand.num_blocks = blocks;
  nand.wordlines_per_block = 4;
  nand.page_size_bytes = 512;
  nand.tech = tech;
  nand.seed = 5;
  nand.store_payloads = true;
  return nand;
}

FtlConfig SinglePool(uint32_t blocks = 16, CellTech mode = CellTech::kPlc,
                     EccPreset ecc = EccPreset::kBch) {
  FtlConfig config;
  config.nand = TestNand(blocks, CellTech::kPlc);
  FtlPoolConfig pool;
  pool.name = "MAIN";
  pool.mode = mode;
  pool.ecc = EccScheme::FromPreset(ecc);
  if (ecc == EccPreset::kNone) {
    pool.retire_rber = 2e-3;
  }
  config.pools = {pool};
  return config;
}

std::vector<uint8_t> Page(uint8_t fill) { return std::vector<uint8_t>(512, fill); }

TEST(FtlTest, WriteReadRoundtrip) {
  SimClock clock;
  Ftl ftl(SinglePool(), &clock);
  ASSERT_TRUE(ftl.Write(7, Page(0xAB), 0).ok());
  auto read = ftl.Read(7);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().data, Page(0xAB));
  EXPECT_FALSE(read.value().degraded);
  EXPECT_EQ(read.value().residual_bit_errors, 0u);
}

TEST(FtlTest, UnmappedReadsFail) {
  SimClock clock;
  Ftl ftl(SinglePool(), &clock);
  EXPECT_EQ(ftl.Read(1).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(ftl.Trim(1).code(), StatusCode::kNotFound);
  EXPECT_EQ(ftl.Migrate(1, 0).code(), StatusCode::kNotFound);
}

TEST(FtlTest, OverwriteReturnsLatest) {
  SimClock clock;
  Ftl ftl(SinglePool(), &clock);
  ASSERT_TRUE(ftl.Write(3, Page(1), 0).ok());
  ASSERT_TRUE(ftl.Write(3, Page(2), 0).ok());
  ASSERT_TRUE(ftl.Write(3, Page(3), 0).ok());
  auto read = ftl.Read(3);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().data, Page(3));
  // One live mapping, three physical writes.
  EXPECT_EQ(ftl.stats().host_writes(), 3u);
  EXPECT_EQ(ftl.Snapshot(0).valid_pages, 1u);
}

TEST(FtlTest, TrimFreesMapping) {
  SimClock clock;
  Ftl ftl(SinglePool(), &clock);
  ASSERT_TRUE(ftl.Write(3, Page(1), 0).ok());
  ASSERT_TRUE(ftl.Trim(3).ok());
  EXPECT_FALSE(ftl.IsMapped(3));
  EXPECT_EQ(ftl.Read(3).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(ftl.Snapshot(0).valid_pages, 0u);
}

TEST(FtlTest, GcReclaimsOverwrittenSpace) {
  SimClock clock;
  Ftl ftl(SinglePool(), &clock);
  // Fill most of the device with cold data, then churn a hot subset: GC
  // victims then hold a mix of valid (cold) and stale (hot) pages, forcing
  // relocations of the cold data.
  const uint64_t cold = ftl.ExportedPages() * 8 / 10;
  for (uint64_t lba = 0; lba < cold; ++lba) {
    ASSERT_TRUE(ftl.Write(lba, Page(0xC0), 0).ok());
  }
  for (int round = 0; round < 60; ++round) {
    for (uint64_t lba = cold; lba < cold + 28; ++lba) {
      ASSERT_TRUE(ftl.Write(lba, Page(static_cast<uint8_t>(round)), 0).ok())
          << "round " << round << " lba " << lba;
    }
  }
  EXPECT_GT(ftl.stats().gc_erases(), 0u);
  EXPECT_GT(ftl.stats().gc_relocations(), 0u);
  // All data still readable and latest.
  for (uint64_t lba = 0; lba < cold; ++lba) {
    auto read = ftl.Read(lba);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read.value().data, Page(0xC0));
  }
  for (uint64_t lba = cold; lba < cold + 28; ++lba) {
    auto read = ftl.Read(lba);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read.value().data, Page(59));
  }
}

TEST(FtlTest, WriteAmplificationAboveOneUnderChurn) {
  SimClock clock;
  Ftl ftl(SinglePool(), &clock);
  const uint64_t working_set = ftl.ExportedPages() * 8 / 10;
  Rng rng(1);
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(ftl.Write(rng.NextBounded(working_set), Page(1), 0).ok());
  }
  EXPECT_GT(ftl.stats().WriteAmplification(), 1.0);
  EXPECT_LT(ftl.stats().WriteAmplification(), 10.0);
}

TEST(FtlTest, OutOfSpaceWhenFullOfValidData) {
  SimClock clock;
  Ftl ftl(SinglePool(), &clock);
  const uint64_t exported = ftl.ExportedPages();
  uint64_t written = 0;
  Status last = Status::Ok();
  // Write unique LBAs until the device physically refuses.
  for (uint64_t lba = 0; lba < exported * 2; ++lba) {
    last = ftl.Write(lba, Page(9), 0);
    if (!last.ok()) {
      break;
    }
    ++written;
  }
  EXPECT_EQ(last.code(), StatusCode::kOutOfSpace);
  // It accepted at least the exported capacity before refusing.
  EXPECT_GE(written, exported);
}

TEST(FtlTest, CostBenefitGcAlsoWorks) {
  SimClock clock;
  FtlConfig config = SinglePool();
  config.gc_policy = GcPolicy::kCostBenefit;
  Ftl ftl(config, &clock);
  for (int round = 0; round < 40; ++round) {
    for (uint64_t lba = 0; lba < 16; ++lba) {
      ASSERT_TRUE(ftl.Write(lba, Page(static_cast<uint8_t>(round)), 0).ok());
    }
    clock.Advance(kUsPerDay);  // age matters for cost-benefit
  }
  EXPECT_GT(ftl.stats().gc_erases(), 0u);
  for (uint64_t lba = 0; lba < 16; ++lba) {
    EXPECT_TRUE(ftl.Read(lba).ok());
  }
}

TEST(FtlTest, WearLevelingNarrowsPecSpread) {
  // Two identical devices, one with WL, one without. Workload: hot/cold
  // split -- half the LBAs never rewritten, half hammered.
  auto run = [](bool wl) {
    SimClock clock;
    FtlConfig config = SinglePool(32);
    config.pools[0].wear_leveling = wl;
    Ftl ftl(config, &clock);
    const uint64_t cold = ftl.ExportedPages() / 2;
    for (uint64_t lba = 0; lba < cold; ++lba) {
      EXPECT_TRUE(ftl.Write(lba, Page(1), 0).ok());
    }
    Rng rng(3);
    for (int i = 0; i < 6000; ++i) {
      EXPECT_TRUE(ftl.Write(cold + rng.NextBounded(8), Page(2), 0).ok());
    }
    // Spread = max PEC - min PEC across blocks.
    uint32_t min_pec = ~0u;
    uint32_t max_pec = 0;
    for (uint32_t b = 0; b < config.nand.num_blocks; ++b) {
      min_pec = std::min(min_pec, ftl.nand().block_info(b).pec);
      max_pec = std::max(max_pec, ftl.nand().block_info(b).pec);
    }
    return max_pec - min_pec;
  };
  EXPECT_LT(run(true), run(false));
}

TEST(FtlTest, WearLevelingCostsExtraWrites) {
  // The paper's rationale for disabling WL on SPARE ([73]): leveling moves
  // data, which is pure overhead writes.
  auto total_nand_writes = [](bool wl) {
    SimClock clock;
    FtlConfig config = SinglePool(32);
    config.pools[0].wear_leveling = wl;
    Ftl ftl(config, &clock);
    const uint64_t cold = ftl.ExportedPages() / 2;
    for (uint64_t lba = 0; lba < cold; ++lba) {
      EXPECT_TRUE(ftl.Write(lba, Page(1), 0).ok());
    }
    Rng rng(3);
    for (int i = 0; i < 6000; ++i) {
      EXPECT_TRUE(ftl.Write(cold + rng.NextBounded(8), Page(2), 0).ok());
    }
    return ftl.stats().nand_writes() + ftl.stats().wl_relocations();
  };
  EXPECT_LE(total_nand_writes(false), total_nand_writes(true));
}

TEST(FtlTest, ParityStripeWritesParityPages) {
  SimClock clock;
  FtlConfig config = SinglePool();
  config.pools[0].parity_stripe = 4;  // every 4th page is parity
  Ftl ftl(config, &clock);
  for (uint64_t lba = 0; lba < 30; ++lba) {
    ASSERT_TRUE(ftl.Write(lba, Page(static_cast<uint8_t>(lba)), 0).ok());
  }
  EXPECT_GT(ftl.stats().parity_writes(), 0u);
  // Parity slots shrink exported capacity: 20 pages/block -> 15 data slots.
  const FtlConfig plain = SinglePool();
  SimClock clock2;
  Ftl ftl_plain(plain, &clock2);
  EXPECT_LT(ftl.ExportedPages(), ftl_plain.ExportedPages());
  for (uint64_t lba = 0; lba < 30; ++lba) {
    auto read = ftl.Read(lba);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read.value().data, Page(static_cast<uint8_t>(lba)));
  }
}

TEST(FtlTest, ParityPageIsXorOfItsStripe) {
  // Parity oracle: every programmed parity page holds the XOR of the three
  // data pages before it in its block, each zero-padded to the page size.
  // Payload lengths vary (short ones included) and overwrites force GC, so
  // relocated pages feed stripes too.
  SimClock clock;
  FtlConfig config = SinglePool();
  config.pools[0].parity_stripe = 4;
  Ftl ftl(config, &clock);
  const uint64_t lbas = ftl.ExportedPages() / 2;
  const size_t page_bytes = config.nand.page_size_bytes;
  Rng rng(9);
  for (uint64_t i = 0; i < 4 * lbas; ++i) {
    const size_t len = i % 5 == 0 ? page_bytes : 1 + (i * 37) % page_bytes;
    std::vector<uint8_t> data(len);
    for (size_t b = 0; b < len; ++b) {
      data[b] = static_cast<uint8_t>(i * 31 + b * 7 + 1);
    }
    ASSERT_TRUE(ftl.Write(rng.NextBounded(lbas), data, 0).ok()) << "write " << i;
  }
  ASSERT_GT(ftl.stats().gc_relocations(), 0u);

  const NandDevice& nand = ftl.nand();
  uint64_t checked = 0;
  for (uint32_t block = 0; block < config.nand.num_blocks; ++block) {
    for (uint32_t page = 3; page < nand.block_info(block).next_page; page += 4) {
      std::vector<uint8_t> want(page_bytes, 0);
      for (uint32_t member = page - 3; member < page; ++member) {
        auto data = nand.PeekClean({block, member});
        ASSERT_TRUE(data.ok());
        ASSERT_EQ(data.value().size(), page_bytes);
        for (size_t b = 0; b < page_bytes; ++b) {
          want[b] = static_cast<uint8_t>(want[b] ^ data.value()[b]);
        }
      }
      auto parity = nand.PeekClean({block, page});
      ASSERT_TRUE(parity.ok());
      EXPECT_EQ(parity.value(), want) << "block " << block << " page " << page;
      ++checked;
    }
  }
  EXPECT_GE(checked, 10u);
}

TEST(FtlTest, ParityRescuesFailedPage) {
  // Use a weak ECC + aged PLC so single-page ECC failures happen, with
  // parity stripes to catch them. Statistical test: rescued reads must
  // appear and rescued data must be pristine.
  SimClock clock;
  FtlConfig config = SinglePool(16, CellTech::kPlc, EccPreset::kWeakBch);
  config.pools[0].parity_stripe = 4;
  config.pools[0].nominal_retention_years = 5.0;  // don't retire in this test
  config.pools[0].retire_rber = 0.4;
  Ftl ftl(config, &clock);
  for (uint64_t lba = 0; lba < 80; ++lba) {
    ASSERT_TRUE(ftl.Write(lba, Page(static_cast<uint8_t>(lba)), 0).ok());
  }
  // Age deep into the weak-ECC failure regime: at ~7 years of PLC retention
  // the per-page failure probability is a few percent -- enough failures to
  // exercise rescue, few enough that stripe members usually survive.
  clock.Advance(YearsToUs(7.0));
  uint64_t rescued = 0;
  uint64_t degraded = 0;
  for (uint64_t lba = 0; lba < 80; ++lba) {
    const uint64_t rescues_before = ftl.stats().parity_rescues();
    auto read = ftl.Read(lba);
    ASSERT_TRUE(read.ok());
    if (ftl.stats().parity_rescues() > rescues_before) {
      ++rescued;
      EXPECT_EQ(read.value().data, Page(static_cast<uint8_t>(lba)));
    }
    if (read.value().degraded) {
      ++degraded;
    }
  }
  EXPECT_GT(rescued + degraded, 0u) << "aging produced no ECC failures; tune the test";
  EXPECT_GT(rescued, 0u);
  EXPECT_EQ(ftl.stats().parity_rescues(), rescued);
}

TEST(FtlTest, NoEccPoolDeliversDegradedBytes) {
  SimClock clock;
  Ftl ftl(SinglePool(16, CellTech::kPlc, EccPreset::kNone), &clock);
  for (uint64_t lba = 0; lba < 10; ++lba) {
    ASSERT_TRUE(ftl.Write(lba, Page(0xCD), 0).ok());
  }
  clock.Advance(YearsToUs(3.0));
  uint64_t degraded = 0;
  for (uint64_t lba = 0; lba < 10; ++lba) {
    auto read = ftl.Read(lba);
    ASSERT_TRUE(read.ok());
    if (read.value().degraded) {
      ++degraded;
      EXPECT_NE(read.value().data, Page(0xCD));
      EXPECT_GT(read.value().residual_bit_errors, 0u);
    }
  }
  EXPECT_GT(degraded, 0u);
}

// The strict-fidelity contract (paper's SYS pool): a host read either returns
// exactly the written bytes or fails loudly with kDataLoss -- corrupted bytes
// must never cross the host boundary unflagged. Same aging as
// NoEccPoolDeliversDegradedBytes, so corruption definitely occurs.
TEST(FtlTest, StrictFidelityPoolErrorsLoudlyInsteadOfServingCorruption) {
  SimClock clock;
  FtlConfig config = SinglePool(16, CellTech::kPlc, EccPreset::kNone);
  config.pools[0].strict_fidelity = true;
  Ftl ftl(config, &clock);
  for (uint64_t lba = 0; lba < 10; ++lba) {
    ASSERT_TRUE(ftl.Write(lba, Page(0xCD), 0).ok());
  }
  clock.Advance(YearsToUs(3.0));
  uint64_t loud_failures = 0;
  for (uint64_t lba = 0; lba < 10; ++lba) {
    auto read = ftl.Read(lba);
    if (!read.ok()) {
      EXPECT_EQ(read.status().code(), StatusCode::kDataLoss);
      ++loud_failures;
      continue;
    }
    EXPECT_FALSE(read.value().degraded);
    EXPECT_EQ(read.value().data, Page(0xCD));
  }
  EXPECT_GT(loud_failures, 0u);
  EXPECT_EQ(ftl.stats().degraded_reads(), 0u);
}

// READ RETRY on a strict pool: drift-tracking re-reads recover pages the
// first measurement could not decode, shrinking the loud-failure count
// without ever serving wrong bytes.
TEST(FtlTest, ReadRetriesRecoverStrictPoolFailures) {
  auto run = [](uint32_t retries) {
    SimClock clock;
    FtlConfig config = SinglePool(16, CellTech::kPlc, EccPreset::kWeakBch);
    config.pools[0].strict_fidelity = true;
    config.pools[0].read_retries = retries;
    config.pools[0].nominal_retention_years = 5.0;  // don't retire mid-test
    config.pools[0].retire_rber = 0.4;
    Ftl ftl(config, &clock);
    for (uint64_t lba = 0; lba < 80; ++lba) {
      EXPECT_TRUE(ftl.Write(lba, Page(static_cast<uint8_t>(lba)), 0).ok());
    }
    clock.Advance(YearsToUs(7.0));
    uint64_t loud = 0;
    for (uint64_t lba = 0; lba < 80; ++lba) {
      auto read = ftl.Read(lba);
      if (!read.ok()) {
        EXPECT_EQ(read.status().code(), StatusCode::kDataLoss);
        ++loud;
        continue;
      }
      EXPECT_EQ(read.value().data, Page(static_cast<uint8_t>(lba)));
    }
    EXPECT_GT(ftl.stats().ecc_failures(), 0u) << "aging produced no ECC failures; tune the test";
    return std::pair<uint64_t, uint64_t>(loud, ftl.stats().retry_recoveries());
  };
  const auto [loud_without, recoveries_without] = run(0);
  const auto [loud_with, recoveries_with] = run(3);
  EXPECT_EQ(recoveries_without, 0u);
  EXPECT_GT(recoveries_with, 0u);
  EXPECT_LT(loud_with, loud_without);
}

TEST(FtlTest, RetirementShrinksCapacityAndNotifies) {
  SimClock clock;
  FtlConfig config = SinglePool(8, CellTech::kPlc, EccPreset::kNone);
  config.pools[0].retire_rber = 1e-4;  // tight bound: retire quickly
  config.pools[0].min_live_blocks = 1;
  Ftl ftl(config, &clock);
  uint64_t last_capacity = ftl.ExportedPages();
  int notifications = 0;
  ftl.SetCapacityListener([&](uint64_t pages) {
    EXPECT_LT(pages, last_capacity);
    last_capacity = pages;
    ++notifications;
  });
  // Churn a tiny working set; blocks cycle until they retire.
  Rng rng(4);
  for (int i = 0; i < 20000; ++i) {
    if (!ftl.Write(rng.NextBounded(10), Page(1), 0).ok()) {
      break;
    }
  }
  EXPECT_GT(ftl.stats().retired_blocks(), 0u);
  EXPECT_GT(notifications, 0);
  EXPECT_LT(ftl.ExportedPages(), ftl.Snapshot(0).exported_pages + last_capacity);
}

TEST(FtlTest, ResuscitationMovesWornBlocksToSparserPool) {
  SimClock clock;
  FtlConfig config;
  config.nand = TestNand(8, CellTech::kPlc);
  FtlPoolConfig main;
  main.name = "MAIN";
  main.mode = CellTech::kPlc;
  main.ecc = EccScheme::FromPreset(EccPreset::kNone);
  main.retire_rber = 1e-4;
  main.share = 1.0;
  main.wear_leveling = false;
  main.min_live_blocks = 1;
  main.resuscitate_into = "SECOND";
  FtlPoolConfig second;
  second.name = "SECOND";
  second.mode = CellTech::kTlc;  // sparser rebirth
  second.ecc = EccScheme::FromPreset(EccPreset::kNone);
  second.retire_rber = 2e-3;
  second.share = 0.0;
  second.min_live_blocks = 1;
  config.pools = {main, second};
  Ftl ftl(config, &clock);
  const uint32_t second_id = ftl.PoolIdByName("SECOND");
  EXPECT_EQ(ftl.Snapshot(second_id).total_blocks, 0u);
  Rng rng(5);
  for (int i = 0; i < 30000; ++i) {
    if (!ftl.Write(rng.NextBounded(10), Page(1), 0).ok()) {
      break;
    }
  }
  EXPECT_GT(ftl.stats().retired_blocks(), 0u);
  EXPECT_GT(ftl.stats().resuscitated_blocks(), 0u);
  EXPECT_GT(ftl.Snapshot(second_id).total_blocks, 0u);
  ASSERT_TRUE(ftl.CheckInvariants().ok()) << ftl.CheckInvariants().ToString();
  // Resuscitated blocks are writable through the second pool.
  EXPECT_TRUE(ftl.Write(1000, Page(7), second_id).ok());
  auto read = ftl.Read(1000);
  ASSERT_TRUE(read.ok());

  // The block label alone carries pool membership: a remount rebuilds every
  // pool's blocks and pages, those reborn in the sparser mode included.
  struct PoolCounts {
    uint32_t total_blocks;
    uint32_t free_blocks;
    uint32_t retired_blocks;
    uint64_t valid_pages;
    bool operator==(const PoolCounts&) const = default;
  };
  auto counts = [&ftl] {
    std::vector<PoolCounts> all;
    for (uint32_t pool = 0; pool < ftl.num_pools(); ++pool) {
      const PoolSnapshot snap = ftl.Snapshot(pool);
      all.push_back({snap.total_blocks, snap.free_blocks, snap.retired_blocks, snap.valid_pages});
    }
    return all;
  };
  const std::vector<PoolCounts> before = counts();
  const std::map<uint64_t, uint32_t> pools_before = PoolsByLba(ftl);
  ASSERT_GT(pools_before.count(1000), 0u);
  EXPECT_EQ(pools_before.at(1000), second_id);
  ASSERT_TRUE(ftl.RecoverFromFlash().ok());
  EXPECT_EQ(counts(), before);
  EXPECT_EQ(PoolsByLba(ftl), pools_before);
}

TEST(FtlTest, RetirementFollowsTheDieErrorModel) {
  // Retirement predicts a cycled block's RBER with the die's own error model,
  // the one its reads see. On PLC at one year of retention the two models
  // straddle a 1e-3 bound over the cycled range: the voltage model crosses it
  // at a few dozen P/E cycles, the fitted curves only past 150. So a voltage
  // die retires blocks the fitted curves would keep, and a default die keeps
  // them all.
  constexpr double kBound = 1e-3;
  auto rber_at = [](ErrorModelKind kind, uint32_t pec) {
    PageErrorState state;
    state.mode = CellTech::kPlc;
    state.endurance_pec = static_cast<double>(GetCellTechInfo(CellTech::kPlc).rated_endurance_pec);
    state.pec_at_program = pec;
    state.retention_years = 1.0;  // the pool's nominal retention
    return ComputeRber(kind, state);
  };
  struct Outcome {
    std::vector<uint32_t> retired_at_pec;
    uint32_t max_pec = 0;
  };
  auto run = [](ErrorModelKind kind) {
    SimClock clock;
    FtlConfig config = SinglePool(16, CellTech::kPlc, EccPreset::kNone);
    config.nand.error_model = kind;
    config.pools[0].retire_rber = kBound;
    config.pools[0].min_live_blocks = 1;
    Ftl ftl(config, &clock);
    obs::TraceSink trace;
    ftl.SetTraceSink(&trace);
    Rng rng(9);
    for (int i = 0; i < 20000; ++i) {
      if (!ftl.Write(rng.NextBounded(10), Page(1), 0).ok()) {
        break;  // the voltage arm may wear the pool out
      }
    }
    EXPECT_TRUE(ftl.CheckInvariants().ok());
    Outcome outcome;
    for (const obs::TraceEvent& event : trace.events()) {
      if (event.type != "ftl.block.retired") {
        continue;
      }
      // The pec field as the JSONL export renders it: a bare decimal.
      const std::string json = obs::TraceEventToJson(event);
      const std::string tag = ", \"pec\": ";
      const size_t at = json.find(tag);
      if (at == std::string::npos) {
        ADD_FAILURE() << "no pec field: " << json;
        continue;
      }
      const unsigned long pec = std::stoul(json.substr(at + tag.size()));
      outcome.retired_at_pec.push_back(static_cast<uint32_t>(pec));
    }
    EXPECT_EQ(outcome.retired_at_pec.size(), ftl.stats().retired_blocks());
    for (uint32_t b = 0; b < config.nand.num_blocks; ++b) {
      outcome.max_pec = std::max(outcome.max_pec, ftl.nand().block_info(b).pec);
    }
    return outcome;
  };

  const Outcome voltage = run(ErrorModelKind::kVoltage);
  ASSERT_FALSE(voltage.retired_at_pec.empty());
  for (uint32_t pec : voltage.retired_at_pec) {
    SCOPED_TRACE("retired at pec " + std::to_string(pec));
    EXPECT_GT(rber_at(ErrorModelKind::kVoltage, pec), kBound);
    EXPECT_LE(rber_at(ErrorModelKind::kPhenomenological, pec), kBound);
  }

  const Outcome fitted = run(ErrorModelKind::kPhenomenological);
  EXPECT_TRUE(fitted.retired_at_pec.empty());
  EXPECT_GT(rber_at(ErrorModelKind::kVoltage, fitted.max_pec), kBound);
  EXPECT_LE(rber_at(ErrorModelKind::kPhenomenological, fitted.max_pec), kBound);
}

TEST(FtlTest, MigrateMovesBetweenPools) {
  SimClock clock;
  FtlConfig config;
  config.nand = TestNand(16, CellTech::kPlc);
  FtlPoolConfig a;
  a.name = "A";
  a.mode = CellTech::kQlc;
  a.share = 0.5;
  FtlPoolConfig b;
  b.name = "B";
  b.mode = CellTech::kPlc;
  b.ecc = EccScheme::FromPreset(EccPreset::kNone);
  b.retire_rber = 2e-3;
  b.share = 0.5;
  config.pools = {a, b};
  Ftl ftl(config, &clock);
  ASSERT_TRUE(ftl.Write(5, Page(0x42), 0).ok());
  EXPECT_EQ(PoolsByLba(ftl).at(5), 0u);
  ASSERT_TRUE(ftl.Migrate(5, 1).ok());
  EXPECT_EQ(PoolsByLba(ftl).at(5), 1u);
  EXPECT_EQ(ftl.stats().migrations(), 1u);
  auto read = ftl.Read(5);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().data, Page(0x42));
  EXPECT_EQ(ftl.Snapshot(0).valid_pages, 0u);
  EXPECT_EQ(ftl.Snapshot(1).valid_pages, 1u);
  // Migrating to the same pool is a no-op.
  ASSERT_TRUE(ftl.Migrate(5, 1).ok());
  EXPECT_EQ(ftl.stats().migrations(), 1u);
}

TEST(FtlTest, RefreshResetsRetention) {
  SimClock clock;
  Ftl ftl(SinglePool(16, CellTech::kPlc, EccPreset::kNone), &clock);
  ASSERT_TRUE(ftl.Write(5, Page(1), 0).ok());
  clock.Advance(YearsToUs(2.0));
  const double before = ftl.PredictLbaRber(5, 0.0).value();
  ASSERT_TRUE(ftl.Refresh(5).ok());
  const double after = ftl.PredictLbaRber(5, 0.0).value();
  EXPECT_LT(after, before);
  EXPECT_EQ(ftl.stats().refreshes(), 1u);
}

TEST(FtlTest, SnapshotConsistency) {
  SimClock clock;
  Ftl ftl(SinglePool(16), &clock);
  for (uint64_t lba = 0; lba < 25; ++lba) {
    ASSERT_TRUE(ftl.Write(lba, Page(1), 0).ok());
  }
  const PoolSnapshot snap = ftl.Snapshot(0);
  EXPECT_EQ(snap.name, "MAIN");
  EXPECT_EQ(snap.valid_pages, 25u);
  EXPECT_EQ(snap.total_blocks, 16u);
  EXPECT_GT(snap.free_blocks, 0u);
  EXPECT_GT(snap.free_page_fraction, 0.0);
  EXPECT_LT(snap.free_page_fraction, 1.0);
  EXPECT_EQ(ftl.LbasInPool(0).size(), 25u);
}

TEST(FtlTest, LbasInPoolSortedAndExact) {
  SimClock clock;
  Ftl ftl(SinglePool(16), &clock);
  for (uint64_t lba : {9ull, 3ull, 7ull, 1ull}) {
    ASSERT_TRUE(ftl.Write(lba, Page(1), 0).ok());
  }
  ASSERT_TRUE(ftl.Trim(7).ok());
  const std::vector<uint64_t> expected{1, 3, 9};
  EXPECT_EQ(ftl.LbasInPool(0), expected);
}

TEST(FtlTest, HotColdSeparationSlowsRetirementCascade) {
  // With pure greedy GC and static cold data, greedy alone self-segregates,
  // so separation's standalone WA effect is small. Its value shows under
  // wear pressure: fewer relocation-polluted blocks means fewer erases,
  // which postpones the retirement cascade (retirement -> less capacity ->
  // higher utilization -> more GC -> more retirement). Same workload, same
  // retirement bound, both arms -- separation must end with materially lower
  // write amplification and fewer retired blocks.
  struct Outcome {
    double write_amp;
    uint64_t retired;
  };
  auto run = [](bool separation) {
    SimClock clock;
    FtlConfig config = SinglePool(32);
    config.nand.store_payloads = false;  // metadata-only: fast long run
    config.pools[0].hot_cold_separation = separation;
    Ftl ftl(config, &clock);
    const uint64_t space = ftl.ExportedPages() * 88 / 100;
    for (uint64_t lba = 0; lba < space; ++lba) {
      EXPECT_TRUE(ftl.Write(lba, {}, 0).ok());
    }
    Rng rng(21);
    const uint64_t hot = space / 10;
    for (int i = 0; i < 100000; ++i) {
      const uint64_t lba = rng.NextBool(0.9) ? rng.NextBounded(hot) : rng.NextBounded(space);
      if (!ftl.Write(lba, {}, 0).ok()) {
        break;  // deep wear can exhaust the pool in the no-separation arm
      }
    }
    EXPECT_TRUE(ftl.CheckInvariants().ok());
    return Outcome{ftl.stats().WriteAmplification(), ftl.stats().retired_blocks()};
  };
  const Outcome with_sep = run(true);
  const Outcome without = run(false);
  EXPECT_LT(with_sep.write_amp, without.write_amp * 0.7);
  EXPECT_LE(with_sep.retired, without.retired);
}

TEST(FtlTest, TaintTracksBakedInCorruption) {
  SimClock clock;
  Ftl ftl(SinglePool(16, CellTech::kPlc, EccPreset::kNone), &clock);
  ASSERT_TRUE(ftl.Write(5, Page(0x77), 0).ok());
  EXPECT_FALSE(ftl.IsTainted(5));

  // Age until reads are certainly degraded (at 10 years the page carries
  // ~8 expected raw errors), then refresh: the relocation re-encodes
  // corrupted bytes, which must set the taint.
  clock.Advance(YearsToUs(10.0));
  ASSERT_TRUE(ftl.Refresh(5).ok());
  EXPECT_TRUE(ftl.IsTainted(5));
  auto read = ftl.Read(5);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read.value().tainted);

  // A fresh host write supersedes the corruption and clears the taint.
  ASSERT_TRUE(ftl.Write(5, Page(0x78), 0).ok());
  EXPECT_FALSE(ftl.IsTainted(5));
}

TEST(FtlTest, CleanRefreshDoesNotTaint) {
  SimClock clock;
  Ftl ftl(SinglePool(16, CellTech::kPlc, EccPreset::kBch), &clock);
  ASSERT_TRUE(ftl.Write(5, Page(0x77), 0).ok());
  clock.Advance(DaysToUs(10));  // young: BCH corrects everything
  ASSERT_TRUE(ftl.Refresh(5).ok());
  EXPECT_FALSE(ftl.IsTainted(5));
}

TEST(FtlTest, InvariantsHoldOnFreshAndUsedDevice) {
  SimClock clock;
  Ftl ftl(SinglePool(), &clock);
  EXPECT_TRUE(ftl.CheckInvariants().ok());
  for (uint64_t lba = 0; lba < 50; ++lba) {
    ASSERT_TRUE(ftl.Write(lba, Page(1), 0).ok());
  }
  for (uint64_t lba = 0; lba < 50; lba += 3) {
    ASSERT_TRUE(ftl.Trim(lba).ok());
  }
  EXPECT_TRUE(ftl.CheckInvariants().ok());
}

TEST(FtlTest, BackgroundCollectPrepaysGc) {
  SimClock clock;
  FtlConfig config = SinglePool(24);
  config.nand.store_payloads = false;
  Ftl ftl(config, &clock);
  // Dirty the device: fill, then invalidate half via overwrites.
  const uint64_t space = ftl.ExportedPages() * 3 / 4;
  for (int round = 0; round < 2; ++round) {
    for (uint64_t lba = 0; lba < space; ++lba) {
      ASSERT_TRUE(ftl.Write(lba, {}, 0).ok());
    }
  }
  // Idle housekeeping reclaims blocks beyond the foreground threshold.
  const uint32_t collected = ftl.BackgroundCollect(8);
  EXPECT_GT(collected, 0u);
  EXPECT_EQ(ftl.stats().background_collections(), collected);
  EXPECT_TRUE(ftl.CheckInvariants().ok());
  // Foreground writes right after idle GC proceed without new collections.
  const uint64_t erases_before = ftl.stats().gc_erases();
  for (uint64_t lba = 0; lba < 10; ++lba) {
    ASSERT_TRUE(ftl.Write(lba, {}, 0).ok());
  }
  EXPECT_EQ(ftl.stats().gc_erases(), erases_before);
}

TEST(FtlTest, DeterministicAcrossRuns) {
  auto run = [] {
    SimClock clock;
    Ftl ftl(SinglePool(), &clock);
    Rng rng(9);
    for (int i = 0; i < 2000; ++i) {
      IgnoreResult(ftl.Write(rng.NextBounded(40), Page(static_cast<uint8_t>(i)), 0));
    }
    clock.Advance(YearsToUs(1.0));
    uint64_t checksum = 0;
    for (uint64_t lba = 0; lba < 40; ++lba) {
      auto read = ftl.Read(lba);
      if (read.ok()) {
        for (uint8_t byte : read.value().data) {
          checksum = checksum * 31 + byte;
        }
      }
    }
    return std::make_tuple(checksum, ftl.stats().nand_writes(), ftl.stats().gc_erases());
  };
  EXPECT_EQ(run(), run());
}

// --- Faults in the middle of a write stream ----------------------------------

// A 16-block PLC die: 20 pages per block, a parity slot every 4th page, so
// 15 data pages per block. A 40-page stream crosses stripes and blocks.
constexpr uint64_t kStreamPages = 40;

FtlConfig StripedPool() {
  FtlConfig config = SinglePool();
  config.pools[0].parity_stripe = 4;
  return config;
}

std::vector<std::vector<uint8_t>> StreamPages(uint8_t base) {
  std::vector<std::vector<uint8_t>> pages;
  for (uint64_t i = 0; i < kStreamPages; ++i) {
    pages.push_back(Page(static_cast<uint8_t>(base + i)));
  }
  return pages;
}

// Fires `action` on the `fire_at`-th program op (1-based). A failing action
// leaves that block stuck: every later program on it fails the same way.
class ProgramFault : public NandFaultHook {
 public:
  ProgramFault(NandFaultAction action, uint64_t fire_at) : action_(action), fire_at_(fire_at) {}

  NandFaultAction OnNandOp(NandOpKind op, uint32_t block, uint32_t /*page*/) override {
    if (op != NandOpKind::kProgram) {
      return NandFaultAction::None();
    }
    if (stuck_.has_value() && *stuck_ == block) {
      return action_;
    }
    if (++programs_ != fire_at_) {
      return NandFaultAction::None();
    }
    if (action_.kind == NandFaultAction::Kind::kFail) {
      stuck_ = block;
    }
    return action_;
  }

  std::optional<uint32_t> stuck() const { return stuck_; }

 private:
  NandFaultAction action_;
  uint64_t fire_at_;
  uint64_t programs_ = 0;
  std::optional<uint32_t> stuck_;
};

// A ProgramFault that also answers reads of page `page` of the stuck block
// with `read_action`: the grown-bad drop's salvage read of that page fails.
class SalvageReadFault : public ProgramFault {
 public:
  SalvageReadFault(uint64_t fire_at, uint32_t page, NandFaultAction read_action)
      : ProgramFault(NandFaultAction::Fail(StatusCode::kWornOut, "stuck block"), fire_at),
        page_(page),
        read_action_(read_action) {}

  NandFaultAction OnNandOp(NandOpKind op, uint32_t block, uint32_t page) override {
    if (op == NandOpKind::kRead && stuck() == block && page == page_) {
      return read_action_;
    }
    return ProgramFault::OnNandOp(op, block, page);
  }

 private:
  uint32_t page_;
  NandFaultAction read_action_;
};

TEST(FtlFaultTest, GrownBadBlockMidStreamKeepsAcknowledgedPages) {
  const auto pages = StreamPages(1);
  SimClock clock;
  Ftl ftl(StripedPool(), &clock);
  // Program op 6 is data page 5 of the first block (page 3 is parity): four
  // data pages have landed and been committed when the block goes bad.
  ProgramFault fault(NandFaultAction::Fail(StatusCode::kWornOut, "stuck block"), 6);
  ftl.nand().SetFaultHook(&fault);
  for (uint64_t lba = 0; lba < kStreamPages; ++lba) {
    const Status status = ftl.Write(lba, pages[lba], WriteDirective{});
    ASSERT_TRUE(status.ok()) << "lba " << lba << ": " << status.ToString();
  }
  ftl.nand().SetFaultHook(nullptr);
  EXPECT_EQ(ftl.stats().grown_bad_blocks(), 1u);
  // The drop rescued exactly the four pages committed before the fault.
  EXPECT_EQ(ftl.stats().gc_relocations(), 4u);
  EXPECT_EQ(ftl.stats().lost_pages(), 0u);
  for (uint64_t lba = 0; lba < kStreamPages; ++lba) {
    auto read = ftl.Read(lba);
    ASSERT_TRUE(read.ok()) << "lba " << lba;
    EXPECT_EQ(read.value().data, pages[lba]) << "lba " << lba;
  }
  EXPECT_TRUE(ftl.CheckInvariants().ok());
}

TEST(FtlFaultTest, GrownBadBlockSalvageCountsAnUnreadablePageAsLost) {
  const auto pages = StreamPages(1);
  SimClock clock;
  Ftl ftl(StripedPool(), &clock);
  // As above, program op 6 sticks the first block after LBAs 0-3 landed on
  // pages 0, 1, 2 and 4. The salvage read of page 1 (LBA 1) fails for good.
  SalvageReadFault fault(6, 1, NandFaultAction::Fail(StatusCode::kWornOut, "dead page"));
  ftl.nand().SetFaultHook(&fault);
  for (uint64_t lba = 0; lba < kStreamPages; ++lba) {
    const Status status = ftl.Write(lba, pages[lba], WriteDirective{});
    ASSERT_TRUE(status.ok()) << "lba " << lba << ": " << status.ToString();
  }
  ftl.nand().SetFaultHook(nullptr);
  EXPECT_EQ(ftl.stats().grown_bad_blocks(), 1u);
  EXPECT_EQ(ftl.stats().gc_relocations(), 3u);
  EXPECT_EQ(ftl.stats().lost_pages(), 1u);
  for (uint64_t lba = 0; lba < kStreamPages; ++lba) {
    auto read = ftl.Read(lba);
    if (lba == 1) {
      EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
      continue;
    }
    ASSERT_TRUE(read.ok()) << "lba " << lba;
    EXPECT_EQ(read.value().data, pages[lba]) << "lba " << lba;
  }
  EXPECT_TRUE(ftl.CheckInvariants().ok());
}

TEST(FtlFaultTest, GrownBadBlockSalvagePassesUpAPowerCut) {
  const auto pages = StreamPages(1);
  SimClock clock;
  Ftl ftl(StripedPool(), &clock);
  // Power dies on the salvage read of page 1, after LBA 0 has been moved.
  SalvageReadFault fault(6, 1, NandFaultAction::PowerCut(/*after_op=*/false, "power cut"));
  ftl.nand().SetFaultHook(&fault);
  uint64_t acked = 0;
  Status status = Status::Ok();
  while (acked < kStreamPages) {
    status = ftl.Write(acked, pages[acked], WriteDirective{});
    if (!status.ok()) {
      break;
    }
    ++acked;
  }
  ftl.nand().SetFaultHook(nullptr);
  EXPECT_EQ(status.code(), StatusCode::kPowerLost);
  ASSERT_EQ(acked, 4u);  // the write that hit the stuck block is not acknowledged
  EXPECT_EQ(ftl.stats().lost_pages(), 0u);

  ASSERT_TRUE(ftl.RecoverFromFlash().ok());
  for (uint64_t lba = 0; lba < acked; ++lba) {
    auto read = ftl.Read(lba);
    ASSERT_TRUE(read.ok()) << "lba " << lba;
    EXPECT_EQ(read.value().data, pages[lba]) << "lba " << lba;
  }
  EXPECT_EQ(ftl.Read(acked).status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(ftl.CheckInvariants().ok());
}

TEST(FtlFaultTest, PowerCutMidStreamLeavesTheTornPageUnacknowledged) {
  const auto old_pages = StreamPages(0x80);
  const auto new_pages = StreamPages(1);
  SimClock clock;
  Ftl ftl(StripedPool(), &clock);
  for (uint64_t lba = 0; lba < kStreamPages; ++lba) {
    ASSERT_TRUE(ftl.Write(lba, old_pages[lba], 0).ok());
  }
  // The prefill leaves the host cursor on page 13 of its third block (ten
  // data pages plus three parity pages). Program ops 1-2 land data pages
  // 13-14, op 3 fills the parity slot at 15, op 4 lands page 16, and op 5
  // programs page 17 -- the fourth write -- as power dies.
  ProgramFault cut(NandFaultAction::PowerCut(/*after_op=*/true, "power cut"), 5);
  ftl.nand().SetFaultHook(&cut);
  uint64_t acked = 0;
  Status status = Status::Ok();
  while (acked < kStreamPages) {
    status = ftl.Write(acked, new_pages[acked], WriteDirective{});
    if (!status.ok()) {
      break;
    }
    ++acked;
  }
  ftl.nand().SetFaultHook(nullptr);
  EXPECT_EQ(status.code(), StatusCode::kPowerLost);
  ASSERT_EQ(acked, 3u);  // the torn fourth write is not acknowledged

  ASSERT_TRUE(ftl.RecoverFromFlash().ok());
  for (uint64_t lba = 0; lba < kStreamPages; ++lba) {
    auto read = ftl.Read(lba);
    ASSERT_TRUE(read.ok()) << "lba " << lba;
    const std::vector<uint8_t>& data = read.value().data;
    if (lba < acked) {
      EXPECT_EQ(data, new_pages[lba]) << "acknowledged lba " << lba;
    } else if (lba == acked) {
      EXPECT_TRUE(data == old_pages[lba] || data == new_pages[lba]) << "torn lba " << lba;
    } else {
      EXPECT_EQ(data, old_pages[lba]) << "unwritten lba " << lba;
    }
  }
}

}  // namespace
}  // namespace sos
