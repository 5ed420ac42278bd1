// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Unit and property tests for the flash substrate: technology catalog,
// error model, and the NAND device simulator.

#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/flash/cell_tech.h"
#include "src/flash/error_model.h"
#include "src/flash/nand_device.h"
#include "src/flash/voltage_model.h"

namespace sos {
namespace {

constexpr CellTech kAllTechs[] = {CellTech::kSlc, CellTech::kMlc, CellTech::kTlc,
                                  CellTech::kQlc, CellTech::kPlc};

// --- Cell technology catalog -----------------------------------------------

TEST(CellTechTest, BitsAndLevels) {
  EXPECT_EQ(BitsPerCell(CellTech::kSlc), 1);
  EXPECT_EQ(BitsPerCell(CellTech::kTlc), 3);
  EXPECT_EQ(BitsPerCell(CellTech::kPlc), 5);
  EXPECT_EQ(VoltageLevels(CellTech::kSlc), 2);
  EXPECT_EQ(VoltageLevels(CellTech::kPlc), 32);
}

TEST(CellTechTest, EnduranceDecreasesWithDensity) {
  for (size_t i = 1; i < std::size(kAllTechs); ++i) {
    EXPECT_LT(GetCellTechInfo(kAllTechs[i]).rated_endurance_pec,
              GetCellTechInfo(kAllTechs[i - 1]).rated_endurance_pec)
        << CellTechName(kAllTechs[i]);
  }
}

TEST(CellTechTest, RberIncreasesWithDensity) {
  for (size_t i = 1; i < std::size(kAllTechs); ++i) {
    EXPECT_GT(GetCellTechInfo(kAllTechs[i]).base_rber,
              GetCellTechInfo(kAllTechs[i - 1]).base_rber);
  }
}

TEST(CellTechTest, LatencyIncreasesWithDensity) {
  for (size_t i = 1; i < std::size(kAllTechs); ++i) {
    EXPECT_GT(GetCellTechInfo(kAllTechs[i]).read_latency_us,
              GetCellTechInfo(kAllTechs[i - 1]).read_latency_us);
    EXPECT_GT(GetCellTechInfo(kAllTechs[i]).program_latency_us,
              GetCellTechInfo(kAllTechs[i - 1]).program_latency_us);
  }
}

TEST(CellTechTest, PaperEnduranceRatios) {
  // Paper §4.1: PLC endurance ~6-10x below TLC, ~2x below QLC.
  const double tlc = GetCellTechInfo(CellTech::kTlc).rated_endurance_pec;
  const double qlc = GetCellTechInfo(CellTech::kQlc).rated_endurance_pec;
  const double plc = GetCellTechInfo(CellTech::kPlc).rated_endurance_pec;
  EXPECT_GE(tlc / plc, 6.0);
  EXPECT_LE(tlc / plc, 11.0);
  EXPECT_NEAR(qlc / plc, 2.0, 1.5);
}

TEST(CellTechTest, PaperDensityRatios) {
  // Paper §4.1: QLC = +33% over TLC, PLC = +66% over TLC.
  EXPECT_NEAR(RelativeDensity(CellTech::kQlc, CellTech::kTlc), 4.0 / 3.0, 1e-9);
  EXPECT_NEAR(RelativeDensity(CellTech::kPlc, CellTech::kTlc), 5.0 / 3.0, 1e-9);
}

TEST(CellTechTest, PseudoModeBonus) {
  EXPECT_DOUBLE_EQ(PseudoModeEnduranceBonus(CellTech::kPlc, CellTech::kPlc), 1.0);
  EXPECT_GT(PseudoModeEnduranceBonus(CellTech::kPlc, CellTech::kQlc), 1.0);
  EXPECT_GT(PseudoModeEnduranceBonus(CellTech::kPlc, CellTech::kSlc),
            PseudoModeEnduranceBonus(CellTech::kPlc, CellTech::kQlc));
}

TEST(CellTechTest, Names) {
  EXPECT_EQ(CellTechName(CellTech::kSlc), "SLC");
  EXPECT_EQ(CellTechName(CellTech::kPlc), "PLC");
}

// --- Error model -----------------------------------------------------------

class ErrorModelTechTest : public ::testing::TestWithParam<CellTech> {};

TEST_P(ErrorModelTechTest, FreshCellMatchesBaseRber) {
  PageErrorState state;
  state.mode = GetParam();
  state.endurance_pec = GetCellTechInfo(GetParam()).rated_endurance_pec;
  EXPECT_NEAR(ErrorModel::Rber(state), GetCellTechInfo(GetParam()).base_rber,
              GetCellTechInfo(GetParam()).base_rber * 0.01);
}

TEST_P(ErrorModelTechTest, RberMonotonicInWear) {
  PageErrorState state;
  state.mode = GetParam();
  state.endurance_pec = GetCellTechInfo(GetParam()).rated_endurance_pec;
  double prev = 0.0;
  for (uint32_t pec : {0u, 100u, 500u, 1000u, 5000u}) {
    state.pec_at_program = pec;
    const double rber = ErrorModel::Rber(state);
    EXPECT_GE(rber, prev);
    prev = rber;
  }
}

TEST_P(ErrorModelTechTest, RberMonotonicInRetention) {
  PageErrorState state;
  state.mode = GetParam();
  state.endurance_pec = GetCellTechInfo(GetParam()).rated_endurance_pec;
  double prev = 0.0;
  for (double years : {0.0, 0.1, 0.5, 1.0, 3.0, 10.0}) {
    state.retention_years = years;
    const double rber = ErrorModel::Rber(state);
    EXPECT_GE(rber, prev);
    prev = rber;
  }
}

TEST_P(ErrorModelTechTest, RberMonotonicInReads) {
  PageErrorState state;
  state.mode = GetParam();
  state.endurance_pec = GetCellTechInfo(GetParam()).rated_endurance_pec;
  double prev = 0.0;
  for (uint32_t reads : {0u, 1000u, 100000u}) {
    state.reads_since_program = reads;
    const double rber = ErrorModel::Rber(state);
    EXPECT_GE(rber, prev);
    prev = rber;
  }
}

INSTANTIATE_TEST_SUITE_P(AllTechs, ErrorModelTechTest, ::testing::ValuesIn(kAllTechs),
                         [](const auto& param_info) {
                           return std::string(CellTechName(param_info.param));
                         });

TEST(ErrorModelTest, RberClampedToHalf) {
  PageErrorState state;
  state.mode = CellTech::kPlc;
  state.endurance_pec = 1.0;
  state.pec_at_program = 1000000;  // soslint:allow(R10) P/E cycle count, not a unit
  state.retention_years = 100.0;
  state.reads_since_program = 4000000000u;
  EXPECT_LE(ErrorModel::Rber(state), 0.5);
}

TEST(ErrorModelTest, InjectFlipsExactCount) {
  std::vector<uint8_t> data(512, 0);
  const uint64_t flipped = ErrorModel::InjectErrors(data, 37, 7);
  EXPECT_EQ(flipped, 37u);
  uint64_t ones = 0;
  for (uint8_t b : data) {
    ones += static_cast<uint64_t>(__builtin_popcount(b));
  }
  EXPECT_EQ(ones, 37u);
}

TEST(ErrorModelTest, InjectDeterministic) {
  std::vector<uint8_t> a(256, 0xAA);
  std::vector<uint8_t> b(256, 0xAA);
  ErrorModel::InjectErrors(a, 10, 123);
  ErrorModel::InjectErrors(b, 10, 123);
  EXPECT_EQ(a, b);
}

TEST(ErrorModelTest, InjectCapsAtPayloadBits) {
  std::vector<uint8_t> data(2, 0);
  const uint64_t flipped = ErrorModel::InjectErrors(data, 1000, 5);
  EXPECT_LE(flipped, 16u);
}

// --- NAND device -----------------------------------------------------------

NandConfig SmallConfig() {
  NandConfig config;
  config.num_blocks = 8;
  config.wordlines_per_block = 4;
  config.page_size_bytes = 512;
  config.tech = CellTech::kPlc;
  config.seed = 1;
  config.store_payloads = true;
  return config;
}

std::vector<uint8_t> Payload(size_t n, uint8_t fill) { return std::vector<uint8_t>(n, fill); }

TEST(NandDeviceTest, GeometryMath) {
  const NandConfig config = SmallConfig();
  EXPECT_EQ(config.PagesPerBlock(CellTech::kPlc), 20u);   // 4 wordlines * 5 bits
  EXPECT_EQ(config.PagesPerBlock(CellTech::kQlc), 16u);
  EXPECT_EQ(config.PagesPerBlock(CellTech::kSlc), 4u);
  EXPECT_EQ(config.BlockBytes(CellTech::kPlc), 20u * 512u);
  EXPECT_EQ(config.DieBytes(CellTech::kPlc), 8u * 20u * 512u);
}

TEST(NandDeviceTest, FreshProgramReadRoundtrip) {
  SimClock clock;
  NandDevice device(SmallConfig(), &clock);
  const auto data = Payload(512, 0x5A);
  ASSERT_TRUE(device.Program({0, 0}, data).ok());
  auto read = device.Read({0, 0});
  ASSERT_TRUE(read.ok());
  // Fresh PLC at zero retention has RBER ~2e-5; a 4Kib page has ~0.08
  // expected errors, so a clean read is overwhelmingly likely.
  EXPECT_EQ(read.value().data, data);
  EXPECT_EQ(read.value().bit_errors, 0u);
}

TEST(NandDeviceTest, SequentialProgrammingEnforced) {
  SimClock clock;
  NandDevice device(SmallConfig(), &clock);
  EXPECT_EQ(device.Program({0, 1}, Payload(16, 1)).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(device.Program({0, 0}, Payload(16, 1)).ok());
  EXPECT_EQ(device.Program({0, 0}, Payload(16, 1)).code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(device.Program({0, 1}, Payload(16, 1)).ok());
}

TEST(NandDeviceTest, ReadUnprogrammedFails) {
  SimClock clock;
  NandDevice device(SmallConfig(), &clock);
  EXPECT_EQ(device.Read({0, 0}).status().code(), StatusCode::kNotFound);
  // Every reader finds a page below the program cursor and answers kNotFound
  // at the cursor, past it, and anywhere in an erased block.
  auto expect_readers = [&](PageAddr addr, StatusCode want) {
    SCOPED_TRACE("page " + std::to_string(addr.page));
    EXPECT_EQ(device.Read(addr).status().code(), want);
    EXPECT_EQ(device.ReadOob(addr).status().code(), want);
    EXPECT_EQ(device.PeekClean(addr).status().code(), want);
    EXPECT_EQ(device.PredictRber(addr, 0.0).status().code(), want);
  };
  const PageOob oob{.lba = 7, .seq = 1, .flags = 0};
  ASSERT_TRUE(device.Program({0, 0}, Payload(16, 1), oob).ok());
  ASSERT_TRUE(device.Program({0, 1}, Payload(16, 2), oob).ok());
  expect_readers({0, 0}, StatusCode::kOk);
  expect_readers({0, 1}, StatusCode::kOk);
  expect_readers({0, 2}, StatusCode::kNotFound);  // the cursor
  expect_readers({0, 3}, StatusCode::kNotFound);  // past it
  ASSERT_TRUE(device.EraseBlock(0).ok());
  expect_readers({0, 0}, StatusCode::kNotFound);
  expect_readers({0, 1}, StatusCode::kNotFound);
}

TEST(NandDeviceTest, AddressValidation) {
  SimClock clock;
  NandDevice device(SmallConfig(), &clock);
  EXPECT_EQ(device.Program({99, 0}, Payload(16, 1)).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(device.Program({0, 999}, Payload(16, 1)).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(device.Program({0, 0}, Payload(4096, 1)).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(device.EraseBlock(99).code(), StatusCode::kInvalidArgument);
}

TEST(NandDeviceTest, EraseResetsAndCountsPec) {
  SimClock clock;
  NandDevice device(SmallConfig(), &clock);
  ASSERT_TRUE(device.Program({0, 0}, Payload(16, 1)).ok());
  EXPECT_EQ(device.block_info(0).next_page, 1u);
  ASSERT_TRUE(device.EraseBlock(0).ok());
  EXPECT_EQ(device.block_info(0).pec, 1u);
  EXPECT_EQ(device.block_info(0).next_page, 0u);
  // Page 0 is programmable again.
  EXPECT_TRUE(device.Program({0, 0}, Payload(16, 2)).ok());
}

TEST(NandDeviceTest, InitialPecPreAgesEveryBlock) {
  SimClock clock;
  NandConfig config = SmallConfig();
  config.initial_pec = 150;  // a fleet device entering the sim mid-life
  NandDevice device(config, &clock);
  EXPECT_EQ(device.block_info(0).pec, 150u);
  EXPECT_EQ(device.block_info(config.num_blocks - 1).pec, 150u);
  // Erase counts on top of the pre-aging, not from zero.
  ASSERT_TRUE(device.Program({0, 0}, Payload(16, 1)).ok());
  ASSERT_TRUE(device.EraseBlock(0).ok());
  EXPECT_EQ(device.block_info(0).pec, 151u);
}

TEST(NandDeviceTest, ModeChangeRules) {
  SimClock clock;
  NandDevice device(SmallConfig(), &clock);
  // Can't exceed native density (the die *is* PLC so everything is allowed;
  // build a QLC die to check the rule).
  NandConfig qlc_config = SmallConfig();
  qlc_config.tech = CellTech::kQlc;
  NandDevice qlc(qlc_config, &clock);
  EXPECT_EQ(qlc.SetBlockMode(0, CellTech::kPlc).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(qlc.SetBlockMode(0, CellTech::kSlc).ok());
  EXPECT_EQ(qlc.block_info(0).mode, CellTech::kSlc);

  // Mode change blocked while data present.
  ASSERT_TRUE(device.Program({1, 0}, Payload(16, 1)).ok());
  EXPECT_EQ(device.SetBlockMode(1, CellTech::kTlc).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(device.EraseBlock(1).ok());
  EXPECT_TRUE(device.SetBlockMode(1, CellTech::kTlc).ok());
  EXPECT_EQ(device.config().PagesPerBlock(CellTech::kTlc), 12u);
}

TEST(NandDeviceTest, PseudoModeRaisesEndurance) {
  SimClock clock;
  NandDevice device(SmallConfig(), &clock);
  const double native = device.EffectiveEndurance(0);
  ASSERT_TRUE(device.SetBlockMode(0, CellTech::kQlc).ok());
  EXPECT_GT(device.EffectiveEndurance(0), native);
}

TEST(NandDeviceTest, RetentionDegradesData) {
  SimClock clock;
  NandConfig config = SmallConfig();
  NandDevice device(config, &clock);
  ASSERT_TRUE(device.Program({0, 0}, Payload(512, 0xFF)).ok());
  clock.Advance(YearsToUs(5.0));  // five years on PLC hurts
  auto read = device.Read({0, 0});
  ASSERT_TRUE(read.ok());
  EXPECT_GT(read.value().bit_errors, 0u);
  EXPECT_NE(read.value().data, Payload(512, 0xFF));
}

TEST(NandDeviceTest, WearDegradesData) {
  SimClock clock;
  NandDevice device(SmallConfig(), &clock);
  // Cycle block 0 far past PLC endurance.
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(device.EraseBlock(0).ok());
  }
  ASSERT_TRUE(device.Program({0, 0}, Payload(512, 0xAB)).ok());
  clock.Advance(DaysToUs(30));
  auto read = device.Read({0, 0});
  ASSERT_TRUE(read.ok());
  EXPECT_GT(read.value().rber, GetCellTechInfo(CellTech::kPlc).base_rber * 2);
}

TEST(NandDeviceTest, DeterministicReplay) {
  auto run = [] {
    SimClock clock;
    NandDevice device(SmallConfig(), &clock);
    IgnoreResult(device.Program({0, 0}, Payload(512, 0x77)));
    clock.Advance(YearsToUs(3.0));
    auto read = device.Read({0, 0});
    return read.value().data;
  };
  EXPECT_EQ(run(), run());
}

TEST(NandDeviceTest, PeekCleanBypassesErrors) {
  SimClock clock;
  NandDevice device(SmallConfig(), &clock);
  const auto data = Payload(512, 0x3C);
  ASSERT_TRUE(device.Program({0, 0}, data).ok());
  clock.Advance(YearsToUs(5.0));
  auto clean = device.PeekClean({0, 0});
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean.value(), data);
}

TEST(NandDeviceTest, PredictRberGrowsWithHorizon) {
  SimClock clock;
  NandDevice device(SmallConfig(), &clock);
  ASSERT_TRUE(device.Program({0, 0}, Payload(16, 1)).ok());
  auto now = device.PredictRber({0, 0}, 0.0);
  auto later = device.PredictRber({0, 0}, 2.0);
  ASSERT_TRUE(now.ok());
  ASSERT_TRUE(later.ok());
  EXPECT_GT(later.value(), now.value());
}

TEST(NandDeviceTest, LatencyAdvancesClockByMode) {
  SimClock clock;
  NandDevice device(SmallConfig(), &clock);
  const SimTimeUs t0 = clock.now();
  ASSERT_TRUE(device.Program({0, 0}, Payload(16, 1)).ok());
  EXPECT_EQ(clock.now() - t0, GetCellTechInfo(CellTech::kPlc).program_latency_us);
  const SimTimeUs t1 = clock.now();
  IgnoreResult(device.Read({0, 0}));
  EXPECT_EQ(clock.now() - t1, GetCellTechInfo(CellTech::kPlc).read_latency_us);
}

TEST(NandDeviceTest, StatsAccumulate) {
  SimClock clock;
  NandDevice device(SmallConfig(), &clock);
  ASSERT_TRUE(device.Program({0, 0}, Payload(16, 1)).ok());
  IgnoreResult(device.Read({0, 0}));
  ASSERT_TRUE(device.EraseBlock(0).ok());
  const NandStats& stats = device.stats();
  EXPECT_EQ(stats.programs, 1u);
  EXPECT_EQ(stats.reads, 1u);
  EXPECT_EQ(stats.erases, 1u);
  EXPECT_GT(stats.busy_us, 0u);
  // The exported op rows are the counters.
  obs::MetricRegistry registry;
  device.ToMetrics(registry, "flash.die.");
  std::map<std::string, uint64_t> counters;
  for (const obs::MetricRow& row : registry.Snapshot()) {
    counters[row.name] = row.counter;
  }
  EXPECT_EQ(counters["flash.die.programs"], 1u);
  EXPECT_EQ(counters["flash.die.reads"], 1u);
  EXPECT_EQ(counters["flash.die.erases"], 1u);
}

TEST(NandDeviceTest, MetadataOnlyModeStillCountsErrors) {
  SimClock clock;
  NandConfig config = SmallConfig();
  config.store_payloads = false;
  NandDevice device(config, &clock);
  ASSERT_TRUE(device.Program({0, 0}, {}).ok());
  clock.Advance(YearsToUs(5.0));
  auto read = device.Read({0, 0});
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read.value().data.empty());
  EXPECT_GT(read.value().bit_errors, 0u);
}

TEST(NandDeviceTest, WearMetrics) {
  SimClock clock;
  NandDevice device(SmallConfig(), &clock);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(device.EraseBlock(0).ok());
  }
  EXPECT_NEAR(device.MaxWearRatio(), 30.0 / 300.0, 1e-9);
  EXPECT_NEAR(device.MeanPec(), 30.0 / 8.0, 1e-9);
}

// --- Device-level RBER contract ---------------------------------------------
//
// Every read and every PredictRber evaluates ComputeRber for the configured
// model on exactly the PageErrorState the device's bookkeeping implies: the
// block's mode, its endurance including the pseudo-mode bonus, the P/E count
// at program time, the retention age and the reads since program. Every
// read's bit-error count is the binomial draw from the stream
// DeriveSeed({seed, block, page, pec_at_program, reads, retry}). Compared bit
// for bit, so an approximate fast path, a stale per-block wear factor or seed
// prefix, or a drift in how the device derives the state fails here. The
// scenario visits every point where the device refreshes its per-block read
// state: construction (with initial_pec > 0), EraseBlock and SetBlockMode.

class NandRberContractTest : public ::testing::TestWithParam<ErrorModelKind> {};

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

TEST_P(NandRberContractTest, ReadAndPredictEqualComputeRber) {
  const ErrorModelKind kind = GetParam();
  SimClock clock;
  NandConfig config = SmallConfig();
  config.error_model = kind;
  config.initial_pec = 120;  // worn enough that the wear term matters
  NandDevice device(config, &clock);
  const uint64_t bits = static_cast<uint64_t>(config.page_size_bytes) * 8;
  uint64_t bit_errors_seen = 0;

  // Programs the first `pages` pages of `block`, ages them, then reads each
  // twice (retry 0 and 2) and predicts it once.
  const auto check_block = [&](uint32_t block, uint32_t pages) {
    const CellTech mode = device.block_info(block).mode;
    SCOPED_TRACE("block " + std::to_string(block) + " pec " +
                 std::to_string(device.block_info(block).pec) + " mode " +
                 std::string(CellTechName(mode)));
    PageErrorState expected;
    expected.mode = mode;
    expected.endurance_pec = static_cast<double>(GetCellTechInfo(mode).rated_endurance_pec) *
                             PseudoModeEnduranceBonus(config.tech, mode);
    expected.pec_at_program = device.block_info(block).pec;
    EXPECT_EQ(Bits(device.EffectiveEndurance(block)), Bits(expected.endurance_pec));

    std::vector<SimTimeUs> programmed_at;
    for (uint32_t page = 0; page < pages; ++page) {
      programmed_at.push_back(clock.now());
      ASSERT_TRUE(device.Program({block, page}, Payload(512, 0x5A)).ok());
    }
    clock.Advance(YearsToUs(1.5));

    for (uint32_t page = 0; page < pages; ++page) {
      const PageAddr addr{block, page};
      PageErrorState state = expected;
      // Each read counts itself as disturb and sees the age at its start.
      for (const int retry : {0, 2}) {
        state.retention_years = UsToYears(clock.now() - programmed_at[page]);
        ++state.reads_since_program;
        auto read = device.Read(addr, retry);
        ASSERT_TRUE(read.ok());
        const double rber = ComputeRber(kind, state, retry);
        EXPECT_EQ(Bits(read.value().rber), Bits(rber)) << "page " << page << " retry " << retry;
        const uint64_t stream =
            DeriveSeed({config.seed, block, page, state.pec_at_program,
                        state.reads_since_program, static_cast<uint64_t>(retry)});
        EXPECT_EQ(read.value().bit_errors, Rng(stream).NextBinomial(bits, rber))
            << "page " << page << " retry " << retry;
        bit_errors_seen += read.value().bit_errors;
      }

      const double ahead = 0.75;
      PageErrorState predicted = state;
      predicted.retention_years = UsToYears(clock.now() - programmed_at[page]) + ahead;
      auto prediction = device.PredictRber(addr, ahead);
      ASSERT_TRUE(prediction.ok());
      EXPECT_EQ(Bits(prediction.value()), Bits(ComputeRber(kind, predicted, 0)));
    }
  };

  // Construction: block 0 starts at initial_pec in native PLC mode.
  check_block(0, 3);
  // SetBlockMode: block 1 runs pseudo-QLC after 7 erases, so its endurance
  // carries the bonus.
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(device.EraseBlock(1).ok());
  }
  ASSERT_TRUE(device.SetBlockMode(1, CellTech::kQlc).ok());
  check_block(1, 3);
  // EraseBlock: block 0 again after three more cycles.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(device.EraseBlock(0).ok());
  }
  check_block(0, 3);
  // An erase then a second mode change on the same block.
  ASSERT_TRUE(device.EraseBlock(1).ok());
  ASSERT_TRUE(device.SetBlockMode(1, CellTech::kTlc).ok());
  check_block(1, 2);
  // A mode change on a never-erased block.
  ASSERT_TRUE(device.SetBlockMode(2, CellTech::kSlc).ok());
  check_block(2, 2);

  // Non-vacuity: the pseudo-mode block really carried a bonus, and some
  // reads drew bit errors, so the stream comparison bit.
  EXPECT_GT(device.EffectiveEndurance(2), device.EffectiveEndurance(0));
  EXPECT_GT(bit_errors_seen, 0u);
}

INSTANTIATE_TEST_SUITE_P(BothModels, NandRberContractTest,
                         ::testing::Values(ErrorModelKind::kPhenomenological,
                                           ErrorModelKind::kVoltage),
                         [](const auto& param_info) {
                           return std::string(param_info.param == ErrorModelKind::kVoltage
                                                  ? "Voltage"
                                                  : "Phenomenological");
                         });

}  // namespace
}  // namespace sos
