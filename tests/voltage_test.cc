// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Tests for the physical threshold-voltage model and the read-retry path it
// enables.

#include <gtest/gtest.h>

#include "src/flash/nand_device.h"
#include "src/flash/voltage_model.h"
#include "src/ftl/ftl.h"

namespace sos {
namespace {

constexpr CellTech kAllTechs[] = {CellTech::kSlc, CellTech::kMlc, CellTech::kTlc,
                                  CellTech::kQlc, CellTech::kPlc};

PageErrorState FreshState(CellTech mode) {
  PageErrorState state;
  state.mode = mode;
  state.endurance_pec = GetCellTechInfo(mode).rated_endurance_pec;
  return state;
}

// The voltage model's RBER at `retry_level`, with the wear factor the device
// caches per block computed in place.
double Rber(const PageErrorState& state, int retry_level = 0) {
  return VoltageModel::RberAt(state, VoltageModel::SigmaWearFactor(state), retry_level);
}

// --- Calibration and physics --------------------------------------------------

class VoltageModelTechTest : public ::testing::TestWithParam<CellTech> {};

TEST_P(VoltageModelTechTest, FreshRberMatchesCatalog) {
  const double catalog = GetCellTechInfo(GetParam()).base_rber;
  const double physical = Rber(FreshState(GetParam()));
  EXPECT_NEAR(physical, catalog, catalog * 0.05) << CellTechName(GetParam());
}

TEST_P(VoltageModelTechTest, MonotonicInRetention) {
  PageErrorState state = FreshState(GetParam());
  double prev = 0.0;
  for (double years : {0.0, 0.5, 1.0, 3.0, 8.0}) {
    state.retention_years = years;
    const double rber = Rber(state);
    EXPECT_GE(rber, prev);
    prev = rber;
  }
}

TEST_P(VoltageModelTechTest, MonotonicInWear) {
  PageErrorState state = FreshState(GetParam());
  state.retention_years = 1.0;
  double prev = 0.0;
  for (double frac : {0.0, 0.3, 0.7, 1.0, 1.5}) {
    state.pec_at_program = static_cast<uint32_t>(frac * state.endurance_pec);
    const double rber = Rber(state);
    EXPECT_GE(rber, prev);
    prev = rber;
  }
}

TEST_P(VoltageModelTechTest, RetryLowersRetentionErrors) {
  PageErrorState state = FreshState(GetParam());
  state.retention_years = 3.0;
  const double no_retry = Rber(state, 0);
  const double retry1 = Rber(state, 1);
  const double retry2 = Rber(state, 2);
  EXPECT_LT(retry1, no_retry);
  EXPECT_LE(retry2, retry1);
}

INSTANTIATE_TEST_SUITE_P(AllTechs, VoltageModelTechTest, ::testing::ValuesIn(kAllTechs),
                         [](const auto& param_info) {
                           return std::string(CellTechName(param_info.param));
                         });

TEST(VoltageModelTest, DenserCellsDegradeFasterUnderSameDrift) {
  // Same physical drift, tighter margins: at equal retention the PLC RBER
  // must exceed TLC's by a growing factor.
  PageErrorState tlc = FreshState(CellTech::kTlc);
  PageErrorState plc = FreshState(CellTech::kPlc);
  tlc.retention_years = plc.retention_years = 2.0;
  EXPECT_GT(Rber(plc), Rber(tlc));
}

TEST(VoltageModelTest, TracksPhenomenologicalModelShape) {
  // The two models must agree on the *shape*: within an order of magnitude
  // across the regimes the simulations visit. (They are calibrated to agree
  // exactly at the fresh point.)
  for (CellTech tech : {CellTech::kTlc, CellTech::kQlc, CellTech::kPlc}) {
    PageErrorState state = FreshState(tech);
    for (double years : {0.5, 1.0, 2.0}) {
      state.retention_years = years;
      const double physical = Rber(state);
      const double fitted = ErrorModel::Rber(state);
      EXPECT_LT(physical, fitted * 10.0) << CellTechName(tech) << " @" << years;
      EXPECT_GT(physical, fitted / 10.0) << CellTechName(tech) << " @" << years;
    }
  }
}

TEST(VoltageModelTest, RetryTrackingLevels) {
  EXPECT_DOUBLE_EQ(VoltageModel::RetryTracking(0), 0.0);
  EXPECT_LT(VoltageModel::RetryTracking(1), VoltageModel::RetryTracking(2));
  EXPECT_LT(VoltageModel::RetryTracking(2), VoltageModel::RetryTracking(5));
  EXPECT_LE(VoltageModel::RetryTracking(9), 1.0);
}

TEST(VoltageModelTest, ComputeRberDispatch) {
  PageErrorState state = FreshState(CellTech::kQlc);
  state.retention_years = 1.0;
  EXPECT_DOUBLE_EQ(ComputeRber(ErrorModelKind::kPhenomenological, state, 0),
                   ErrorModel::Rber(state));
  EXPECT_DOUBLE_EQ(ComputeRber(ErrorModelKind::kVoltage, state, 0),
                   Rber(state, 0));
  // Phenomenological retry approximates the tracking effect.
  EXPECT_LT(ComputeRber(ErrorModelKind::kPhenomenological, state, 2),
            ComputeRber(ErrorModelKind::kPhenomenological, state, 0));
}

// --- Device + FTL integration --------------------------------------------------

TEST(VoltageDeviceTest, VoltageModeDeviceDegradesOverTime) {
  NandConfig config;
  config.num_blocks = 4;
  config.wordlines_per_block = 4;
  config.page_size_bytes = 4096;
  config.tech = CellTech::kPlc;
  config.error_model = ErrorModelKind::kVoltage;
  SimClock clock;
  NandDevice device(config, &clock);
  ASSERT_TRUE(device.Program({0, 0}, std::vector<uint8_t>(4096, 0xAB)).ok());
  auto fresh = device.Read({0, 0});
  ASSERT_TRUE(fresh.ok());
  clock.Advance(YearsToUs(8.0));
  auto aged = device.Read({0, 0});
  ASSERT_TRUE(aged.ok());
  EXPECT_GT(aged.value().rber, fresh.value().rber);
  EXPECT_GT(aged.value().bit_errors, 0u);
}

TEST(VoltageDeviceTest, RetryReadSeesLowerRber) {
  NandConfig config;
  config.num_blocks = 4;
  config.wordlines_per_block = 4;
  config.page_size_bytes = 4096;
  config.tech = CellTech::kPlc;
  config.error_model = ErrorModelKind::kVoltage;
  SimClock clock;
  NandDevice device(config, &clock);
  ASSERT_TRUE(device.Program({0, 0}, std::vector<uint8_t>(4096, 1)).ok());
  clock.Advance(YearsToUs(5.0));
  auto normal = device.Read({0, 0}, 0);
  auto retried = device.Read({0, 0}, 2);
  ASSERT_TRUE(normal.ok());
  ASSERT_TRUE(retried.ok());
  EXPECT_LT(retried.value().rber, normal.value().rber);
}

TEST(VoltageFtlTest, ReadRetryRecoversEccFailures) {
  // Weak ECC + aged pages: without retry many reads degrade; with retries
  // most recover. Uses the voltage model end to end.
  auto run = [](uint32_t retries) {
    FtlConfig config;
    config.nand.num_blocks = 16;
    config.nand.wordlines_per_block = 8;
    config.nand.page_size_bytes = 4096;
    config.nand.tech = CellTech::kPlc;
    config.nand.seed = 77;
    config.nand.store_payloads = false;
    config.nand.error_model = ErrorModelKind::kVoltage;
    FtlPoolConfig pool;
    pool.name = "MAIN";
    pool.mode = CellTech::kPlc;
    pool.ecc = EccScheme::FromPreset(EccPreset::kWeakBch);
    pool.nominal_retention_years = 20.0;  // no retirement in this test
    pool.retire_rber = 0.4;
    pool.read_retries = retries;
    config.pools = {pool};
    SimClock clock;
    Ftl ftl(config, &clock);
    for (uint64_t lba = 0; lba < 120; ++lba) {
      EXPECT_TRUE(ftl.Write(lba, {}, 0).ok());
    }
    clock.Advance(YearsToUs(6.0));
    uint64_t degraded = 0;
    for (uint64_t lba = 0; lba < 120; ++lba) {
      auto read = ftl.Read(lba);
      EXPECT_TRUE(read.ok());
      degraded += static_cast<uint64_t>(read.ok() && read.value().degraded ? 1 : 0);
    }
    return std::make_pair(degraded, ftl.stats().retry_recoveries());
  };
  const auto [degraded_without, recoveries_without] = run(0);
  const auto [degraded_with, recoveries_with] = run(3);
  EXPECT_EQ(recoveries_without, 0u);
  EXPECT_GT(degraded_without, 0u);
  EXPECT_GT(recoveries_with, 0u);
  EXPECT_LT(degraded_with, degraded_without);
}

}  // namespace
}  // namespace sos
