// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Accuracy and determinism contract of the memoized RBER path
// (src/flash/rber_cache.h):
//
//   1. memo ON: |memo - exact| <= kRelErrorBound * exact + kAbsErrorBound
//      across the full wear x retention x disturb x retry grid, for every
//      cell technology and both error-model kinds. A violation is a test
//      failure, never a reason to loosen the bound silently.
//   2. out-of-range inputs (retention beyond the grid, pec beyond the memo
//      cap, wear ratio beyond the sigma axis, disturb beyond the linear
//      window) fall back to the exact model *bitwise*.
//   3. memo OFF (the default): pure passthrough, bitwise equal to
//      ComputeRber -- this is what keeps every golden byte-identical.
//   4. the memo switch defaults off (NandConfig::rber_memo).

#include <cmath>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>
#include "src/flash/cell_tech.h"
#include "src/flash/error_model.h"
#include "src/flash/nand_device.h"
#include "src/flash/rber_cache.h"
#include "src/flash/voltage_model.h"

namespace sos {
namespace {

constexpr CellTech kAllTechs[] = {CellTech::kSlc, CellTech::kMlc, CellTech::kTlc,
                                  CellTech::kQlc, CellTech::kPlc};
constexpr ErrorModelKind kKinds[] = {ErrorModelKind::kPhenomenological, ErrorModelKind::kVoltage};

PageErrorState StateFor(CellTech tech, double endurance, uint32_t pec, double t, uint32_t reads) {
  PageErrorState state;
  state.mode = tech;
  state.endurance_pec = endurance;
  state.pec_at_program = pec;
  state.retention_years = t;
  state.reads_since_program = reads;
  return state;
}

TEST(RberMemoTest, MemoizedWithinDocumentedBoundOnFullGrid) {
  constexpr double kTs[] = {0.0, 1e-4, 1e-3, 1e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 24.9};
  constexpr uint32_t kReads[] = {0, 100, 2000};
  constexpr int kRetries[] = {0, 1, 3};
  for (ErrorModelKind kind : kKinds) {
    RberCache memo(kind, true);
    ASSERT_TRUE(memo.memoizing());
    for (CellTech tech : kAllTechs) {
      const double endurance = static_cast<double>(GetCellTechInfo(tech).rated_endurance_pec);
      for (uint32_t i = 0; i < 16; ++i) {
        const uint32_t pec =
            static_cast<uint32_t>(endurance * 1.95 * static_cast<double>(i) / 15.0);
        for (double t : kTs) {
          for (uint32_t reads : kReads) {
            for (int retry : kRetries) {
              const PageErrorState state = StateFor(tech, endurance, pec, t, reads);
              const double exact = ComputeRber(kind, state, retry);
              const double got = memo.Rber(state, retry);
              EXPECT_LE(std::abs(got - exact),
                        RberCache::kRelErrorBound * exact + RberCache::kAbsErrorBound)
                  << CellTechName(tech) << " kind=" << static_cast<int>(kind) << " pec=" << pec
                  << " t=" << t << " reads=" << reads << " retry=" << retry
                  << " exact=" << exact << " memo=" << got;
            }
          }
        }
      }
    }
  }
}

TEST(RberMemoTest, OutOfRangeInputsFallBackToExactBitwise) {
  for (ErrorModelKind kind : kKinds) {
    RberCache memo(kind, true);
    for (CellTech tech : {CellTech::kTlc, CellTech::kPlc}) {
      SCOPED_TRACE(std::string(CellTechName(tech)));
      const double endurance = static_cast<double>(GetCellTechInfo(tech).rated_endurance_pec);
      // Retention beyond the grid ceiling.
      PageErrorState state = StateFor(tech, endurance, 100, 30.0, 10);
      EXPECT_EQ(memo.Rber(state, 0), ComputeRber(kind, state, 0));
      // PEC beyond the memo cap.
      state = StateFor(tech, endurance, RberCache::kMaxMemoPec + 5, 0.5, 10);
      EXPECT_EQ(memo.Rber(state, 1), ComputeRber(kind, state, 1));
      // Wear ratio beyond the sigma axis: an exact fallback on the voltage
      // path only (the pheno memo stores base*wear per PEC exactly, so high
      // wear stays memoized there and is covered by the bound test).
      if (kind == ErrorModelKind::kVoltage) {
        state = StateFor(tech, endurance,
                         static_cast<uint32_t>(endurance * (RberCache::kMaxWearRatio + 0.5)), 0.5,
                         10);
        EXPECT_EQ(memo.Rber(state, 0), ComputeRber(kind, state, 0));
      }
      // An endurance that changed under the cache: refuse, exact path.
      state = StateFor(tech, endurance * 2.0, 100, 0.5, 10);
      EXPECT_EQ(memo.Rber(state, 0), ComputeRber(kind, state, 0));
    }
    // Read disturb beyond the first-order window (voltage path).
    if (kind == ErrorModelKind::kVoltage) {
      const CellTechInfo& info = GetCellTechInfo(CellTech::kPlc);
      const double per_read = VoltageModel::ParamsFor(CellTech::kPlc).disturb_per_read;
      const uint32_t reads =
          static_cast<uint32_t>(RberCache::kMaxDisturbWindow / per_read) + 1000;
      const PageErrorState state =
          StateFor(CellTech::kPlc, static_cast<double>(info.rated_endurance_pec), 50, 0.5, reads);
      EXPECT_EQ(memo.Rber(state, 0), ComputeRber(kind, state, 0));
    }
  }
}

TEST(RberMemoTest, MemoOffIsBitwisePassthrough) {
  for (ErrorModelKind kind : kKinds) {
    RberCache off(kind, false);
    ASSERT_FALSE(off.memoizing());
    for (CellTech tech : kAllTechs) {
      const double endurance = static_cast<double>(GetCellTechInfo(tech).rated_endurance_pec);
      for (uint32_t pec : {0u, 37u, 500u, 5000u}) {
        for (double t : {0.0, 0.01, 1.0, 7.5}) {
          for (int retry : {0, 2}) {
            const PageErrorState state = StateFor(tech, endurance, pec, t, 123);
            EXPECT_EQ(off.Rber(state, retry), ComputeRber(kind, state, retry))
                << CellTechName(tech) << " pec=" << pec << " t=" << t;
          }
        }
      }
    }
  }
}

TEST(RberMemoTest, RetryTrackingSaturationIsMemoizedNotFallback) {
  // VoltageModel::RetryTracking saturates at level 3, so the memo clamps
  // higher retry levels onto the level-3 table instead of dropping to the
  // exact path; the bound must still hold there.
  RberCache memo(ErrorModelKind::kVoltage, true);
  const double endurance = static_cast<double>(GetCellTechInfo(CellTech::kQlc).rated_endurance_pec);
  const PageErrorState state = StateFor(CellTech::kQlc, endurance, 400, 2.0, 50);
  const double exact = ComputeRber(ErrorModelKind::kVoltage, state, 7);
  const double got = memo.Rber(state, 7);
  EXPECT_LE(std::abs(got - exact), RberCache::kRelErrorBound * exact + RberCache::kAbsErrorBound);
  EXPECT_EQ(got, memo.Rber(state, 3));  // same saturated table
}

TEST(RberMemoTest, HotPathSwitchesDefaultOff) {
  // The determinism contract: every golden was produced with these off, so
  // their defaults are load-bearing. Flipping one is a deliberate,
  // golden-regenerating decision -- never a drive-by.
  EXPECT_FALSE(NandConfig{}.rber_memo);
}

}  // namespace
}  // namespace sos
