// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Tests for the ECC layer: capability-model math, page decode and CRC32.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/ecc/ecc_scheme.h"
#include "src/ecc/parity.h"

namespace sos {
namespace {

// --- EccScheme model -------------------------------------------------------

TEST(EccSchemeTest, PresetsResolve) {
  EXPECT_EQ(EccScheme::FromPreset(EccPreset::kNone).correctable_bits, 0u);
  EXPECT_EQ(EccScheme::FromPreset(EccPreset::kWeakBch).correctable_bits, 8u);
  EXPECT_EQ(EccScheme::FromPreset(EccPreset::kBch).correctable_bits, 40u);
  EXPECT_EQ(EccScheme::FromPreset(EccPreset::kLdpc).correctable_bits, 72u);
  EXPECT_LT(EccScheme::FromPreset(EccPreset::kWeakBch).parity_overhead,
            EccScheme::FromPreset(EccPreset::kLdpc).parity_overhead);
}

TEST(EccSchemeTest, CodewordsPerPage) {
  const EccScheme scheme = EccScheme::FromPreset(EccPreset::kBch);
  EXPECT_EQ(scheme.CodewordsPerPage(4096), 4u);
  EXPECT_EQ(scheme.CodewordsPerPage(4097), 5u);
  EXPECT_EQ(scheme.CodewordsPerPage(100), 1u);
}

TEST(EccSchemeTest, FailureProbMonotonicInRber) {
  const EccScheme scheme = EccScheme::FromPreset(EccPreset::kBch);
  double prev = -1.0;
  for (double rber : {1e-6, 1e-5, 1e-4, 1e-3, 1e-2}) {
    const double p = scheme.CodewordFailureProb(rber);
    EXPECT_GE(p, prev);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    prev = p;
  }
}

TEST(EccSchemeTest, StrongerCodeFailsLess) {
  const double rber = 3e-3;
  EXPECT_LT(EccScheme::FromPreset(EccPreset::kLdpc).CodewordFailureProb(rber),
            EccScheme::FromPreset(EccPreset::kBch).CodewordFailureProb(rber));
  EXPECT_LT(EccScheme::FromPreset(EccPreset::kBch).CodewordFailureProb(rber),
            EccScheme::FromPreset(EccPreset::kWeakBch).CodewordFailureProb(rber));
}

TEST(EccSchemeTest, ZeroRberNeverFails) {
  const EccScheme scheme = EccScheme::FromPreset(EccPreset::kBch);
  EXPECT_EQ(scheme.CodewordFailureProb(0.0), 0.0);
  EXPECT_EQ(scheme.PageFailureProb(0.0, 4096), 0.0);
}

TEST(EccSchemeTest, SaturatedRberAlwaysFails) {
  const EccScheme scheme = EccScheme::FromPreset(EccPreset::kBch);
  EXPECT_NEAR(scheme.CodewordFailureProb(0.4), 1.0, 1e-9);
}

TEST(EccSchemeTest, PageFailureAtLeastCodewordFailure) {
  const EccScheme scheme = EccScheme::FromPreset(EccPreset::kBch);
  for (double rber : {1e-4, 1e-3}) {
    EXPECT_GE(scheme.PageFailureProb(rber, 4096), scheme.CodewordFailureProb(rber));
  }
}

TEST(EccSchemeTest, MaxCorrectableRberConsistent) {
  const EccScheme scheme = EccScheme::FromPreset(EccPreset::kBch);
  const double limit = scheme.MaxCorrectableRber(4096, 1e-6);
  EXPECT_GT(limit, 0.0);
  EXPECT_LE(scheme.PageFailureProb(limit, 4096), 1e-6 * 1.1);
  EXPECT_GT(scheme.PageFailureProb(limit * 2.0, 4096), 1e-6);
  // A stronger code sustains a higher RBER.
  EXPECT_GT(EccScheme::FromPreset(EccPreset::kLdpc).MaxCorrectableRber(4096, 1e-6), limit);
}

TEST(EccSchemeTest, NoEccHasZeroLimit) {
  EXPECT_EQ(EccScheme::FromPreset(EccPreset::kNone).MaxCorrectableRber(4096), 0.0);
}

// --- DecodePage ------------------------------------------------------------

TEST(DecodePageTest, ZeroErrorsAlwaysCorrected) {
  for (EccPreset preset : {EccPreset::kNone, EccPreset::kWeakBch, EccPreset::kBch}) {
    const DecodeOutcome out = DecodePage(EccScheme::FromPreset(preset), 4096, 0, 1);
    EXPECT_TRUE(out.corrected);
    EXPECT_EQ(out.residual_errors, 0u);
  }
}

TEST(DecodePageTest, NoEccLeaksEverything) {
  const DecodeOutcome out = DecodePage(EccScheme::FromPreset(EccPreset::kNone), 4096, 17, 1);
  EXPECT_FALSE(out.corrected);
  EXPECT_EQ(out.residual_errors, 17u);
}

TEST(DecodePageTest, FewErrorsCorrected) {
  // 4 codewords * t=40: 20 errors can never exceed any single codeword.
  const DecodeOutcome out = DecodePage(EccScheme::FromPreset(EccPreset::kBch), 4096, 20, 42);
  EXPECT_TRUE(out.corrected);
}

TEST(DecodePageTest, ManyErrorsFail) {
  // 4 codewords * t=40 = 160 correctable in the best case; 400 must fail.
  const DecodeOutcome out = DecodePage(EccScheme::FromPreset(EccPreset::kBch), 4096, 400, 42);
  EXPECT_FALSE(out.corrected);
  EXPECT_GT(out.residual_errors, 0u);
  EXPECT_GT(out.failed_codewords, 0u);
}

TEST(DecodePageTest, DeterministicPerSeed) {
  const EccScheme scheme = EccScheme::FromPreset(EccPreset::kWeakBch);
  // 40 errors over 4 codewords of t=8: borderline, scatter decides.
  const DecodeOutcome a = DecodePage(scheme, 4096, 40, 7);
  const DecodeOutcome b = DecodePage(scheme, 4096, 40, 7);
  EXPECT_EQ(a.corrected, b.corrected);
  EXPECT_EQ(a.residual_errors, b.residual_errors);
  EXPECT_EQ(a.failed_codewords, b.failed_codewords);
}

// The full codeword scatter with no shortcut: every page's errors are drawn
// into codewords, then each codeword is checked against t.
DecodeOutcome FullScatterDecode(const EccScheme& scheme, uint32_t page_bytes,
                                uint64_t raw_errors, uint64_t stream_seed) {
  DecodeOutcome outcome;
  if (scheme.correctable_bits == 0) {
    outcome.corrected = (raw_errors == 0);
    outcome.residual_errors = raw_errors;
    outcome.failed_codewords = raw_errors > 0 ? scheme.CodewordsPerPage(page_bytes) : 0;
    return outcome;
  }
  const uint32_t codewords = scheme.CodewordsPerPage(page_bytes);
  if (raw_errors == 0 || codewords == 0) {
    outcome.corrected = true;
    return outcome;
  }
  std::vector<uint64_t> per_cw(codewords, 0);
  Rng rng(DeriveSeed({stream_seed, 0x6465636f64650aull /* "decode" */}));
  for (uint64_t e = 0; e < raw_errors; ++e) {
    ++per_cw[rng.NextBounded(codewords)];
  }
  outcome.corrected = true;
  for (uint64_t errors : per_cw) {
    if (errors > scheme.correctable_bits) {
      outcome.corrected = false;
      outcome.residual_errors += errors;
      ++outcome.failed_codewords;
    }
  }
  return outcome;
}

void ExpectSameOutcome(const DecodeOutcome& got, const DecodeOutcome& want) {
  EXPECT_EQ(got.corrected, want.corrected);
  EXPECT_EQ(got.residual_errors, want.residual_errors);
  EXPECT_EQ(got.failed_codewords, want.failed_codewords);
}

// DecodePage answers "corrected" without scattering when raw_errors <= t.
// That must be exactly what the scatter would have said, for every preset,
// every count up to t and many streams.
TEST(DecodePageTest, CorrectableShortcutEqualsFullScatter) {
  for (const EccPreset preset :
       {EccPreset::kNone, EccPreset::kWeakBch, EccPreset::kBch, EccPreset::kLdpc}) {
    const EccScheme scheme = EccScheme::FromPreset(preset);
    for (uint64_t raw = 0; raw <= scheme.correctable_bits; ++raw) {
      ASSERT_TRUE(scheme.CorrectsAll(raw));
      for (uint64_t seed = 0; seed < 1000; ++seed) {
        SCOPED_TRACE("preset " + std::to_string(static_cast<int>(preset)) + " raw " +
                     std::to_string(raw) + " seed " + std::to_string(seed));
        const DecodeOutcome want = FullScatterDecode(scheme, 4096, raw, seed);
        ASSERT_TRUE(want.corrected);
        ExpectSameOutcome(DecodePage(scheme, 4096, raw, seed), want);
      }
    }
  }
}

// Above t the scatter still runs and decides; it is unchanged.
TEST(DecodePageTest, UncorrectableCountsStillScatter) {
  bool saw_success = false;
  bool saw_failure = false;
  for (const EccPreset preset :
       {EccPreset::kNone, EccPreset::kWeakBch, EccPreset::kBch, EccPreset::kLdpc}) {
    const EccScheme scheme = EccScheme::FromPreset(preset);
    for (uint64_t raw = scheme.correctable_bits + 1; raw <= 4 * scheme.correctable_bits + 4;
         ++raw) {
      EXPECT_FALSE(scheme.CorrectsAll(raw));
      for (uint64_t seed = 0; seed < 50; ++seed) {
        const DecodeOutcome want = FullScatterDecode(scheme, 4096, raw, seed);
        ExpectSameOutcome(DecodePage(scheme, 4096, raw, seed), want);
        (want.corrected ? saw_success : saw_failure) = true;
      }
    }
  }
  // Non-vacuity: counts above t can still decode when they spread out.
  EXPECT_TRUE(saw_success);
  EXPECT_TRUE(saw_failure);
}

// --- CRC32 -----------------------------------------------------------------

TEST(Crc32Test, KnownVector) {
  // Standard test vector: CRC32("123456789") = 0xCBF43926.
  const std::string s = "123456789";
  EXPECT_EQ(Crc32({reinterpret_cast<const uint8_t*>(s.data()), s.size()}), 0xCBF43926u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(Crc32({}), 0u); }

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::vector<uint8_t> data(128, 0x42);
  const uint32_t crc = Crc32(data);
  data[37] ^= 0x04;
  EXPECT_NE(Crc32(data), crc);
}

}  // namespace
}  // namespace sos
