// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Tests for the real BCH codec: exhaustive single/low-weight correction,
// randomized property sweeps across (m, t), detection beyond capability, and
// agreement with the analytic capability model.

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "tests/oracle/bch.h"
#include "src/ecc/ecc_scheme.h"

namespace sos {
namespace {

std::vector<uint8_t> RandomBits(int count, Rng& rng) {
  std::vector<uint8_t> bits(static_cast<size_t>(count));
  for (auto& b : bits) {
    b = static_cast<uint8_t>(rng.NextBounded(2));
  }
  return bits;
}

void FlipDistinct(std::vector<uint8_t>& bits, int count, Rng& rng) {
  std::vector<size_t> chosen;
  while (static_cast<int>(chosen.size()) < count) {
    const size_t pos = static_cast<size_t>(rng.NextBounded(bits.size()));
    if (std::find(chosen.begin(), chosen.end(), pos) == chosen.end()) {
      chosen.push_back(pos);
      bits[pos] ^= 1;
    }
  }
}

TEST(BchTest, CodeParameters) {
  // Classic values: BCH(15,7,t=2), BCH(31,21,t=2), BCH(63,45,t=3),
  // BCH(255,231,t=3).
  EXPECT_EQ(BchCode(4, 2).k(), 7);
  EXPECT_EQ(BchCode(5, 2).k(), 21);
  EXPECT_EQ(BchCode(6, 3).k(), 45);
  EXPECT_EQ(BchCode(8, 3).k(), 231);
}

TEST(BchTest, CleanRoundtrip) {
  Rng rng(1);
  const BchCode code(6, 3);
  for (int trial = 0; trial < 50; ++trial) {
    const auto data = RandomBits(code.k(), rng);
    const auto codeword = code.Encode(data);
    EXPECT_EQ(static_cast<int>(codeword.size()), code.n());
    const auto decoded = code.Decode(codeword);
    ASSERT_TRUE(decoded.ok);
    EXPECT_EQ(decoded.errors_corrected, 0);
    EXPECT_EQ(decoded.data_bits, data);
  }
}

TEST(BchTest, CorrectsEverySingleBit) {
  Rng rng(2);
  const BchCode code(5, 2);  // n=31: exhaustive is cheap
  const auto data = RandomBits(code.k(), rng);
  const auto codeword = code.Encode(data);
  for (int bit = 0; bit < code.n(); ++bit) {
    auto corrupted = codeword;
    corrupted[static_cast<size_t>(bit)] ^= 1;
    const auto decoded = code.Decode(corrupted);
    ASSERT_TRUE(decoded.ok) << "bit " << bit;
    EXPECT_EQ(decoded.errors_corrected, 1);
    EXPECT_EQ(decoded.data_bits, data);
  }
}

// Property sweep: for every (m, t) configuration, random error patterns of
// weight <= t always decode back to the original data.
struct BchParam {
  int m;
  int t;
};

class BchPropertyTest : public ::testing::TestWithParam<BchParam> {};

TEST_P(BchPropertyTest, CorrectsUpToTErrors) {
  const BchCode code(GetParam().m, GetParam().t);
  Rng rng(DeriveSeed({static_cast<uint64_t>(GetParam().m),
                      static_cast<uint64_t>(GetParam().t)}));
  for (int trial = 0; trial < 30; ++trial) {
    const auto data = RandomBits(code.k(), rng);
    const auto codeword = code.Encode(data);
    const int errors = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(code.t()))) + 1;
    auto corrupted = codeword;
    FlipDistinct(corrupted, errors, rng);
    const auto decoded = code.Decode(corrupted);
    ASSERT_TRUE(decoded.ok) << "m=" << GetParam().m << " t=" << GetParam().t
                            << " errors=" << errors << " trial=" << trial;
    EXPECT_EQ(decoded.errors_corrected, errors);
    EXPECT_EQ(decoded.data_bits, data);
  }
}

TEST_P(BchPropertyTest, BoundedDistanceBehaviourBeyondCapability) {
  // Beyond t errors a bounded-distance decoder either flags failure or
  // miscorrects to the *nearest* valid codeword -- in which case it must
  // report having flipped at most t bits. It must never claim success while
  // having applied more than t corrections.
  const BchCode code(GetParam().m, GetParam().t);
  Rng rng(DeriveSeed({static_cast<uint64_t>(GetParam().m),
                      static_cast<uint64_t>(GetParam().t), 99}));
  const int trials = 30;
  for (int trial = 0; trial < trials; ++trial) {
    const auto data = RandomBits(code.k(), rng);
    auto corrupted = code.Encode(data);
    FlipDistinct(corrupted, 2 * code.t() + 3, rng);
    const auto decoded = code.Decode(corrupted);
    if (decoded.ok) {
      EXPECT_LE(decoded.errors_corrected, code.t());
      // A "successful" heavy-corruption decode can only be a miscorrection;
      // the data cannot match the original (2t+3 > 2t flips cannot cancel
      // back to within t of the true codeword).
      EXPECT_NE(decoded.data_bits, data);
    }
  }
}

TEST(BchTest, LongCodesMostlyDetectHeavyCorruption) {
  // With n=1023 and t=4 the codeword space is sparse: random heavy patterns
  // land between codewords and the decoder flags them.
  const BchCode code(10, 4);
  Rng rng(11);
  int flagged = 0;
  const int trials = 40;
  for (int trial = 0; trial < trials; ++trial) {
    const auto data = RandomBits(code.k(), rng);
    auto corrupted = code.Encode(data);
    FlipDistinct(corrupted, 3 * code.t(), rng);
    if (!code.Decode(corrupted).ok) {
      ++flagged;
    }
  }
  EXPECT_GT(flagged, trials * 8 / 10);
}

INSTANTIATE_TEST_SUITE_P(Configs, BchPropertyTest,
                         ::testing::Values(BchParam{4, 1}, BchParam{4, 2}, BchParam{5, 2},
                                           BchParam{5, 3}, BchParam{6, 2}, BchParam{6, 4},
                                           BchParam{8, 2}, BchParam{8, 5}, BchParam{10, 4}),
                         [](const auto& param_info) {
                           return "m" + std::to_string(param_info.param.m) + "t" +
                                  std::to_string(param_info.param.t);
                         });

TEST(BchTest, AgreesWithCapabilityModel) {
  // The analytic EccScheme says a t=4 code over ~1 KiB-ish codewords fails
  // with probability ~binomial tail beyond 4; the real decoder's empirical
  // failure rate at a matching RBER must agree in order of magnitude.
  const BchCode code(10, 4);  // n=1023 bits
  Rng rng(7);
  const double rber = 2e-3;  // ~2 expected errors per codeword
  int failures = 0;
  const int trials = 400;
  for (int trial = 0; trial < trials; ++trial) {
    const auto data = RandomBits(code.k(), rng);
    auto corrupted = code.Encode(data);
    int flips = 0;
    for (auto& bit : corrupted) {
      if (rng.NextBool(rber)) {
        bit ^= 1;
        ++flips;
      }
    }
    const auto decoded = code.Decode(corrupted);
    if (!(decoded.ok && decoded.data_bits == data)) {
      ++failures;
      EXPECT_GT(flips, code.t());  // never fail within capability
    }
  }
  EccScheme analytic;
  analytic.codeword_bytes = 1023 / 8;
  analytic.correctable_bits = 4;
  const double predicted = analytic.CodewordFailureProb(rber);
  const double measured = static_cast<double>(failures) / trials;
  EXPECT_NEAR(measured, predicted, std::max(0.03, predicted * 1.0));
}

}  // namespace
}  // namespace sos
