// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Tests for the media quality models: PSNR math and GOP damage propagation.

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/units.h"
#include "src/flash/error_model.h"
#include "src/media/quality.h"

namespace sos {
namespace {

// --- Image -----------------------------------------------------------------

TEST(ImageQualityTest, IdenticalBuffersAreLossless) {
  const auto img = GenerateSyntheticImage(64, 64, 1);
  EXPECT_DOUBLE_EQ(ImageQualityModel::PsnrDb(img, img), ImageQualityModel::kMaxPsnrDb);
  EXPECT_DOUBLE_EQ(ImageQualityModel::ScoreFromPsnr(ImageQualityModel::kMaxPsnrDb), 1.0);
}

TEST(ImageQualityTest, PsnrDropsWithMoreErrors) {
  const auto img = GenerateSyntheticImage(64, 64, 2);
  auto lightly = img;
  auto heavily = img;
  ErrorModel::InjectErrors(lightly, 16, 3);
  ErrorModel::InjectErrors(heavily, 1024, 4);  // soslint:allow(R10) bit-flip count, not a size
  const double psnr_light = ImageQualityModel::PsnrDb(img, lightly);
  const double psnr_heavy = ImageQualityModel::PsnrDb(img, heavily);
  EXPECT_GT(psnr_light, psnr_heavy);
  EXPECT_LT(psnr_heavy, ImageQualityModel::kMaxPsnrDb);
}

TEST(ImageQualityTest, ScoreMappingAnchors) {
  EXPECT_DOUBLE_EQ(ImageQualityModel::ScoreFromPsnr(50.0), 1.0);
  EXPECT_DOUBLE_EQ(ImageQualityModel::ScoreFromPsnr(10.0), 0.0);
  EXPECT_NEAR(ImageQualityModel::ScoreFromPsnr(30.0), 0.5, 1e-9);
}

TEST(ImageQualityTest, SyntheticImageDeterministic) {
  EXPECT_EQ(GenerateSyntheticImage(32, 32, 9), GenerateSyntheticImage(32, 32, 9));
  EXPECT_NE(GenerateSyntheticImage(32, 32, 9), GenerateSyntheticImage(32, 32, 10));
}

// --- Video -----------------------------------------------------------------

TEST(VideoQualityTest, FrameTypeLayout) {
  VideoConfig config;
  config.gop_size = 12;
  config.p_interval = 3;
  const VideoQualityModel model(config);
  EXPECT_EQ(model.FrameType(0), 'I');
  EXPECT_EQ(model.FrameType(3), 'P');
  EXPECT_EQ(model.FrameType(6), 'P');
  EXPECT_EQ(model.FrameType(1), 'B');
  EXPECT_EQ(model.FrameType(2), 'B');
  EXPECT_EQ(model.FrameType(12), 'I');  // next GOP
}

TEST(VideoQualityTest, CleanStreamScoresOne) {
  VideoConfig config;
  const VideoQualityModel model(config);
  const auto video = GenerateSyntheticVideo(config, 24, 11);
  EXPECT_DOUBLE_EQ(model.ScoreCorrupted(video, video), 1.0);
  EXPECT_DOUBLE_EQ(model.ExpectedScore(0.0, video.size()), 1.0);
}

TEST(VideoQualityTest, IFrameErrorHurtsMoreThanBFrame) {
  VideoConfig config;
  config.frame_bytes = 512;
  config.gop_size = 12;
  const VideoQualityModel model(config);
  const auto video = GenerateSyntheticVideo(config, 24, 12);

  // Flip one bit in the I-frame (frame 0) vs one bit in a B-frame (frame 1).
  auto i_damaged = video;
  i_damaged[10] ^= 1;  // inside frame 0
  auto b_damaged = video;
  b_damaged[512 + 10] ^= 1;  // inside frame 1
  EXPECT_LT(model.ScoreCorrupted(video, i_damaged), model.ScoreCorrupted(video, b_damaged));
}

TEST(VideoQualityTest, ScoreDecreasesWithBer) {
  const VideoQualityModel model{VideoConfig{}};
  double prev = 1.1;
  for (double ber : {1e-8, 1e-6, 1e-5, 1e-4, 1e-3}) {
    const double score = model.ExpectedScore(ber, 8 * kMiB);
    EXPECT_LT(score, prev);
    EXPECT_GE(score, 0.0);
    prev = score;
  }
}

TEST(VideoQualityTest, MeasuredTracksExpected) {
  VideoConfig config;
  config.frame_bytes = kKiB;
  const VideoQualityModel model(config);
  const auto video = GenerateSyntheticVideo(config, 120, 13);
  const double ber = 2e-5;
  const uint64_t bits = static_cast<uint64_t>(video.size()) * 8;
  RunningStats scores;
  for (uint64_t trial = 0; trial < 10; ++trial) {
    auto corrupted = video;
    ErrorModel::InjectErrors(corrupted,
                             static_cast<uint64_t>(static_cast<double>(bits) * ber), trial);
    scores.Add(model.ScoreCorrupted(video, corrupted));
  }
  EXPECT_NEAR(scores.mean(), model.ExpectedScore(ber, video.size()), 0.15);
}

TEST(VideoQualityTest, GracefulDegradationRegime) {
  // The paper's premise: MPEG-like data tolerates low error rates well.
  const VideoQualityModel model{VideoConfig{}};
  EXPECT_GT(model.ExpectedScore(1e-7, 16 * kMiB), 0.95);
  EXPECT_LT(model.ExpectedScore(1e-2, 16 * kMiB), 0.2);
}

}  // namespace
}  // namespace sos
