// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Media quality models for approximate storage.
//
// SOS stores SPARE files with weak or no ECC and lets them "slightly degrade
// in quality over time" (paper abstract, §4.2). To reason about what the user
// actually experiences, this module maps raw bit errors to perceptual-quality
// scores for the two media families that dominate personal storage:
//
//  - Images (ImageQualityModel): synthetic raw 8-bit grayscale bitmaps.
//    A flipped bit in pixel bit-plane b contributes (2^b)^2 of squared error,
//    so PSNR is computed *exactly* between the original and corrupted bytes.
//    This mirrors the significance-ordered encoding of approximate storage
//    systems ([70]): high bit-planes matter, low ones barely register.
//
//  - Video (VideoQualityModel): an MPEG-like GOP structure. Errors in
//    I-frames damage the whole group-of-pictures (every later frame predicts
//    from them), P-frame errors propagate to the rest of their GOP, B-frame
//    errors hurt only themselves ([72]). Most bytes live in tolerant P/B
//    frames, which is exactly why MPEG data degrades gracefully.
//
// Both models provide a bit-exact path (compare original vs corrupted bytes).
// The video model also provides an analytical expectation path (quality as a
// function of BER) used by the large-scale lifetime simulations that run
// without stored payloads.

#ifndef SOS_SRC_MEDIA_QUALITY_H_
#define SOS_SRC_MEDIA_QUALITY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/units.h"

namespace sos {

// ---------------------------------------------------------------------------
// Images.
// ---------------------------------------------------------------------------

class ImageQualityModel {
 public:
  // Peak signal-to-noise ratio in dB between two equal-size 8-bit pixel
  // buffers. Identical buffers return kMaxPsnrDb (lossless sentinel).
  static constexpr double kMaxPsnrDb = 99.0;
  static double PsnrDb(std::span<const uint8_t> original, std::span<const uint8_t> corrupted);

  // Maps PSNR to a [0,1] quality score: >= 45 dB is visually lossless (1.0),
  // <= 15 dB is unusable (0.0), linear in between. The thresholds follow
  // common subjective-quality anchors for natural images.
  static double ScoreFromPsnr(double psnr_db);
};

// Deterministic synthetic grayscale image: smooth gradient plus seeded noise,
// `width*height` bytes. Smoothness matters: it makes PSNR degradation from
// bit flips representative of natural photos.
std::vector<uint8_t> GenerateSyntheticImage(uint32_t width, uint32_t height, uint64_t seed);

// ---------------------------------------------------------------------------
// Video.
// ---------------------------------------------------------------------------

struct VideoConfig {
  uint32_t frame_bytes = kKiB;  // encoded size of one frame
  uint32_t gop_size = 12;       // frames per group-of-pictures (first is the I-frame)
  uint32_t p_interval = 3;      // every p_interval-th frame in a GOP is P, rest are B
  // Damage scaling: a frame with e bit errors loses min(1, e * error_gain)
  // of its own quality before propagation. Calibrated so the expected score
  // matches the MPEG error-tolerance regime of [72]: ~0.99 at BER 1e-6,
  // ~0.85 at 1e-4, collapsing toward 0 past 1e-3.
  double error_gain = 0.08;
  // Fraction of damage an I-frame error passes to each frame of its GOP, and
  // a P-frame passes to later frames of its GOP.
  double i_propagation = 1.0;
  double p_propagation = 0.6;
};

class VideoQualityModel {
 public:
  explicit VideoQualityModel(const VideoConfig& config) : config_(config) {}

  // Bit-exact score in [0,1]: diffs the buffers, attributes errors to frames,
  // propagates damage through the GOP structure, and averages retained
  // per-frame quality.
  double ScoreCorrupted(std::span<const uint8_t> original,
                        std::span<const uint8_t> corrupted) const;

  // Analytical expected score for a stream of `total_bytes` at bit error
  // rate `ber`.
  double ExpectedScore(double ber, uint64_t total_bytes) const;

  // Frame classification helper (exposed for tests): 'I', 'P' or 'B'.
  char FrameType(uint64_t frame_index) const;

 private:
  // Per-frame damage in [0,1] given its raw bit error count.
  double OwnDamage(uint64_t bit_errors) const;

  VideoConfig config_;
};

// Deterministic synthetic "encoded video" payload of `frames` frames. The
// content is seeded noise (encoded video is high-entropy); the structure that
// matters is positional (frame boundaries and GOP layout).
std::vector<uint8_t> GenerateSyntheticVideo(const VideoConfig& config, uint32_t frames,
                                            uint64_t seed);

}  // namespace sos

#endif  // SOS_SRC_MEDIA_QUALITY_H_
