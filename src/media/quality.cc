// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/media/quality.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/common/rng.h"

namespace sos {

// ---------------------------------------------------------------------------
// Images.
// ---------------------------------------------------------------------------

double ImageQualityModel::PsnrDb(std::span<const uint8_t> original,
                                 std::span<const uint8_t> corrupted) {
  assert(original.size() == corrupted.size());
  if (original.empty()) {
    return kMaxPsnrDb;
  }
  double sq_err = 0.0;
  for (size_t i = 0; i < original.size(); ++i) {
    const double d = static_cast<double>(original[i]) - static_cast<double>(corrupted[i]);
    sq_err += d * d;
  }
  if (sq_err == 0.0) {
    return kMaxPsnrDb;
  }
  const double mse = sq_err / static_cast<double>(original.size());
  const double psnr = 10.0 * std::log10(255.0 * 255.0 / mse);
  return std::min(psnr, kMaxPsnrDb);
}

double ImageQualityModel::ScoreFromPsnr(double psnr_db) {
  constexpr double kLossless = 45.0;
  constexpr double kUnusable = 15.0;
  if (psnr_db >= kLossless) {
    return 1.0;
  }
  if (psnr_db <= kUnusable) {
    return 0.0;
  }
  return (psnr_db - kUnusable) / (kLossless - kUnusable);
}

std::vector<uint8_t> GenerateSyntheticImage(uint32_t width, uint32_t height, uint64_t seed) {
  std::vector<uint8_t> pixels(static_cast<size_t>(width) * height);
  Rng rng(DeriveSeed({seed, 0x696d616765ull /* "image" */}));
  for (uint32_t y = 0; y < height; ++y) {
    for (uint32_t x = 0; x < width; ++x) {
      // Diagonal gradient plus +-8 levels of texture noise.
      const double base = 255.0 * (static_cast<double>(x) + static_cast<double>(y)) /
                          (static_cast<double>(width) + static_cast<double>(height));
      const double noise = rng.NextGaussian(0.0, 4.0);
      const double v = std::clamp(base + noise, 0.0, 255.0);
      pixels[static_cast<size_t>(y) * width + x] = static_cast<uint8_t>(v);
    }
  }
  return pixels;
}

// ---------------------------------------------------------------------------
// Video.
// ---------------------------------------------------------------------------

char VideoQualityModel::FrameType(uint64_t frame_index) const {
  const uint64_t pos = frame_index % config_.gop_size;
  if (pos == 0) {
    return 'I';
  }
  if (config_.p_interval > 0 && pos % config_.p_interval == 0) {
    return 'P';
  }
  return 'B';
}

double VideoQualityModel::OwnDamage(uint64_t bit_errors) const {
  return std::min(1.0, static_cast<double>(bit_errors) * config_.error_gain);
}

double VideoQualityModel::ScoreCorrupted(std::span<const uint8_t> original,
                                         std::span<const uint8_t> corrupted) const {
  assert(original.size() == corrupted.size());
  if (original.empty()) {
    return 1.0;
  }
  const uint64_t frames =
      (original.size() + config_.frame_bytes - 1) / config_.frame_bytes;

  // Count bit errors per frame.
  std::vector<uint64_t> errors(frames, 0);
  for (size_t i = 0; i < original.size(); ++i) {
    uint8_t diff = static_cast<uint8_t>(original[i] ^ corrupted[i]);
    if (diff != 0) {
      errors[i / config_.frame_bytes] +=
          static_cast<uint64_t>(__builtin_popcount(static_cast<unsigned>(diff)));
    }
  }

  // Propagate damage within each GOP and average retained quality.
  double retained_total = 0.0;
  for (uint64_t gop_start = 0; gop_start < frames; gop_start += config_.gop_size) {
    const uint64_t gop_end = std::min<uint64_t>(gop_start + config_.gop_size, frames);
    double inherited = 0.0;  // damage flowing from earlier reference frames
    for (uint64_t f = gop_start; f < gop_end; ++f) {
      const char type = FrameType(f);
      const double own = OwnDamage(errors[f]);
      const double damage = std::min(1.0, own + inherited);
      retained_total += 1.0 - damage;
      if (type == 'I') {
        inherited = std::min(1.0, inherited + own * config_.i_propagation);
      } else if (type == 'P') {
        inherited = std::min(1.0, inherited + own * config_.p_propagation);
      }
      // B frames are not reference frames: no propagation.
    }
  }
  return retained_total / static_cast<double>(frames);
}

double VideoQualityModel::ExpectedScore(double ber, uint64_t total_bytes) const {
  if (ber <= 0.0 || total_bytes == 0) {
    return 1.0;
  }
  const double frame_bits = static_cast<double>(config_.frame_bytes) * 8.0;
  const double exp_errors_per_frame = ber * frame_bits;
  // Expected own damage per frame. For small error counts the min() clamp is
  // inactive and E[damage] = gain * E[errors]; near saturation cap at 1.
  const double own = std::min(1.0, exp_errors_per_frame * config_.error_gain);

  // Walk one representative GOP accumulating expected inherited damage.
  const uint64_t frames = std::max<uint64_t>(
      1, (total_bytes + config_.frame_bytes - 1) / config_.frame_bytes);
  const uint64_t gop = std::min<uint64_t>(config_.gop_size, frames);
  double inherited = 0.0;
  double retained = 0.0;
  for (uint64_t f = 0; f < gop; ++f) {
    const uint64_t pos = f % config_.gop_size;
    const char type = pos == 0 ? 'I'
                      : (config_.p_interval > 0 && pos % config_.p_interval == 0) ? 'P'
                                                                                  : 'B';
    retained += 1.0 - std::min(1.0, own + inherited);
    if (type == 'I') {
      inherited = std::min(1.0, inherited + own * config_.i_propagation);
    } else if (type == 'P') {
      inherited = std::min(1.0, inherited + own * config_.p_propagation);
    }
  }
  return retained / static_cast<double>(gop);
}

std::vector<uint8_t> GenerateSyntheticVideo(const VideoConfig& config, uint32_t frames,
                                            uint64_t seed) {
  std::vector<uint8_t> payload(static_cast<size_t>(frames) * config.frame_bytes);
  Rng rng(DeriveSeed({seed, 0x766964656full /* "video" */}));
  for (auto& byte : payload) {
    byte = static_cast<uint8_t>(rng.NextU64() & 0xff);
  }
  return payload;
}

}  // namespace sos
