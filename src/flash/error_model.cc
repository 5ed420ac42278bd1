// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/flash/error_model.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "src/common/rng.h"

namespace sos {

double ErrorModel::WearTerm(const PageErrorState& state) {
  const CellTechInfo& info = GetCellTechInfo(state.mode);
  const double endurance = std::max(state.endurance_pec, 1.0);
  const double wear_ratio = static_cast<double>(state.pec_at_program) / endurance;
  return 1.0 + info.wear_alpha * std::pow(std::max(wear_ratio, 0.0), info.wear_exponent);
}

double ErrorModel::Rber(const PageErrorState& state, double wear_term) {
  const CellTechInfo& info = GetCellTechInfo(state.mode);
  const double retention_term =
      1.0 + info.retention_beta *
                std::pow(std::max(state.retention_years, 0.0), info.retention_exponent);
  const double disturb_term =
      info.read_disturb_per_read * static_cast<double>(state.reads_since_program);
  const double rber = info.base_rber * wear_term * retention_term + disturb_term;
  return std::clamp(rber, 0.0, 0.5);
}

uint64_t ErrorModel::InjectErrors(std::span<uint8_t> data, uint64_t error_count,
                                  uint64_t stream_seed) {
  const uint64_t total_bits = static_cast<uint64_t>(data.size()) * 8;
  if (total_bits == 0 || error_count == 0) {
    return 0;
  }
  error_count = std::min(error_count, total_bits);
  // Derive the position stream from a distinct sub-seed so the count and the
  // positions are independent.
  Rng rng(DeriveSeed({stream_seed, 0x706f736974696f6eull /* "position" */}));
  // Draw *distinct* bit positions: re-flipping the same bit would cancel the
  // error and under-deliver the sampled count. Collisions are rare because
  // error_count << total_bits in any realistic state, so rejection is cheap;
  // a retry cap guards the degenerate near-saturation case.
  std::unordered_set<uint64_t> chosen;
  chosen.reserve(static_cast<size_t>(error_count));
  uint64_t attempts = 0;
  const uint64_t max_attempts = error_count * 16 + 64;
  while (chosen.size() < error_count && attempts < max_attempts) {
    ++attempts;
    const uint64_t bit = rng.NextBounded(total_bits);
    if (!chosen.insert(bit).second) {
      continue;
    }
    const uint64_t byte = bit / 8;
    const uint8_t mask = static_cast<uint8_t>(1u << (bit % 8));
    data[byte] = static_cast<uint8_t>(data[byte] ^ mask);
  }
  return chosen.size();
}

}  // namespace sos
