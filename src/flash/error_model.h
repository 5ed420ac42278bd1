// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Raw bit error rate (RBER) model and deterministic bit-error injection.
//
// The model combines the three error mechanisms the paper leans on (§2.1,
// §4.2-4.3):
//
//   RBER(pec, t, r) = base * (1 + alpha * (pec / endurance)^k)   [wear]
//                          * (1 + beta * (t_years)^m)            [retention]
//                   + disturb * r                                 [read disturb]
//
// where `pec` is the block's program/erase cycle count at program time,
// `t_years` is the time the data has rested since being programmed, and `r`
// is the number of reads the page has absorbed since program. Coefficients
// live in CellTechInfo per technology/mode.
//
// Determinism: error injection derives its random stream from
// (device_seed, block, page, pec, read_count), so re-running a simulation or
// re-reading the same page state produces identical corrupted bytes.

#ifndef SOS_SRC_FLASH_ERROR_MODEL_H_
#define SOS_SRC_FLASH_ERROR_MODEL_H_

#include <cstdint>
#include <span>

#include "src/flash/cell_tech.h"

namespace sos {

// Wear/retention/disturb inputs for one page read.
struct PageErrorState {
  CellTech mode = CellTech::kTlc;     // programming mode of the block
  double endurance_pec = 3000.0;      // effective endurance (incl. pseudo bonus)
  uint32_t pec_at_program = 0;        // block P/E count when page was written
  double retention_years = 0.0;       // time since program
  uint32_t reads_since_program = 0;   // accumulated read disturb
};

class ErrorModel {
 public:
  // The wear factor of the formula, 1 + alpha * (pec / endurance)^k. It reads
  // only `mode`, `endurance_pec` and `pec_at_program`, so it is constant for
  // every page of a block between two erases (NandDevice keeps it per block).
  static double WearTerm(const PageErrorState& state);

  // Raw bit error rate for a page in the given state, given its wear term
  // (== WearTerm(state)); clamped to [0, 0.5].
  static double Rber(const PageErrorState& state, double wear_term);
  static double Rber(const PageErrorState& state) { return Rber(state, WearTerm(state)); }

  // Flips `error_count` distinct bits of `data` in place, positions drawn
  // from the `stream_seed` stream. Returns the number of bits flipped
  // (== error_count unless the payload has fewer bits).
  static uint64_t InjectErrors(std::span<uint8_t> data, uint64_t error_count,
                               uint64_t stream_seed);
};

}  // namespace sos

#endif  // SOS_SRC_FLASH_ERROR_MODEL_H_
