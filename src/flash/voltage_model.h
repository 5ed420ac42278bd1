// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Physical threshold-voltage cell model.
//
// The phenomenological ErrorModel fits RBER curves directly; this module
// derives them from the §2.1 mechanics instead: a cell stores one of 2^b
// charge levels in a fixed voltage window, each level a Gaussian of width
// sigma; reading compares against the 2^b - 1 reference voltages between
// adjacent level means. Errors are adjacent-level misreads, so with Gray
// coding each misread flips exactly one of the b bits.
//
// Degradation enters physically:
//   - wear widens the Gaussians (oxide damage -> threshold dispersion),
//   - retention shifts level means downward proportionally to their charge
//     (higher levels leak more),
//   - read disturb nudges low levels upward slightly.
//
// Because references are calibrated for fresh cells, retention shift makes
// the distributions drift off-center -- which is exactly why real
// controllers implement READ RETRY: re-reading with references shifted to
// track the drift recovers most retention errors at the cost of extra read
// latency. RberAt exposes `retry_level` for that mechanism.
//
// Per-technology sigma is auto-calibrated at startup so the fresh-cell RBER
// matches the catalog's base_rber; wear/retention coefficients are chosen so
// the curves track the phenomenological model within a small factor (the
// validation is test- and bench-enforced, see voltage sections of E3/E7).

#ifndef SOS_SRC_FLASH_VOLTAGE_MODEL_H_
#define SOS_SRC_FLASH_VOLTAGE_MODEL_H_

#include "src/flash/cell_tech.h"
#include "src/flash/error_model.h"

namespace sos {

struct VoltageModelParams {
  int bits = 3;
  int levels = 8;
  double sigma0 = 0.01;          // fresh per-level std dev (window = 1.0)
  double sigma_wear_gain = 0.6;  // sigma multiplier added at rated endurance
  double wear_exponent = 1.0;
  double shift_per_year = 0.004; // top-level mean shift per year^m (window units)
  double retention_exponent = 0.9;
  double disturb_per_read = 2e-9;  // low-level upshift per read
};

class VoltageModel {
 public:
  // Calibrated parameters for a programming mode (cached static table).
  static const VoltageModelParams& ParamsFor(CellTech mode);

  // Wear's widening of the level Gaussians, sigma / sigma0 =
  // 1 + gain * (pec / endurance)^k. Like ErrorModel::WearTerm it reads only
  // the mode, endurance and P/E count of the page's block.
  static double SigmaWearFactor(const PageErrorState& state);

  // Raw bit error rate for the page state, optionally with read-retry
  // reference tracking: retry 0 reads at fresh references; each retry level
  // tracks more of the retention drift (0.0 / 0.7 / 0.9 / 0.97 of it).
  // `sigma_wear` must equal SigmaWearFactor(state).
  static double RberAt(const PageErrorState& state, double sigma_wear, int retry_level);

  // The drift-tracking fraction applied at a retry level (exposed for tests).
  static double RetryTracking(int retry_level);
};

// Which RBER source a simulated die uses.
enum class ErrorModelKind : uint8_t {
  kPhenomenological,  // fitted curves (ErrorModel::Rber) -- the default
  kVoltage,           // physical threshold-voltage model (VoltageModel)
};

// The wear-dependent factor of `kind`'s RBER: ErrorModel::WearTerm or
// VoltageModel::SigmaWearFactor. It depends only on the block's mode,
// endurance and P/E count at program time, so a die computes it once per
// block erase or mode change rather than once per read.
double WearFactor(ErrorModelKind kind, const PageErrorState& state);

// Dispatches to the configured model, given `wear_factor` ==
// WearFactor(kind, state). The one RBER path: every read and prediction of a
// die goes through it, exactly.
double ComputeRber(ErrorModelKind kind, const PageErrorState& state, double wear_factor,
                   int retry_level);

// As above, computing the wear factor from `state`.
inline double ComputeRber(ErrorModelKind kind, const PageErrorState& state,
                          int retry_level = 0) {
  return ComputeRber(kind, state, WearFactor(kind, state), retry_level);
}

}  // namespace sos

#endif  // SOS_SRC_FLASH_VOLTAGE_MODEL_H_
