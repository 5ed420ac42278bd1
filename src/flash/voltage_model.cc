// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/flash/voltage_model.h"

#include <algorithm>
#include <array>
#include <cmath>

namespace sos {
namespace {

// P(Gaussian(mu, sigma) crosses a reference at distance d) = Q(d / sigma).
double TailProb(double distance, double sigma) {
  if (sigma <= 0.0) {
    return distance > 0.0 ? 0.0 : 1.0;
  }
  return 0.5 * std::erfc(distance / (sigma * std::sqrt(2.0)));
}

// Core computation: average bit error rate over a uniformly-distributed
// level population with retention drift, wear-widened sigma, and references
// optionally tracking a fraction of the drift.
double RberFromPhysics(const VoltageModelParams& params, double sigma, double drift,
                       double tracking, double disturb_up) {
  const int levels = params.levels;
  const double spacing = 1.0 / static_cast<double>(levels - 1);
  double crossings = 0.0;
  for (int i = 0; i < levels; ++i) {
    // Level mean after retention loss (proportional to stored charge) and
    // read-disturb upshift on the lowest levels.
    const double fresh_mean = static_cast<double>(i) * spacing;
    double mean = fresh_mean - drift * fresh_mean;
    if (i == 0) {
      mean += disturb_up;
    }
    // Reference below (between i-1 and i) and above (between i and i+1),
    // each tracking `tracking` of the *average* drift at that boundary.
    if (i > 0) {
      const double fresh_ref = (static_cast<double>(i - 1) + 0.5) * spacing;
      const double ref = fresh_ref - tracking * drift * fresh_ref;
      crossings += TailProb(mean - ref, sigma);  // read below the lower ref
    }
    if (i < levels - 1) {
      const double fresh_ref = (static_cast<double>(i) + 0.5) * spacing;
      const double ref = fresh_ref - tracking * drift * fresh_ref;
      crossings += TailProb(ref - mean, sigma);  // read above the upper ref
    }
  }
  // Uniform level usage; Gray coding: one misread = one flipped bit of b.
  const double per_cell = crossings / static_cast<double>(levels);
  return std::clamp(per_cell / static_cast<double>(params.bits), 0.0, 0.5);
}

// Solves sigma0 so the fresh-cell RBER matches the catalog's base_rber.
double CalibrateSigma(const VoltageModelParams& params, double target_rber) {
  double lo = 1e-5;
  double hi = 0.5;
  for (int iter = 0; iter < 80; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (RberFromPhysics(params, mid, 0.0, 0.0, 0.0) < target_rber) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

std::array<VoltageModelParams, kNumCellTechs> BuildTable() {
  std::array<VoltageModelParams, kNumCellTechs> table{};
  for (int t = 0; t < kNumCellTechs; ++t) {
    const CellTech tech = static_cast<CellTech>(t);
    const CellTechInfo& info = GetCellTechInfo(tech);
    VoltageModelParams params;
    params.bits = info.bits_per_cell;
    params.levels = VoltageLevels(tech);
    // Retention and wear coefficients: denser cells have tighter margins, so
    // the same physical drift hurts them more; the per-year drift itself is
    // roughly technology-independent (same oxide physics).
    params.shift_per_year = 0.004;
    params.retention_exponent = info.retention_exponent;
    params.sigma_wear_gain = 0.5 + 0.15 * static_cast<double>(info.bits_per_cell);
    params.wear_exponent = info.wear_exponent / 2.0;  // sigma ~ sqrt(damage)
    params.disturb_per_read = info.read_disturb_per_read * 10.0;  // window units
    params.sigma0 = CalibrateSigma(params, info.base_rber);
    table[static_cast<size_t>(t)] = params;
  }
  return table;
}

const std::array<VoltageModelParams, kNumCellTechs>& Table() {
  static const std::array<VoltageModelParams, kNumCellTechs> table = BuildTable();
  return table;
}

}  // namespace

const VoltageModelParams& VoltageModel::ParamsFor(CellTech mode) {
  return Table()[static_cast<size_t>(mode)];
}

double VoltageModel::RetryTracking(int retry_level) {
  switch (retry_level) {
    case 0:
      return 0.0;
    case 1:
      return 0.7;
    case 2:
      return 0.9;
    default:
      return 0.97;
  }
}

double VoltageModel::SigmaWearFactor(const PageErrorState& state) {
  const VoltageModelParams& params = ParamsFor(state.mode);
  const double endurance = std::max(state.endurance_pec, 1.0);
  const double wear_ratio =
      std::max(0.0, static_cast<double>(state.pec_at_program) / endurance);
  return 1.0 + params.sigma_wear_gain * std::pow(wear_ratio, params.wear_exponent);
}

double VoltageModel::RberAt(const PageErrorState& state, double sigma_wear, int retry_level) {
  const VoltageModelParams& params = ParamsFor(state.mode);
  const double sigma = params.sigma0 * sigma_wear;
  const double drift = params.shift_per_year *
                       std::pow(std::max(state.retention_years, 0.0),
                                params.retention_exponent);
  const double disturb =
      params.disturb_per_read * static_cast<double>(state.reads_since_program);
  return RberFromPhysics(params, sigma, drift, RetryTracking(retry_level), disturb);
}

double WearFactor(ErrorModelKind kind, const PageErrorState& state) {
  return kind == ErrorModelKind::kVoltage ? VoltageModel::SigmaWearFactor(state)
                                          : ErrorModel::WearTerm(state);
}

double ComputeRber(ErrorModelKind kind, const PageErrorState& state, double wear_factor,
                   int retry_level) {
  if (kind == ErrorModelKind::kVoltage) {
    return VoltageModel::RberAt(state, wear_factor, retry_level);
  }
  // The phenomenological model has no reference-tracking notion; model a
  // retry as recovering most of the retention component, mirroring what the
  // physical model's tracking achieves. Tracking leaves the wear term alone.
  if (retry_level <= 0) {
    return ErrorModel::Rber(state, wear_factor);
  }
  PageErrorState tracked = state;
  tracked.retention_years *= 1.0 - VoltageModel::RetryTracking(retry_level);
  return ErrorModel::Rber(tracked, wear_factor);
}

}  // namespace sos
