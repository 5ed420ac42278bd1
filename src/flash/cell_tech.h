// Copyright (c) 2026 The SOS Authors. MIT License.
//
// NAND cell technology catalog.
//
// SOS's central tradeoff (paper §2.2, §4.1) is between bit density and
// endurance/reliability: each added bit per cell subdivides the same physical
// voltage window into twice as many levels, which raises the raw bit error
// rate (RBER) and lowers program/erase endurance, but proportionally reduces
// silicon -- and therefore embodied carbon -- per stored bit.
//
// CellTechInfo captures the per-technology constants used across the
// simulator: bits per cell, rated endurance, the RBER model coefficients, and
// operation latencies. Values follow the ranges cited in the paper
// ([21][22][81]) and the approximate-storage literature ([70][72]):
//   SLC ~100K P/E cycles ... TLC ~3K ... QLC ~1K ... PLC a few hundred,
// i.e. PLC endurance is 6-10x below TLC and ~2x below QLC (paper §4.1).
//
// Pseudo-modes: a physical die built as PLC can be *programmed* at fewer bits
// per cell ("pseudo-QLC"/"pseudo-TLC"/"pseudo-SLC", paper [69][76]); the cell
// then enjoys the wider voltage margins of the lower density, plus a small
// endurance bonus because dense-generation 3D cells are physically larger
// than native cells of the older technology ([26-28]).

#ifndef SOS_SRC_FLASH_CELL_TECH_H_
#define SOS_SRC_FLASH_CELL_TECH_H_

#include <array>
#include <cassert>
#include <cstdint>
#include <string_view>

#include "src/common/units.h"

namespace sos {

enum class CellTech : uint8_t {
  kSlc = 0,  // 1 bit/cell
  kMlc = 1,  // 2 bits/cell
  kTlc = 2,  // 3 bits/cell
  kQlc = 3,  // 4 bits/cell
  kPlc = 4,  // 5 bits/cell
};

inline constexpr int kNumCellTechs = 5;

// Short display name: "SLC", "MLC", ...
std::string_view CellTechName(CellTech tech);

// Bits stored per physical cell (1..5).
constexpr int BitsPerCell(CellTech tech) { return static_cast<int>(tech) + 1; }

// Number of distinguishable voltage levels (2^bits).
constexpr int VoltageLevels(CellTech tech) { return 1 << BitsPerCell(tech); }

// Per-technology device constants. All figures are per *mode*, i.e. a PLC die
// programmed in pseudo-QLC mode uses the kQlc row (plus the pseudo bonus).
struct CellTechInfo {
  CellTech tech;
  int bits_per_cell;

  // Rated program/erase cycles before the block is considered worn out when
  // protected by nominal ECC (paper §2.1: "1-5K PEC" for modern flash).
  uint32_t rated_endurance_pec;

  // RBER model coefficients; see ErrorModel for the formula.
  double base_rber;          // fresh cell, zero retention
  double wear_alpha;         // multiplicative wear amplification at rated PEC
  double wear_exponent;      // super-linearity of wear
  double retention_beta;     // retention amplification per year
  double retention_exponent; // super-linearity of retention loss
  double read_disturb_per_read;  // additive RBER per read of the page

  // Operation latencies (typical datasheet-order values; paper §4.5 notes
  // PLC speeds match nearline/sequential use).
  SimTimeUs read_latency_us;
  SimTimeUs program_latency_us;
  SimTimeUs erase_latency_us;
};

// Endurance: SLC ~100K (paper §2.2), MLC ~10K, TLC ~3K, QLC ~1K ([22]),
// PLC ~300 (early generations: "a factor of 6-10 versus TLC, 2 versus QLC",
// paper §4.1).
//
// base_rber anchors: fresh TLC RBER is ~1e-7..1e-6 in field studies; each
// density step costs roughly an order of magnitude.
inline constexpr std::array<CellTechInfo, kNumCellTechs> kCellTechCatalog = {{
    // tech, bits, PEC,   base_rber, alpha, wear_k, beta, ret_m, disturb,  tR,   tProg, tErase
    {CellTech::kSlc, 1, 100000, 1.0e-9, 15.0, 2.0, 2.0, 1.1, 1.0e-12, 25, 200, 2000},
    {CellTech::kMlc, 2, 10000, 2.0e-8, 15.0, 2.0, 2.5, 1.1, 5.0e-12, 50, 600, 3000},
    {CellTech::kTlc, 3, 3000, 2.0e-7, 15.0, 2.0, 3.0, 1.2, 2.0e-11, 75, 900, 5000},
    {CellTech::kQlc, 4, 1000, 2.0e-6, 18.0, 2.0, 4.0, 1.2, 8.0e-11, 140, 2200, 8000},
    {CellTech::kPlc, 5, 300, 2.0e-5, 20.0, 2.0, 5.0, 1.3, 3.0e-10, 280, 5000, 12000},
}};

// Catalog lookup. Inline: every simulated page operation asks for its mode's
// latencies.
inline const CellTechInfo& GetCellTechInfo(CellTech tech) {
  const auto idx = static_cast<size_t>(tech);
  assert(idx < kCellTechCatalog.size());
  return kCellTechCatalog[idx];
}

// Density of `tech` relative to `baseline`, in stored bits for the same cell
// count: Density(kPlc, kTlc) == 5/3 ~= 1.67 (the paper's "66% improvement").
double RelativeDensity(CellTech tech, CellTech baseline);

// Endurance bonus applied when a die of `physical` technology is programmed
// in a sparser `mode` (pseudo-mode). Returns 1.0 for native operation and
// >1.0 for pseudo-modes; the bonus reflects the physically larger cells of
// dense-generation dies ([26-28], FlexFS [76]).
double PseudoModeEnduranceBonus(CellTech physical, CellTech mode);

}  // namespace sos

#endif  // SOS_SRC_FLASH_CELL_TECH_H_
