// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/flash/cell_tech.h"

#include <cassert>

namespace sos {

std::string_view CellTechName(CellTech tech) {
  switch (tech) {
    case CellTech::kSlc:
      return "SLC";
    case CellTech::kMlc:
      return "MLC";
    case CellTech::kTlc:
      return "TLC";
    case CellTech::kQlc:
      return "QLC";
    case CellTech::kPlc:
      return "PLC";
  }
  return "???";
}

double RelativeDensity(CellTech tech, CellTech baseline) {
  return static_cast<double>(BitsPerCell(tech)) / static_cast<double>(BitsPerCell(baseline));
}

double PseudoModeEnduranceBonus(CellTech physical, CellTech mode) {
  assert(static_cast<int>(mode) <= static_cast<int>(physical) &&
         "pseudo-mode cannot add bits beyond the die's native density");
  if (mode == physical) {
    return 1.0;
  }
  // Dense-generation 3D cells are larger than native cells of older
  // technologies, so each density step down buys a modest endurance bonus on
  // top of the mode's own rating. 20% per step is within the ranges reported
  // for pseudo-SLC operation of TLC parts.
  const int steps = static_cast<int>(physical) - static_cast<int>(mode);
  double bonus = 1.0;
  for (int i = 0; i < steps; ++i) {
    bonus *= 1.2;
  }
  return bonus;
}

}  // namespace sos
