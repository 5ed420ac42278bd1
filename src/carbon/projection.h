// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Flash production and emissions projection (paper §3) plus carbon-credit
// economics.
//
// The projection composes three trends the paper cites:
//   - data/demand growth of ~20-30%/year ([55][56]),
//   - flash taking share from HDDs and users moving to high-capacity phones,
//     further inflating flash *bit* demand beyond data growth ([13][58][59]),
//   - density improvement from layer stacking ("quadrupling within a
//     decade", [24]). Density cuts cells per bit ~15%/year, but carbon per
//     bit falls more slowly: each added 3D layer adds deposition/etch steps,
//     so emissions per wafer rise with layer count (Boyd [50], Tannu &
//     Nair [8]). The default nets out to ~8%/year lower kgCO2e/GB.
// Emissions for a year = produced GB x kgCO2e/GB after intensity scaling.
// With the defaults, 2021 lands on the paper's 122 Mt / 28M-people anchor
// and 2030 exceeds the paper's ">150M people" claim.
//
// CarbonCredit converts emission intensity into money: at the EU's ~$111 per
// tonne, 0.16 kgCO2e/GB is $17.8/TB -- a ~40% surcharge on a $45/TB QLC SSD
// (the paper's closing §3 example).

#ifndef SOS_SRC_CARBON_PROJECTION_H_
#define SOS_SRC_CARBON_PROJECTION_H_

#include <string_view>
#include <vector>

namespace sos {

struct ProjectionParams {
  int start_year = 2021;
  double start_production_eb = 765.0;  // [11]
  double demand_growth = 0.28;         // 28%/yr data growth driving bit demand
  double density_growth = 0.08;        // net carbon-per-bit reduction per year
  double flash_share_shift = 0.07;     // extra bit demand/yr: flash displacing HDD
  double kg_per_gb_start = 0.16;       // [8], TLC-era intensity
};

struct YearProjection {
  int year = 0;
  double production_eb = 0.0;   // flash bits manufactured that year
  double kg_per_gb = 0.0;       // carbon intensity after density scaling
  double emissions_mt = 0.0;    // production emissions, megatonnes CO2e
  double people_equivalent = 0.0;
};

class CarbonProjection {
 public:
  explicit CarbonProjection(const ProjectionParams& params) : params_(params) {}

  // Projection for a single year (>= start_year).
  YearProjection ForYear(int year) const;

  // Inclusive range of yearly projections.
  std::vector<YearProjection> Range(int from_year, int to_year) const;

 private:
  ProjectionParams params_;
};

// A carbon pricing scheme (EU ETS, Korea ETS, China national market, ...).
struct CarbonCredit {
  std::string_view name;
  double usd_per_tonne = 0.0;

  // Carbon cost in USD per decimal TB at the given production intensity.
  double CostPerTb(double kg_per_gb) const;

  // Carbon cost as a fraction of the drive's street price per TB
  // (0.40 for the paper's EU + QLC example).
  double PriceIncreaseFraction(double drive_usd_per_tb, double kg_per_gb) const;
};

// Representative schemes at the paper's writing: EU ~$111/t peak [61],
// Korea ~$12/t [63], China ~$9/t [62].
std::vector<CarbonCredit> RepresentativeCreditSchemes();

// Street price anchor used in §3: Intel 670p QLC at ~$45/TB [65].
inline constexpr double kQlcUsdPerTb2023 = 45.0;

}  // namespace sos

#endif  // SOS_SRC_CARBON_PROJECTION_H_
