// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Size and time unit helpers shared by every SOS library.
//
// The simulator deals in three unit families:
//   - storage sizes (bytes, with KiB/MiB/GiB binary multiples and TB/GB/EB
//     decimal multiples used by the carbon model, which follows vendor
//     marketing units),
//   - simulated time (microseconds for device latencies, days for retention),
//   - carbon mass (grams of CO2-equivalent).
//
// All helpers are constexpr so geometry and model constants can be computed
// at compile time.

#ifndef SOS_SRC_COMMON_UNITS_H_
#define SOS_SRC_COMMON_UNITS_H_

#include <cstdint>

namespace sos {

// ---------------------------------------------------------------------------
// Storage sizes.
// ---------------------------------------------------------------------------

inline constexpr uint64_t kKiB = 1024ull;
inline constexpr uint64_t kMiB = 1024ull * kKiB;
inline constexpr uint64_t kGiB = 1024ull * kMiB;
inline constexpr uint64_t kTiB = 1024ull * kGiB;

// Decimal units, used for market-level figures (vendors sell decimal bytes).
inline constexpr uint64_t kKB = 1000ull;
inline constexpr uint64_t kMB = 1000ull * kKB;
inline constexpr uint64_t kGB = 1000ull * kMB;
inline constexpr uint64_t kTB = 1000ull * kGB;
inline constexpr uint64_t kPB = 1000ull * kTB;
inline constexpr uint64_t kEB = 1000ull * kPB;

constexpr double BytesToGiB(uint64_t bytes) { return static_cast<double>(bytes) / static_cast<double>(kGiB); }
constexpr double BytesToGB(uint64_t bytes) { return static_cast<double>(bytes) / static_cast<double>(kGB); }
constexpr double BytesToMiB(uint64_t bytes) { return static_cast<double>(bytes) / static_cast<double>(kMiB); }

// ---------------------------------------------------------------------------
// Simulated time.
//
// Device-level latencies are tracked in microseconds; retention phenomena are
// tracked in days. SimTime is a plain integer microsecond count so that the
// simulation stays exactly reproducible (no floating-point clock drift).
// ---------------------------------------------------------------------------

using SimTimeUs = uint64_t;

inline constexpr SimTimeUs kUsPerMs = 1000ull;
inline constexpr SimTimeUs kUsPerSecond = 1000ull * kUsPerMs;
inline constexpr SimTimeUs kUsPerMinute = 60ull * kUsPerSecond;
inline constexpr SimTimeUs kUsPerHour = 60ull * kUsPerMinute;
inline constexpr SimTimeUs kUsPerDay = 24ull * kUsPerHour;
inline constexpr SimTimeUs kUsPerYear = 365ull * kUsPerDay;

constexpr double UsToDays(SimTimeUs us) { return static_cast<double>(us) / static_cast<double>(kUsPerDay); }
constexpr double UsToYears(SimTimeUs us) { return static_cast<double>(us) / static_cast<double>(kUsPerYear); }
constexpr SimTimeUs DaysToUs(double days) {
  return static_cast<SimTimeUs>(days * static_cast<double>(kUsPerDay));
}
constexpr SimTimeUs YearsToUs(double years) {
  return static_cast<SimTimeUs>(years * static_cast<double>(kUsPerYear));
}

// ---------------------------------------------------------------------------
// Carbon mass. Grams CO2-equivalent as double; the carbon model works at
// planet scale (megatonnes) and device scale (kilograms) so double is the
// right representation.
// ---------------------------------------------------------------------------

inline constexpr double kGramsPerKg = 1e3;
inline constexpr double kGramsPerTonne = 1e6;
inline constexpr double kGramsPerMegatonne = 1e12;

constexpr double KgToGrams(double kg) { return kg * kGramsPerKg; }
constexpr double GramsToTonnes(double g) { return g / kGramsPerTonne; }
constexpr double GramsToMegatonnes(double g) { return g / kGramsPerMegatonne; }

}  // namespace sos

#endif  // SOS_SRC_COMMON_UNITS_H_
