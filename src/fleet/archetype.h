// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Device archetypes for fleet-scale simulation (DESIGN.md §13).
//
// A fleet is a *population*: millions of devices that differ in how hard
// they are used (workload mix), how big they are (die geometry, full-size
// capacity), how old they are (initial PEC), and whether they run the SOS
// scheme or a conventional baseline. An Archetype names one such usage
// profile; DrawDevice() turns (fleet seed, device index) into a concrete
// LifetimeSimConfig by seeded sampling inside the archetype's parameter
// ranges.
//
// The sampling contract is the foundation of the fleet determinism story:
// device i's entire configuration is a pure function of
// DeriveSeed({fleet_seed, i}) -- never of the shard it lands on, the worker
// that runs it, or how many devices the invocation covers. Any shard split
// of the index range therefore simulates the exact same population.

#ifndef SOS_SRC_FLEET_ARCHETYPE_H_
#define SOS_SRC_FLEET_ARCHETYPE_H_

#include <array>
#include <cstdint>
#include <string>

#include "src/common/status.h"
#include "src/sos/lifetime_sim.h"

namespace sos::fleet {

// The population profiles ROADMAP item 1 names. Values are contiguous so
// ledgers can index per-archetype counters by cast.
enum class Archetype : uint8_t {
  kLight = 0,        // casual user: few photos, light churn, small device
  kMediaHoarder = 1,  // camera-heavy: large media inflow, rare deletes
  kAppChurner = 2,    // app-update churn: heavy small overwrites + caches
};

inline constexpr size_t kNumArchetypes = 3;

// Display name ("light", "media_hoarder", "app_churner"); also the spelling
// the --mix flag accepts.
const char* ArchetypeName(Archetype archetype);

// Inverse of ArchetypeName; kInvalidArgument on an unknown spelling.
Result<Archetype> ParseArchetype(const std::string& name);

// Relative population weights, one per archetype (indexed by cast). Weights
// are relative, not percentages; they only need to be non-negative with a
// positive sum.
struct MixSpec {
  std::array<double, kNumArchetypes> weights = {60.0, 25.0, 15.0};

  double TotalWeight() const;
};

// Parses "light:60,media_hoarder:25,app_churner:15". Every named archetype
// gets the given weight; unnamed ones get zero. kInvalidArgument on unknown
// names, malformed weights, negative weights, duplicates, or an all-zero
// mix.
Result<MixSpec> ParseMixSpec(const std::string& spec);

// Canonical rendering of a mix ("light:60,media_hoarder:25,app_churner:15"),
// used to echo the mix into partial files so a merge can refuse to combine
// partials drawn from different populations.
std::string MixSpecToString(const MixSpec& mix);

// One sampled device: the archetype it was drawn from, the concrete sim
// config, and the full-size capacity (decimal GB) the scaled-down sim stands
// in for -- the quantity the embodied-carbon ledger is denominated in.
struct DeviceDraw {
  uint64_t index = 0;
  Archetype archetype = Archetype::kLight;
  LifetimeSimConfig config;
  uint64_t full_size_gb = 128;
};

// Samples device `index` of the population defined by (`mix`, `fleet_seed`).
// Pure function of its arguments; see the file comment for why that matters.
// The returned config has the fleet throughput knobs pre-set (no payloads,
// no trace retention, no per-device metric rows) -- a fleet of a million
// devices keeps only scalar outcomes.
DeviceDraw DrawDevice(const MixSpec& mix, uint64_t fleet_seed, uint64_t index);

}  // namespace sos::fleet

#endif  // SOS_SRC_FLEET_ARCHETYPE_H_
