// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/fleet/archetype.h"

#include <cstdio>
#include <cstdlib>

#include "src/common/rng.h"
#include "src/common/units.h"

namespace sos::fleet {

namespace {

// Per-archetype sampling ranges. Rates are the MobileWorkloadConfig means;
// [lo, hi] pairs are sampled uniformly per device. Geometry is deliberately
// tiny -- the fleet trades per-device fidelity for population size, and wear
// *ratios* stay meaningful at any scale (see lifetime_sim.h's file comment).
struct ArchetypeParams {
  // Workload activity ranges (events per day / per week).
  double photos_lo, photos_hi;
  double videos_week_lo, videos_week_hi;
  double cache_lo, cache_hi;
  double app_updates_lo, app_updates_hi;
  double installs_week_lo, installs_week_hi;
  double deletes_lo, deletes_hi;
  double intensity_lo, intensity_hi;
  // Die geometry (blocks of 32 wordlines).
  uint32_t blocks_lo, blocks_hi;
  // Devices enter the fleet mid-life: initial PEC range.
  uint32_t initial_pec_lo, initial_pec_hi;
  // Simulated service window (days) covered by one lifetime run.
  uint32_t days_lo, days_hi;
  // Probability the device runs the SOS scheme (vs the TLC baseline).
  double sos_fraction;
  // Full-size capacities (decimal GB) this profile ships with.
  std::array<uint64_t, 3> full_size_gb;
};

const ArchetypeParams& ParamsFor(Archetype archetype) {
  static const ArchetypeParams kLightParams = {
      /*photos=*/0.5, 2.0, /*videos_week=*/0.5, 2.0, /*cache=*/3.0, 8.0,
      /*app_updates=*/6.0, 16.0, /*installs_week=*/0.3, 1.0, /*deletes=*/2.0, 5.0,
      /*intensity=*/0.6, 1.0, /*blocks=*/24, 32, /*initial_pec=*/0, 60,
      /*days=*/45, 90, /*sos_fraction=*/0.5, /*full_size_gb=*/{64, 128, 128}};
  static const ArchetypeParams kHoarderParams = {
      /*photos=*/3.0, 8.0, /*videos_week=*/2.0, 6.0, /*cache=*/5.0, 14.0,
      /*app_updates=*/8.0, 20.0, /*installs_week=*/0.5, 2.0, /*deletes=*/2.0, 5.0,
      /*intensity=*/0.8, 1.2, /*blocks=*/40, 56, /*initial_pec=*/20, 120,
      /*days=*/45, 90, /*sos_fraction=*/0.5, /*full_size_gb=*/{128, 256, 512}};
  static const ArchetypeParams kChurnerParams = {
      /*photos=*/0.5, 2.0, /*videos_week=*/0.5, 2.0, /*cache=*/12.0, 28.0,
      /*app_updates=*/24.0, 56.0, /*installs_week=*/1.5, 4.0, /*deletes=*/5.0, 12.0,
      /*intensity=*/0.9, 1.4, /*blocks=*/32, 44, /*initial_pec=*/40, 200,
      /*days=*/45, 90, /*sos_fraction=*/0.5, /*full_size_gb=*/{128, 128, 256}};
  switch (archetype) {
    case Archetype::kLight:
      return kLightParams;
    case Archetype::kMediaHoarder:
      return kHoarderParams;
    case Archetype::kAppChurner:
      return kChurnerParams;
  }
  return kLightParams;  // unreachable
}

double SampleRange(Rng& rng, double lo, double hi) { return lo + (hi - lo) * rng.NextDouble(); }

uint32_t SampleRangeU32(Rng& rng, uint32_t lo, uint32_t hi) {
  return static_cast<uint32_t>(rng.NextInt(lo, hi));
}

}  // namespace

const char* ArchetypeName(Archetype archetype) {
  switch (archetype) {
    case Archetype::kLight:
      return "light";
    case Archetype::kMediaHoarder:
      return "media_hoarder";
    case Archetype::kAppChurner:
      return "app_churner";
  }
  return "unknown";
}

Result<Archetype> ParseArchetype(const std::string& name) {
  for (size_t i = 0; i < kNumArchetypes; ++i) {
    const auto archetype = static_cast<Archetype>(i);
    if (name == ArchetypeName(archetype)) {
      return archetype;
    }
  }
  return Status(StatusCode::kInvalidArgument, "unknown archetype: " + name);
}

double MixSpec::TotalWeight() const {
  double total = 0.0;
  for (double w : weights) {
    total += w;
  }
  return total;
}

Result<MixSpec> ParseMixSpec(const std::string& spec) {
  MixSpec mix;
  mix.weights.fill(0.0);
  std::array<bool, kNumArchetypes> seen = {};
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) {
      comma = spec.size();
    }
    const std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    const size_t colon = entry.find(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= entry.size()) {
      return Status(StatusCode::kInvalidArgument,
                    "mix entry must be name:weight, got '" + entry + "'");
    }
    Result<Archetype> archetype = ParseArchetype(entry.substr(0, colon));
    if (!archetype.ok()) {
      return archetype.status();
    }
    const std::string weight_text = entry.substr(colon + 1);
    char* end = nullptr;
    const double weight = std::strtod(weight_text.c_str(), &end);
    if (end == weight_text.c_str() || *end != '\0' || weight < 0.0) {
      return Status(StatusCode::kInvalidArgument,
                    "mix weight must be a non-negative number, got '" + weight_text + "'");
    }
    const auto at = static_cast<size_t>(archetype.value());
    if (seen[at]) {
      return Status(StatusCode::kInvalidArgument,
                    std::string("duplicate mix entry: ") + ArchetypeName(archetype.value()));
    }
    seen[at] = true;
    mix.weights[at] = weight;
  }
  if (mix.TotalWeight() <= 0.0) {
    return Status(StatusCode::kInvalidArgument, "mix has zero total weight: '" + spec + "'");
  }
  return mix;
}

std::string MixSpecToString(const MixSpec& mix) {
  std::string out;
  for (size_t i = 0; i < kNumArchetypes; ++i) {
    if (!out.empty()) {
      out += ",";
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s:%.17g", ArchetypeName(static_cast<Archetype>(i)),
                  mix.weights[i]);
    out += buf;
  }
  return out;
}

DeviceDraw DrawDevice(const MixSpec& mix, uint64_t fleet_seed, uint64_t index) {
  // Everything about device `index` flows from this one seed; the 'flt'
  // domain key keeps the stream disjoint from every other DeriveSeed user.
  Rng rng(DeriveSeed({fleet_seed, 0x666c74ull /* "flt" */, index}));

  // Archetype by cumulative weight.
  DeviceDraw draw;
  draw.index = index;
  const double pick = rng.NextDouble() * mix.TotalWeight();
  double cumulative = 0.0;
  draw.archetype = static_cast<Archetype>(kNumArchetypes - 1);
  for (size_t i = 0; i < kNumArchetypes; ++i) {
    cumulative += mix.weights[i];
    if (pick < cumulative) {
      draw.archetype = static_cast<Archetype>(i);
      break;
    }
  }
  const ArchetypeParams& p = ParamsFor(draw.archetype);

  LifetimeSimConfig& config = draw.config;
  config.kind = rng.NextBool(p.sos_fraction) ? DeviceKind::kSos : DeviceKind::kTlcBaseline;
  config.seed = DeriveSeed({fleet_seed, 0x646576ull /* "dev" */, index});
  config.days = SampleRangeU32(rng, p.days_lo, p.days_hi);

  // Tiny per-device geometry: the fleet's statistics come from population
  // size, not per-device die size. 32-wordline blocks keep GC meaningful.
  config.nand.num_blocks = SampleRangeU32(rng, p.blocks_lo, p.blocks_hi);
  config.nand.wordlines_per_block = 32;
  config.nand.page_size_bytes = 4 * kKiB;
  config.nand.store_payloads = false;
  config.nand.initial_pec = SampleRangeU32(rng, p.initial_pec_lo, p.initial_pec_hi);

  config.workload.photos_per_day = SampleRange(rng, p.photos_lo, p.photos_hi);
  config.workload.videos_per_week = SampleRange(rng, p.videos_week_lo, p.videos_week_hi);
  config.workload.cache_files_per_day = SampleRange(rng, p.cache_lo, p.cache_hi);
  config.workload.app_updates_per_day = SampleRange(rng, p.app_updates_lo, p.app_updates_hi);
  config.workload.app_installs_per_week = SampleRange(rng, p.installs_week_lo, p.installs_week_hi);
  config.workload.deletes_per_day = SampleRange(rng, p.deletes_lo, p.deletes_hi);
  config.workload.intensity = SampleRange(rng, p.intensity_lo, p.intensity_hi);
  config.workload.reads_per_day = 25.0;
  config.workload.audio_per_week = 1.0;
  config.workload.documents_per_week = 0.5;
  config.workload.downloads_per_week = 1.0;
  config.file_size_cap = 32 * kKiB;

  // Per-device telemetry off: a million devices keep scalar outcomes only.
  config.trace_capacity = 0;
  config.capture_device_metrics = false;
  config.sample_period_days = 0;
  config.training_files = 192;

  draw.full_size_gb = p.full_size_gb[rng.NextBounded(p.full_size_gb.size())];
  return draw;
}

}  // namespace sos::fleet
