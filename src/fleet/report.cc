// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/fleet/report.h"

#include <cinttypes>
#include <cstdio>

#include "src/carbon/embodied.h"
#include "src/common/table.h"
#include "src/obs/metrics.h"

namespace sos::fleet {

namespace {

// Worldwide smartphone-scale population the per-device savings are
// extrapolated to for the paper's framing (§3: "millions of users" -- there
// are roughly 1.5e9 active smartphones).
constexpr double kWorldDevices = 1.5e9;

std::string BoundLabel(const std::vector<double>& bounds, size_t bucket, int precision) {
  if (bucket >= bounds.size()) {
    return "inf";
  }
  return FormatDouble(bounds[bucket], precision);
}

// Smallest bucket whose cumulative count reaches `quantile` of the total;
// integer arithmetic, so the label is exact for any merge grouping.
std::string QuantileLabel(const FleetHistogram& h, double quantile, int precision) {
  if (h.count() == 0) {
    return "-";
  }
  const auto target =
      static_cast<uint64_t>(quantile * static_cast<double>(h.count()) + 0.5);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < h.buckets().size(); ++i) {
    cumulative += h.buckets()[i];
    if (cumulative >= target) {
      return BoundLabel(h.bounds(), i, precision);
    }
  }
  return "inf";
}

std::string MeanLabel(const FleetHistogram& h, int precision) {
  if (h.count() == 0) {
    return "-";
  }
  return FormatDouble(FromMicro(h.micro_sum()) / static_cast<double>(h.count()), precision);
}

void AddDistributionRow(TextTable& table, const char* name, const FleetHistogram& h,
                        int precision) {
  table.AddRow({name, FormatCount(h.count()), MeanLabel(h, precision),
                "<= " + QuantileLabel(h, 0.5, precision), "<= " + QuantileLabel(h, 0.9, precision),
                "<= " + QuantileLabel(h, 0.99, precision)});
}

}  // namespace

std::string FleetReport(const FleetPartial& partial) {
  const FleetLedger& ledger = partial.ledger;
  std::string out;
  char line[256];

  std::snprintf(line, sizeof(line),
                "Fleet: %" PRIu64 " devices (seed %" PRIu64 ", mix %s)\n",
                ledger.devices(), partial.fleet_seed, partial.mix.c_str());
  out += line;

  out += "\n--- Population ---\n";
  TextTable population({"archetype", "devices", "share", "capacity (GB)", "embodied (kgCO2e)",
                        "savings vs TLC (kgCO2e)"});
  auto add_row = [&](const char* name, uint64_t devices, double share,
                     const EmbodiedCarbon& carbon) {
    population.AddRow({name, FormatCount(devices), FormatPercent(share),
                       FormatDouble(static_cast<double>(carbon.capacity_gb), 0),
                       FormatDouble(FromMicro(carbon.actual_micro_kg), 2),
                       FormatDouble(FromMicro(carbon.savings_micro_kg()), 2)});
  };
  for (size_t i = 0; i < kNumArchetypes; ++i) {
    const double share = ledger.devices() > 0 ? static_cast<double>(ledger.archetype_devices(i)) /
                                                    static_cast<double>(ledger.devices())
                                              : 0.0;
    add_row(ArchetypeName(static_cast<Archetype>(i)), ledger.archetype_devices(i), share,
            ledger.ArchetypeCarbon(i));
  }
  const EmbodiedCarbon carbon = ledger.Carbon();
  add_row("total", ledger.devices(), 1.0, carbon);
  out += population.Render();

  std::snprintf(line, sizeof(line), "\nSOS devices: %" PRIu64 "  baseline (TLC): %" PRIu64 "\n",
                ledger.sos_devices(), ledger.baseline_devices());
  out += line;

  out += "\n--- Outcome distributions ---\n";
  TextTable distributions({"distribution", "n", "mean", "p50", "p90", "p99"});
  AddDistributionRow(distributions, "projected lifetime (yrs)", ledger.lifetime_years(), 2);
  AddDistributionRow(distributions, "capacity retained (frac)", ledger.capacity_retained(), 3);
  AddDistributionRow(distributions, "auto-deleted files", ledger.autodelete_files(), 0);
  AddDistributionRow(distributions, "PEC variance", ledger.pec_variance(), 0);
  out += distributions.Render();

  out += "\n--- Carbon ledger ---\n";
  const double savings_kg = FromMicro(carbon.savings_micro_kg());
  const double per_device_kg =
      ledger.devices() > 0 ? savings_kg / static_cast<double>(ledger.devices()) : 0.0;
  // kg -> megatonnes: 1 Mt = 1e9 kg.
  const double world_mt = per_device_kg * kWorldDevices / 1e9;
  std::snprintf(line, sizeof(line), "embodied, as configured : %s kgCO2e\n",
                FormatDouble(FromMicro(carbon.actual_micro_kg), 2).c_str());
  out += line;
  std::snprintf(line, sizeof(line), "embodied, all-TLC       : %s kgCO2e\n",
                FormatDouble(FromMicro(carbon.tlc_counterfactual_micro_kg), 2).c_str());
  out += line;
  std::snprintf(line, sizeof(line), "fleet savings           : %s kgCO2e (%s/device)\n",
                FormatDouble(savings_kg, 2).c_str(), FormatDouble(per_device_kg, 3).c_str());
  out += line;
  std::snprintf(line, sizeof(line),
                "at smartphone scale     : %s MtCO2e/generation (~%s people-years)\n",
                FormatDouble(world_mt, 2).c_str(),
                FormatCount(static_cast<uint64_t>(PeopleEquivalent(world_mt))).c_str());
  out += line;

  out += "\n--- Daemon activity ---\n";
  std::snprintf(line, sizeof(line),
                "auto-delete: %s files (%s) across the fleet, %s create failures\n",
                FormatCount(ledger.autodelete_files_total()).c_str(),
                FormatBytes(ledger.autodelete_bytes_total()).c_str(),
                FormatCount(ledger.create_failures_total()).c_str());
  out += line;
  std::snprintf(line, sizeof(line),
                "host writes: %s; daemon activations: %s; trace events dropped: %s\n",
                FormatBytes(ledger.host_bytes_total()).c_str(),
                FormatCount(ledger.daemon_activations_total()).c_str(),
                FormatCount(ledger.trace_dropped_total()).c_str());
  out += line;
  return out;
}

std::string FleetMetricsJson(const FleetPartial& partial) {
  obs::MetricRegistry registry;
  registry.SetCounter("fleet.config.seed", partial.fleet_seed);
  registry.SetCounter("fleet.config.devices", partial.fleet_devices);
  partial.ledger.ToMetrics(registry, "fleet.");
  return registry.ToJson();
}

}  // namespace sos::fleet
