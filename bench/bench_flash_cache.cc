// Copyright (c) 2026 The SOS Authors. MIT License.
//
// E19 -- Placement directives on a flash-cache workload. A CacheLib-style
// flash cache is the workload class FDP-style placement handles were built
// for: TTLs are declared up front, so the host can tag every object with an
// honest lifetime and the FTL can co-locate data that dies together and
// steer short-lived churn onto already-worn blocks. This bench runs the
// same cache workload under each placement policy (legacy -> static
// per-handle streams -> lifetime-aware allocation) and reports WAF, wear
// variance and embodied carbon per served byte against the non-directed
// baseline.

#include <cstring>

#include "bench/bench_util.h"
#include "src/carbon/embodied.h"
#include "src/sos/experiment.h"

namespace sos {
namespace {

constexpr uint32_t kDays = 365;

LifetimeSimConfig CacheConfig(PlacementPolicy policy) {
  LifetimeSimConfig config;
  config.kind = DeviceKind::kSos;
  config.workload_kind = WorkloadKind::kFlashCache;
  config.seed = 21;
  config.days = kDays;
  config.nand.num_blocks = 96;  // small die -> real GC pressure from churn
  config.training_files = 1500;
  config.sample_period_days = 90;
  // Crank the set/get rates far past the mobile mix: a cache node rewrites
  // its working set continuously, which is where placement starts to matter.
  config.cache_workload.objects_per_day = 280.0;
  config.cache_workload.lookups_per_day = 900.0;
  config.sos.placement_policy = policy;
  return config;
}

// Embodied carbon amortized over the bytes the cache is projected to serve
// across the flash's remaining life: gCO2e per GB served. Lower WAF wears
// the die slower, stretching the same manufactured cells over more service.
double CarbonGramsPerServedGb(const LifetimeSimConfig& config, const LifetimeResult& r) {
  const double capacity_gb =
      static_cast<double>(r.initial_exported_pages()) *
      static_cast<double>(config.nand.page_size_bytes) / 1e9;
  const double device_kg = FlashCarbonModel{}.KgPerGbSplit(CellTech::kQlc, CellTech::kPlc,
                                                           config.sos.sys_share) *
                           capacity_gb;
  const double served_gb_per_year =
      static_cast<double>(r.bytes_served()) / 1e9 / (static_cast<double>(kDays) / 365.0);
  const double lifetime_served_gb = served_gb_per_year * r.projected_lifetime_years();
  return lifetime_served_gb > 0.0 ? device_kg * 1000.0 / lifetime_served_gb : 0.0;
}

size_t PolicyIndex(const std::string& name) {
  if (name == "legacy") {
    return 0;
  }
  return name == "static" ? 1 : 2;
}

void Run(const BenchOptions& options, const std::string& directed_name) {
  PrintBanner("E19", "Placement directives on a flash-cache workload",
              "§4.4 extension (FDP / CacheLib)");

  const std::vector<PlacementPolicy> policies = {
      PlacementPolicy::kLegacy, PlacementPolicy::kStatic, PlacementPolicy::kLifetime};
  std::vector<ExperimentJob> jobs;
  for (PlacementPolicy policy : policies) {
    jobs.push_back({PlacementPolicyName(policy), CacheConfig(policy)});
  }

  ExperimentDriver driver(options.jobs);
  const ExperimentBatch batch = driver.RunBatch(jobs);

  PrintSection("1 year of TTL churn (280 sets/day, 900 gets/day), per policy");
  TextTable table({"placement", "host writes", "WAF", "PEC variance", "bytes served",
                   "flash lifetime (yrs)", "carbon (gCO2e/GB served)"});
  for (size_t i = 0; i < policies.size(); ++i) {
    const LifetimeResult& r = batch.results[i];
    table.AddRow({PlacementPolicyName(policies[i]), FormatBytes(r.host_bytes_written()),
                  FormatDouble(r.ftl().WriteAmplification(), 3),
                  FormatDouble(r.pec_variance(), 1), FormatBytes(r.bytes_served()),
                  FormatDouble(r.projected_lifetime_years(), 1),
                  FormatDouble(CarbonGramsPerServedGb(jobs[i].config, r), 2)});
  }
  PrintTable(table);

  const size_t directed_idx = PolicyIndex(directed_name);
  const LifetimeResult& base = batch.results[0];
  const LifetimeResult& directed = batch.results[directed_idx];

  PrintSection(("Summary: --placement=" + directed_name + " vs legacy").c_str());
  const double base_waf = base.ftl().WriteAmplification();
  const double directed_waf = directed.ftl().WriteAmplification();
  PrintClaim("co-locating data that dies together cuts cache WAF",
             FormatDouble(base_waf, 3) + " -> " + FormatDouble(directed_waf, 3));
  PrintClaim("lower WAF wears the die slower",
             "mean wear " + FormatDouble(base.final_mean_wear_ratio(), 3) + " -> " +
                 FormatDouble(directed.final_mean_wear_ratio(), 3) + " of rated PEC");
  PrintClaim("keepers land on young blocks, churn on worn ones",
             "spare quality " + FormatDouble(base.final_spare_quality(), 3) + " -> " +
                 FormatDouble(directed.final_spare_quality(), 3));

  // Per-handle accounting of the directed run (the FTL exports it under every
  // policy; the metrics JSON carries the legacy run's rows too): how each
  // declared (durability, lifetime) class actually behaved.
  if (directed_idx != 0) {
    PrintSection("Per-handle accounting (directed run)");
    TextTable handles({"handle", "host writes (pages)", "nand writes (pages)", "WAF"});
    const obs::MetricRow* host = nullptr;
    const obs::MetricRow* nand = nullptr;
    for (const obs::MetricRow& row : directed.device_metrics()) {
      const std::string& name = row.name;
      if (name.rfind("ftl.handle.", 0) != 0) {
        continue;
      }
      if (name.size() >= 12 && name.compare(name.size() - 12, 12, ".host_writes") == 0) {
        host = &row;
      } else if (name.size() >= 12 && name.compare(name.size() - 12, 12, ".nand_writes") == 0) {
        nand = &row;
      } else if (name.size() >= 20 &&
                 name.compare(name.size() - 20, 20, ".write_amplification") == 0 &&
                 host != nullptr && nand != nullptr) {
        const std::string label =
            name.substr(std::strlen("ftl.handle."),
                        name.size() - std::strlen("ftl.handle.") - 20);
        handles.AddRow({label, FormatCount(host->counter), FormatCount(nand->counter),
                        FormatDouble(row.gauge, 3)});
        host = nullptr;
        nand = nullptr;
      }
    }
    PrintTable(handles);
  }
  std::printf(
      "\nThe host knows these lifetimes for free (the TTL is part of every set\n"
      "request); declaring them through placement handles is all the FTL needs to\n"
      "keep same-fate data in the same erase blocks. The two directed policies\n"
      "trade differently: static streams also narrow the wear spread (and with it\n"
      "carbon per served byte), while lifetime-aware allocation deliberately\n"
      "concentrates churn on already-worn blocks -- PEC variance rises, buying\n"
      "retention headroom on the young blocks that keep long-lived data.\n");

  ExportBatchTelemetry(batch.results, options);
  PrintJobsSummary(driver.jobs(), jobs.size(), batch.wall_seconds);
}

}  // namespace
}  // namespace sos

int main(int argc, char** argv) {
  sos::FlagSet flags("bench_flash_cache",
                     "E19: FDP-style placement directives on a CacheLib-like cache workload");
  std::string* placement =
      flags.Enum("placement", "lifetime", {"legacy", "static", "lifetime"},
                 "directed arm compared against the legacy baseline");
  const sos::BenchOptions options = sos::ParseSweepArgs(flags, argc, argv);
  sos::Run(options, *placement);
  return 0;
}
