// Copyright (c) 2026 The SOS Authors. MIT License.
//
// E12 -- The headline comparison: SOS (split pseudo-QLC/PLC with daemons)
// vs conventional TLC, QLC, and naive-PLC devices built from the same
// physical die, running the same 3-year personal-device workload. Reports
// exported capacity, embodied carbon for an equal-capacity build, wear,
// data quality, and survival, plus seed sensitivity of the SOS build.
//
// All simulations fan out through the batch experiment driver; run with
// --jobs=N to use N cores. stdout is byte-identical for every N (timing
// goes to stderr).

#include "bench/bench_util.h"
#include "src/carbon/embodied.h"
#include "src/sos/experiment.h"

namespace sos {
namespace {

LifetimeSimConfig Config(DeviceKind kind) {
  LifetimeSimConfig config;
  config.kind = kind;
  config.days = 365 * 3;
  config.seed = 2024;
  config.nand.num_blocks = 256;  // 3-year accumulation ~50% of TLC capacity
  config.training_files = 3000;
  config.workload.photos_per_day = 1.0;
  config.workload.cache_files_per_day = 6.0;
  config.workload.deletes_per_day = 5.0;
  config.workload.app_updates_per_day = 50.0;
  config.workload.reads_per_day = 60.0;
  config.file_size_cap = 32 * kKiB;
  config.sample_period_days = 365;
  return config;
}

// Carbon intensity of each build (kgCO2e per GB of *exported* capacity).
double KgPerGb(DeviceKind kind) {
  const FlashCarbonModel model;
  switch (kind) {
    case DeviceKind::kSos:
      return model.KgPerGbSplit(CellTech::kQlc, CellTech::kPlc, 0.5);
    case DeviceKind::kTlcBaseline:
      return model.KgPerGb(CellTech::kTlc);
    case DeviceKind::kQlcBaseline:
      return model.KgPerGb(CellTech::kQlc);
    case DeviceKind::kPlcNaive:
      return model.KgPerGb(CellTech::kPlc);
  }
  return 0.0;
}

void Run(const BenchOptions& options) {
  PrintBanner("E12", "SOS vs conventional devices: 3 years, same die, same workload",
              "§4 (the paper's overall value proposition)");

  const FlashCarbonModel carbon;
  const double tlc_kg_128 = carbon.KgPerGb(CellTech::kTlc) * 128.0;

  // One batch: 4 device kinds + a 4-seed SOS sensitivity sweep, all
  // independent, all scheduled together so --jobs=N keeps N cores busy.
  const std::vector<DeviceKind> kinds = {DeviceKind::kTlcBaseline, DeviceKind::kQlcBaseline,
                                         DeviceKind::kPlcNaive, DeviceKind::kSos};
  const std::vector<uint64_t> sweep_seeds = {2024, 7, 99, 31337};
  std::vector<ExperimentJob> jobs;
  for (DeviceKind kind : kinds) {
    jobs.push_back({DeviceKindName(kind), Config(kind)});
  }
  for (const ExperimentJob& job : SeedSweep(Config(DeviceKind::kSos), sweep_seeds)) {
    jobs.push_back(job);
  }

  ExperimentDriver driver(options.jobs);
  const ExperimentBatch batch = driver.RunBatch(jobs);

  PrintSection("3-year outcomes per build");
  TextTable table({"device", "capacity (pages)", "vs TLC", "kgCO2e @128GB", "carbon saving",
                   "max wear", "flash life (yrs)", "rejected files", "quality"});
  const uint64_t tlc_capacity = batch.results[0].initial_exported_pages();
  for (size_t i = 0; i < kinds.size(); ++i) {
    const LifetimeResult& r = batch.results[i];
    const double kg128 = KgPerGb(kinds[i]) * 128.0;
    table.AddRow({DeviceKindName(kinds[i]), FormatCount(r.initial_exported_pages()),
                  FormatPercent(static_cast<double>(r.initial_exported_pages()) /
                                    static_cast<double>(tlc_capacity) -
                                1.0),
                  FormatDouble(kg128, 1), FormatPercent(1.0 - kg128 / tlc_kg_128),
                  FormatPercent(r.final_max_wear_ratio()),
                  FormatDouble(r.projected_lifetime_years(), 1), FormatCount(r.create_failures()),
                  FormatDouble(r.final_spare_quality(), 3)});
  }
  PrintTable(table);

  PrintSection("Reading the result");
  std::printf(
      "  - SOS exports ~45-50%% more capacity than TLC from the same cells, i.e. ~1/3\n"
      "    less embodied carbon for the same capacity (the paper's headline).\n"
      "  - Naive PLC gets the full +66%% density but stores *everything* on fragile\n"
      "    cells behind one ECC -- no reliability classes, no degradation management.\n"
      "    SOS trades 13%% of that density for a reliable SYS home for critical data.\n"
      "  - After 3 years of typical use every build retains years of endurance\n"
      "    headroom (E4); SOS's quality column shows SPARE media stayed near-pristine\n"
      "    (degradation under typical retention is mild and scrubbed).\n");

  PrintSection("Seed sensitivity (SOS build, 4 seeds, mean +/- stddev)");
  const LifetimeAggregate agg =
      Aggregate(std::span<const LifetimeResult>(batch.results).subspan(kinds.size()));
  TextTable sensitivity({"metric", "mean +/- stddev", "min", "max"});
  sensitivity.AddRow({"max wear ratio", FormatMeanStddev(agg.max_wear_ratio, 4),
                      FormatDouble(agg.max_wear_ratio.min(), 4),
                      FormatDouble(agg.max_wear_ratio.max(), 4)});
  sensitivity.AddRow({"flash life (yrs)", FormatMeanStddev(agg.projected_lifetime_years, 1),
                      FormatDouble(agg.projected_lifetime_years.min(), 1),
                      FormatDouble(agg.projected_lifetime_years.max(), 1)});
  sensitivity.AddRow({"write amplification", FormatMeanStddev(agg.write_amplification, 3),
                      FormatDouble(agg.write_amplification.min(), 3),
                      FormatDouble(agg.write_amplification.max(), 3)});
  sensitivity.AddRow({"SPARE quality", FormatMeanStddev(agg.spare_quality, 4),
                      FormatDouble(agg.spare_quality.min(), 4),
                      FormatDouble(agg.spare_quality.max(), 4)});
  sensitivity.AddRow({"rejected files", FormatMeanStddev(agg.create_failures, 1),
                      FormatDouble(agg.create_failures.min(), 0),
                      FormatDouble(agg.create_failures.max(), 0)});
  PrintTable(sensitivity);
  std::printf(
      "\nThe headline metrics are stable across seeds: the capacity/carbon story is a\n"
      "property of the design, not of one lucky workload draw.\n");

  PrintSection("Carbon at fleet scale (annual smartphone flash production)");
  // ~half of 765 EB/yr goes to personal devices (E1); what if it were SOS?
  const double personal_eb = 765.0 * 0.5;
  const double tlc_mt = personal_eb * carbon.KgPerGb(CellTech::kTlc);
  const double sos_mt = personal_eb * carbon.KgPerGbSplit(CellTech::kQlc, CellTech::kPlc, 0.5);
  PrintClaim("personal-device flash emissions at TLC intensity",
             FormatDouble(tlc_mt, 1) + " Mt CO2e/yr");
  PrintClaim("the same capacity built as SOS",
             FormatDouble(sos_mt, 1) + " Mt CO2e/yr");
  PrintClaim("annual saving", FormatDouble(tlc_mt - sos_mt, 1) + " Mt CO2e (~" +
                                  FormatDouble(PeopleEquivalent(tlc_mt - sos_mt) / 1e6, 1) +
                                  "M people's emissions)");

  ExportBatchTelemetry(batch.results, options);
  PrintJobsSummary(driver.jobs(), jobs.size(), batch.wall_seconds);
}

}  // namespace
}  // namespace sos

int main(int argc, char** argv) {
  sos::FlagSet flags("bench_sos_vs_baselines",
                     "E12: SOS vs TLC/QLC/naive-PLC builds of the same die");
  sos::Run(sos::ParseSweepArgs(flags, argc, argv));
  return 0;
}
