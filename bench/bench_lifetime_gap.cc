// Copyright (c) 2026 The SOS Authors. MIT License.
//
// E4 -- The wear gap (§2.3.2): under typical usage a phone consumes only a
// few percent of its flash endurance before being discarded at 2-3 years;
// the flash outlives the device by roughly an order of magnitude. Runs a
// 3-year simulation per device technology and reports wear consumed and
// extrapolated flash lifetime.
//
// The device-kind table and the intensity sweep are one batch through the
// experiment driver; --jobs=N runs up to 7 sims concurrently with stdout
// byte-identical to --jobs=1.

#include "bench/bench_util.h"
#include "src/sos/experiment.h"

namespace sos {
namespace {

LifetimeSimConfig GapConfig(DeviceKind kind, double intensity) {
  LifetimeSimConfig config;
  config.kind = kind;
  config.days = 365 * 3;
  config.seed = 7;
  config.nand.num_blocks = 256;  // 3-year accumulation ~50% of TLC capacity
  config.training_files = 3000;
  config.workload.photos_per_day = 1.0;
  config.workload.cache_files_per_day = 6.0;
  config.workload.deletes_per_day = 5.0;
  config.workload.app_updates_per_day = 50.0;
  config.workload.reads_per_day = 60.0;
  config.workload.intensity = intensity;
  config.file_size_cap = 32 * kKiB;
  config.sample_period_days = 365;
  return config;
}

void Run(const BenchOptions& options) {
  PrintBanner("E4", "The wear gap: 3-year service life vs flash endurance", "§2.3.1-2.3.2");

  const std::vector<DeviceKind> kinds = {DeviceKind::kSos, DeviceKind::kTlcBaseline,
                                         DeviceKind::kQlcBaseline, DeviceKind::kPlcNaive};
  const std::vector<double> intensities = {0.5, 1.0, 1.5};
  std::vector<ExperimentJob> jobs;
  for (DeviceKind kind : kinds) {
    jobs.push_back({DeviceKindName(kind), GapConfig(kind, 1.0)});
  }
  for (double intensity : intensities) {
    jobs.push_back({FormatDouble(intensity, 1) + "x", GapConfig(DeviceKind::kSos, intensity)});
  }

  ExperimentDriver driver(options.jobs);
  const ExperimentBatch batch = driver.RunBatch(jobs);

  PrintSection("3 simulated years of typical use, per device build");
  TextTable table({"device", "data written", "WA", "mean PEC", "max wear used",
                   "flash lifetime (yrs)", "x service life"});
  for (size_t i = 0; i < kinds.size(); ++i) {
    const LifetimeResult& r = batch.results[i];
    table.AddRow({DeviceKindName(kinds[i]), FormatBytes(r.host_bytes_written()),
                  FormatDouble(r.ftl().WriteAmplification(), 2),
                  FormatDouble(r.samples().empty() ? 0.0 : r.samples().back().mean_pec, 1),
                  FormatPercent(r.final_max_wear_ratio()),
                  FormatDouble(r.projected_lifetime_years(), 1),
                  FormatDouble(r.projected_lifetime_years() / 3.0, 1) + "x"});
  }
  PrintTable(table);

  PrintSection("Paper claims (§2.3.2)");
  // Same (config, seed) as the table's TLC row -- determinism lets us reuse
  // the result instead of re-running the sim.
  const LifetimeResult& tlc = batch.results[1];
  PrintClaim("typical users wear out ~5% of rated endurance",
             FormatPercent(tlc.final_max_wear_ratio()) + " on TLC after 3 years");
  PrintClaim("flash outlasts the encasing device by ~10x",
             FormatDouble(tlc.projected_lifetime_years() / 3.0, 1) + "x the 3-year service life");
  std::printf(
      "  (Scaling note: this workload writes ~0.7 device-capacities/year; [38]'s ~5%%\n"
      "   figure reflects heavier users on smaller devices. The claim under test is\n"
      "   the *order of magnitude* of headroom, which holds across the whole table.)\n");

  PrintSection("Usage-intensity sweep (SOS device, 3 years)");
  // Beyond ~1.5x the scaled device runs capacity-full and enters the GC-
  // thrash regime the auto-delete fallback manages -- that endgame is E11's
  // experiment, not the wear-gap story.
  TextTable sweep({"intensity", "data written", "end free space", "max wear used",
                   "flash lifetime (yrs)", "auto-deletes"});
  for (size_t i = 0; i < intensities.size(); ++i) {
    const LifetimeResult& r = batch.results[kinds.size() + i];
    sweep.AddRow({FormatDouble(intensities[i], 1) + "x", FormatBytes(r.host_bytes_written()),
                  FormatPercent(r.samples().empty() ? 0.0 : r.samples().back().fs_free_fraction),
                  FormatPercent(r.final_max_wear_ratio()),
                  FormatDouble(r.projected_lifetime_years(), 1),
                  FormatCount(r.autodelete().files_deleted)});
  }
  PrintTable(sweep);
  std::printf(
      "\nEven on low-endurance PLC-based SOS, typical use leaves the flash with years of\n"
      "headroom beyond the 2-3 year device life -- the gap SOS spends on density (§4.1).\n"
      "Note the regime change at 1.5x: wear jumps although the file system keeps ample\n"
      "free space and auto-delete never fires. The device is not full; its static SPARE\n"
      "partition is, and SPARE GC collapses (the one capacity pool of ROADMAP item 1).\n");

  ExportBatchTelemetry(batch.results, options);
  PrintJobsSummary(driver.jobs(), jobs.size(), batch.wall_seconds);
}

}  // namespace
}  // namespace sos

int main(int argc, char** argv) {
  sos::FlagSet flags("bench_lifetime_gap",
                     "E4: wear gap -- 3-year service life vs flash endurance");
  sos::Run(sos::ParseSweepArgs(flags, argc, argv));
  return 0;
}
