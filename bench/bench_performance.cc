// Copyright (c) 2026 The SOS Authors. MIT License.
//
// E13 -- Performance (§4.5): "PLC access speeds will likely suffice to the
// needs of SOS" because SPARE traffic is large sequential reads. Reports the
// modeled device-level latencies/throughput per technology and the latency
// mix a SOS device actually serves. The simulator's own speed is measured
// end to end by perfbench (perfbench/README.md).

#include "bench/bench_util.h"
#include "src/flash/cell_tech.h"
#include "src/ftl/ftl.h"
#include "src/sos/sos_device.h"

namespace sos {
namespace {

void PrintLatencyTables() {
  PrintBanner("E13", "PLC performance suffices for SPARE traffic", "§4.5, [14][81]");

  PrintSection("Modeled device-level operation latencies");
  TextTable table({"tech", "tR (us)", "tProg (us)", "tErase (us)", "seq read MB/s (1 die)",
                   "seq write MB/s (1 die)"});
  constexpr double kPageKb = 4096.0;
  for (CellTech tech : {CellTech::kSlc, CellTech::kMlc, CellTech::kTlc, CellTech::kQlc,
                        CellTech::kPlc}) {
    const CellTechInfo& info = GetCellTechInfo(tech);
    const double read_mbps = kPageKb / static_cast<double>(info.read_latency_us);
    const double write_mbps = kPageKb / static_cast<double>(info.program_latency_us);
    table.AddRow({std::string(CellTechName(tech)), FormatCount(info.read_latency_us),
                  FormatCount(info.program_latency_us), FormatCount(info.erase_latency_us),
                  FormatDouble(read_mbps, 1), FormatDouble(write_mbps, 1)});
  }
  PrintTable(table);

  PrintSection("What a SOS device actually serves (measured on the simulator)");
  // Drive a SOS device with the SPARE access pattern the paper describes
  // (large sequential reads of demoted media) plus SYS app traffic, and
  // report mean served latency per class.
  SosDeviceConfig config;
  config.nand.num_blocks = 64;
  config.nand.wordlines_per_block = 16;
  config.nand.page_size_bytes = 4096;
  config.nand.store_payloads = false;
  SimClock clock;
  SosDevice device(config, &clock);
  // Lay down a media file on SPARE and app state on SYS.
  PlacementDirectory placements(&device);
  const PlacementHandle degradable = placements.For({Durability::kDegradable}).value();
  const PlacementHandle critical = placements.For({Durability::kCritical}).value();
  const uint64_t media_pages = 1024;  // soslint:allow(R10) page count, not a byte size
  for (uint64_t lba = 0; lba < media_pages; ++lba) {
    IgnoreResult(device.Write(lba, {}, degradable));
  }
  for (uint64_t lba = media_pages; lba < media_pages + 256; ++lba) {
    IgnoreResult(device.Write(lba, {}, critical));
  }
  auto measure_read = [&](uint64_t first, uint64_t count) {
    const SimTimeUs start = clock.now();
    for (uint64_t lba = first; lba < first + count; ++lba) {
      IgnoreResult(device.Read(lba));
    }
    return static_cast<double>(clock.now() - start) / static_cast<double>(count);
  };
  const double spare_read_us = measure_read(0, media_pages);
  const double sys_read_us = measure_read(media_pages, 256);
  TextTable served({"traffic class", "mean page latency (us)", "effective MB/s"});
  served.AddRow({"SPARE sequential media read (PLC)", FormatDouble(spare_read_us, 1),
                 FormatDouble(4096.0 / spare_read_us, 1)});
  served.AddRow({"SYS app read (pseudo-QLC)", FormatDouble(sys_read_us, 1),
                 FormatDouble(4096.0 / sys_read_us, 1)});
  PrintTable(served);
  std::printf(
      "\nA single PLC die streams ~%.0f MB/s sequentially -- comfortably above video\n"
      "bitrates (a 4K stream is ~3-6 MB/s), and real devices stripe across 4-8 dies.\n"
      "Latency-sensitive SYS traffic is served from faster pseudo-QLC (%.0f us/page).\n\n",
      4096.0 / spare_read_us, sys_read_us);

  PrintSection("Multi-die striping: modeled sequential throughput scaling");
  // A 4 MiB stream striped page-round-robin over N PLC dies: each die senses
  // or programs its 1/N share back to back, and the dies overlap, so the
  // makespan is one die's share times tR or tProg.
  TextTable striping({"dies", "seq read MB/s", "scaling", "seq write MB/s"});
  const CellTechInfo& plc = GetCellTechInfo(CellTech::kPlc);
  const uint64_t stripe_bytes = 4ull * kMiB;
  const uint64_t stripe_pages = stripe_bytes / 4096;
  double one_die_read = 0.0;
  for (uint32_t dies : {1u, 2u, 4u, 8u}) {
    const uint64_t pages_per_die = stripe_pages / dies;
    const double read_us = static_cast<double>(pages_per_die * plc.read_latency_us);
    const double write_us = static_cast<double>(pages_per_die * plc.program_latency_us);
    const double read_mbps = static_cast<double>(stripe_bytes) / read_us;
    if (dies == 1) {
      one_die_read = read_mbps;
    }
    striping.AddRow({std::to_string(dies), FormatDouble(read_mbps, 1),
                     FormatDouble(read_mbps / one_die_read, 1) + "x",
                     FormatDouble(static_cast<double>(stripe_bytes) / write_us, 1)});
  }
  PrintTable(striping);

  PrintSection("Read-retry: recovering aged data at a latency cost (voltage model)");
  // Weak-ECC PLC pages aged 6 years: sweep the retry budget.
  TextTable retry_table({"retry budget", "degraded reads / 120", "retry recoveries",
                         "mean read latency (us)"});
  for (uint32_t retries : {0u, 1u, 2u, 3u}) {
    FtlConfig ftl_config;
    ftl_config.nand.num_blocks = 16;
    ftl_config.nand.wordlines_per_block = 8;
    ftl_config.nand.page_size_bytes = 4096;
    ftl_config.nand.tech = CellTech::kPlc;
    ftl_config.nand.seed = 77;
    ftl_config.nand.store_payloads = false;
    ftl_config.nand.error_model = ErrorModelKind::kVoltage;
    FtlPoolConfig pool;
    pool.name = "MAIN";
    pool.mode = CellTech::kPlc;
    pool.ecc = EccScheme::FromPreset(EccPreset::kWeakBch);
    pool.nominal_retention_years = 20.0;
    pool.retire_rber = 0.4;
    pool.read_retries = retries;
    ftl_config.pools = {pool};
    SimClock ftl_clock;
    Ftl ftl(ftl_config, &ftl_clock);
    for (uint64_t lba = 0; lba < 120; ++lba) {
      IgnoreResult(ftl.Write(lba, {}, 0));
    }
    ftl_clock.Advance(YearsToUs(6.0));
    const SimTimeUs start = ftl_clock.now();
    uint64_t degraded = 0;
    for (uint64_t lba = 0; lba < 120; ++lba) {
      auto read = ftl.Read(lba);
      degraded += static_cast<uint64_t>(read.ok() && read.value().degraded ? 1 : 0);
    }
    retry_table.AddRow({std::to_string(retries), FormatCount(degraded),
                        FormatCount(ftl.stats().retry_recoveries()),
                        FormatDouble(static_cast<double>(ftl_clock.now() - start) / 120.0, 1)});
  }
  PrintTable(retry_table);
  std::printf(
      "\nDrift-tracking re-reads recover most retention failures -- the standard\n"
      "controller answer to exactly the errors SOS's SPARE partition tolerates.\n");
}

}  // namespace
}  // namespace sos

int main(int argc, char** argv) {
  sos::FlagSet flags("bench_performance", "simulator latency tables");
  flags.ParseOrDie(argc, argv);
  sos::PrintLatencyTables();
  return 0;
}
