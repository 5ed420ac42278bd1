// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Workload checksums: the behaviour regression gate for the hot paths.
//
// Each workload drives one inner loop of the simulator -- L2P lookup/update,
// phenomenological and voltage-model RBER evaluation, ECC decode, bit-flip
// application, NAND reads, GC churn through the FTL's relocation loop, a
// short lifetime simulation, classifier scoring and the migration daemon's
// scan -- and folds every observable value it produces (statuses, error
// counts, RBER samples, clock readings, stats counters) through DeriveSeed.
// Any change to simulated behaviour, such as a reordered NAND op, a
// different error sample or a stats drift, changes a checksum.
//
// Three checks hold the checksums:
//   1. The rendered checksum file must equal the committed golden
//      (tests/golden/BENCH_micro_checksums.json) byte for byte. On a
//      mismatch the test prints the fresh file; when the drift is intended
//      and understood, copy that output over the golden and explain the
//      drift in the commit.
//   2. Pairs that push the same simulated workload through two
//      implementations (flat L2P vs the reference map, single-pass vs
//      cached-feature scoring, exact vs windowed migration scans) must
//      produce equal checksums.
//   3. No checksum depends on the order the workloads run in or on the
//      thread that runs them.
//
// Speed is measured end to end by perfbench (perfbench/README.md), never
// here.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include "src/classify/corpus.h"
#include "src/classify/features.h"
#include "src/classify/logistic.h"
#include "src/common/rng.h"
#include "src/common/sim_clock.h"
#include "src/ecc/ecc_scheme.h"
#include "src/flash/cell_tech.h"
#include "src/flash/error_model.h"
#include "src/flash/nand_device.h"
#include "src/flash/voltage_model.h"
#include "src/ftl/ftl.h"
#include "src/ftl/l2p.h"
#include "src/host/file_system.h"
#include "src/sos/daemons.h"
#include "src/sos/lifetime_sim.h"
#include "src/sos/sos_device.h"
#include "tests/oracle/exact_scoring.h"
#include "tests/oracle/l2p_map.h"

namespace sos {
namespace {

uint64_t FoldDouble(uint64_t acc, double value, double scale) {
  return DeriveSeed({acc, static_cast<uint64_t>(std::llround(value * scale))});
}

// ---------------------------------------------------------------------------
// L2P: identical random op mix through the flat table and the reference map.
// ---------------------------------------------------------------------------

template <typename Table>
uint64_t L2pWorkload() {
  constexpr uint64_t kLbas = 1u << 16;
  constexpr uint64_t kOps = 400000;
  Table table;
  table.Reserve(kLbas);
  Rng rng(DeriveSeed({0x4c325000ull}));
  uint64_t acc = 0x4c325001ull;
  for (uint64_t i = 0; i < kOps; ++i) {
    const uint64_t lba = rng.NextBounded(kLbas);
    const uint64_t action = rng.NextBounded(8);
    if (action < 4) {
      if (auto loc = table.Find(lba)) {
        acc = DeriveSeed({acc, loc->block, loc->page, loc->tainted ? 1u : 0u});
      } else {
        acc = DeriveSeed({acc, 0xdeadull});
      }
    } else if (action < 7) {
      PhysLoc loc;
      loc.block = static_cast<uint32_t>(i & 0xffffffu);
      loc.page = static_cast<uint32_t>((i * 7u) & 0xfffffu);
      loc.tainted = (i & 31u) == 0;
      table.Set(lba, loc);
    } else {
      acc = DeriveSeed({acc, table.Erase(lba) ? 1u : 0u});
    }
  }
  acc = DeriveSeed({acc, table.mapped()});
  table.ForEachMapped([&acc](uint64_t l, const PhysLoc& loc) {
    acc = DeriveSeed({acc, l, loc.block, loc.page});
  });
  return acc;
}

// ---------------------------------------------------------------------------
// RBER: full wear x retention x disturb x retry grid through ComputeRber,
// the evaluation NandDevice::Read pays on every page read.
// ---------------------------------------------------------------------------

uint64_t PhenoWorkload() {
  static constexpr double kTs[] = {0.0, 1e-5, 1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0};
  static constexpr uint32_t kReads[] = {0, 1000, 100000};
  static constexpr int kRetries[] = {0, 2};
  static constexpr CellTech kModes[] = {CellTech::kQlc, CellTech::kPlc};
  uint64_t acc = 0x52424552ull;
  for (CellTech mode : kModes) {
    const CellTechInfo& info = GetCellTechInfo(mode);
    const double endurance = static_cast<double>(info.rated_endurance_pec) *
                             PseudoModeEnduranceBonus(CellTech::kPlc, mode);
    for (uint32_t i = 0; i < 32; ++i) {
      const uint32_t pec =
          static_cast<uint32_t>(endurance * 1.5 * static_cast<double>(i) / 31.0);
      for (double t : kTs) {
        for (uint32_t reads : kReads) {
          for (int retry : kRetries) {
            PageErrorState state;
            state.mode = mode;
            state.endurance_pec = endurance;
            state.pec_at_program = pec;
            state.retention_years = t;
            state.reads_since_program = reads;
            acc = FoldDouble(acc, ComputeRber(ErrorModelKind::kPhenomenological, state, retry),
                             1e15);
          }
        }
      }
    }
  }
  return acc;
}

uint64_t VoltageWorkload() {
  static constexpr double kTs[] = {0.0, 0.01, 0.1, 1.0, 3.0, 10.0};
  static constexpr uint32_t kReads[] = {0, 5000};
  static constexpr int kRetries[] = {0, 1};
  static constexpr CellTech kModes[] = {CellTech::kQlc, CellTech::kPlc};
  uint64_t acc = 0x564f4c54ull;
  for (CellTech mode : kModes) {
    const CellTechInfo& info = GetCellTechInfo(mode);
    const double endurance = static_cast<double>(info.rated_endurance_pec) *
                             PseudoModeEnduranceBonus(CellTech::kPlc, mode);
    for (uint32_t i = 0; i < 10; ++i) {
      const uint32_t pec =
          static_cast<uint32_t>(endurance * 1.6 * static_cast<double>(i) / 9.0);
      for (double t : kTs) {
        for (uint32_t reads : kReads) {
          for (int retry : kRetries) {
            PageErrorState state;
            state.mode = mode;
            state.endurance_pec = endurance;
            state.pec_at_program = pec;
            state.retention_years = t;
            state.reads_since_program = reads;
            acc = FoldDouble(acc, ComputeRber(ErrorModelKind::kVoltage, state, retry), 1e15);
          }
        }
      }
    }
  }
  return acc;
}

// ---------------------------------------------------------------------------
// ECC: page decodes across the raw-error range of both strong presets, mixed
// and then one preset at a time.
// ---------------------------------------------------------------------------

uint64_t EccWorkload() {
  const EccScheme ldpc = EccScheme::FromPreset(EccPreset::kLdpc);
  const EccScheme bch = EccScheme::FromPreset(EccPreset::kBch);
  uint64_t acc = 0x45434331ull;
  Rng rng(DeriveSeed({0x45434332ull, 0u}));  // 0u keeps the pinned golden
  for (uint32_t i = 0; i < 10000; ++i) {
    const EccScheme& scheme = (i & 1u) ? bch : ldpc;
    const uint64_t raw = rng.NextBounded(700);
    const DecodeOutcome out = DecodePage(scheme, 4096, raw, DeriveSeed({0x45434333ull, 0u, i}));
    acc = DeriveSeed({acc, out.corrected ? 1u : 0u, out.residual_errors, out.failed_codewords});
  }
  return acc;
}

uint64_t EccPresetWorkload(EccPreset preset, uint64_t tag) {
  const EccScheme scheme = EccScheme::FromPreset(preset);
  uint64_t acc = tag;
  Rng rng(DeriveSeed({tag, 0x45434334ull}));
  for (uint32_t i = 0; i < 10000; ++i) {
    const uint64_t raw = rng.NextBounded(700);
    const DecodeOutcome out = DecodePage(scheme, 4096, raw, DeriveSeed({tag, 0x45434335ull, i}));
    acc = DeriveSeed({acc, out.corrected ? 1u : 0u, out.residual_errors, out.failed_codewords});
  }
  return acc;
}

// ---------------------------------------------------------------------------
// Bit flips: sample an error count for a worn pseudo-QLC page, then flip
// that many distinct bits of a 4 KiB payload -- the payload-corruption path
// NandDevice::Read pays on every stored-payload read. The payload carries
// flips across iterations (InjectErrors is content-oblivious); the checksum
// folds the final page.
// ---------------------------------------------------------------------------

uint64_t BitFlipWorkload() {
  constexpr uint64_t kPageBytes = 4096;
  std::vector<uint8_t> page(kPageBytes);
  for (uint64_t j = 0; j < kPageBytes; ++j) {
    page[j] = static_cast<uint8_t>((j * 17u) & 0xffu);
  }
  const uint32_t endurance = GetCellTechInfo(CellTech::kQlc).rated_endurance_pec;
  uint64_t acc = 0x464c4950ull;
  for (uint32_t i = 0; i < 4000; ++i) {
    PageErrorState state;
    state.mode = CellTech::kQlc;
    state.endurance_pec = static_cast<double>(endurance);
    state.pec_at_program = (i * 97u) % (endurance + endurance / 2);
    state.retention_years = 0.25 * static_cast<double>(i % 16);
    state.reads_since_program = (i % 8) * 20000u;
    const uint64_t seed = DeriveSeed({0x464c4951ull, i});
    const uint64_t count = Rng(seed).NextBinomial(kPageBytes * 8, ErrorModel::Rber(state));
    acc = DeriveSeed({acc, count, ErrorModel::InjectErrors(page, count, seed)});
  }
  uint64_t h = 1469598103934665603ull;  // FNV-1a over the accumulated corruption
  for (uint8_t b : page) {
    h = (h ^ b) * 1099511628211ull;
  }
  return DeriveSeed({acc, h});
}

// ---------------------------------------------------------------------------
// NAND: program one block page by page, then read it back three times.
// ---------------------------------------------------------------------------

uint64_t FoldRead(uint64_t acc, const Result<ReadResult>& r) {
  if (!r.ok()) {
    return DeriveSeed({acc, static_cast<uint64_t>(r.status().code())});
  }
  const ReadResult& rr = r.value();
  uint64_t h = 1469598103934665603ull;  // FNV-1a over the corrupted payload
  for (uint8_t b : rr.data) {
    h = (h ^ b) * 1099511628211ull;
  }
  return DeriveSeed({acc, rr.bit_errors, static_cast<uint64_t>(std::llround(rr.rber * 1e15)),
                     GetCellTechInfo(CellTech::kTlc).read_latency_us, h});
}

uint64_t NandReadWorkload() {
  SimClock clock;
  NandConfig cfg;
  cfg.num_blocks = 4;
  cfg.wordlines_per_block = 64;
  cfg.page_size_bytes = 2048;
  cfg.tech = CellTech::kTlc;
  cfg.seed = 11;
  cfg.store_payloads = true;
  NandDevice dev(cfg, &clock);
  const uint32_t pages = cfg.PagesPerBlock(CellTech::kTlc);
  std::vector<std::vector<uint8_t>> payloads(pages);
  std::vector<PageOob> oobs(pages);
  for (uint32_t p = 0; p < pages; ++p) {
    payloads[p].resize(cfg.page_size_bytes);
    for (uint32_t j = 0; j < cfg.page_size_bytes; ++j) {
      payloads[p][j] = static_cast<uint8_t>((p * 131u + j * 17u) & 0xffu);
    }
    oobs[p].lba = p;
    oobs[p].seq = p;
  }
  for (uint32_t p = 0; p < pages; ++p) {
    if (Status s = dev.Program({0, p}, payloads[p], oobs[p]); !s.ok()) {
      return DeriveSeed({0xbadull, static_cast<uint64_t>(s.code())});
    }
  }
  uint64_t acc = DeriveSeed({0x4e414e44ull, dev.block_info(0).next_page});
  for (uint32_t pass = 0; pass < 3; ++pass) {
    for (uint32_t p = 0; p < pages; ++p) {
      acc = FoldRead(acc, dev.Read({0, p}));
    }
  }
  return DeriveSeed({acc, dev.stats().reads, dev.stats().bit_errors_injected, clock.now()});
}

// ---------------------------------------------------------------------------
// GC churn: a small single-pool FTL driven to steady-state garbage
// collection by uniform overwrites at 75% utilization.
// ---------------------------------------------------------------------------

uint64_t GcChurnWorkload() {
  SimClock clock;
  FtlConfig cfg;
  cfg.nand.num_blocks = 48;
  cfg.nand.wordlines_per_block = 32;
  cfg.nand.page_size_bytes = 512;
  cfg.nand.tech = CellTech::kTlc;
  cfg.nand.seed = 7;
  cfg.nand.store_payloads = false;
  FtlPoolConfig pool;
  pool.name = "MAIN";
  pool.mode = CellTech::kTlc;
  pool.ecc = EccScheme::FromPreset(EccPreset::kBch);
  pool.share = 1.0;
  pool.wear_leveling = true;
  pool.parity_stripe = 8;
  pool.read_retries = 1;
  cfg.pools = {pool};
  Ftl ftl(cfg, &clock);
  const uint64_t lbas = ftl.ExportedPages() * 3 / 4;
  const uint64_t writes = lbas * 6;
  uint64_t acc = DeriveSeed({0x47435052ull, 0u});  // 0u keeps the pinned golden
  Rng rng(DeriveSeed({0x47435053ull}));
  for (uint64_t i = 0; i < writes; ++i) {
    const uint64_t lba = rng.NextBounded(lbas);
    acc = DeriveSeed({acc, static_cast<uint64_t>(ftl.Write(lba, {}, 0).code())});
    if ((i & 1023u) == 0) {
      acc = DeriveSeed({acc, clock.now()});
    }
  }
  const FtlStats st = ftl.stats();
  acc = DeriveSeed({acc, st.host_writes(), st.nand_writes(), st.parity_writes(),
                    st.gc_relocations(), st.wl_relocations(), st.gc_erases(), st.retired_blocks(),
                    st.ecc_failures(), st.degraded_reads(), st.lost_pages()});
  return DeriveSeed(
      {acc, clock.now(), ftl.ExportedPages(), ftl.CheckInvariants().ok() ? 1u : 0u});
}

// ---------------------------------------------------------------------------
// End to end: a short SOS lifetime simulation.
// ---------------------------------------------------------------------------

uint64_t LifetimeWorkload() {
  LifetimeSimConfig config;
  config.kind = DeviceKind::kSos;
  config.seed = 5;
  config.days = 20;
  config.nand.num_blocks = 96;
  config.training_files = 500;
  config.workload.photos_per_day = 2.0;
  config.workload.cache_files_per_day = 6.0;
  config.workload.reads_per_day = 30.0;
  config.workload.app_updates_per_day = 40.0;
  config.file_size_cap = 16 * kKiB;
  config.sample_period_days = 10;
  LifetimeSim sim(config);
  const LifetimeResult result = sim.Run();
  const FtlStats& st = result.ftl();
  uint64_t acc =
      DeriveSeed({0x4c494645ull, result.host_bytes_written(), result.create_failures(),
                  result.final_exported_pages(), result.initial_exported_pages(),
                  result.files_alive()});
  acc = DeriveSeed({acc, st.host_writes(), st.nand_writes(), st.parity_writes(),
                    st.gc_relocations(), st.wl_relocations(), st.migrations(), st.refreshes(),
                    st.gc_erases(), st.retired_blocks(), st.resuscitated_blocks(),
                    st.ecc_failures(), st.degraded_reads(), st.lost_pages()});
  acc = FoldDouble(acc, result.final_max_wear_ratio(), 1e12);
  return FoldDouble(acc, result.final_spare_quality(), 1e12);
}

// ---------------------------------------------------------------------------
// Classifier scoring: the migration daemon's per-file work over a fixed
// corpus at fixed scan times, once extracting every feature from scratch
// (Score) and once from static features precomputed the way the file table
// caches them at creation (ScoreCached). The two fold the same score bit
// patterns, so their checksums must be equal.
// ---------------------------------------------------------------------------

struct ScoreCorpus {
  std::vector<FileMeta> files;
  std::vector<StaticFeatures> cached;
  LogisticClassifier model;
};

const ScoreCorpus& SharedScoreCorpus() {
  static const ScoreCorpus corpus = [] {
    CorpusConfig config;
    config.num_files = 2000;
    config.seed = 0x53434f52ull;  // "SCOR"
    std::vector<FileMeta> files = GenerateCorpus(config);
    std::vector<StaticFeatures> cached;
    cached.reserve(files.size());
    for (const FileMeta& meta : files) {
      cached.push_back(ExtractStaticFeatures(meta));
    }
    LogisticClassifier model =
        LogisticClassifier::Train(AsPointers(files), &ExpendableLabel, config.device_age_us);
    return ScoreCorpus{std::move(files), std::move(cached), std::move(model)};
  }();
  return corpus;
}

uint64_t ScoreWorkload(bool cached) {
  const ScoreCorpus& corpus = SharedScoreCorpus();
  const SimTimeUs device_age = CorpusConfig{}.device_age_us;
  const SimTimeUs times[] = {kUsPerDay, device_age / 2, device_age, device_age + kUsPerYear};
  uint64_t acc = 0x53434f53ull;
  for (SimTimeUs now : times) {
    for (size_t i = 0; i < corpus.files.size(); ++i) {
      const double score = cached
                               ? corpus.model.ScoreCached(corpus.files[i], corpus.cached[i], now)
                               : corpus.model.Score(corpus.files[i], now);
      acc = DeriveSeed({acc, std::bit_cast<uint64_t>(score)});
    }
  }
  return acc;
}

// ---------------------------------------------------------------------------
// Migration scan: the daemon's daily review of the scoring corpus as a file
// system, over half a year of reads and overwrites. Once through ExactScoring
// (tests/oracle/exact_scoring.h), so every scan is an exact score; once the
// bare model lets the daemon skip files inside their certified windows. Both
// fold every pass's decisions and the final placements, so their checksums
// must be equal.
// ---------------------------------------------------------------------------

uint64_t MigrationScanWorkload(bool windowed) {
  constexpr int kDays = 180;
  constexpr int kAccessesPerDay = 24;
  const ScoreCorpus& corpus = SharedScoreCorpus();
  SimClock clock;
  SosDeviceConfig config;
  config.nand.store_payloads = false;
  SosDevice device(config, &clock);
  ExtentFileSystem fs(&device, &clock);
  PlacementDirectory placements(&device);
  const PlacementHandle critical = placements.For({Durability::kCritical}).value();
  uint64_t acc = 0x4d494753ull;
  for (FileMeta meta : corpus.files) {
    meta.size_bytes = config.nand.page_size_bytes;
    acc = DeriveSeed({acc, fs.CreateFile(std::move(meta), {}, critical).ok() ? 1u : 0u});
  }
  clock.Advance(CorpusConfig{}.device_age_us);
  const ExactScoring exact(&corpus.model);
  MigrationDaemon daemon(&fs, &placements,
                         windowed ? static_cast<const BinaryClassifier*>(&corpus.model) : &exact,
                         {});
  Rng rng(DeriveSeed({0x4d494752ull}));  // "MIGR"
  for (int day = 0; day < kDays; ++day) {
    clock.Advance(kUsPerDay);
    for (int i = 0; i < kAccessesPerDay; ++i) {
      const uint64_t id = 1 + rng.NextBounded(corpus.files.size());
      const Status s =
          rng.NextBounded(4) == 0 ? fs.OverwriteFile(id, {}) : fs.ReadFile(id).status();
      acc = DeriveSeed({acc, s.ok() ? 1u : 0u});
    }
    const MigrationDaemon::RunStats stats = daemon.RunOnce(clock.now());
    acc = DeriveSeed({acc, stats.scanned, stats.demoted, stats.promoted, stats.demote_failures});
  }
  fs.ForEachFile([&acc](const FileView& file) {
    acc = DeriveSeed({acc, file.id, file.placement.id()});
  });
  return acc;
}

// ---------------------------------------------------------------------------
// The workload list, in golden-file order. New workloads go at the end so the
// entries above never reorder.
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  uint64_t (*checksum)();
};

constexpr Workload kWorkloads[] = {
    {"l2p_flat", [] { return L2pWorkload<L2pTable>(); }},
    {"l2p_map", [] { return L2pWorkload<ReferenceL2pMap>(); }},
    {"rber_exact", &PhenoWorkload},
    {"rber_voltage_exact", &VoltageWorkload},
    {"ecc_decode", &EccWorkload},
    {"nand_read_serial", &NandReadWorkload},
    {"gc_churn", &GcChurnWorkload},
    {"lifetime_ops", &LifetimeWorkload},
    {"ecc_decode_ldpc", [] { return EccPresetWorkload(EccPreset::kLdpc, 0x4c445043ull); }},
    {"ecc_decode_bch", [] { return EccPresetWorkload(EccPreset::kBch, 0x42434831ull); }},
    {"bit_flip_apply", &BitFlipWorkload},
    {"classify_score_extract", [] { return ScoreWorkload(false); }},
    {"classify_score_cached", [] { return ScoreWorkload(true); }},
    {"migration_scan_exact", [] { return MigrationScanWorkload(false); }},
    {"migration_scan_windowed", [] { return MigrationScanWorkload(true); }},
};

// Every checksum, computed once in list order on the test's own thread.
const std::map<std::string, uint64_t>& InOrderChecksums() {
  static const std::map<std::string, uint64_t> checksums = [] {
    std::map<std::string, uint64_t> out;
    for (const Workload& workload : kWorkloads) {
      out[workload.name] = workload.checksum();
    }
    return out;
  }();
  return checksums;
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string GoldenLine(const char* name, uint64_t checksum) {
  return "    \"" + std::string(name) + "\": \"" + Hex(checksum) + "\"";
}

// The checksum file's exact rendering: checksums only, in list order.
std::string GoldenJson(const std::map<std::string, uint64_t>& checksums) {
  std::string out = "{\n  \"schema\": 1,\n  \"checksums\": {\n";
  for (size_t i = 0; i < std::size(kWorkloads); ++i) {
    out += GoldenLine(kWorkloads[i].name, checksums.at(kWorkloads[i].name));
    out += i + 1 < std::size(kWorkloads) ? ",\n" : "\n";
  }
  out += "  }\n}\n";
  return out;
}

std::optional<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(WorkloadChecksumTest, MatchesCommittedGolden) {
  const std::optional<std::string> committed = ReadFileToString(SOS_CHECKSUM_GOLDEN);
  ASSERT_TRUE(committed.has_value()) << "cannot read golden " << SOS_CHECKSUM_GOLDEN;
  const std::map<std::string, uint64_t>& checksums = InOrderChecksums();
  const std::string fresh = GoldenJson(checksums);
  if (*committed == fresh) {
    return;
  }
  std::string drifted;
  for (const Workload& workload : kWorkloads) {
    if (committed->find(GoldenLine(workload.name, checksums.at(workload.name))) ==
        std::string::npos) {
      drifted += drifted.empty() ? "" : ", ";
      drifted += workload.name;
    }
  }
  ADD_FAILURE() << "workload checksums drifted from " << SOS_CHECKSUM_GOLDEN
                << " (simulated behaviour changed): " << (drifted.empty() ? "layout" : drifted)
                << "\nIf the change is intended and understood, replace the golden with the "
                   "output below and explain the drift in the commit.\n"
                << fresh;
}

// Each pair runs the same simulated workload through two implementations.
TEST(WorkloadChecksumTest, EquivalentImplementationsAgree) {
  const std::map<std::string, uint64_t>& checksums = InOrderChecksums();
  EXPECT_EQ(checksums.at("l2p_flat"), checksums.at("l2p_map"));
  EXPECT_EQ(checksums.at("classify_score_extract"), checksums.at("classify_score_cached"));
  EXPECT_EQ(checksums.at("migration_scan_exact"), checksums.at("migration_scan_windowed"));
}

// The checksums must not depend on the order the workloads run in or on the
// thread that runs them: the list run in reverse, and two threads running
// disjoint subsets, all reproduce the in-order values.
TEST(WorkloadChecksumTest, ChecksumsAreScheduleInvariant) {
  const std::map<std::string, uint64_t>& in_order = InOrderChecksums();
  ASSERT_EQ(in_order.size(), std::size(kWorkloads));

  for (size_t i = std::size(kWorkloads); i-- > 0;) {
    SCOPED_TRACE(kWorkloads[i].name);
    EXPECT_EQ(kWorkloads[i].checksum(), in_order.at(kWorkloads[i].name));
  }

  // Disjoint cheap subsets on two threads.
  const std::vector<std::string> left = {"l2p_flat", "rber_exact"};
  const std::vector<std::string> right = {"l2p_map", "ecc_decode"};
  const auto compute = [](const std::vector<std::string>& names,
                          std::map<std::string, uint64_t>* out) {
    for (const Workload& workload : kWorkloads) {
      if (std::find(names.begin(), names.end(), workload.name) != names.end()) {
        (*out)[workload.name] = workload.checksum();
      }
    }
  };
  std::map<std::string, uint64_t> a;
  std::map<std::string, uint64_t> b;
  std::thread ta(compute, left, &a);
  std::thread tb(compute, right, &b);
  ta.join();
  tb.join();
  EXPECT_EQ(a.size(), left.size());
  EXPECT_EQ(b.size(), right.size());
  for (const auto& [name, value] : a) {
    EXPECT_EQ(value, in_order.at(name)) << name;
  }
  for (const auto& [name, value] : b) {
    EXPECT_EQ(value, in_order.at(name)) << name;
  }
}

}  // namespace
}  // namespace sos
