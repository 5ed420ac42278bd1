// Copyright (c) 2026 The SOS Authors. MIT License.

#include "tools/perfcheck/microbench.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

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

namespace sos::perfcheck {
namespace {

// Workload passes per timing rep for the sub-microsecond benches; keeps one
// rep long enough for the wall timer to resolve. Checksums always fold a
// single pass, so these never leak into the golden.
constexpr uint32_t kPhenoPasses = 30;
constexpr uint32_t kVoltagePasses = 40;
constexpr uint32_t kScorePasses = 10;

uint64_t FoldDouble(uint64_t acc, double value, double scale) {
  return DeriveSeed({acc, static_cast<uint64_t>(std::llround(value * scale))});
}

// ---------------------------------------------------------------------------
// L2P: identical random op mix through the flat table and the reference map.
// ---------------------------------------------------------------------------

template <typename Table>
uint64_t L2pWorkload(uint64_t* ops) {
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
        acc = DeriveSeed({acc, loc->pool, loc->block, loc->page, loc->tainted ? 1u : 0u});
      } else {
        acc = DeriveSeed({acc, 0xdeadull});
      }
    } else if (action < 7) {
      PhysLoc loc;
      loc.pool = static_cast<uint32_t>(lba & 3u);
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
  *ops += kOps;
  return acc;
}

// ---------------------------------------------------------------------------
// RBER: full wear x retention x disturb x retry grid through ComputeRber,
// the evaluation NandDevice::Read pays on every page read.
// ---------------------------------------------------------------------------

uint64_t PhenoWorkload(uint64_t* ops) {
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
            ++*ops;
          }
        }
      }
    }
  }
  return acc;
}

uint64_t VoltageWorkload(uint64_t* ops) {
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
            ++*ops;
          }
        }
      }
    }
  }
  return acc;
}

// ---------------------------------------------------------------------------
// ECC: page decodes across the raw-error range of both strong presets.
// ---------------------------------------------------------------------------

uint64_t EccWorkload(uint32_t passes, uint64_t* ops) {
  const EccScheme ldpc = EccScheme::FromPreset(EccPreset::kLdpc);
  const EccScheme bch = EccScheme::FromPreset(EccPreset::kBch);
  uint64_t acc = 0x45434331ull;
  for (uint32_t pass = 0; pass < passes; ++pass) {
    Rng rng(DeriveSeed({0x45434332ull, pass}));
    for (uint32_t i = 0; i < 10000; ++i) {
      const EccScheme& scheme = (i & 1u) ? bch : ldpc;
      const uint64_t raw = rng.NextBounded(700);
      const DecodeOutcome out =
          DecodePage(scheme, 4096, raw, DeriveSeed({0x45434333ull, pass, i}));
      acc = DeriveSeed({acc, out.corrected ? 1u : 0u, out.residual_errors, out.failed_codewords});
      ++*ops;
    }
  }
  return acc;
}

// Same decode grid as EccWorkload but a single preset per bench, so the
// ROADMAP item-2 decode-path work has a per-preset baseline to move against
// (the mixed bench hides which scheme a regression or win lands in).
uint64_t EccPresetWorkload(EccPreset preset, uint64_t tag, uint64_t* ops) {
  const EccScheme scheme = EccScheme::FromPreset(preset);
  uint64_t acc = tag;
  Rng rng(DeriveSeed({tag, 0x45434334ull}));
  for (uint32_t i = 0; i < 10000; ++i) {
    const uint64_t raw = rng.NextBounded(700);
    const DecodeOutcome out = DecodePage(scheme, 4096, raw, DeriveSeed({tag, 0x45434335ull, i}));
    acc = DeriveSeed({acc, out.corrected ? 1u : 0u, out.residual_errors, out.failed_codewords});
    ++*ops;
  }
  return acc;
}

// ---------------------------------------------------------------------------
// Bit flips: sample an error count for a worn pseudo-QLC page, then flip
// that many distinct bits of a 4 KiB payload. This is the payload-corruption
// path NandDevice::Read pays on every stored-payload read; the distinct-bit
// rejection set inside InjectErrors is the suspected hot spot. The payload
// carries flips across iterations (InjectErrors is content-oblivious), so
// timing measures only sample + inject; the checksum folds the final page.
// ---------------------------------------------------------------------------

uint64_t BitFlipWorkload(uint64_t* ops) {
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
    const uint64_t count = ErrorModel::SampleErrorCount(state, kPageBytes * 8, seed);
    acc = DeriveSeed({acc, count, ErrorModel::InjectErrors(page, count, seed)});
    ++*ops;
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
                     rr.latency_us, h});
}

uint64_t NandReadWorkload(uint64_t* ops) {
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
    if (Status s = dev.Program({0, p}, payloads[p], &oobs[p]); !s.ok()) {
      return DeriveSeed({0xbadull, static_cast<uint64_t>(s.code())});
    }
  }
  uint64_t acc = DeriveSeed({0x4e414e44ull, dev.block_info(0).programmed_pages});
  for (uint32_t pass = 0; pass < 3; ++pass) {
    for (uint32_t p = 0; p < pages; ++p) {
      acc = FoldRead(acc, dev.Read({0, p}));
    }
    *ops += pages;
  }
  return DeriveSeed({acc, dev.stats().reads, dev.stats().bit_errors_injected, clock.now()});
}

// ---------------------------------------------------------------------------
// GC churn: a small single-pool FTL driven to steady-state garbage
// collection by uniform overwrites at 75% utilization.
// ---------------------------------------------------------------------------

uint64_t GcChurnWorkload(uint64_t* ops) {
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
  acc = DeriveSeed(
      {acc, clock.now(), ftl.ExportedPages(), ftl.CheckInvariants().ok() ? 1u : 0u});
  *ops += writes;
  return acc;
}

// ---------------------------------------------------------------------------
// End-to-end: a short SOS lifetime simulation, ops = FTL page operations.
// ---------------------------------------------------------------------------

uint64_t LifetimeWorkload(uint64_t* ops) {
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
  acc = FoldDouble(acc, result.final_spare_quality(), 1e12);
  *ops += st.host_writes() + st.nand_writes() + st.gc_relocations();
  return acc;
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

uint64_t ScoreWorkload(bool cached, uint64_t* ops) {
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
      ++*ops;
    }
  }
  return acc;
}

// ---------------------------------------------------------------------------
// Migration scan: the daemon's daily review of the scoring corpus as a file
// system, over half a year of reads and overwrites. Once the model is wrapped
// in a decorator that forwards only Score and ScoreCached, so every scan is an
// exact score (as before certified windows); once the bare model lets the
// daemon skip files inside their windows. Both fold every pass's decisions
// and the final placements, so their checksums must be equal.
// ---------------------------------------------------------------------------

class ExactScoring final : public BinaryClassifier {
 public:
  explicit ExactScoring(const BinaryClassifier* inner) : inner_(inner) {}
  double Score(const FileMeta& meta, SimTimeUs now_us) const override {
    return inner_->Score(meta, now_us);
  }
  double ScoreCached(const FileMeta& meta, const StaticFeatures& features,
                     SimTimeUs now_us) const override {
    return inner_->ScoreCached(meta, features, now_us);
  }

 private:
  const BinaryClassifier* inner_;
};

uint64_t MigrationScanWorkload(bool windowed, uint64_t* ops) {
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
    *ops += stats.scanned;
  }
  fs.ForEachFile([&acc](const FileView& file) {
    acc = DeriveSeed({acc, file.id, file.placement.id()});
  });
  return acc;
}

// One timing repetition runs `passes` fresh workload calls; the checksum is
// always a single call.
MicroBench Repeated(std::string name, std::function<uint64_t(uint64_t*)> workload,
                    uint32_t passes = 1) {
  MicroBench bench;
  bench.name = std::move(name);
  bench.checksum = [workload] {
    uint64_t ops = 0;
    return workload(&ops);
  };
  bench.run = [workload, passes] {
    uint64_t ops = 0;
    for (uint32_t p = 0; p < passes; ++p) {
      (void)workload(&ops);
    }
    return ops;
  };
  return bench;
}

}  // namespace

std::vector<MicroBench> AllBenches() {
  std::vector<MicroBench> benches;
  benches.push_back(Repeated("l2p_flat", [](uint64_t* ops) { return L2pWorkload<L2pTable>(ops); }));
  benches.push_back(
      Repeated("l2p_map", [](uint64_t* ops) { return L2pWorkload<ReferenceL2pMap>(ops); }));
  benches.push_back(Repeated("rber_exact", &PhenoWorkload, kPhenoPasses));
  benches.push_back(Repeated("rber_voltage_exact", &VoltageWorkload, kVoltagePasses));
  benches.push_back(Repeated("ecc_decode", [](uint64_t* ops) { return EccWorkload(1, ops); }));
  benches.push_back(Repeated("nand_read_serial", &NandReadWorkload));
  benches.push_back(Repeated("gc_churn", [](uint64_t* ops) { return GcChurnWorkload(ops); }));
  benches.push_back(Repeated("lifetime_ops", [](uint64_t* ops) { return LifetimeWorkload(ops); }));
  // Appended after the PR-9 fleet work; keep new benches below this line so
  // the golden entries above never reorder.
  benches.push_back(Repeated("ecc_decode_ldpc", [](uint64_t* ops) {
    return EccPresetWorkload(EccPreset::kLdpc, 0x4c445043ull, ops);
  }));
  benches.push_back(Repeated("ecc_decode_bch", [](uint64_t* ops) {
    return EccPresetWorkload(EccPreset::kBch, 0x42434831ull, ops);
  }));
  benches.push_back(
      Repeated("bit_flip_apply", [](uint64_t* ops) { return BitFlipWorkload(ops); }));
  benches.push_back(Repeated(
      "classify_score_extract", [](uint64_t* ops) { return ScoreWorkload(false, ops); },
      kScorePasses));
  benches.push_back(Repeated(
      "classify_score_cached", [](uint64_t* ops) { return ScoreWorkload(true, ops); },
      kScorePasses));
  benches.push_back(Repeated("migration_scan_exact",
                             [](uint64_t* ops) { return MigrationScanWorkload(false, ops); }));
  benches.push_back(Repeated("migration_scan_windowed",
                             [](uint64_t* ops) { return MigrationScanWorkload(true, ops); }));
  return benches;
}

std::vector<EqualPair> MustMatch() {
  return {{"l2p_flat", "l2p_map"},
          {"classify_score_extract", "classify_score_cached"},
          {"migration_scan_exact", "migration_scan_windowed"}};
}

std::vector<SpeedupPair> Speedups() {
  return {{"l2p", "l2p_map", "l2p_flat"},
          {"classify_score", "classify_score_extract", "classify_score_cached"},
          {"migration_scan", "migration_scan_exact", "migration_scan_windowed"}};
}

}  // namespace sos::perfcheck
