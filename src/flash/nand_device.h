// Copyright (c) 2026 The SOS Authors. MIT License.
//
// NAND flash die simulator.
//
// Geometry follows real parts: a die is a set of erase blocks; each block is
// a stack of *wordlines*; each wordline is one physical row of cells that
// exposes one logical page per stored bit. A block of 64 wordlines therefore
// offers 64 pages in pseudo-SLC mode, 192 in pseudo-TLC, 256 in pseudo-QLC
// and 320 in native PLC -- which is exactly the density arithmetic of paper
// §4.1 (TLC -> QLC +33%, TLC -> PLC +66%).
//
// The device enforces the NAND programming constraints that matter to an FTL:
//   - pages within a block must be programmed sequentially,
//   - a programmed page cannot be reprogrammed before a block erase,
//   - the programming mode of a block can only change while it is erased.
//
// Reads inject bit errors at the RBER of the configured error model, driven
// by the block's wear, the page's retention age and its accumulated read
// disturb. Every read and every PredictRber evaluates ComputeRber exactly;
// there is no approximate fast path, so a die's RBER is the model's. What a
// read shares with every other read of its block -- the model's wear factor
// and the {seed, block} prefix of its error stream -- is computed once per
// block erase or mode change, by the same expressions, not once per read
// (DESIGN.md §11). When
// `store_payloads` is on the device keeps the actual bytes and corrupts a
// copy on every read (end-to-end observable degradation); when off it tracks
// metadata only and reports sampled error counts, letting multi-year
// device-lifetime simulations run at scale.
//
// The device advances the shared SimClock by each operation's latency, i.e.
// it models a single serial die. Multi-die parallelism is out of scope here
// and handled analytically by the performance benchmark.

#ifndef SOS_SRC_FLASH_NAND_DEVICE_H_
#define SOS_SRC_FLASH_NAND_DEVICE_H_

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/sim_clock.h"
#include "src/common/status.h"
#include "src/common/units.h"
#include "src/flash/cell_tech.h"
#include "src/flash/error_model.h"
#include "src/flash/fault_hook.h"
#include "src/flash/voltage_model.h"
#include "src/obs/metrics.h"

namespace sos {

struct NandConfig {
  uint32_t num_blocks = 128;
  uint32_t wordlines_per_block = 64;
  uint32_t page_size_bytes = 4096;  // one bit-layer of one wordline
  CellTech tech = CellTech::kPlc;   // physical die technology (max density)
  uint64_t seed = 1;
  bool store_payloads = true;
  // RBER source: fitted curves (default) or the physical threshold-voltage
  // model (src/flash/voltage_model.h).
  ErrorModelKind error_model = ErrorModelKind::kPhenomenological;
  // Pre-aging: every block starts life with this many program/erase cycles
  // already on the odometer. The fleet simulator uses it to model devices
  // entering the population mid-life (archetype "initial age"); 0 keeps the
  // factory-fresh default every existing bench and golden assumes.
  uint32_t initial_pec = 0;

  // Page count of one block when programmed in `mode`.
  uint32_t PagesPerBlock(CellTech mode) const {
    return wordlines_per_block * static_cast<uint32_t>(BitsPerCell(mode));
  }
  // Byte capacity of one block in `mode`.
  uint64_t BlockBytes(CellTech mode) const {
    return static_cast<uint64_t>(PagesPerBlock(mode)) * page_size_bytes;
  }
  // Whole-die byte capacity in `mode`.
  uint64_t DieBytes(CellTech mode) const { return static_cast<uint64_t>(num_blocks) * BlockBytes(mode); }
};

struct PageAddr {
  uint32_t block = 0;
  uint32_t page = 0;

  bool operator==(const PageAddr&) const = default;
};

// Out-of-band (spare-area) metadata stored alongside a page's payload at
// program time. Real NAND pages carry a few dozen spare bytes under much
// stronger ECC than the data area; the FTL uses them for the reverse map so
// a mount can rebuild L2P state from flash alone. Modeled as always readable
// for a programmed page (no injected errors): OOB loss is orders of magnitude
// rarer than data-area ECC failure and out of scope for this simulator.
struct PageOob {
  uint64_t lba = 0;    // host LBA, or a reserved marker (see src/ftl)
  uint64_t seq = 0;    // monotonically increasing write sequence number
  uint8_t flags = 0;   // FTL-defined bits (tainted, parity, ...)

  bool operator==(const PageOob&) const = default;
};

struct ReadResult {
  std::vector<uint8_t> data;  // corrupted copy; empty when !store_payloads
  uint64_t bit_errors = 0;    // raw bit errors present in this read
  double rber = 0.0;          // model RBER used for the sample
  SimTimeUs latency_us = 0;
};

// Per-block bookkeeping, exposed read-only for FTL policies and tests.
struct BlockInfo {
  CellTech mode = CellTech::kPlc;
  uint32_t pec = 0;                // completed program/erase cycles
  uint32_t next_page = 0;          // sequential-programming cursor
  uint32_t programmed_pages = 0;   // pages currently holding data
};

// Cumulative device counters for benches.
struct NandStats {
  uint64_t programs = 0;
  uint64_t reads = 0;
  uint64_t erases = 0;
  uint64_t bytes_programmed = 0;
  uint64_t bytes_read = 0;
  uint64_t bit_errors_injected = 0;
  SimTimeUs busy_us = 0;
};

class NandDevice {
 public:
  // No block owner recorded (fresh die, or label cleared on retirement).
  static constexpr uint32_t kNoLabel = UINT32_MAX;

  // `clock` must outlive the device; it is advanced by operation latencies.
  NandDevice(const NandConfig& config, SimClock* clock);

  const NandConfig& config() const { return config_; }

  // --- Power & fault injection ---------------------------------------------

  // Installs (or clears, with nullptr) the fault hook consulted at every op
  // boundary. The hook must outlive the device or be cleared first.
  void SetFaultHook(NandFaultHook* hook) { fault_hook_ = hook; }

  // Cuts power: every subsequent op fails with kPowerLost until PowerOn().
  // Durable state (payloads, OOB, labels, wear counters) is retained; this
  // models an SSD losing its supply mid-workload, not losing its flash.
  void PowerCut() { powered_ = false; }
  void PowerOn() { powered_ = true; }
  bool powered() const { return powered_; }

  // --- Block mode management -----------------------------------------------

  // Sets the programming mode of an erased block. Fails with
  // kFailedPrecondition if the block currently holds data and with
  // kInvalidArgument if the mode exceeds the die's native density.
  [[nodiscard]] Status SetBlockMode(uint32_t block, CellTech mode);

  // Effective endurance of a block in its current mode (rated endurance of
  // the mode times the pseudo-mode bonus of this die).
  double EffectiveEndurance(uint32_t block) const;

  // --- Operations ----------------------------------------------------------

  // Erases a block, incrementing its P/E count. Always succeeds on a valid
  // address: worn blocks keep erasing, they just get noisier (retirement is
  // an FTL policy, not a device behaviour).
  [[nodiscard]] Status EraseBlock(uint32_t block);

  // Programs the next-expected page of a block. `data` must be at most one
  // page; shorter payloads are zero-padded. Fails on out-of-order pages or a
  // full block. `oob`, when given, is stored durably in the page's spare
  // area and survives until the block is erased.
  [[nodiscard]] Status Program(PageAddr addr, std::span<const uint8_t> data,
                               const PageOob* oob = nullptr);

  // Returns the OOB metadata of a programmed page. No error injection, no
  // clock advance (OOB reads ride along with the data-area read the FTL
  // already paid for, and the spare area is strongly protected -- see
  // PageOob). kNotFound for unprogrammed pages.
  [[nodiscard]] Result<PageOob> ReadOob(PageAddr addr) const;

  // --- Durable block labels ------------------------------------------------
  //
  // One uint32 of per-block metadata that survives erase cycles, modeling
  // the FTL superblock/root structure real drives keep in a reserved region:
  // which pool owns the block, the FTL's only record of it. Written outside
  // the op path (no latency, no fault interception, even while powered off)
  // because label updates piggyback on ops the FTL already performs.

  [[nodiscard]] Status SetBlockLabel(uint32_t block, uint32_t label);
  // kNoLabel when the block was never labeled. Asserts on a bad address.
  uint32_t block_label(uint32_t block) const {
    assert(block < labels_.size());
    return labels_[block];
  }

  // Reads a programmed page, injecting bit errors per the error model.
  // `retry_level` > 0 models a READ-RETRY re-read with reference voltages
  // tracking the retention drift: lower RBER, same latency per attempt, and
  // an independent error sample (each re-read is a fresh analog measurement).
  [[nodiscard]] Result<ReadResult> Read(PageAddr addr, int retry_level = 0);

  // Returns the stored payload of a programmed page *without* error injection
  // and without advancing time. This is the "ECC succeeded" backdoor: the
  // ECC layer models correction on error counts, and when a codeword is
  // within the correction capability the corrected output equals the
  // original bytes. Empty when the device runs payload-free.
  [[nodiscard]] Result<std::vector<uint8_t>> PeekClean(PageAddr addr) const;

  // Model RBER the page would see if read `ahead_years` from now, without
  // performing the read (no disturb, no time). Used by scrub policies to
  // predict degradation.
  [[nodiscard]] Result<double> PredictRber(PageAddr addr, double ahead_years) const;

  // --- Introspection -------------------------------------------------------

  const BlockInfo& block_info(uint32_t block) const { return blocks_[block].info; }
  const NandStats& stats() const { return stats_; }
  SimClock& clock() { return *clock_; }

  // Registers this die's op/byte counters, busy time, wear summary and the
  // read RBER histogram under `prefix` (e.g. "flash.die.").
  void ToMetrics(obs::MetricRegistry& registry, const std::string& prefix = "flash.die.") const;

  // Fraction of rated endurance consumed by the most worn block, in [0, inf).
  double MaxWearRatio() const;
  // Mean P/E cycles across all blocks.
  double MeanPec() const;

 private:
  struct PageMeta {
    SimTimeUs program_time_us = 0;
    uint32_t pec_at_program = 0;
    uint32_t reads = 0;
    bool programmed = false;
    bool has_oob = false;
    PageOob oob;
  };

  struct Block {
    BlockInfo info;
    // Read-path invariants. Every programmed page of the block has
    // pec_at_program == info.pec, so its RBER's wear factor is the block's:
    // WearFactor(error_model, ...) at info.pec in info.mode, refreshed by
    // RefreshWearFactor wherever either changes. `seed_prefix` is
    // DeriveSeed({config.seed, block id}), the fixed head of every read's
    // error-stream key.
    double wear_factor = 1.0;
    uint64_t seed_prefix = 0;
    std::vector<PageMeta> pages;           // sized for the current mode
    std::vector<std::vector<uint8_t>> data;  // payloads, iff store_payloads
  };

  [[nodiscard]] Status CheckAddr(PageAddr addr) const {
    if (addr.block < blocks_.size() && addr.page < blocks_[addr.block].pages.size()) [[likely]] {
      return Status::Ok();
    }
    return AddrError(addr);
  }
  [[nodiscard]] Status AddrError(PageAddr addr) const;
  // Power gate + fault-hook consultation for one op. On pre-op interference
  // returns the failing Status (possibly cutting power); on success stores
  // the hook's verdict in `*action` so the caller can honour a post-op cut.
  // The common case -- powered, no hook -- is inline.
  [[nodiscard]] Status GateOp(NandOpKind op, uint32_t block, uint32_t page,
                              NandFaultAction* action) {
    *action = NandFaultAction::None();
    if (powered_ && fault_hook_ == nullptr) [[likely]] {
      return Status::Ok();
    }
    return GateOpSlow(op, block, page, action);
  }
  [[nodiscard]] Status GateOpSlow(NandOpKind op, uint32_t block, uint32_t page,
                                  NandFaultAction* action);
  // Effective endurance of a block programmed in `mode` on this die.
  double EnduranceIn(CellTech mode) const;
  void RefreshWearFactor(Block& blk) const;
  PageErrorState ErrorStateFor(const Block& blk, const PageMeta& page) const;

  NandConfig config_;
  SimClock* clock_;
  std::vector<Block> blocks_;
  std::vector<uint32_t> labels_;  // durable owner tag per block, flat for FTL scans
  NandStats stats_;
  bool powered_ = true;
  NandFaultHook* fault_hook_ = nullptr;
  obs::Histogram rber_histogram_ = obs::Histogram::Rber();
};

}  // namespace sos

#endif  // SOS_SRC_FLASH_NAND_DEVICE_H_
