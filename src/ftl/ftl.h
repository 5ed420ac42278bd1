// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Pool-based, page-mapped flash translation layer.
//
// The FTL manages one NAND die as a set of *pools*, each with its own
// programming mode, ECC strength, parity policy, and wear-leveling setting.
// This is the device half of SOS's Figure 2: the SYS pool runs pseudo-QLC
// with strong ECC plus intra-block XOR parity stripes; the SPARE pool runs
// native PLC with weak/no ECC and wear leveling disabled (paper §4.2-4.3).
// Pure single-pool configurations give the TLC/QLC baselines of E12.
//
// Policies implemented:
//   - Garbage collection: greedy (max invalid pages) or cost-benefit
//     ((1-u)/(1+u) * age, Rosenblum-style), per-pool trigger thresholds.
//   - Dynamic wear leveling: when enabled, new blocks are allocated
//     lowest-PEC-first; when disabled, FIFO. Static wear leveling: when the
//     pool's PEC spread exceeds a threshold, cold data is moved off the
//     least-worn block so it re-enters rotation. The paper disables all of
//     this on SPARE ([73]: "wear leveling considered harmful").
//   - Intra-block parity (RAIN-style): every `parity_stripe`-th page of a
//     block stores the XOR of the preceding stripe; a page whose ECC fails
//     is rebuilt iff every other stripe member decodes.
//   - Retirement: a block is retired when its predicted RBER at the pool's
//     nominal retention exceeds what the pool's ECC can correct (or an
//     explicit RBER bound for ECC-less pools). Retired blocks may be
//     *resuscitated* into a sparser-mode pool (worn PLC reborn as
//     pseudo-TLC, paper §4.3 / FlexFS [76]); otherwise capacity shrinks and
//     listeners are notified (capacity variance, [74]).
//
// Degradation semantics: a read whose ECC fails and cannot be rescued
// returns the *corrupted* payload with `degraded=true` rather than an
// error -- approximate storage delivers bits, not failures. Relocations
// (GC/migration) re-encode whatever the read path produced, so corruption
// accumulated on an approximate pool survives moves, exactly as it would
// through a real controller that cannot correct it.

#ifndef SOS_SRC_FTL_FTL_H_
#define SOS_SRC_FTL_FTL_H_

#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/ecc/ecc_scheme.h"
#include "src/flash/nand_device.h"
#include "src/ftl/l2p.h"
#include "src/host/placement.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace sos {

enum class GcPolicy : uint8_t {
  kGreedy,       // victim = most invalid pages
  kCostBenefit,  // victim = max (1-u)/(1+u) * age
};

// How the FTL consumes host placement directives (DESIGN.md §12).
enum class PlacementPolicy : uint8_t {
  // Directives select only the pool; stream tags and lifetime hints are
  // recorded (accounting) but never change block allocation or append-point
  // selection. Bit-for-bit the historical behavior -- the goldens' mode.
  kLegacy = 0,
  // Per-handle append points: each stream tag gets its own active block
  // inside the pool (FDP-style reclaim units), so data written under one
  // handle dies together. Block allocation stays wear-agnostic.
  kStatic = 1,
  // kStatic plus lifetime-aware block allocation: short-lived streams draw
  // the most-worn free block, long-lived streams the youngest.
  kLifetime = 2,
};

const char* PlacementPolicyName(PlacementPolicy policy);

// Per-write placement directive, the FTL half of the host's PlacementHandle:
// the device maps an open handle to {pool, stream tag, lifetime} and passes
// it down on every write. `stream` 0 is the shared/untagged stream (internal
// writes, parity, legacy callers); device handles map to tags 1..255.
struct WriteDirective {
  uint32_t pool_id = 0;
  LifetimeHint lifetime = LifetimeHint::kUnknown;
  uint32_t stream = 0;
};

struct FtlPoolConfig {
  std::string name = "pool";
  CellTech mode = CellTech::kQlc;
  EccScheme ecc = EccScheme::FromPreset(EccPreset::kBch);
  double share = 1.0;            // fraction of physical blocks at format time
  bool wear_leveling = true;     // dynamic + static WL toggle
  uint32_t parity_stripe = 0;    // every Nth page is XOR parity; 0 = none
  double op_fraction = 0.07;     // over-provisioned fraction of pool capacity
  double nominal_retention_years = 1.0;  // retirement look-ahead
  // Explicit retirement RBER bound; 0 derives it from the ECC scheme. Pools
  // with EccPreset::kNone must set this (there is no ECC limit to derive).
  double retire_rber = 0.0;
  // When set, retired blocks change mode and join the pool with this name.
  std::optional<std::string> resuscitate_into;
  uint32_t min_live_blocks = 4;      // below this the pool is dead (no writes)
  // READ-RETRY attempts after an ECC failure: each re-reads the page with
  // reference voltages tracking the retention drift (lower RBER, +tR
  // latency). Real controllers use several; pointless without ECC.
  uint32_t read_retries = 0;
  // Hot/cold stream separation: relocated (GC/WL/refresh) data is appended
  // to a dedicated "cold" active block instead of mixing with fresh host
  // writes. Cold data clusters with cold data, so future GC victims are
  // either mostly-hot (cheap: mostly invalid) or mostly-cold (skipped),
  // cutting write amplification under skewed workloads.
  bool hot_cold_separation = true;
  // Fidelity contract for host reads (paper's SYS-vs-SPARE split): a strict
  // pool turns an unrescued ECC failure into a loud kDataLoss error instead
  // of serving corrupted bytes. Applies to host-facing reads only; internal
  // relocations still move the degraded bytes (with the taint marker) so GC
  // never wedges on a corrupt page.
  bool strict_fidelity = false;
};

struct FtlConfig {
  NandConfig nand;
  std::vector<FtlPoolConfig> pools;
  GcPolicy gc_policy = GcPolicy::kGreedy;
  // How placement directives steer the write path (see PlacementPolicy).
  // kLegacy keeps the historical schedule byte-identical.
  PlacementPolicy placement_policy = PlacementPolicy::kLegacy;
};

struct FtlReadResult {
  std::vector<uint8_t> data;        // empty in metadata-only simulations
  uint64_t residual_bit_errors = 0; // post-ECC errors in `data`
  bool degraded = false;            // ECC failed and parity could not rescue
  // True when the *stored* copy is known to have absorbed unrecoverable
  // corruption at some earlier relocation (GC, migration, refresh): the
  // controller re-encoded degraded bytes, so even an error-free read of the
  // current physical page cannot return the original data. This is the
  // signal SOS's cloud-repair path keys on (paper §4.3).
  bool tainted = false;
};

// Cumulative FTL operation counters. One instance lives inside each pool;
// Ftl::stats() sums them into the device-wide aggregate and
// Ftl::pool_stats() exposes the per-pool view. Mutation is confined to the
// owning Ftl (friend); everything else reads through the accessors or
// exports via ToMetrics(). A copy is a detached point-in-time value.
class FtlStats {
 public:
  uint64_t host_writes() const { return host_writes_; }      // host data pages accepted
  uint64_t nand_writes() const { return nand_writes_; }      // physical pages programmed (all causes)
  uint64_t parity_writes() const { return parity_writes_; }
  uint64_t gc_relocations() const { return gc_relocations_; }
  uint64_t wl_relocations() const { return wl_relocations_; }
  uint64_t migrations() const { return migrations_; }        // cross-pool moves
  uint64_t refreshes() const { return refreshes_; }          // in-place scrub rewrites
  uint64_t gc_erases() const { return gc_erases_; }
  uint64_t background_collections() const { return background_collections_; }  // idle-GC victims
  uint64_t retired_blocks() const { return retired_blocks_; }
  uint64_t resuscitated_blocks() const { return resuscitated_blocks_; }
  uint64_t ecc_failures() const { return ecc_failures_; }    // pages whose ECC decode failed
  uint64_t retry_recoveries() const { return retry_recoveries_; }  // recovered by read-retry
  uint64_t parity_rescues() const { return parity_rescues_; }
  uint64_t degraded_reads() const { return degraded_reads_; }  // reads returned with residual errors
  uint64_t grown_bad_blocks() const { return grown_bad_blocks_; }  // dropped after program/erase failure
  uint64_t lost_pages() const { return lost_pages_; }  // mappings dropped: data unrecoverable

  double WriteAmplification() const {
    return host_writes_ > 0
               ? static_cast<double>(nand_writes_) / static_cast<double>(host_writes_)
               : 0.0;
  }

  // Registers one counter per field under `prefix` ("ftl." for the
  // aggregate, "ftl.pool.<name>." per pool) plus a write-amplification
  // gauge. Field order here is the export order.
  void ToMetrics(obs::MetricRegistry& registry, const std::string& prefix) const;

  bool operator==(const FtlStats&) const = default;

 private:
  friend class Ftl;

  void Accumulate(const FtlStats& other);

  uint64_t host_writes_ = 0;
  uint64_t nand_writes_ = 0;
  uint64_t parity_writes_ = 0;
  uint64_t gc_relocations_ = 0;
  uint64_t wl_relocations_ = 0;
  uint64_t migrations_ = 0;
  uint64_t refreshes_ = 0;
  uint64_t gc_erases_ = 0;
  uint64_t background_collections_ = 0;
  uint64_t retired_blocks_ = 0;
  uint64_t resuscitated_blocks_ = 0;
  uint64_t ecc_failures_ = 0;
  uint64_t retry_recoveries_ = 0;
  uint64_t parity_rescues_ = 0;
  uint64_t degraded_reads_ = 0;
  uint64_t grown_bad_blocks_ = 0;
  uint64_t lost_pages_ = 0;
};

// What Ftl::RecoverFromFlash() found while rebuilding volatile state from
// the durable OOB metadata after a power cut.
struct RecoveryReport {
  uint64_t scanned_pages = 0;      // programmed pages whose OOB was examined
  uint64_t replayed_pages = 0;     // mappings reinstalled (winning copies)
  uint64_t orphans_reclaimed = 0;  // superseded copies demoted to garbage
  uint64_t parity_pages = 0;       // parity slots re-recognized
  uint64_t open_blocks_sealed = 0; // partially-programmed blocks crash-sealed
  uint64_t unlabeled_blocks = 0;   // blocks owned by no pool (never formatted
                                   // or dropped as grown-bad pre-cut)

  bool operator==(const RecoveryReport&) const = default;
};

// Point-in-time view of one pool, for benches and the SOS daemons.
struct PoolSnapshot {
  std::string name;
  CellTech mode = CellTech::kQlc;
  uint32_t total_blocks = 0;     // currently owned (live, incl. free)
  uint32_t free_blocks = 0;
  uint32_t retired_blocks = 0;   // retired while owned by this pool
  uint64_t exported_pages = 0;   // host-visible capacity in pages
  uint64_t valid_pages = 0;      // live host data
  double mean_pec = 0.0;
  uint32_t max_pec = 0;
  double free_page_fraction = 0.0;  // (exported - valid) / exported
  // Population variance of PEC across the pool's owned blocks -- the
  // wear-variance measure the lifetime-aware allocator aims to widen
  // usefully (worn blocks absorb short-lived churn) without runaway.
  double pec_variance = 0.0;
};

class Ftl {
 public:
  // `clock` must outlive the FTL.
  Ftl(const FtlConfig& config, SimClock* clock);

  Ftl(const Ftl&) = delete;
  Ftl& operator=(const Ftl&) = delete;

  // --- Host interface ------------------------------------------------------

  // Writes one logical page under a placement directive. Overwrites relocate
  // the LBA into the directive's pool regardless of where it lived before.
  [[nodiscard]] Status Write(uint64_t lba, std::span<const uint8_t> data,
                             const WriteDirective& directive);

  // Undirected write into `pool_id` (the shared stream, no lifetime hint) --
  // internal callers and pre-directive tooling.
  [[nodiscard]] Status Write(uint64_t lba, std::span<const uint8_t> data, uint32_t pool_id) {
    return Write(lba, data, WriteDirective{pool_id, LifetimeHint::kUnknown, 0});
  }

  // Reads a logical page through the owning pool's ECC/parity path.
  [[nodiscard]] Result<FtlReadResult> Read(uint64_t lba);

  // Invalidates a logical page.
  [[nodiscard]] Status Trim(uint64_t lba);

  // Moves a logical page under a placement directive (classification
  // change). Reads through the normal path, so undetected corruption travels
  // along. A no-op (Ok, no flash ops) when the LBA already lives in the
  // directive's pool.
  [[nodiscard]] Status Migrate(uint64_t lba, const WriteDirective& directive);

  // Undirected pool move (shared stream, no lifetime hint).
  [[nodiscard]] Status Migrate(uint64_t lba, uint32_t target_pool) {
    return Migrate(lba, WriteDirective{target_pool, LifetimeHint::kUnknown, 0});
  }

  // Rewrites a logical page in place (same pool, fresh physical page),
  // resetting its retention clock. The scrubber's preemptive rescue of
  // dangerously degraded data (paper §4.3).
  [[nodiscard]] Status Refresh(uint64_t lba);

  // Opportunistic idle-time garbage collection: tops every pool's free list
  // up to twice its GC threshold, collecting at most `max_blocks_per_pool`
  // victims each. Work done here is work foreground writes will not stall
  // on. Returns the number of blocks collected.
  uint32_t BackgroundCollect(uint32_t max_blocks_per_pool = 2);

  // --- Crash recovery ------------------------------------------------------

  // Mount path after a simulated power cut: powers the die back on, discards
  // all volatile state (mapping table, free lists, active blocks, open
  // parity stripes) and rebuilds it from durable flash state alone -- block
  // owner labels plus the per-page OOB written at program time. Where the
  // cut left several copies of an LBA, the highest write-sequence copy wins
  // and the rest become reclaimable garbage. Partially-programmed blocks are
  // crash-sealed (never appended to again; GC reclaims them normally).
  // Trimmed LBAs whose old copies are still on flash resurrect -- this FTL
  // keeps no trim journal, which is the honest consequence documented in
  // DESIGN.md §10. Finishes with a full CheckInvariants() audit and fails
  // loudly if the rebuilt state is inconsistent.
  [[nodiscard]] Status RecoverFromFlash();

  // Counters from the most recent RecoverFromFlash().
  const RecoveryReport& last_recovery() const { return last_recovery_; }

  // --- Capacity ------------------------------------------------------------

  // Host-visible capacity across pools, in pages.
  uint64_t ExportedPages() const;

  // Fired with the new ExportedPages() whenever retirement shrinks capacity.
  using CapacityListener = std::function<void(uint64_t exported_pages)>;
  void SetCapacityListener(CapacityListener listener) { capacity_listener_ = std::move(listener); }

  // --- Introspection (SOS daemons, benches, tests) -------------------------

  uint32_t PoolIdByName(const std::string& name) const;
  PoolSnapshot Snapshot(uint32_t pool_id) const;
  // Device-wide aggregate: the sum of every pool's counters.
  FtlStats stats() const;
  // Counters of one pool (GC/WL/migration activity is naturally per-pool).
  uint32_t num_pools() const { return static_cast<uint32_t>(pools_.size()); }
  const FtlStats& pool_stats(uint32_t pool_id) const { return pools_[pool_id].stats; }
  NandDevice& nand() { return nand_; }
  const NandDevice& nand() const { return nand_; }

  // Registers aggregate + per-pool counters and the simulated-latency
  // histograms under `prefix` (metric names: ftl.*, ftl.pool.<name>.*),
  // then per-handle accounting
  // (ftl.handle.<label>.{host_writes,nand_writes,write_amplification}) and
  // wear variance (ftl.placement.pec_variance, per-pool variants).
  void ToMetrics(obs::MetricRegistry& registry, const std::string& prefix = "ftl.") const;

  // --- Placement streams (per-handle accounting) ---------------------------

  // Volatile per-stream write accounting. Pages are stamped with their
  // stream tag in RAM only (the durable OOB format is unchanged), so these
  // counters reset on crash recovery -- like any SSD's SMART-adjacent
  // per-handle telemetry.
  struct StreamStats {
    std::string name;           // metric label; empty = never registered
    uint64_t host_writes = 0;   // pages written via a directive with this tag
    uint64_t nand_writes = 0;   // + relocations of pages carrying this tag
    double WriteAmplification() const {
      return host_writes > 0
                 ? static_cast<double>(nand_writes) / static_cast<double>(host_writes)
                 : 0.0;
    }
  };

  // Names a stream tag for metric export (idempotent; re-registration
  // renames, counters persist across handle reuse). Tags must fit the
  // one-byte per-page stamp: 1..255.
  void RegisterStream(uint32_t stream, const std::string& name);

  // Population variance of PEC across all pool-owned blocks of the die.
  double PecVariance() const;

  // Optional event trace (GC victim picks, migrations, block retirement and
  // resuscitation). `sink` must outlive the FTL; null disables tracing.
  void SetTraceSink(obs::TraceSink* sink) { trace_ = sink; }

  bool IsMapped(uint64_t lba) const { return l2p_.Contains(lba); }

  // True when the stored copy of `lba` has absorbed unrecoverable corruption
  // during some past relocation (see FtlReadResult::tainted).
  bool IsTainted(uint64_t lba) const;

  // Predicted raw BER of the physical page backing `lba`, `ahead_years`
  // from now. kNotFound for unmapped LBAs.
  [[nodiscard]] Result<double> PredictLbaRber(uint64_t lba, double ahead_years) const;

  // All LBAs currently mapped into `pool_id` (scrub iteration).
  std::vector<uint64_t> LbasInPool(uint32_t pool_id) const;

  // Exhaustive internal consistency audit, used by stress tests:
  //  - every mapping entry points at a page whose reverse entry names it,
  //  - per-block valid counters equal the live reverse entries,
  //  - per-pool valid_pages equals the sum over its blocks,
  //  - free-listed blocks are erased and hold no valid data,
  //  - block ownership is disjoint across pools.
  // Returns kFailedPrecondition with a description on the first violation.
  [[nodiscard]] Status CheckInvariants() const;

 private:
  static constexpr uint64_t kLbaInvalid = ~0ull;
  static constexpr uint64_t kLbaParity = ~0ull - 1;

  // PageOob::flags bits (durable; recovery depends on them).
  static constexpr uint8_t kOobFlagParity = 1;
  static constexpr uint8_t kOobFlagTainted = 2;

  // Free blocks withheld from host writes so garbage collection always has
  // relocation targets. Without this reserve a burst of writes can consume
  // the last free block and wedge the pool permanently (GC needs somewhere
  // to move valid pages before it can erase a victim). The reserve is
  // excluded from exported capacity.
  static constexpr uint32_t kGcReserveBlocks = 2;

  // An append point: a partially-programmed block plus its open parity
  // stripe. `stream` is the placement tag a per-stream slot serves (0 for
  // the shared host and cold slots).
  struct ActiveSlot {
    uint32_t stream = 0;
    std::optional<uint32_t> block;
    std::vector<uint8_t> stripe_xor;  // running parity of the open stripe
  };

  // A fresh append point for `stream`: no block, an empty parity stripe.
  ActiveSlot NewSlot(uint32_t stream) const {
    return ActiveSlot{stream, std::nullopt,
                      std::vector<uint8_t>(config_.nand.page_size_bytes, 0)};
  }

  // Fixed positions in Pool::slots; per-stream slots follow them.
  static constexpr size_t kHostSlot = 0;
  static constexpr size_t kColdSlot = 1;  // used iff config.hot_cold_separation
  static constexpr size_t kFirstStreamSlot = 2;

  struct Pool {
    FtlPoolConfig config;
    uint32_t data_slots_per_block = 0;  // pages per block minus parity slots
    double retire_rber = 0.0;           // resolved bound
    uint32_t num_blocks = 0;            // blocks labeled with this pool
    std::deque<uint32_t> free_blocks;
    // Every append point of the pool: the host slot, the cold slot, then
    // per-stream slots (FDP-style reclaim units) opened lazily in first-write
    // order under non-legacy placement policies. Append-ordered vector:
    // deterministic iteration, tiny N (bounded by the handle table).
    std::vector<ActiveSlot> slots;
    uint64_t valid_pages = 0;
    std::optional<uint32_t> resuscitate_pool;  // resolved target pool id
    FtlStats stats;                     // this pool's share of the counters

    bool IsActive(uint32_t id) const {
      for (const ActiveSlot& slot : slots) {
        if (slot.block == id) {
          return true;
        }
      }
      return false;
    }
  };

  bool IsParitySlot(const Pool& pool, uint32_t page) const;
  uint32_t PagesPerBlock(const Pool& pool) const;

  // Ensures `slot` has an active block with a free data slot; may run GC.
  // The lifetime hint steers which free block is allocated (kLifetime
  // policy). Returns false when the pool is out of writable space.
  bool EnsureWritable(uint32_t pool_id, ActiveSlot& slot, bool allow_gc, LifetimeHint lifetime);

  // Allocates the next block from the pool free list. Legacy behavior:
  // lowest-PEC-first under wear leveling, FIFO otherwise. Under
  // PlacementPolicy::kLifetime a declared lifetime overrides it: kShort
  // takes the most-worn free block, kLong the least-worn.
  std::optional<uint32_t> AllocateBlock(Pool& pool, LifetimeHint lifetime);

  // Picks the append slot for a write: relocated data goes to the cold slot
  // when the pool separates streams; under non-legacy placement policies a
  // nonzero stream tag gets its own per-handle slot.
  ActiveSlot& SlotFor(Pool& pool, bool cold, uint32_t stream);

  // Why a page is appended. Picks the append slot (relocated and refreshed
  // data take the cold slot), whether the append may run GC (relocations
  // may not: they already run inside it), and the counter each committed
  // page bumps.
  enum class AppendKind : uint8_t {
    kHostWrite,     // host slot, may GC, host_writes (+ per-stream)
    kMigration,     // host slot, may GC, migrations
    kRefresh,       // cold slot, may GC, refreshes
    kGcRelocation,  // cold slot, no GC, gc_relocations
    kWlRelocation,  // cold slot, no GC, wl_relocations
  };

  // The one append primitive: writes the single page `data` as `lba` into
  // `where.pool_id`. Flushes parity slots, drops grown-bad blocks, and gives
  // up after 5 attempts. The page is committed (old copy invalidated,
  // mapping installed) only once its program returned Ok. `tainted` is
  // stamped into the durable OOB so recovery preserves the corruption
  // marker; `where.stream`/`lifetime` feed per-handle accounting and
  // (non-legacy policies) slot/block selection.
  [[nodiscard]] Status AppendPage(uint64_t lba, std::span<const uint8_t> data,
                                  const WriteDirective& where, AppendKind kind, bool tainted);

  // Rejects directives naming no pool or a stream tag wider than a byte.
  [[nodiscard]] Status CheckDirective(const WriteDirective& directive) const;

  // Writes the parity page for the slot's open stripe. Called when the
  // append cursor reaches a parity slot.
  [[nodiscard]] Status WriteParityPage(uint32_t pool_id, ActiveSlot& slot);

  void InvalidateLoc(const PhysLoc& loc);

  // Garbage collection: frees at least one block if possible.
  bool CollectGarbage(uint32_t pool_id);
  std::optional<uint32_t> PickGcVictim(uint32_t pool_id) const;
  // Moves all valid pages off `block_id` as `kind` (a GC or WL relocation),
  // erases it, and returns it to the free list (or retires it). Stops at the
  // first page that fails to move.
  [[nodiscard]] Status EvacuateAndRecycle(uint32_t pool_id, uint32_t block_id, AppendKind kind);

  // Static wear leveling pass; no-op when disabled or spread is small.
  void MaybeStaticWearLevel(uint32_t pool_id);

  // Erases a block and either returns it to the pool, retires it into a
  // resuscitation target, or drops it (capacity shrink).
  void RecycleBlock(uint32_t pool_id, uint32_t block_id);

  // Grown bad block: a program or erase on `block_id` failed permanently.
  // Relocates whatever valid data it still holds (reads keep working on a
  // stuck block), drops unrecoverable mappings as lost, removes the block
  // from the pool and clears its durable label. Propagates kPowerLost.
  [[nodiscard]] Status DropBadBlock(uint32_t pool_id, uint32_t block_id);

  // True when the block has worn past the pool's retirement bound, as the
  // die's error model predicts it.
  bool ShouldRetire(const Pool& pool, uint32_t block_id) const;

  // Host-visible pages of one pool: usable blocks x data slots x (1 - OP).
  static uint64_t ExportedPagesOf(const Pool& pool);

  // Integer PEC moments over the blocks `pool_id` owns, or over every
  // pool-owned block of the die for NandDevice::kNoLabel.
  struct PecMoments {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t sq_sum = 0;
    uint32_t max = 0;
    double Mean() const;
    double Variance() const;  // population variance
  };
  PecMoments PecMomentsOf(uint32_t pool_id) const;

  void NotifyCapacity();

  // Reads the page at `loc`, which the caller has just looked up in the L2P
  // map: returns the bytes plus degradation bookkeeping. Host reads, GC,
  // migration and refresh all read through here.
  [[nodiscard]] Result<FtlReadResult> ReadAt(const PhysLoc& loc, bool count_stats);

  // Everything downstream of the initial NAND read: ECC decode, read-retry,
  // parity rescue, fidelity policy.
  [[nodiscard]] Result<FtlReadResult> DecodeRead(const PhysLoc& loc, ReadResult raw,
                                                 bool count_stats);

  // The directive that keeps the page at `loc` in its pool under its stream
  // tag: per-handle nand_writes charge GC/WL rewrites and scrubs of a
  // handle's data back to that handle.
  WriteDirective InPlace(const PhysLoc& loc) const;

  // The one page move: reads `lba` at `from` (no host stats) and re-appends
  // it under `where` as `kind`, carrying its taint forward (a degraded read
  // taints the copy). Migration, refresh and every relocation go through
  // here.
  [[nodiscard]] Status MovePage(uint64_t lba, const PhysLoc& from, const WriteDirective& where,
                                AppendKind kind);

  // The one live-page walk: moves every valid page of `block_id` back into
  // `pool_id` as `kind`, with GC re-entry blocked. Without `salvage` it
  // stops at and returns the first failure. With it only kPowerLost is
  // returned; any other failure drops that page's mapping into lost_pages.
  [[nodiscard]] Status MoveLivePages(uint32_t pool_id, uint32_t block_id, AppendKind kind,
                                     bool salvage);

  // Emits the trace event `build()` returns. Builds nothing when no sink is
  // attached or the sink is full.
  template <typename Build>
  void Trace(Build&& build) {
    if (trace_ != nullptr) {
      trace_->Emit(std::forward<Build>(build));
    }
  }

  // --- Flat per-page / per-block metadata (struct-of-arrays) ---------------
  //
  // All three block arrays are indexed by NAND block id; the reverse map is a
  // single flat vector with a fixed per-block stride of `page_stride_`
  // entries (the die's native-mode page count, an upper bound for every
  // pool mode). Block ownership is not among them: the die's durable block
  // label is the one record of it (PoolOf). See DESIGN.md §11 for the
  // layout diagram.

  uint64_t* P2lRow(uint32_t block) { return &p2l_[static_cast<size_t>(block) * page_stride_]; }
  const uint64_t* P2lRow(uint32_t block) const {
    return &p2l_[static_cast<size_t>(block) * page_stride_];
  }
  // The pool that owns `block`, or NandDevice::kNoLabel for none; it is also
  // the pool of every page mapped into the block. SetOwner writes it (a
  // label write never fails on a valid block, even while powered off).
  uint32_t PoolOf(uint32_t block) const { return nand_.block_label(block); }
  void SetOwner(uint32_t block, uint32_t pool_id) {
    Status s = nand_.SetBlockLabel(block, pool_id);
    assert(s.ok());
    (void)s;
  }
  bool OwnedBy(uint32_t block, uint32_t pool_id) const {
    return block < config_.nand.num_blocks && PoolOf(block) == pool_id;
  }
  // Wipes a block's whole reverse-map row (full stride, so stale entries
  // from a previous, denser mode can never leak) and zeroes its counters.
  void ResetBlockRow(uint32_t block);

  FtlConfig config_;
  SimClock* clock_;
  NandDevice nand_;
  std::vector<Pool> pools_;
  L2pTable l2p_;
  uint32_t page_stride_ = 0;               // p2l_ entries per block
  std::vector<uint64_t> p2l_;              // reverse map, kLba* sentinels
  // Volatile per-page stream tag, parallel to p2l_ (same stride). Not part
  // of the durable OOB format: zeroed wholesale by RecoverFromFlash, so
  // per-handle accounting restarts after a power cut.
  std::vector<uint8_t> page_stream_;
  std::vector<uint32_t> block_valid_;      // live data pages per block
  std::vector<SimTimeUs> block_last_write_;
  std::vector<uint8_t> block_sealed_;      // bool; fully programmed
  CapacityListener capacity_listener_;
  obs::TraceSink* trace_ = nullptr;
  // Simulated-time latency distributions for the host-facing entry points
  // and for whole GC passes (see obs/scoped_latency.h).
  obs::Histogram read_latency_ = obs::Histogram::LatencyUs();
  obs::Histogram write_latency_ = obs::Histogram::LatencyUs();
  obs::Histogram gc_latency_ = obs::Histogram::LatencyUs();
  bool in_relocation_ = false;  // guards GC re-entry
  uint64_t last_exported_pages_ = 0;
  // Monotonic write sequence stamped into every page's OOB; recovery picks
  // the highest-sequence copy of each LBA as the live one.
  uint64_t write_seq_ = 0;
  RecoveryReport last_recovery_;
  // Per-stream accounting, indexed by tag (grown on demand). Entry 0 is the
  // shared stream; it exists but is never exported.
  std::vector<StreamStats> stream_stats_;

  // Grows stream_stats_ to cover `stream` and returns the entry.
  StreamStats& StreamEntry(uint32_t stream);
};

}  // namespace sos

#endif  // SOS_SRC_FTL_FTL_H_
