// Copyright (c) 2026 The SOS Authors. MIT License.
//
// SosDevice: the paper's storage device (Figure 2), as a BlockDevice.
//
// A PLC die partitioned into three FTL pools:
//   SYS    -- pseudo-QLC, LDPC-grade ECC, intra-block parity stripes, wear
//             leveling on. Holds everything the host labels critical. New
//             data always lands here first (paper §4.4: "new file data will
//             first be written to high-endurance pseudo-QLC memory").
//   SPARE  -- native PLC, weak/no ECC, wear leveling off ([73]). Holds data
//             the classifier demoted; reads may return degraded bytes.
//   RESCUE -- pseudo-TLC pool that adopts PLC blocks retired out of SPARE
//             (flexible resuscitation, §4.3/[76]). Also approximate.
//
// Hosts direct placement through PlacementHandles (src/host/placement.h):
// a handle's declared durability picks the reliability domain (kCritical ->
// SYS, kDegradable -> SPARE/RESCUE), its lifetime hint feeds the FTL's
// lifetime-aware allocator, and Reclassify() migrates a block between
// domains. Capacity variance propagates from block retirement up through
// the BlockDevice capacity listener.
//
// Baseline devices for the E12 comparison (pure TLC / pure QLC, uniform
// strong ECC) are BaselineDevice instances.

#ifndef SOS_SRC_SOS_SOS_DEVICE_H_
#define SOS_SRC_SOS_SOS_DEVICE_H_

#include <optional>

#include "src/ftl/ftl.h"
#include "src/host/block_device.h"

namespace sos {

struct SosDeviceConfig {
  NandConfig nand;               // tech should be kPlc for the real design
  double sys_share = 0.5;        // fraction of physical blocks for SYS
  EccPreset sys_ecc = EccPreset::kLdpc;
  uint32_t sys_parity_stripe = 16;  // every 16th SYS page is XOR parity
  EccPreset spare_ecc = EccPreset::kNone;  // approximate storage
  // Retirement RBER bound for the ECC-less pools: the block leaves service
  // when one year of retention would exceed this raw error rate. 2e-3 keeps
  // video quality above ~0.8 (see media quality model).
  double spare_retire_rber = 2e-3;
  GcPolicy gc_policy = GcPolicy::kGreedy;
  double op_fraction = 0.07;
  // How the FTL consumes placement directives (per-handle append points,
  // lifetime-aware allocation). kLegacy keeps the historical write schedule
  // byte-identical; see PlacementPolicy in src/ftl/ftl.h.
  PlacementPolicy placement_policy = PlacementPolicy::kLegacy;

  // Optional pseudo-SLC write staging (paper §4.4 extension: "new file data
  // will first be written to high-endurance memory"). A small pool of blocks
  // programmed at 1 bit/cell absorbs incoming SYS writes at SLC speed and
  // endurance; a background flush migrates staged data into pseudo-QLC.
  bool enable_slc_staging = false;
  double stage_share = 0.06;          // fraction of blocks, carved out of SYS

  SosDeviceConfig() { nand.tech = CellTech::kPlc; }
};

// The BlockDevice surface every FTL-backed device shares: the placement
// handle table, the FTL, and the handle lifecycle, read, trim and capacity
// paths. Subclasses decide where writes and reclassifications land.
class FtlBlockDevice : public BlockDevice {
 public:
  uint32_t block_size() const override;
  uint64_t capacity_blocks() const override;
  [[nodiscard]] Result<PlacementHandle> OpenPlacement(const PlacementSpec& spec) override;
  [[nodiscard]] Status ClosePlacement(PlacementHandle handle) override;
  [[nodiscard]] Result<PlacementSpec> DescribePlacement(PlacementHandle handle) const override;
  [[nodiscard]] Result<BlockReadResult> Read(uint64_t lba) override;
  [[nodiscard]] Status Trim(uint64_t lba) override;
  void SetCapacityListener(CapacityListener listener) override;

  Ftl& ftl() { return ftl_; }
  const Ftl& ftl() const { return ftl_; }

 protected:
  // `clock` must outlive the device.
  FtlBlockDevice(const FtlConfig& config, SimClock* clock) : ftl_(config, clock) {}

  const PlacementHandleTable& handles() const { return handles_; }

 private:
  PlacementHandleTable handles_;
  Ftl ftl_;
};

class SosDevice final : public FtlBlockDevice {
 public:
  // `clock` must outlive the device.
  SosDevice(const SosDeviceConfig& config, SimClock* clock);

  // --- BlockDevice ---------------------------------------------------------

  // Also names the handle's FTL stream for per-handle metric export.
  [[nodiscard]] Result<PlacementHandle> OpenPlacement(const PlacementSpec& spec) override;
  [[nodiscard]] Status Write(uint64_t lba, std::span<const uint8_t> data,
                             PlacementHandle handle) override;
  [[nodiscard]] Status Reclassify(uint64_t lba, PlacementHandle handle) override;

  // --- SOS introspection ---------------------------------------------------

  uint32_t sys_pool() const { return sys_pool_; }
  uint32_t spare_pool() const { return spare_pool_; }
  uint32_t rescue_pool() const { return rescue_pool_; }
  std::optional<uint32_t> stage_pool() const { return stage_pool_; }

  PoolSnapshot SysSnapshot() const { return ftl().Snapshot(sys_pool_); }
  PoolSnapshot SpareSnapshot() const { return ftl().Snapshot(spare_pool_); }
  PoolSnapshot RescueSnapshot() const { return ftl().Snapshot(rescue_pool_); }

  // --- Pseudo-SLC staging (only with enable_slc_staging) -------------------

  bool staging_enabled() const { return stage_pool_.has_value(); }
  PoolSnapshot StageSnapshot() const { return ftl().Snapshot(*stage_pool_); }

  // Migrates staged data into SYS until stage utilization reaches
  // its low-water mark (or the stage empties). Returns pages flushed. Called
  // automatically when the stage passes its high-water mark; hosts may also
  // call it during idle periods (the background flush of §4.4).
  //
  // SYS running out of room is the expected stop condition and is *not* an
  // error (the remainder simply stays staged); any other migration failure
  // (power loss, data loss) is returned instead of being swallowed.
  Result<uint64_t> FlushStage();

  // --- Crash recovery ------------------------------------------------------

  // Remounts the device after a simulated power cut: powers the die on and
  // rebuilds all volatile FTL state (mapping table, pool free/valid state)
  // from durable flash metadata via Ftl::RecoverFromFlash(). Pool ids are
  // fixed at construction, so SOS daemons and health collection resume
  // exactly where the durable state left them.
  [[nodiscard]] Status RecoverFromPowerLoss() { return ftl().RecoverFromFlash(); }

  const SosDeviceConfig& config() const { return config_; }

 private:
  // The FTL directive for writing `spec`-classified data into `pool`: the
  // handle's slot id becomes the stream tag (1-based; 0 is the shared
  // stream), the declared lifetime rides along.
  WriteDirective DirectiveFor(PlacementHandle handle, const PlacementSpec& spec,
                              uint32_t pool) const {
    return WriteDirective{pool, spec.lifetime, handle.id() + 1};
  }

  SosDeviceConfig config_;
  uint32_t sys_pool_ = 0;
  uint32_t spare_pool_ = 0;
  uint32_t rescue_pool_ = 0;
  std::optional<uint32_t> stage_pool_;
};

// A conventional single-pool device of the given technology with uniform
// strong ECC and wear leveling -- the TLC/QLC baselines of experiment E12.
// Geometry (blocks/wordlines/page size) is taken from `nand`.
class BaselineDevice final : public FtlBlockDevice {
 public:
  BaselineDevice(const NandConfig& nand, SimClock* clock, EccPreset ecc, GcPolicy gc);

  // A baseline device honors the handle lifecycle but ignores the spec: all
  // data shares one undirected stream in the single pool.
  [[nodiscard]] Status Write(uint64_t lba, std::span<const uint8_t> data,
                             PlacementHandle handle) override;
  [[nodiscard]] Status Reclassify(uint64_t lba, PlacementHandle handle) override;
};

}  // namespace sos

#endif  // SOS_SRC_SOS_SOS_DEVICE_H_
