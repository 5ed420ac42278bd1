// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/sos/sos_device.h"

#include <array>
#include <cassert>
#include <optional>

namespace sos {
namespace {

constexpr double kStageFlushHigh = 0.70;  // flush when stage fills past this...
constexpr double kStageFlushLow = 0.30;   // ...down to this utilization

FtlConfig BuildSosFtlConfig(const SosDeviceConfig& config) {
  FtlConfig ftl;
  ftl.nand = config.nand;
  ftl.gc_policy = config.gc_policy;
  ftl.placement_policy = config.placement_policy;

  FtlPoolConfig sys;
  sys.name = "SYS";
  sys.mode = CellTech::kQlc;  // pseudo-QLC on the PLC die
  sys.ecc = EccScheme::FromPreset(config.sys_ecc);
  sys.share = config.enable_slc_staging ? config.sys_share - config.stage_share
                                        : config.sys_share;
  assert(sys.share > 0.0);
  sys.wear_leveling = true;
  sys.parity_stripe = config.sys_parity_stripe;
  sys.op_fraction = config.op_fraction;
  sys.nominal_retention_years = 1.0;
  sys.read_retries = 2;
  // SYS holds the host's critical data: never serve silent corruption. With
  // LDPC + parity stripes + retries an unrescued failure is essentially
  // unreachable below retirement wear, so this changes no healthy-path
  // behaviour -- it turns the residual case into a loud kDataLoss.
  sys.strict_fidelity = true;

  FtlPoolConfig spare;
  spare.name = "SPARE";
  spare.mode = config.nand.tech;  // native density (PLC)
  spare.ecc = EccScheme::FromPreset(config.spare_ecc);
  spare.share = 1.0 - config.sys_share;
  spare.wear_leveling = false;  // paper §4.3 / [73]
  spare.op_fraction = config.op_fraction;
  spare.nominal_retention_years = 1.0;
  spare.retire_rber = config.spare_retire_rber;
  spare.resuscitate_into = "RESCUE";

  FtlPoolConfig rescue;
  rescue.name = "RESCUE";
  rescue.mode = CellTech::kTlc;  // pseudo-TLC rebirth of worn PLC blocks
  rescue.ecc = EccScheme::FromPreset(config.spare_ecc);
  rescue.share = 0.0;  // populated only by resuscitation
  rescue.wear_leveling = false;
  rescue.op_fraction = config.op_fraction;
  rescue.nominal_retention_years = 1.0;
  rescue.retire_rber = config.spare_retire_rber;
  rescue.min_live_blocks = 1;

  // SPARE is listed last so it absorbs block-count rounding (RESCUE must
  // start empty: it is populated only by resuscitated blocks).
  ftl.pools = {sys, rescue, spare};

  if (config.enable_slc_staging) {
    FtlPoolConfig stage;
    stage.name = "STAGE";
    stage.mode = CellTech::kSlc;  // pseudo-SLC: fast, near-indestructible
    stage.ecc = EccScheme::FromPreset(EccPreset::kWeakBch);
    stage.share = config.stage_share;
    stage.wear_leveling = true;
    stage.op_fraction = config.op_fraction;
    stage.min_live_blocks = 2;
    ftl.pools.insert(ftl.pools.begin(), stage);
  }
  return ftl;
}

FtlConfig BuildBaselineFtlConfig(const NandConfig& nand, EccPreset ecc, GcPolicy gc) {
  FtlConfig config;
  config.nand = nand;
  config.gc_policy = gc;
  FtlPoolConfig pool;
  pool.name = "MAIN";
  pool.mode = nand.tech;
  pool.ecc = EccScheme::FromPreset(ecc);
  pool.share = 1.0;
  pool.wear_leveling = true;
  pool.read_retries = 2;
  config.pools = {pool};
  return config;
}

}  // namespace

// ---------------------------------------------------------------------------
// Shared FTL-backed device surface.
// ---------------------------------------------------------------------------

uint32_t FtlBlockDevice::block_size() const { return ftl_.nand().config().page_size_bytes; }

uint64_t FtlBlockDevice::capacity_blocks() const { return ftl_.ExportedPages(); }

Result<PlacementHandle> FtlBlockDevice::OpenPlacement(const PlacementSpec& spec) {
  return handles_.Open(spec);
}

Status FtlBlockDevice::ClosePlacement(PlacementHandle handle) { return handles_.Close(handle); }

Result<PlacementSpec> FtlBlockDevice::DescribePlacement(PlacementHandle handle) const {
  return handles_.Describe(handle);
}

Result<BlockReadResult> FtlBlockDevice::Read(uint64_t lba) {
  auto read = ftl_.Read(lba);
  if (!read.ok()) {
    return read.status();
  }
  BlockReadResult result;
  result.data = std::move(read.value().data);
  result.residual_bit_errors = read.value().residual_bit_errors;
  result.degraded = read.value().degraded;
  return result;
}

Status FtlBlockDevice::Trim(uint64_t lba) { return ftl_.Trim(lba); }

void FtlBlockDevice::SetCapacityListener(CapacityListener listener) {
  ftl_.SetCapacityListener(std::move(listener));
}

// ---------------------------------------------------------------------------
// SOS device.
// ---------------------------------------------------------------------------

SosDevice::SosDevice(const SosDeviceConfig& config, SimClock* clock)
    : FtlBlockDevice(BuildSosFtlConfig(config), clock),
      config_(config),
      sys_pool_(ftl().PoolIdByName("SYS")),
      spare_pool_(ftl().PoolIdByName("SPARE")),
      rescue_pool_(ftl().PoolIdByName("RESCUE")) {
  if (config_.enable_slc_staging) {
    stage_pool_ = ftl().PoolIdByName("STAGE");
  }
}

Result<uint64_t> SosDevice::FlushStage() {
  if (!stage_pool_.has_value()) {
    return uint64_t{0};
  }
  uint64_t flushed = 0;
  const PoolSnapshot before = ftl().Snapshot(*stage_pool_);
  if (before.exported_pages == 0) {
    return uint64_t{0};
  }
  const uint64_t target_valid = static_cast<uint64_t>(
      static_cast<double>(before.exported_pages) * kStageFlushLow);
  for (uint64_t lba : ftl().LbasInPool(*stage_pool_)) {
    if (ftl().Snapshot(*stage_pool_).valid_pages <= target_valid) {
      break;
    }
    Status migrated = ftl().Migrate(lba, sys_pool_);
    if (migrated.ok()) {
      ++flushed;
      continue;
    }
    if (migrated.code() == StatusCode::kOutOfSpace) {
      break;  // SYS out of space: leave the rest staged
    }
    // Power loss, data loss, ...: the flush did not merely stall, it failed.
    return migrated;
  }
  return flushed;
}

Result<PlacementHandle> SosDevice::OpenPlacement(const PlacementSpec& spec) {
  auto handle = FtlBlockDevice::OpenPlacement(spec);
  if (!handle.ok()) {
    return handle.status();
  }
  // Name the handle's FTL stream for per-handle metric export. Reopening a
  // recycled slot renames the stream; its counters persist (device-lifetime
  // telemetry, like SMART attributes).
  ftl().RegisterStream(handle.value().id() + 1, PlacementLabel(handle.value(), spec));
  return handle;
}

Status SosDevice::Write(uint64_t lba, std::span<const uint8_t> data, PlacementHandle handle) {
  if (Status s = handles().Check(handle); !s.ok()) {
    return s;
  }
  const PlacementSpec& spec = handles().SpecOf(handle);
  // Critical writes land in the pseudo-SLC stage first when staging is on
  // ("new file data will first be written to high-endurance memory", §4.4);
  // the stage flushes to pseudo-QLC once it passes its high-water mark.
  if (spec.durability == Durability::kCritical && stage_pool_.has_value()) {
    const PoolSnapshot stage = ftl().Snapshot(*stage_pool_);
    if (stage.exported_pages > 0 &&
        static_cast<double>(stage.valid_pages) >
            static_cast<double>(stage.exported_pages) * kStageFlushHigh) {
      if (auto flushed = FlushStage(); !flushed.ok()) {
        return flushed.status();  // power/data loss mid-flush: the write fails too
      }
    }
    Status staged = ftl().Write(lba, data, DirectiveFor(handle, spec, *stage_pool_));
    if (staged.code() != StatusCode::kOutOfSpace) {
      return staged;
    }
    // Stage exhausted even after the flush attempt: fall through to SYS.
  }
  // The device exports a single LBA space, so a write must not fail while
  // *any* pool has room: each durability class overflows into the others in
  // preference order (critical data prefers the most reliable fallback
  // first, and the migration daemon re-sorts misplacements later).
  const std::array<uint32_t, 3> order =
      spec.durability == Durability::kDegradable
          ? std::array<uint32_t, 3>{spare_pool_, rescue_pool_, sys_pool_}
          : std::array<uint32_t, 3>{sys_pool_, rescue_pool_, spare_pool_};
  Status last = Status(StatusCode::kOutOfSpace, "no pools");
  for (uint32_t pool : order) {
    last = ftl().Write(lba, data, DirectiveFor(handle, spec, pool));
    if (last.code() != StatusCode::kOutOfSpace) {
      return last;
    }
  }
  return last;
}

Status SosDevice::Reclassify(uint64_t lba, PlacementHandle handle) {
  if (Status s = handles().Check(handle); !s.ok()) {
    return s;
  }
  // Edge-case contract (BlockDevice::Reclassify): unmapped/trimmed LBAs are
  // kNotFound with no state change; an LBA already in the handle's primary
  // target pool is an Ok no-op (Ftl::Migrate returns before any flash op).
  // Residency in an *overflow* pool (e.g. RESCUE for degradable data) is
  // deliberately not a no-op: the device re-sorts it toward the primary.
  if (!ftl().IsMapped(lba)) {
    return Status(StatusCode::kNotFound, "unmapped LBA");
  }
  const PlacementSpec& spec = handles().SpecOf(handle);
  if (spec.durability == Durability::kCritical) {
    return ftl().Migrate(lba, DirectiveFor(handle, spec, sys_pool_));
  }
  // Demotion: SPARE first, overflow into RESCUE.
  Status s = ftl().Migrate(lba, DirectiveFor(handle, spec, spare_pool_));
  if (s.code() == StatusCode::kOutOfSpace) {
    return ftl().Migrate(lba, DirectiveFor(handle, spec, rescue_pool_));
  }
  return s;
}

// ---------------------------------------------------------------------------
// Baseline device.
// ---------------------------------------------------------------------------

BaselineDevice::BaselineDevice(const NandConfig& nand, SimClock* clock, EccPreset ecc,
                               GcPolicy gc)
    : FtlBlockDevice(BuildBaselineFtlConfig(nand, ecc, gc), clock) {}

Status BaselineDevice::Write(uint64_t lba, std::span<const uint8_t> data,
                             PlacementHandle handle) {
  if (Status s = handles().Check(handle); !s.ok()) {
    return s;
  }
  // Non-directed: every handle funnels into the shared stream of the single
  // pool -- the conventional-SSD comparison point.
  return ftl().Write(lba, data, 0);
}

Status BaselineDevice::Reclassify(uint64_t lba, PlacementHandle handle) {
  if (Status s = handles().Check(handle); !s.ok()) {
    return s;
  }
  // Same edge-case contract as SosDevice: reclassifying a block that was
  // never written (or was trimmed) is a caller bug, not a silent success.
  if (!ftl().IsMapped(lba)) {
    return Status(StatusCode::kNotFound, "unmapped LBA");
  }
  return Status::Ok();  // single reliability domain: nothing to move
}

}  // namespace sos
