// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/ftl/ftl.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

#include "src/common/rng.h"
#include "src/flash/error_model.h"
#include "src/flash/voltage_model.h"
#include "src/obs/scoped_latency.h"

namespace sos {

namespace {

constexpr uint32_t kGcThresholdBlocks = 3;  // GC when free blocks <= this
// Static WL kicks in when (max PEC - min PEC) exceeds this fraction of the
// mode's endurance.
constexpr double kStaticWlSpread = 0.10;

}  // namespace

void FtlStats::Accumulate(const FtlStats& other) {
  host_writes_ += other.host_writes_;
  nand_writes_ += other.nand_writes_;
  parity_writes_ += other.parity_writes_;
  gc_relocations_ += other.gc_relocations_;
  wl_relocations_ += other.wl_relocations_;
  migrations_ += other.migrations_;
  refreshes_ += other.refreshes_;
  gc_erases_ += other.gc_erases_;
  background_collections_ += other.background_collections_;
  retired_blocks_ += other.retired_blocks_;
  resuscitated_blocks_ += other.resuscitated_blocks_;
  ecc_failures_ += other.ecc_failures_;
  retry_recoveries_ += other.retry_recoveries_;
  parity_rescues_ += other.parity_rescues_;
  degraded_reads_ += other.degraded_reads_;
  grown_bad_blocks_ += other.grown_bad_blocks_;
  lost_pages_ += other.lost_pages_;
}

void FtlStats::ToMetrics(obs::MetricRegistry& registry, const std::string& prefix) const {
  registry.SetCounter(prefix + "host_writes", host_writes_);
  registry.SetCounter(prefix + "nand_writes", nand_writes_);
  registry.SetCounter(prefix + "parity_writes", parity_writes_);
  registry.SetCounter(prefix + "gc_relocations", gc_relocations_);
  registry.SetCounter(prefix + "wl_relocations", wl_relocations_);
  registry.SetCounter(prefix + "migrations", migrations_);
  registry.SetCounter(prefix + "refreshes", refreshes_);
  registry.SetCounter(prefix + "gc_erases", gc_erases_);
  registry.SetCounter(prefix + "background_collections", background_collections_);
  registry.SetCounter(prefix + "retired_blocks", retired_blocks_);
  registry.SetCounter(prefix + "resuscitated_blocks", resuscitated_blocks_);
  registry.SetCounter(prefix + "ecc_failures", ecc_failures_);
  registry.SetCounter(prefix + "retry_recoveries", retry_recoveries_);
  registry.SetCounter(prefix + "parity_rescues", parity_rescues_);
  registry.SetCounter(prefix + "degraded_reads", degraded_reads_);
  registry.SetCounter(prefix + "grown_bad_blocks", grown_bad_blocks_);
  registry.SetCounter(prefix + "lost_pages", lost_pages_);
  registry.SetGauge(prefix + "write_amplification", WriteAmplification());
}

const char* PlacementPolicyName(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kLegacy:
      return "legacy";
    case PlacementPolicy::kStatic:
      return "static";
    case PlacementPolicy::kLifetime:
      return "lifetime";
  }
  return "?";
}

Ftl::Ftl(const FtlConfig& config, SimClock* clock)
    : config_(config), clock_(clock), nand_(config.nand, clock) {
  assert(!config_.pools.empty());
  double share_sum = 0.0;
  for (const auto& pc : config_.pools) {
    share_sum += pc.share;
  }
  assert(share_sum > 0.0);

  // Flat per-block metadata, sized once from device geometry. The reverse
  // map uses a fixed per-block stride of the die's *native* page count --
  // an upper bound for every pool mode, so rows never move when a block
  // changes mode on resuscitation.
  const uint32_t total_blocks = config_.nand.num_blocks;
  page_stride_ = config_.nand.PagesPerBlock(config_.nand.tech);
  p2l_.assign(static_cast<size_t>(total_blocks) * page_stride_, kLbaInvalid);
  page_stream_.assign(static_cast<size_t>(total_blocks) * page_stride_, 0);
  block_valid_.assign(total_blocks, 0);
  block_last_write_.assign(total_blocks, 0);
  block_sealed_.assign(total_blocks, 0);

  // Partition the physical blocks across pools by share.
  uint32_t next_block = 0;
  for (size_t p = 0; p < config_.pools.size(); ++p) {
    Pool pool;
    pool.config = config_.pools[p];
    assert(pool.config.parity_stripe != 1 && "stripe of 1 would be all parity");
    const uint32_t pages = config_.nand.PagesPerBlock(pool.config.mode);
    const uint32_t parity_slots =
        pool.config.parity_stripe > 0 ? pages / pool.config.parity_stripe : 0;
    pool.data_slots_per_block = pages - parity_slots;
    pool.retire_rber = pool.config.retire_rber > 0.0
                           ? pool.config.retire_rber
                           : pool.config.ecc.MaxCorrectableRber(config_.nand.page_size_bytes);
    assert(pool.retire_rber > 0.0 &&
           "ECC-less pools must set an explicit retire_rber bound");
    pool.slots.assign(kFirstStreamSlot, NewSlot(0));

    uint32_t count = static_cast<uint32_t>(static_cast<double>(total_blocks) *
                                           pool.config.share / share_sum);
    if (p + 1 == config_.pools.size()) {
      count = total_blocks - next_block;  // last pool absorbs rounding
    }
    for (uint32_t i = 0; i < count && next_block < total_blocks; ++i, ++next_block) {
      Status s = nand_.SetBlockMode(next_block, pool.config.mode);
      assert(s.ok());
      (void)s;
      SetOwner(next_block, static_cast<uint32_t>(p));
      ++pool.num_blocks;
      pool.free_blocks.push_back(next_block);
    }
    pools_.push_back(std::move(pool));
  }

  // Resolve resuscitation targets by name.
  for (auto& pool : pools_) {
    if (pool.config.resuscitate_into.has_value()) {
      pool.resuscitate_pool = PoolIdByName(*pool.config.resuscitate_into);
    }
  }
  last_exported_pages_ = ExportedPages();
  // Pre-size the forward map to the exported capacity: the steady-state host
  // write path then never reallocates.
  l2p_.Reserve(last_exported_pages_);
}

uint32_t Ftl::PoolIdByName(const std::string& name) const {
  for (size_t p = 0; p < pools_.size(); ++p) {
    if (pools_[p].config.name == name) {
      return static_cast<uint32_t>(p);
    }
  }
  assert(false && "unknown pool name");
  return 0;
}

bool Ftl::IsParitySlot(const Pool& pool, uint32_t page) const {
  return pool.config.parity_stripe > 0 && (page + 1) % pool.config.parity_stripe == 0;
}

uint32_t Ftl::PagesPerBlock(const Pool& pool) const {
  return config_.nand.PagesPerBlock(pool.config.mode);
}

void Ftl::ResetBlockRow(uint32_t block) {
  uint64_t* row = P2lRow(block);
  std::fill(row, row + page_stride_, kLbaInvalid);
  uint8_t* streams = &page_stream_[static_cast<size_t>(block) * page_stride_];
  std::fill(streams, streams + page_stride_, uint8_t{0});
  block_valid_[block] = 0;
  block_sealed_[block] = 0;
}

std::optional<uint32_t> Ftl::AllocateBlock(Pool& pool, LifetimeHint lifetime) {
  if (pool.free_blocks.empty()) {
    return std::nullopt;
  }
  // Lifetime-aware allocation ("Exploiting Data Longevity", PAPERS.md):
  // short-lived data soaks up the most-worn free block (its imminent
  // invalidation wastes none of a young block's endurance); long-lived data
  // gets the youngest. Otherwise dynamic wear leveling takes the youngest,
  // and a pool without it takes the head of the list.
  const bool lifetime_aware =
      config_.placement_policy == PlacementPolicy::kLifetime &&
      (lifetime == LifetimeHint::kShort || lifetime == LifetimeHint::kLong);
  const bool most_worn = lifetime_aware && lifetime == LifetimeHint::kShort;
  const bool by_pec = lifetime_aware || pool.config.wear_leveling;
  // Strict comparisons keep the first (lowest free-list position) candidate
  // on ties, so the pick is deterministic.
  size_t pick = 0;
  uint32_t best_pec = nand_.block_info(pool.free_blocks[0]).pec;
  for (size_t i = 1; by_pec && i < pool.free_blocks.size(); ++i) {
    const uint32_t pec = nand_.block_info(pool.free_blocks[i]).pec;
    if (most_worn ? pec > best_pec : pec < best_pec) {
      best_pec = pec;
      pick = i;
    }
  }
  const uint32_t id = pool.free_blocks[pick];
  pool.free_blocks.erase(pool.free_blocks.begin() + static_cast<ptrdiff_t>(pick));
  return id;
}

Ftl::ActiveSlot& Ftl::SlotFor(Pool& pool, bool cold, uint32_t stream) {
  // Relocated data always takes the shared slots: a per-stream slot for GC
  // traffic would let a nested relocation grow `slots` while an outer
  // AppendPage holds a reference into it. Stream slots are for fresh host
  // writes only.
  if (cold || stream == 0 || config_.placement_policy == PlacementPolicy::kLegacy) {
    return pool.slots[cold && pool.config.hot_cold_separation ? kColdSlot : kHostSlot];
  }
  for (size_t i = kFirstStreamSlot; i < pool.slots.size(); ++i) {
    if (pool.slots[i].stream == stream) {
      return pool.slots[i];
    }
  }
  // First write under this tag: open a dedicated append point (FDP-style
  // reclaim unit). Append order is first-write order -- deterministic.
  return pool.slots.emplace_back(NewSlot(stream));
}

bool Ftl::EnsureWritable(uint32_t pool_id, ActiveSlot& slot, bool allow_gc,
                         LifetimeHint lifetime) {
  Pool& pool = pools_[pool_id];
  if (pool.num_blocks < pool.config.min_live_blocks) {
    return false;  // pool has worn down to a husk
  }
  // True while the slot's active block has a free page; clears a spent one.
  auto active_usable = [&]() -> bool {
    if (!slot.block.has_value()) {
      return false;
    }
    const uint32_t id = *slot.block;
    if (block_sealed_[id] == 0 && nand_.block_info(id).next_page < PagesPerBlock(pool)) {
      return true;
    }
    slot.block.reset();
    return false;
  };
  if (active_usable()) {
    return true;
  }
  // Keep a GC slack of free blocks. Loop: under heavy churn each collection
  // may reclaim only a few net pages, so a single pass cannot keep up with
  // demand. Stop when the threshold is restored or no victim remains.
  if (allow_gc && !in_relocation_) {
    int guard = 0;
    while (pool.free_blocks.size() <= kGcThresholdBlocks &&
           guard++ < static_cast<int>(config_.nand.num_blocks)) {
      if (!CollectGarbage(pool_id)) {
        break;
      }
    }
    // GC may have installed (and partially filled) a block into this slot --
    // keep appending to it rather than leaking it half-programmed.
    if (active_usable()) {
      return true;
    }
  }
  // Host writes must not raid the GC reserve; relocation writes may.
  if (!in_relocation_ && pool.free_blocks.size() <= kGcReserveBlocks) {
    return false;
  }
  std::optional<uint32_t> block = AllocateBlock(pool, lifetime);
  if (!block.has_value()) {
    return false;
  }
  slot.block = *block;
  ResetBlockRow(*block);
  // A fresh stripe starts with a fresh block.
  std::fill(slot.stripe_xor.begin(), slot.stripe_xor.end(), 0);
  return true;
}

Status Ftl::WriteParityPage(uint32_t pool_id, ActiveSlot& slot) {
  Pool& pool = pools_[pool_id];
  assert(slot.block.has_value());
  const uint32_t bid = *slot.block;
  const uint32_t page = nand_.block_info(bid).next_page;
  assert(IsParitySlot(pool, page));
  std::span<const uint8_t> payload;
  if (config_.nand.store_payloads) {
    payload = slot.stripe_xor;
  }
  PageOob oob;
  oob.lba = kLbaParity;
  oob.seq = write_seq_;
  oob.flags = kOobFlagParity;
  if (Status s = nand_.Program({bid, page}, payload, &oob); !s.ok()) {
    return s;
  }
  ++write_seq_;
  P2lRow(bid)[page] = kLbaParity;
  block_last_write_[bid] = clock_->now();
  ++pool.stats.parity_writes_;
  ++pool.stats.nand_writes_;
  std::fill(slot.stripe_xor.begin(), slot.stripe_xor.end(), 0);
  if (nand_.block_info(bid).next_page >= PagesPerBlock(pool)) {
    block_sealed_[bid] = 1;
    slot.block.reset();
  }
  return Status::Ok();
}

Status Ftl::CheckDirective(const WriteDirective& directive) const {
  if (directive.pool_id >= pools_.size()) {
    return Status(StatusCode::kInvalidArgument, "bad pool id");
  }
  if (directive.stream > 255) {
    return Status(StatusCode::kInvalidArgument, "stream tag exceeds one byte");
  }
  return Status::Ok();
}

Status Ftl::AppendPage(uint64_t lba, std::span<const uint8_t> data, const WriteDirective& where,
                       AppendKind kind, bool tainted) {
  const uint32_t pool_id = where.pool_id;
  const uint32_t stream = where.stream;
  Pool& pool = pools_[pool_id];
  const bool relocation = kind == AppendKind::kGcRelocation || kind == AppendKind::kWlRelocation;
  ActiveSlot& slot = SlotFor(pool, /*cold=*/relocation || kind == AppendKind::kRefresh, stream);
  // The retry budget absorbs stripe-boundary reseals, transient program
  // faults and grown-bad-block drops; each attempt starts from a usable
  // append point.
  for (int attempt = 0; attempt < 5; ++attempt) {
    if (!EnsureWritable(pool_id, slot, /*allow_gc=*/!relocation, where.lifetime)) {
      return Status(StatusCode::kOutOfSpace,
                    "pool '" + pool.config.name + "' has no writable blocks");
    }
    const uint32_t bid = *slot.block;
    uint32_t page = nand_.block_info(bid).next_page;
    // Flush parity pages until the cursor rests on a data slot (a stripe
    // boundary may seal the block; the next attempt then opens a new one).
    Status status = Status::Ok();
    while (status.ok() && slot.block.has_value() && IsParitySlot(pool, page)) {
      status = WriteParityPage(pool_id, slot);
      page = nand_.block_info(bid).next_page;
    }
    if (status.ok() && slot.block.has_value()) {
      PageOob oob;
      oob.lba = lba;
      oob.seq = write_seq_;
      oob.flags = tainted ? kOobFlagTainted : 0;
      // A post-op power cut advances the program cursor for a page the host
      // never saw acknowledged: only an Ok program commits.
      status = nand_.Program({bid, page}, data, &oob);
      if (status.ok()) {
        ++write_seq_;
        P2lRow(bid)[page] = lba;
        page_stream_[static_cast<size_t>(bid) * page_stride_ + page] =
            static_cast<uint8_t>(stream);
        ++block_valid_[bid];
        ++pool.valid_pages;
        block_last_write_[bid] = clock_->now();
        ++pool.stats.nand_writes_;
        if (stream != 0) {
          ++StreamEntry(stream).nand_writes;
        }
        if (pool.config.parity_stripe > 0 && config_.nand.store_payloads) {
          // Bound and pointers in locals, so gcc can vectorize the loop.
          const size_t n = std::min(data.size(), slot.stripe_xor.size());
          uint8_t* parity = slot.stripe_xor.data();
          const uint8_t* bytes = data.data();
          for (size_t b = 0; b < n; ++b) {
            parity[b] ^= bytes[b];
          }
        }
        // Re-look the old copy up: GC run by EnsureWritable may have moved it.
        if (auto old = l2p_.Find(lba); old.has_value()) {
          InvalidateLoc(*old);
        }
        l2p_.Set(lba, PhysLoc{bid, page, tainted});
        switch (kind) {
          case AppendKind::kHostWrite:
            ++pool.stats.host_writes_;
            if (stream != 0) {
              ++StreamEntry(stream).host_writes;
            }
            break;
          case AppendKind::kMigration:
            ++pool.stats.migrations_;
            break;
          case AppendKind::kRefresh:
            ++pool.stats.refreshes_;
            break;
          case AppendKind::kGcRelocation:
            ++pool.stats.gc_relocations_;
            break;
          case AppendKind::kWlRelocation:
            ++pool.stats.wl_relocations_;
            break;
        }
        if (nand_.block_info(bid).next_page >= PagesPerBlock(pool)) {
          block_sealed_[bid] = 1;
          slot.block.reset();
        }
        return Status::Ok();
      }
    }
    if (status.code() == StatusCode::kPowerLost) {
      return status;  // device is dark; only RecoverFromFlash helps
    }
    if (status.code() == StatusCode::kWornOut) {
      // The block refuses to program: it is grown-bad.
      if (Status drop = DropBadBlock(pool_id, bid); !drop.ok()) {
        return drop;
      }
    }
    // Otherwise a transient failure or a sealed block: retry on a fresh
    // append point.
  }
  return Status(StatusCode::kOutOfSpace, "append retry budget exhausted");
}

void Ftl::InvalidateLoc(const PhysLoc& loc) {
  const uint32_t pool_id = PoolOf(loc.block);
  if (pool_id == NandDevice::kNoLabel) {
    return;  // block was retired out from under the mapping
  }
  Pool& pool = pools_[pool_id];
  uint64_t* row = P2lRow(loc.block);
  if (loc.page < PagesPerBlock(pool) && row[loc.page] != kLbaInvalid &&
      row[loc.page] != kLbaParity) {
    row[loc.page] = kLbaInvalid;
    assert(block_valid_[loc.block] > 0);
    --block_valid_[loc.block];
    assert(pool.valid_pages > 0);
    --pool.valid_pages;
  }
}

Status Ftl::Write(uint64_t lba, std::span<const uint8_t> data,
                  const WriteDirective& directive) {
  if (Status s = CheckDirective(directive); !s.ok()) {
    return s;
  }
  if (data.size() > config_.nand.page_size_bytes) {
    return Status(StatusCode::kInvalidArgument, "payload exceeds page size");
  }
  obs::ScopedLatency timer(clock_, &write_latency_);
  // Fresh host data supersedes any corruption: never tainted.
  return AppendPage(lba, data, directive, AppendKind::kHostWrite, /*tainted=*/false);
}

Result<FtlReadResult> Ftl::ReadAt(const PhysLoc& loc, bool count_stats) {
  auto read = nand_.Read({loc.block, loc.page});
  if (!read.ok() && read.status().code() == StatusCode::kUnavailable) {
    // Transient device fault (bus glitch, busy die): one deterministic
    // retry before giving up, as any real controller would.
    read = nand_.Read({loc.block, loc.page});
  }
  if (!read.ok()) {
    return read.status();
  }
  return DecodeRead(loc, std::move(read.value()), count_stats);
}

Result<FtlReadResult> Ftl::DecodeRead(const PhysLoc& loc, ReadResult raw, bool count_stats) {
  Pool& pool = pools_[PoolOf(loc.block)];
  FtlReadResult result;
  result.tainted = loc.tainted;

  // A page whose errors are all correctable decodes whatever the seed, so
  // the seed is derived only for a page that can fail.
  const DecodeOutcome outcome =
      pool.config.ecc.CorrectsAll(raw.bit_errors)
          ? DecodeOutcome{.corrected = true}
          : DecodePage(pool.config.ecc, config_.nand.page_size_bytes, raw.bit_errors,
                       DeriveSeed({config_.nand.seed, loc.block, loc.page, raw.bit_errors}));
  if (outcome.corrected) {
    auto clean = nand_.PeekClean({loc.block, loc.page});
    if (clean.ok()) {
      result.data = std::move(clean.value());
    }
    return result;
  }

  if (count_stats) {
    ++pool.stats.ecc_failures_;
  }

  // READ RETRY (paper §2.1 mechanics; see voltage_model.h): re-read with
  // drift-tracking references. Each attempt is an independent, lower-RBER
  // analog measurement; the first one that decodes wins.
  for (int retry = 1; retry <= static_cast<int>(pool.config.read_retries); ++retry) {
    auto reread = nand_.Read({loc.block, loc.page}, retry);
    if (!reread.ok()) {
      break;
    }
    const uint64_t retry_seed = DeriveSeed(
        {config_.nand.seed, loc.block, loc.page, reread.value().bit_errors,
         static_cast<uint64_t>(retry)});
    if (DecodePage(pool.config.ecc, config_.nand.page_size_bytes,
                   reread.value().bit_errors, retry_seed)
            .corrected) {
      auto clean = nand_.PeekClean({loc.block, loc.page});
      if (clean.ok()) {
        result.data = std::move(clean.value());
      }
      if (count_stats) {
        ++pool.stats.retry_recoveries_;
      }
      return result;
    }
  }

  // Parity rescue: possible when the page sits in a completed stripe and
  // every other stripe member (including the parity page) decodes.
  if (pool.config.parity_stripe > 0) {
    const uint32_t stripe = pool.config.parity_stripe;
    const uint32_t start = loc.page / stripe * stripe;
    const uint32_t parity_page = start + stripe - 1;
    const bool stripe_complete = parity_page < PagesPerBlock(pool) &&
                                 P2lRow(loc.block)[parity_page] == kLbaParity;
    if (stripe_complete) {
      bool rescue_ok = true;
      for (uint32_t p = start; p < start + stripe && rescue_ok; ++p) {
        if (p == loc.page) {
          continue;
        }
        auto member = nand_.Read({loc.block, p});
        if (!member.ok()) {
          rescue_ok = false;
          break;
        }
        const uint64_t member_seed =
            DeriveSeed({config_.nand.seed, loc.block, p, member.value().bit_errors});
        rescue_ok = DecodePage(pool.config.ecc, config_.nand.page_size_bytes,
                               member.value().bit_errors, member_seed)
                        .corrected;
      }
      if (rescue_ok) {
        auto clean = nand_.PeekClean({loc.block, loc.page});
        if (clean.ok()) {
          result.data = std::move(clean.value());
        }
        if (count_stats) {
          ++pool.stats.parity_rescues_;
        }
        return result;
      }
    }
  }

  // Unrescued. A strict-fidelity pool errors loudly on the host-facing path
  // (count_stats == true) rather than serving corruption -- the paper's SYS
  // contract. Internal relocations still move the degraded bytes (with the
  // taint marker) so GC cannot wedge on a corrupt page.
  if (pool.config.strict_fidelity && count_stats) {
    return Status(StatusCode::kDataLoss,
                  "unrecoverable corruption on strict pool '" + pool.config.name + "'");
  }
  // Deliver the raw (corrupted) bytes -- approximate storage.
  result.data = std::move(raw.data);
  result.residual_bit_errors = outcome.residual_errors;
  result.degraded = true;
  if (count_stats) {
    ++pool.stats.degraded_reads_;
  }
  return result;
}

Result<FtlReadResult> Ftl::Read(uint64_t lba) {
  obs::ScopedLatency timer(clock_, &read_latency_);
  const auto loc = l2p_.Find(lba);
  if (!loc.has_value()) {
    return Status(StatusCode::kNotFound, "unmapped LBA");
  }
  return ReadAt(*loc, /*count_stats=*/true);
}

Status Ftl::Trim(uint64_t lba) {
  const auto loc = l2p_.Find(lba);
  if (!loc.has_value()) {
    return Status(StatusCode::kNotFound, "unmapped LBA");
  }
  InvalidateLoc(*loc);
  l2p_.Erase(lba);
  return Status::Ok();
}

Status Ftl::Migrate(uint64_t lba, const WriteDirective& directive) {
  if (Status s = CheckDirective(directive); !s.ok()) {
    return s;
  }
  const uint32_t target_pool = directive.pool_id;
  const auto cur = l2p_.Find(lba);
  if (!cur.has_value()) {
    return Status(StatusCode::kNotFound, "unmapped LBA");
  }
  const uint32_t source_pool = PoolOf(cur->block);
  if (source_pool == target_pool) {
    return Status::Ok();
  }
  if (Status s = MovePage(lba, *cur, directive, AppendKind::kMigration); !s.ok()) {
    return s;
  }
  Trace([&] {
    return obs::TraceEvent{clock_->now(), "ftl.migrate"}
        .WithU64("lba", lba)
        .With("from", pools_[source_pool].config.name)
        .With("to", pools_[target_pool].config.name)
        .WithU64("tainted", l2p_.Find(lba)->tainted ? 1 : 0);
  });
  return Status::Ok();
}

Status Ftl::Refresh(uint64_t lba) {
  const auto cur = l2p_.Find(lba);
  if (!cur.has_value()) {
    return Status(StatusCode::kNotFound, "unmapped LBA");
  }
  return MovePage(lba, *cur, InPlace(*cur), AppendKind::kRefresh);
}

uint32_t Ftl::BackgroundCollect(uint32_t max_blocks_per_pool) {
  uint32_t collected = 0;
  for (uint32_t pool_id = 0; pool_id < pools_.size(); ++pool_id) {
    Pool& pool = pools_[pool_id];
    uint32_t budget = max_blocks_per_pool;
    while (budget > 0 &&
           pool.free_blocks.size() <= 2 * kGcThresholdBlocks) {
      if (!CollectGarbage(pool_id)) {
        break;
      }
      --budget;
      ++collected;
      ++pool.stats.background_collections_;
    }
  }
  return collected;
}

// ---------------------------------------------------------------------------
// Garbage collection, wear leveling, retirement.
// ---------------------------------------------------------------------------

std::optional<uint32_t> Ftl::PickGcVictim(uint32_t pool_id) const {
  const Pool& pool = pools_[pool_id];
  std::optional<uint32_t> best;
  double best_score = -1.0;
  // Ascending block-id scan: with a strict `>` comparison the first (lowest
  // id) of any score tie wins, reproducing the id tie-break the hash-map
  // implementation enforced explicitly.
  for (uint32_t id = 0; id < config_.nand.num_blocks; ++id) {
    if (PoolOf(id) != pool_id) {
      continue;
    }
    if (block_sealed_[id] == 0 || pool.IsActive(id)) {
      continue;
    }
    const double slots = static_cast<double>(pool.data_slots_per_block);
    const double u = slots > 0.0 ? static_cast<double>(block_valid_[id]) / slots : 1.0;
    if (u >= 1.0) {
      continue;  // nothing reclaimable
    }
    double score = 0.0;
    if (config_.gc_policy == GcPolicy::kGreedy) {
      score = 1.0 - u;
    } else {
      const SimTimeUs last_write = block_last_write_[id];
      const double age_us = static_cast<double>(
          clock_->now() >= last_write ? clock_->now() - last_write : 0);
      score = (1.0 - u) / (1.0 + u) * (1.0 + age_us / static_cast<double>(kUsPerDay));
    }
    if (score > best_score) {
      best_score = score;
      best = id;
    }
  }
  return best;
}

bool Ftl::CollectGarbage(uint32_t pool_id) {
  Pool& pool = pools_[pool_id];
  obs::ScopedLatency timer(clock_, &gc_latency_);
  const auto victim = PickGcVictim(pool_id);
  if (!victim.has_value()) {
    return false;
  }
  Trace([&] {
    return obs::TraceEvent{clock_->now(), "ftl.gc.victim"}
        .With("pool", pool.config.name)
        .WithU64("block", *victim)
        .WithU64("valid_pages", block_valid_[*victim]);
  });
  if (!EvacuateAndRecycle(pool_id, *victim, AppendKind::kGcRelocation).ok()) {
    return false;
  }
  MaybeStaticWearLevel(pool_id);
  return true;
}

WriteDirective Ftl::InPlace(const PhysLoc& loc) const {
  return WriteDirective{PoolOf(loc.block), LifetimeHint::kUnknown,
                        page_stream_[static_cast<size_t>(loc.block) * page_stride_ + loc.page]};
}

Status Ftl::MovePage(uint64_t lba, const PhysLoc& from, const WriteDirective& where,
                     AppendKind kind) {
  auto read = ReadAt(from, /*count_stats=*/false);
  if (!read.ok()) {
    return read.status();
  }
  return AppendPage(lba, read.value().data, where, kind, from.tainted || read.value().degraded);
}

Status Ftl::MoveLivePages(uint32_t pool_id, uint32_t block_id, AppendKind kind, bool salvage) {
  Pool& pool = pools_[pool_id];
  const bool prev_relocation = in_relocation_;
  in_relocation_ = true;
  Status status = Status::Ok();
  const uint32_t pages = PagesPerBlock(pool);
  // One page at a time: read it, then re-append it before the next read.
  for (uint32_t p = 0; p < pages; ++p) {
    const uint64_t lba = P2lRow(block_id)[p];
    if (lba == kLbaInvalid || lba == kLbaParity) {
      continue;
    }
    const auto cur = l2p_.Find(lba);
    if (!cur.has_value() || cur->block != block_id || cur->page != p) {
      continue;  // stale reverse entry
    }
    Status s = MovePage(lba, *cur, InPlace(*cur), kind);
    if (s.ok()) {
      continue;
    }
    if (!salvage || s.code() == StatusCode::kPowerLost) {
      status = s;
      break;
    }
    // Unreadable and unsalvageable: the mapping dies here, counted loudly.
    if (auto dead = l2p_.Find(lba); dead.has_value()) {
      InvalidateLoc(*dead);
      l2p_.Erase(lba);
    }
    ++pool.stats.lost_pages_;
  }
  in_relocation_ = prev_relocation;
  return status;
}

Status Ftl::EvacuateAndRecycle(uint32_t pool_id, uint32_t block_id, AppendKind kind) {
  if (!OwnedBy(block_id, pool_id)) {
    return Status(StatusCode::kNotFound, "block not owned by pool");
  }
  assert(!in_relocation_ && "nested relocation");
  if (Status s = MoveLivePages(pool_id, block_id, kind, /*salvage=*/false); !s.ok()) {
    return s;
  }
  RecycleBlock(pool_id, block_id);
  return Status::Ok();
}

void Ftl::MaybeStaticWearLevel(uint32_t pool_id) {
  Pool& pool = pools_[pool_id];
  if (!pool.config.wear_leveling || pool.num_blocks == 0) {
    return;
  }
  uint32_t min_pec = std::numeric_limits<uint32_t>::max();
  uint32_t max_pec = 0;
  std::optional<uint32_t> coldest;
  // Ascending scan + strict `<`: the lowest-id block among equal-PEC eligible
  // candidates wins, matching the old map implementation's tie-break.
  for (uint32_t id = 0; id < config_.nand.num_blocks; ++id) {
    if (PoolOf(id) != pool_id) {
      continue;
    }
    const uint32_t pec = nand_.block_info(id).pec;
    max_pec = std::max(max_pec, pec);
    const bool eligible = block_sealed_[id] != 0 && block_valid_[id] > 0 && !pool.IsActive(id);
    if (eligible && pec < min_pec) {
      min_pec = pec;
      coldest = id;
    }
  }
  const double endurance =
      static_cast<double>(GetCellTechInfo(pool.config.mode).rated_endurance_pec);
  if (coldest.has_value() &&
      static_cast<double>(max_pec - min_pec) > kStaticWlSpread * endurance) {
    // Best-effort: a failed leveling pass just postpones the spread fix to a
    // later GC cycle; the write path that triggered it must not fail on it.
    IgnoreResult(EvacuateAndRecycle(pool_id, *coldest, AppendKind::kWlRelocation));
  }
}

bool Ftl::ShouldRetire(const Pool& pool, uint32_t block_id) const {
  PageErrorState state;
  state.mode = pool.config.mode;
  state.endurance_pec = nand_.EffectiveEndurance(block_id);
  state.pec_at_program = nand_.block_info(block_id).pec;
  state.retention_years = pool.config.nominal_retention_years;
  state.reads_since_program = 0;
  return ComputeRber(config_.nand.error_model, state) > pool.retire_rber;
}

void Ftl::RecycleBlock(uint32_t pool_id, uint32_t block_id) {
  Pool& pool = pools_[pool_id];
  Status s = nand_.EraseBlock(block_id);
  if (!s.ok()) {
    if (s.code() == StatusCode::kPowerLost) {
      return;  // device is dark; RecoverFromFlash rebuilds this state anyway
    }
    if (s.code() == StatusCode::kUnavailable) {
      s = nand_.EraseBlock(block_id);  // transient: one retry
    }
    if (!s.ok()) {
      // Erase refuses permanently: classic grown bad block. The block was
      // already evacuated (it holds no valid data), so the drop just
      // removes it from the pool.
      IgnoreResult(DropBadBlock(pool_id, block_id));  // power loss here surfaces on the next op
      return;
    }
  }
  ++pool.stats.gc_erases_;

  // Retirement is postponed while the free list is at or below the GC
  // reserve: retiring now would consume the relocation slack GC itself needs
  // and could wedge the pool. The worn block stays in service (approximate
  // pools tolerate it) and retires on a later cycle once slack recovers.
  const bool may_retire = pool.free_blocks.size() >= kGcReserveBlocks;
  if (!may_retire || !ShouldRetire(pool, block_id)) {
    ResetBlockRow(block_id);
    pool.free_blocks.push_back(block_id);
    return;
  }

  // Retired from this pool: the block leaves service unless resuscitation
  // relabels it below, so recovery must not hand it back.
  SetOwner(block_id, NandDevice::kNoLabel);
  --pool.num_blocks;
  ++pool.stats.retired_blocks_;
  Trace([&] {
    return obs::TraceEvent{clock_->now(), "ftl.block.retired"}
        .With("pool", pool.config.name)
        .WithU64("block", block_id)
        .WithU64("pec", nand_.block_info(block_id).pec);
  });

  if (pool.resuscitate_pool.has_value()) {
    Pool& target = pools_[*pool.resuscitate_pool];
    Status mode_status = nand_.SetBlockMode(block_id, target.config.mode);
    if (mode_status.ok() && !ShouldRetire(target, block_id)) {
      SetOwner(block_id, *pool.resuscitate_pool);
      ++target.num_blocks;
      ResetBlockRow(block_id);
      target.free_blocks.push_back(block_id);
      ++pool.stats.resuscitated_blocks_;
      Trace([&] {
        return obs::TraceEvent{clock_->now(), "ftl.block.resuscitated"}
            .With("from", pool.config.name)
            .With("to", target.config.name)
            .WithU64("block", block_id);
      });
    }
  }
  NotifyCapacity();
}

Status Ftl::DropBadBlock(uint32_t pool_id, uint32_t block_id) {
  Pool& pool = pools_[pool_id];
  if (!OwnedBy(block_id, pool_id)) {
    return Status(StatusCode::kNotFound, "block not owned by pool");
  }
  // Detach from the append points and the free list before touching data.
  for (ActiveSlot& slot : pool.slots) {
    if (slot.block == block_id) {
      slot.block.reset();
    }
  }
  std::erase(pool.free_blocks, block_id);

  // Rescue whatever it still holds: program/erase refuse on a grown-bad
  // block but reads keep working, so valid pages relocate through the
  // normal degradation-aware path.
  if (Status s = MoveLivePages(pool_id, block_id, AppendKind::kGcRelocation, /*salvage=*/true);
      !s.ok()) {
    return s;
  }

  --pool.num_blocks;
  ResetBlockRow(block_id);
  ++pool.stats.grown_bad_blocks_;
  SetOwner(block_id, NandDevice::kNoLabel);
  Trace([&] {
    return obs::TraceEvent{clock_->now(), "ftl.block.grown_bad"}
        .With("pool", pool.config.name)
        .WithU64("block", block_id);
  });
  NotifyCapacity();
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Crash recovery.
// ---------------------------------------------------------------------------

Status Ftl::RecoverFromFlash() {
  nand_.PowerOn();
  last_recovery_ = RecoveryReport{};

  // Everything volatile is gone: the mapping table, free lists, append
  // points, open parity stripes, per-block reverse maps. Stats survive --
  // they model telemetry the host persists out-of-band. The flat arrays are
  // wiped in place (capacity kept), not reallocated.
  l2p_.Clear();
  std::fill(p2l_.begin(), p2l_.end(), kLbaInvalid);
  std::fill(block_valid_.begin(), block_valid_.end(), 0u);
  std::fill(block_last_write_.begin(), block_last_write_.end(), SimTimeUs{0});
  std::fill(block_sealed_.begin(), block_sealed_.end(), uint8_t{0});
  for (auto& pool : pools_) {
    pool.num_blocks = 0;
    pool.free_blocks.clear();
    pool.slots.assign(kFirstStreamSlot, NewSlot(0));
    pool.valid_pages = 0;
  }
  in_relocation_ = false;
  // Stream tags are volatile (not in the durable OOB): per-handle accounting
  // restarts from zero after a cut. Registered names survive -- the metric
  // label set is host-side state the device re-learns on reopen anyway.
  std::fill(page_stream_.begin(), page_stream_.end(), uint8_t{0});
  for (StreamStats& stats : stream_stats_) {
    stats.host_writes = 0;
    stats.nand_writes = 0;
  }

  // Pass 1: walk the die in block order. Labels already are the ownership;
  // OOB records per-page identity. Multiple copies of an LBA are expected (the
  // cut can land between a new program and the old copy's invalidation) --
  // collect the candidates and let the highest write sequence win. Host
  // LBAs are dense, so the candidate table is a flat vector too.
  struct Candidate {
    uint64_t seq = 0;
    uint32_t block = 0;
    uint32_t page = 0;
    bool tainted = false;
    bool present = false;
  };
  std::vector<Candidate> winners;
  auto winner_slot = [&winners](uint64_t lba) -> Candidate& {
    if (lba >= winners.size()) {
      winners.resize(std::max<size_t>(lba + 1, winners.size() * 2));
    }
    return winners[lba];
  };
  uint64_t max_seq = 0;
  for (uint32_t b = 0; b < config_.nand.num_blocks; ++b) {
    const uint32_t label = nand_.block_label(b);
    if (label == NandDevice::kNoLabel) {
      ++last_recovery_.unlabeled_blocks;  // retired/dropped/unformatted
      continue;
    }
    if (label >= pools_.size()) {
      return Status(StatusCode::kFailedPrecondition,
                    "block " + std::to_string(b) + " labeled for unknown pool");
    }
    Pool& pool = pools_[label];
    const uint32_t pages = PagesPerBlock(pool);
    ++pool.num_blocks;
    const BlockInfo& info = nand_.block_info(b);
    if (info.programmed_pages == 0) {
      pool.free_blocks.push_back(b);  // block order => deterministic free list
      continue;
    }
    // OOB reads are pure (no clock, no error injection), so the scan cannot
    // perturb a single simulated byte.
    const uint32_t scan = std::min(info.next_page, pages);
    uint64_t* row = P2lRow(b);
    for (uint32_t p = 0; p < scan; ++p) {
      const auto oob = nand_.ReadOob({b, p});
      if (!oob.ok()) {
        continue;  // page predates OOB stamping; treated as garbage
      }
      ++last_recovery_.scanned_pages;
      const PageOob& meta = oob.value();
      max_seq = std::max(max_seq, meta.seq);
      if ((meta.flags & kOobFlagParity) != 0) {
        row[p] = kLbaParity;
        ++last_recovery_.parity_pages;
        continue;
      }
      row[p] = meta.lba;
      const Candidate cand{meta.seq, b, p, (meta.flags & kOobFlagTainted) != 0, true};
      Candidate& slot = winner_slot(meta.lba);
      if (!slot.present || cand.seq > slot.seq) {
        slot = cand;
      }
    }
    // A partially-programmed block is crash-sealed: its open parity stripe
    // is unreconstructible, so it never becomes an append point again. GC
    // reclaims it like any other sealed block.
    if (info.next_page < pages) {
      ++last_recovery_.open_blocks_sealed;
    }
    block_sealed_[b] = 1;
    block_last_write_[b] = clock_->now();
  }

  // Pass 2: install winners, demote losers. Deterministic walk order (pool,
  // then ascending block id) so counter increments replay identically.
  for (uint32_t pool_id = 0; pool_id < pools_.size(); ++pool_id) {
    Pool& pool = pools_[pool_id];
    for (uint32_t id = 0; id < config_.nand.num_blocks; ++id) {
      if (PoolOf(id) != pool_id) {
        continue;
      }
      uint64_t* row = P2lRow(id);
      const uint32_t pages = PagesPerBlock(pool);
      for (uint32_t p = 0; p < pages; ++p) {
        const uint64_t lba = row[p];
        if (lba == kLbaInvalid || lba == kLbaParity) {
          continue;
        }
        const Candidate& win = winners[lba];
        if (win.block == id && win.page == p) {
          l2p_.Set(lba, PhysLoc{id, p, win.tainted});
          ++block_valid_[id];
          ++pool.valid_pages;
          ++last_recovery_.replayed_pages;
        } else {
          row[p] = kLbaInvalid;  // superseded copy -> garbage
          ++last_recovery_.orphans_reclaimed;
        }
      }
    }
  }

  write_seq_ = max_seq + 1;
  // Re-baseline capacity without firing the shrink listener: the listener
  // reacts to retirement events, and remounting is not one.
  last_exported_pages_ = ExportedPages();

  return CheckInvariants();
}

// ---------------------------------------------------------------------------
// Capacity and introspection.
// ---------------------------------------------------------------------------

FtlStats Ftl::stats() const {
  FtlStats total;
  for (const auto& pool : pools_) {
    total.Accumulate(pool.stats);
  }
  return total;
}

void Ftl::ToMetrics(obs::MetricRegistry& registry, const std::string& prefix) const {
  stats().ToMetrics(registry, prefix);
  for (const auto& pool : pools_) {
    pool.stats.ToMetrics(registry, prefix + "pool." + pool.config.name + ".");
  }
  registry.SetHistogram(prefix + "read.latency_us", read_latency_);
  registry.SetHistogram(prefix + "write.latency_us", write_latency_);
  registry.SetHistogram(prefix + "gc.latency_us", gc_latency_);
  // Per-handle accounting + wear variance, under every placement policy.
  for (uint32_t tag = 1; tag < stream_stats_.size(); ++tag) {
    const StreamStats& stats = stream_stats_[tag];
    if (stats.name.empty() && stats.host_writes == 0 && stats.nand_writes == 0) {
      continue;  // tag never registered nor written
    }
    const std::string label =
        stats.name.empty() ? "tag" + std::to_string(tag) : stats.name;
    const std::string handle_prefix = prefix + "handle." + label + ".";
    registry.SetCounter(handle_prefix + "host_writes", stats.host_writes);
    registry.SetCounter(handle_prefix + "nand_writes", stats.nand_writes);
    registry.SetGauge(handle_prefix + "write_amplification", stats.WriteAmplification());
  }
  registry.SetGauge(prefix + "placement.pec_variance", PecVariance());
  for (uint32_t pool_id = 0; pool_id < pools_.size(); ++pool_id) {
    registry.SetGauge(prefix + "placement.pool." + pools_[pool_id].config.name +
                          ".pec_variance",
                      Snapshot(pool_id).pec_variance);
  }
}

uint64_t Ftl::ExportedPagesOf(const Pool& pool) {
  const uint64_t usable_blocks =
      pool.num_blocks > kGcReserveBlocks ? pool.num_blocks - kGcReserveBlocks : 0;
  const uint64_t raw = usable_blocks * pool.data_slots_per_block;
  return static_cast<uint64_t>(static_cast<double>(raw) * (1.0 - pool.config.op_fraction));
}

uint64_t Ftl::ExportedPages() const {
  uint64_t exported = 0;
  for (const auto& pool : pools_) {
    exported += ExportedPagesOf(pool);
  }
  return exported;
}

Ftl::PecMoments Ftl::PecMomentsOf(uint32_t pool_id) const {
  PecMoments moments;
  for (uint32_t id = 0; id < config_.nand.num_blocks; ++id) {
    const uint32_t owner = PoolOf(id);
    if (owner == NandDevice::kNoLabel ||
        (pool_id != NandDevice::kNoLabel && owner != pool_id)) {
      continue;
    }
    const uint32_t pec = nand_.block_info(id).pec;
    ++moments.count;
    moments.sum += pec;
    moments.sq_sum += static_cast<uint64_t>(pec) * pec;
    moments.max = std::max(moments.max, pec);
  }
  return moments;
}

double Ftl::PecMoments::Mean() const {
  return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
}

double Ftl::PecMoments::Variance() const {
  if (count == 0) {
    return 0.0;
  }
  // Population variance in integer sums: E[X^2] - E[X]^2 with exact uint64
  // accumulators, so the result is schedule-independent.
  const double mean = Mean();
  const double mean_sq = static_cast<double>(sq_sum) / static_cast<double>(count);
  return std::max(0.0, mean_sq - mean * mean);
}

void Ftl::NotifyCapacity() {
  const uint64_t exported = ExportedPages();
  if (exported < last_exported_pages_) {
    last_exported_pages_ = exported;
    if (capacity_listener_) {
      capacity_listener_(exported);
    }
  }
}

PoolSnapshot Ftl::Snapshot(uint32_t pool_id) const {
  const Pool& pool = pools_[pool_id];
  PoolSnapshot snap;
  snap.name = pool.config.name;
  snap.mode = pool.config.mode;
  snap.total_blocks = pool.num_blocks;
  snap.free_blocks = static_cast<uint32_t>(pool.free_blocks.size());
  snap.retired_blocks = static_cast<uint32_t>(pool.stats.retired_blocks_);
  snap.exported_pages = ExportedPagesOf(pool);
  snap.valid_pages = pool.valid_pages;
  const PecMoments pec = PecMomentsOf(pool_id);
  snap.mean_pec = pec.Mean();
  snap.max_pec = pec.max;
  snap.pec_variance = pec.Variance();
  snap.free_page_fraction =
      snap.exported_pages > 0
          ? static_cast<double>(snap.exported_pages -
                                std::min(snap.valid_pages, snap.exported_pages)) /
                static_cast<double>(snap.exported_pages)
          : 0.0;
  return snap;
}

Ftl::StreamStats& Ftl::StreamEntry(uint32_t stream) {
  assert(stream <= 255);
  if (stream_stats_.size() <= stream) {
    stream_stats_.resize(stream + 1);
  }
  return stream_stats_[stream];
}

void Ftl::RegisterStream(uint32_t stream, const std::string& name) {
  if (stream == 0 || stream > 255) {
    return;  // tag 0 is the shared stream; larger tags cannot be stamped
  }
  StreamEntry(stream).name = name;
}

double Ftl::PecVariance() const { return PecMomentsOf(NandDevice::kNoLabel).Variance(); }

bool Ftl::IsTainted(uint64_t lba) const {
  const auto loc = l2p_.Find(lba);
  return loc.has_value() && loc->tainted;
}

Result<double> Ftl::PredictLbaRber(uint64_t lba, double ahead_years) const {
  const auto loc = l2p_.Find(lba);
  if (!loc.has_value()) {
    return Status(StatusCode::kNotFound, "unmapped LBA");
  }
  return nand_.PredictRber({loc->block, loc->page}, ahead_years);
}

Status Ftl::CheckInvariants() const {
  auto fail = [](const std::string& what) {
    return Status(StatusCode::kFailedPrecondition, "invariant violated: " + what);
  };

  // The audit walks the flat arrays in ascending order so that when several
  // invariants are broken at once, every run reports the same first
  // violation -- the report feeds golden-output test logs.

  // Block ownership is disjoint by construction (one label per block);
  // verify the per-pool counts agree with the labels.
  std::vector<uint32_t> owned_count(pools_.size(), 0);
  for (uint32_t id = 0; id < config_.nand.num_blocks; ++id) {
    const uint32_t owner = PoolOf(id);
    if (owner == NandDevice::kNoLabel) {
      continue;
    }
    if (owner >= pools_.size()) {
      return fail("block " + std::to_string(id) + " owned by unknown pool");
    }
    ++owned_count[owner];
  }
  for (uint32_t p = 0; p < pools_.size(); ++p) {
    if (owned_count[p] != pools_[p].num_blocks) {
      return fail("pool '" + pools_[p].config.name + "' num_blocks=" +
                  std::to_string(pools_[p].num_blocks) + " but labeled blocks=" +
                  std::to_string(owned_count[p]));
    }
  }

  // Forward map agrees with reverse maps (ascending LBA order).
  Status forward = Status::Ok();
  l2p_.ForEachMapped([&](uint64_t lba, const PhysLoc& loc) {
    if (!forward.ok()) {
      return;
    }
    if (loc.block >= config_.nand.num_blocks || PoolOf(loc.block) == NandDevice::kNoLabel) {
      forward = fail("LBA " + std::to_string(lba) + " maps to unowned block");
      return;
    }
    const Pool& pool = pools_[PoolOf(loc.block)];
    if (loc.page >= PagesPerBlock(pool) || P2lRow(loc.block)[loc.page] != lba) {
      forward = fail("LBA " + std::to_string(lba) + " reverse entry mismatch");
    }
  });
  if (!forward.ok()) {
    return forward;
  }

  // Per-block and per-pool counters, and free-list hygiene.
  for (uint32_t p = 0; p < pools_.size(); ++p) {
    const Pool& pool = pools_[p];
    uint64_t pool_valid = 0;
    for (uint32_t id = 0; id < config_.nand.num_blocks; ++id) {
      if (PoolOf(id) != p) {
        continue;
      }
      const uint64_t* row = P2lRow(id);
      uint32_t live = 0;
      for (uint32_t page = 0; page < PagesPerBlock(pool); ++page) {
        const uint64_t lba = row[page];
        if (lba == kLbaInvalid || lba == kLbaParity) {
          continue;
        }
        const auto loc = l2p_.Find(lba);
        if (!loc.has_value() || loc->block != id || loc->page != page) {
          // A stale reverse entry is only legal when the LBA now lives
          // elsewhere (overwrite left the old copy behind until GC) or was
          // trimmed; either way it awaits GC.
          continue;
        }
        ++live;
      }
      if (live != block_valid_[id]) {
        return fail("block " + std::to_string(id) + " valid=" +
                    std::to_string(block_valid_[id]) +
                    " but live reverse entries=" + std::to_string(live));
      }
      pool_valid += block_valid_[id];
    }
    if (pool_valid != pool.valid_pages) {
      return fail("pool '" + pool.config.name + "' valid_pages=" +
                  std::to_string(pool.valid_pages) + " but sum=" + std::to_string(pool_valid));
    }
    for (uint32_t id : pool.free_blocks) {
      if (!OwnedBy(id, p)) {
        return fail("free list references unowned block");
      }
      if (block_valid_[id] != 0) {
        return fail("free block " + std::to_string(id) + " holds valid data");
      }
      if (nand_.block_info(id).programmed_pages != 0) {
        return fail("free block " + std::to_string(id) + " is programmed");
      }
      if (pool.IsActive(id)) {
        return fail("active block is also on the free list");
      }
    }
  }
  return Status::Ok();
}

std::vector<uint64_t> Ftl::LbasInPool(uint32_t pool_id) const {
  std::vector<uint64_t> lbas;
  // ForEachMapped walks ascending LBAs, so the scrub order is deterministic
  // without an explicit sort.
  l2p_.ForEachMapped([&](uint64_t lba, const PhysLoc& loc) {
    if (PoolOf(loc.block) == pool_id) {
      lbas.push_back(lba);
    }
  });
  return lbas;
}

}  // namespace sos
