// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/flash/nand_device.h"

#include <algorithm>
#include <cassert>

#include "src/common/rng.h"

namespace sos {

NandDevice::NandDevice(const NandConfig& config, SimClock* clock)
    : config_(config), clock_(clock) {
  assert(clock != nullptr);
  assert(config_.num_blocks > 0 && config_.wordlines_per_block > 0 && config_.page_size_bytes > 0);
  blocks_.resize(config_.num_blocks);
  labels_.assign(config_.num_blocks, kNoLabel);
  for (uint32_t b = 0; b < config_.num_blocks; ++b) {
    Block& blk = blocks_[b];
    blk.info.mode = config_.tech;  // native density until told otherwise
    blk.info.pec = config_.initial_pec;
    blk.seed_prefix = DeriveSeed({config_.seed, b});
    RefreshWearFactor(blk);
    blk.pages.resize(config_.PagesPerBlock(blk.info.mode));
    if (config_.store_payloads) {
      blk.data.resize(blk.pages.size());
    }
  }
}

Status NandDevice::SetBlockMode(uint32_t block, CellTech mode) {
  if (block >= blocks_.size()) {
    return Status(StatusCode::kInvalidArgument, "block out of range");
  }
  if (static_cast<int>(mode) > static_cast<int>(config_.tech)) {
    return Status(StatusCode::kInvalidArgument,
                  "mode denser than the die's native technology");
  }
  Block& blk = blocks_[block];
  if (blk.info.next_page > 0) {
    return Status(StatusCode::kFailedPrecondition, "block holds data; erase before mode change");
  }
  blk.info.mode = mode;
  RefreshWearFactor(blk);
  blk.pages.assign(config_.PagesPerBlock(mode), PageMeta{});
  if (config_.store_payloads) {
    blk.data.assign(blk.pages.size(), {});
  }
  return Status::Ok();
}

double NandDevice::EffectiveEndurance(uint32_t block) const {
  return EnduranceIn(blocks_[block].info.mode);
}

double NandDevice::EnduranceIn(CellTech mode) const {
  return static_cast<double>(GetCellTechInfo(mode).rated_endurance_pec) *
         PseudoModeEnduranceBonus(config_.tech, mode);
}

void NandDevice::RefreshWearFactor(Block& blk) const {
  PageErrorState state;
  state.mode = blk.info.mode;
  state.endurance_pec = EnduranceIn(blk.info.mode);
  state.pec_at_program = blk.info.pec;
  blk.wear_factor = WearFactor(config_.error_model, state);
}

Status NandDevice::GateOpSlow(NandOpKind op, uint32_t block, uint32_t page,
                              NandFaultAction* action) {
  if (!powered_) {
    return Status(StatusCode::kPowerLost, "device is powered off");
  }
  if (fault_hook_ == nullptr) {
    return Status::Ok();
  }
  *action = fault_hook_->OnNandOp(op, block, page);
  switch (action->kind) {
    case NandFaultAction::Kind::kNone:
      return Status::Ok();
    case NandFaultAction::Kind::kFail:
      return Status(action->code, action->reason);
    case NandFaultAction::Kind::kPowerCut:
      if (!action->after_op) {
        // Cut lands before the op touches the array: nothing durable happens.
        powered_ = false;
        return Status(StatusCode::kPowerLost, action->reason);
      }
      // after_op: let the caller commit the op, then cut (torn-write window).
      return Status::Ok();
  }
  return Status::Ok();
}

Status NandDevice::EraseBlock(uint32_t block) {
  if (block >= blocks_.size()) {
    return Status(StatusCode::kInvalidArgument, "block out of range");
  }
  NandFaultAction action;
  if (Status s = GateOp(NandOpKind::kErase, block, 0, &action); !s.ok()) {
    return s;
  }
  Block& blk = blocks_[block];
  ++blk.info.pec;
  RefreshWearFactor(blk);
  // Page state below the cursor is rewritten by each Program.
  blk.info.next_page = 0;
  const SimTimeUs latency = GetCellTechInfo(blk.info.mode).erase_latency_us;
  clock_->Advance(latency);
  ++stats_.erases;
  stats_.busy_us += latency;
  if (action.kind == NandFaultAction::Kind::kPowerCut) {
    // Post-op cut: the erase completed in the array but power died before
    // the device could acknowledge it.
    powered_ = false;
    return Status(StatusCode::kPowerLost, action.reason);
  }
  return Status::Ok();
}

Status NandDevice::AddrError(PageAddr addr) const {
  if (addr.block >= blocks_.size()) {
    return Status(StatusCode::kInvalidArgument, "block out of range");
  }
  return Status(StatusCode::kInvalidArgument, "page out of range for block mode");
}

Status NandDevice::Program(PageAddr addr, std::span<const uint8_t> data, const PageOob& oob) {
  if (Status s = CheckAddr(addr); !s.ok()) {
    return s;
  }
  if (data.size() > config_.page_size_bytes) {
    return Status(StatusCode::kInvalidArgument, "payload exceeds page size");
  }
  Block& blk = blocks_[addr.block];
  if (addr.page != blk.info.next_page) {
    return Status(StatusCode::kFailedPrecondition, "pages must be programmed sequentially");
  }
  NandFaultAction action;
  if (Status s = GateOp(NandOpKind::kProgram, addr.block, addr.page, &action); !s.ok()) {
    return s;
  }
  PageMeta& page = blk.pages[addr.page];
  page.program_time_us = clock_->now();
  page.reads = 0;
  page.oob = oob;
  ++blk.info.next_page;
  if (config_.store_payloads) {
    auto& payload = blk.data[addr.page];
    payload.assign(data.begin(), data.end());
    payload.resize(config_.page_size_bytes, 0);  // NAND pads with the erased pattern
  }
  const SimTimeUs latency = GetCellTechInfo(blk.info.mode).program_latency_us;
  clock_->Advance(latency);
  ++stats_.programs;
  stats_.busy_us += latency;
  if (action.kind == NandFaultAction::Kind::kPowerCut) {
    // Post-op cut: bytes + OOB reached the cells but the host never saw an
    // acknowledgement -- recovery may legitimately surface either version.
    powered_ = false;
    return Status(StatusCode::kPowerLost, action.reason);
  }
  return Status::Ok();
}

PageErrorState NandDevice::ErrorStateFor(const Block& blk, const PageMeta& page) const {
  PageErrorState state;
  state.mode = blk.info.mode;
  state.endurance_pec = EnduranceIn(blk.info.mode);
  state.pec_at_program = blk.info.pec;
  state.retention_years =
      UsToYears(clock_->now() >= page.program_time_us ? clock_->now() - page.program_time_us : 0);
  state.reads_since_program = page.reads;
  return state;
}

Result<ReadResult> NandDevice::Read(PageAddr addr, int retry_level) {
  if (Status s = CheckAddr(addr); !s.ok()) {
    return s;
  }
  Block& blk = blocks_[addr.block];
  if (addr.page >= blk.info.next_page) {
    return Status(StatusCode::kNotFound, "page not programmed");
  }
  NandFaultAction action;
  if (Status s = GateOp(NandOpKind::kRead, addr.block, addr.page, &action); !s.ok()) {
    return s;
  }
  PageMeta& page = blk.pages[addr.page];
  ++page.reads;

  const PageErrorState state = ErrorStateFor(blk, page);
  const uint64_t bits = static_cast<uint64_t>(config_.page_size_bytes) * 8;
  // == DeriveSeed({config_.seed, addr.block, addr.page, pec, reads, retry}).
  const uint64_t stream_seed =
      DeriveSeedFrom(blk.seed_prefix, {addr.page, blk.info.pec, page.reads,
                                       static_cast<uint64_t>(retry_level)});
  ReadResult result;
  result.rber = ComputeRber(config_.error_model, state, blk.wear_factor, retry_level);
  result.bit_errors =
      result.rber <= 0.0 ? 0 : Rng(stream_seed).NextBinomial(bits, result.rber);
  if (config_.store_payloads) {
    result.data = blk.data[addr.page];
    ErrorModel::InjectErrors(result.data, result.bit_errors, stream_seed);
  }
  const SimTimeUs latency = GetCellTechInfo(blk.info.mode).read_latency_us;
  clock_->Advance(latency);
  ++stats_.reads;
  stats_.bit_errors_injected += result.bit_errors;
  stats_.busy_us += latency;
  if (action.kind == NandFaultAction::Kind::kPowerCut) {
    // The sense amps fired but power died before data left the die.
    powered_ = false;
    return Status(StatusCode::kPowerLost, action.reason);
  }
  return result;
}

Result<PageOob> NandDevice::ReadOob(PageAddr addr) const {
  if (!powered_) {
    return Status(StatusCode::kPowerLost, "device is powered off");
  }
  if (Status s = CheckAddr(addr); !s.ok()) {
    return s;
  }
  const Block& blk = blocks_[addr.block];
  if (addr.page >= blk.info.next_page) {
    return Status(StatusCode::kNotFound, "page not programmed");
  }
  return blk.pages[addr.page].oob;
}

Status NandDevice::SetBlockLabel(uint32_t block, uint32_t label) {
  if (block >= blocks_.size()) {
    return Status(StatusCode::kInvalidArgument, "block out of range");
  }
  labels_[block] = label;
  return Status::Ok();
}

Result<std::vector<uint8_t>> NandDevice::PeekClean(PageAddr addr) const {
  if (Status s = CheckAddr(addr); !s.ok()) {
    return s;
  }
  const Block& blk = blocks_[addr.block];
  if (addr.page >= blk.info.next_page) {
    return Status(StatusCode::kNotFound, "page not programmed");
  }
  if (!config_.store_payloads) {
    return std::vector<uint8_t>{};
  }
  return blk.data[addr.page];
}

Result<double> NandDevice::PredictRber(PageAddr addr, double ahead_years) const {
  if (Status s = CheckAddr(addr); !s.ok()) {
    return s;
  }
  const Block& blk = blocks_[addr.block];
  if (addr.page >= blk.info.next_page) {
    return Status(StatusCode::kNotFound, "page not programmed");
  }
  PageErrorState state = ErrorStateFor(blk, blk.pages[addr.page]);
  state.retention_years += std::max(ahead_years, 0.0);
  return ComputeRber(config_.error_model, state, blk.wear_factor, 0);
}

double NandDevice::MaxWearRatio() const {
  double worst = 0.0;
  for (uint32_t b = 0; b < blocks_.size(); ++b) {
    const double endurance = EffectiveEndurance(b);
    worst = std::max(worst, static_cast<double>(blocks_[b].info.pec) / endurance);
  }
  return worst;
}

double NandDevice::MeanPec() const {
  if (blocks_.empty()) {
    return 0.0;
  }
  uint64_t total = 0;
  for (const auto& blk : blocks_) {
    total += blk.info.pec;
  }
  return static_cast<double>(total) / static_cast<double>(blocks_.size());
}

void NandDevice::ToMetrics(obs::MetricRegistry& registry, const std::string& prefix) const {
  registry.SetCounter(prefix + "programs", stats_.programs);
  registry.SetCounter(prefix + "reads", stats_.reads);
  registry.SetCounter(prefix + "erases", stats_.erases);
  registry.SetCounter(prefix + "bit_errors_injected", stats_.bit_errors_injected);
  registry.SetCounter(prefix + "busy_us", stats_.busy_us);
  registry.SetGauge(prefix + "mean_pec", MeanPec());
}

}  // namespace sos
