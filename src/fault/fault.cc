// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/fault/fault.h"

#include <algorithm>
#include <cstdint>

#include "src/common/flag_set.h"
#include "src/common/rng.h"

namespace sos {
namespace {

Status BadSpec(const std::string& spec, const char* why) {
  return Status(StatusCode::kInvalidArgument,
                "malformed fault spec '" + spec + "': " + why);
}

// Parses a decimal die, block or plane index. False on anything
// ParseDecimalU64 refuses and on values above UINT32_MAX, which would
// otherwise wrap to a different index.
bool ParseIndexU32(const std::string& text, uint32_t* out) {
  uint64_t value = 0;
  if (!ParseDecimalU64("index", text, &value).ok() || value > UINT32_MAX) {
    return false;
  }
  *out = static_cast<uint32_t>(value);
  return true;
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kPowerCut:
      return "power_cut";
    case FaultKind::kDieFail:
      return "die_fail";
    case FaultKind::kPlaneFail:
      return "plane_fail";
    case FaultKind::kBlockStuck:
      return "block_stuck";
    case FaultKind::kProgramFailTransient:
      return "program_fail";
    case FaultKind::kEraseFailTransient:
      return "erase_fail";
    case FaultKind::kReadFailTransient:
      return "read_fail";
  }
  return "unknown";
}

Result<FaultSpec> ParseFaultSpec(const std::string& spec) {
  const size_t at = spec.find('@');
  if (at == std::string::npos) {
    return BadSpec(spec, "expected <kind>@<op>");
  }
  const std::string name = spec.substr(0, at);
  std::string rest = spec.substr(at + 1);
  std::string arg;
  if (const size_t comma = rest.find(','); comma != std::string::npos) {
    arg = rest.substr(comma + 1);
    rest = rest.substr(0, comma);
    if (arg.empty()) {
      return BadSpec(spec, "trailing comma");
    }
  }

  FaultSpec out;
  if (!ParseDecimalU64("op index", rest, &out.at_op).ok()) {
    return BadSpec(spec, "op index must be a decimal number");
  }

  if (name == "power_cut" || name == "program_fail" || name == "erase_fail" ||
      name == "read_fail") {
    if (!arg.empty()) {
      return BadSpec(spec, "kind takes no argument");
    }
    out.kind = name == "power_cut"      ? FaultKind::kPowerCut
               : name == "program_fail" ? FaultKind::kProgramFailTransient
               : name == "erase_fail"   ? FaultKind::kEraseFailTransient
                                        : FaultKind::kReadFailTransient;
    return out;
  }
  if (name == "die_fail") {
    out.kind = FaultKind::kDieFail;
    if (!arg.empty()) {
      if (arg[0] != 'd' || !ParseIndexU32(arg.substr(1), &out.die)) {
        return BadSpec(spec, "die argument must be d<index> below 2^32");
      }
    }
    return out;
  }
  if (name == "plane_fail") {
    out.kind = FaultKind::kPlaneFail;
    const size_t slash = arg.find('/');
    if (arg.empty() || arg[0] != 'p' || slash == std::string::npos) {
      return BadSpec(spec, "plane argument must be p<plane>/<num_planes>");
    }
    if (!ParseIndexU32(arg.substr(1, slash - 1), &out.plane) ||
        !ParseIndexU32(arg.substr(slash + 1), &out.num_planes)) {
      return BadSpec(spec, "plane argument must be p<plane>/<num_planes> below 2^32");
    }
    if (out.num_planes == 0 || out.plane >= out.num_planes) {
      return BadSpec(spec, "plane index must be below num_planes");
    }
    return out;
  }
  if (name == "block_stuck") {
    out.kind = FaultKind::kBlockStuck;
    if (arg.empty() || arg[0] != 'b' || !ParseIndexU32(arg.substr(1), &out.block)) {
      return BadSpec(spec, "block argument must be b<block> below 2^32");
    }
    return out;
  }
  return BadSpec(spec, "unknown fault kind");
}

FaultInjector::FaultInjector(const FaultPlan& plan, uint32_t die_index)
    : plan_(plan), die_index_(die_index) {
  pending_.reserve(plan_.specs.size());
  for (const FaultSpec& spec : plan_.specs) {
    pending_.push_back(PendingSpec{spec, false});
  }
}

uint64_t FaultInjector::injected_total() const {
  uint64_t total = 0;
  for (uint64_t n : injected_) {
    total += n;
  }
  return total;
}

NandFaultAction FaultInjector::OnNandOp(NandOpKind op, uint32_t block, uint32_t /*page*/) {
  const uint64_t idx = next_op_++;

  // Phase 1: activate persistent faults whose time has come (schedule order).
  for (PendingSpec& p : pending_) {
    if (p.fired || p.spec.at_op > idx) {
      continue;
    }
    switch (p.spec.kind) {
      case FaultKind::kDieFail:
        p.fired = true;
        if (p.spec.die == die_index_) {
          die_failed_ = true;
        }
        break;
      case FaultKind::kPlaneFail:
        p.fired = true;
        dead_planes_.push_back(p.spec);
        break;
      case FaultKind::kBlockStuck:
        p.fired = true;
        stuck_blocks_.push_back(p.spec.block);
        break;
      default:
        break;
    }
  }

  // Phase 2: one action per op, most severe cause first. injected_ counts
  // every op the injector interfered with, bucketed by cause.

  // Scheduled power cuts (catch-up semantics: a cut scheduled during a dark
  // window lands on the first op after power returns).
  for (PendingSpec& p : pending_) {
    if (!p.fired && p.spec.kind == FaultKind::kPowerCut && p.spec.at_op <= idx) {
      p.fired = true;
      ++injected_[static_cast<int>(FaultKind::kPowerCut)];
      const bool after_op = Rng(DeriveSeed({plan_.seed, idx})).NextBool(0.5);
      return NandFaultAction::PowerCut(after_op, "scheduled power cut");
    }
  }
  // Periodic power cuts (the verifier's every-K-th-op schedule).
  if (plan_.power_cut_period > 0 && idx > 0 && idx % plan_.power_cut_period == 0) {
    ++injected_[static_cast<int>(FaultKind::kPowerCut)];
    const bool after_op = Rng(DeriveSeed({plan_.seed, idx})).NextBool(0.5);
    return NandFaultAction::PowerCut(after_op, "periodic power cut");
  }

  if (die_failed_) {
    ++injected_[static_cast<int>(FaultKind::kDieFail)];
    return NandFaultAction::Fail(StatusCode::kWornOut, "die failed");
  }
  for (const FaultSpec& plane : dead_planes_) {
    if (block % plane.num_planes == plane.plane) {
      ++injected_[static_cast<int>(FaultKind::kPlaneFail)];
      return NandFaultAction::Fail(StatusCode::kWornOut, "plane failed");
    }
  }
  if (op != NandOpKind::kRead &&
      std::find(stuck_blocks_.begin(), stuck_blocks_.end(), block) != stuck_blocks_.end()) {
    ++injected_[static_cast<int>(FaultKind::kBlockStuck)];
    return NandFaultAction::Fail(StatusCode::kWornOut, "block stuck");
  }

  // One-shot transient failures: fire on the first matching op at/after at_op.
  for (PendingSpec& p : pending_) {
    if (p.fired || p.spec.at_op > idx) {
      continue;
    }
    const bool matches = (p.spec.kind == FaultKind::kProgramFailTransient &&
                          op == NandOpKind::kProgram) ||
                         (p.spec.kind == FaultKind::kEraseFailTransient &&
                          op == NandOpKind::kErase) ||
                         (p.spec.kind == FaultKind::kReadFailTransient &&
                          op == NandOpKind::kRead);
    if (matches) {
      p.fired = true;
      ++injected_[static_cast<int>(p.spec.kind)];
      return NandFaultAction::Fail(StatusCode::kUnavailable, "transient fault");
    }
  }
  return NandFaultAction::None();
}

void FaultInjector::ToMetrics(obs::MetricRegistry& registry, const std::string& prefix) const {
  for (int k = 0; k < kNumFaultKinds; ++k) {
    registry.SetCounter(prefix + FaultKindName(static_cast<FaultKind>(k)), injected_[k]);
  }
  registry.SetCounter(prefix + "total", injected_total());
}

}  // namespace sos
