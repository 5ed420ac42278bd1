// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Deterministic fault injection for the NAND die.
//
// A FaultPlan is a declarative schedule -- "power cut at op 1000", "die dies
// at op 2", "block 7 gets stuck at op 50" -- and FaultInjector executes it as
// a NandFaultHook, counting device ops (program/read/erase) and firing faults
// at exact op indices. Every decision, including whether a power cut lands
// before or after the interrupted op, derives from DeriveSeed({seed, op}),
// so a faulted run replays bit-identically from (plan, workload, seed).
//
// Fault taxonomy (paper framing: survive failures instead of replacing
// hardware, so embodied carbon keeps amortizing):
//   power_cut      whole-device supply loss; durable state retained, volatile
//                  FTL state gone -- exercised by Ftl::RecoverFromFlash()
//   die_fail       permanent whole-die death (every op -> kWornOut)
//   plane_fail     permanent death of one plane (blocks interleaved by
//                  block % num_planes, matching real plane striping)
//   block_stuck    one block refuses program/erase forever; reads still work
//                  (classic grown bad block)
//   program_fail / erase_fail / read_fail
//                  transient one-shot op failures (kUnavailable) -- the FTL
//                  must retry or reroute, not lose data

#ifndef SOS_SRC_FAULT_FAULT_H_
#define SOS_SRC_FAULT_FAULT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/flash/fault_hook.h"
#include "src/obs/metrics.h"

namespace sos {

enum class FaultKind : uint8_t {
  kPowerCut = 0,
  kDieFail,
  kPlaneFail,
  kBlockStuck,
  kProgramFailTransient,
  kEraseFailTransient,
  kReadFailTransient,
};
inline constexpr int kNumFaultKinds = 7;

// Stable lower_snake name used in specs, metrics keys and reports.
const char* FaultKindName(FaultKind kind);

// One scheduled fault. `at_op` indexes the device-op stream (0-based count of
// gated program/read/erase attempts).
struct FaultSpec {
  FaultKind kind = FaultKind::kPowerCut;
  uint64_t at_op = 0;
  uint32_t die = 0;         // die_fail: which die (packages); single die = 0
  uint32_t block = 0;       // block_stuck: which block
  uint32_t plane = 0;       // plane_fail: which plane
  uint32_t num_planes = 1;  // plane_fail: plane interleave factor

  bool operator==(const FaultSpec&) const = default;
};

// Parses one CLI fault spec. Grammar (hard error on anything else):
//   power_cut@N | die_fail@N[,dD] | plane_fail@N,pP/M | block_stuck@N,bB |
//   program_fail@N | erase_fail@N | read_fail@N
// e.g. "power_cut@1000", "die_fail@2,d3", "plane_fail@64,p1/4",
// "block_stuck@50,b7". N is any 64-bit value; D, B, P and M must fit in
// 32 bits.
[[nodiscard]] Result<FaultSpec> ParseFaultSpec(const std::string& spec);

// A full injection schedule for one run.
struct FaultPlan {
  uint64_t seed = 1;
  // When > 0, additionally cut power at every op index that is a positive
  // multiple of this period (the verifier's "cut every K-th op" knob).
  uint64_t power_cut_period = 0;
  std::vector<FaultSpec> specs;
};

// Executes a FaultPlan against one die. Install with
// NandDevice::SetFaultHook(); the injector must outlive the hook
// registration. Op counting is monotonic across power cuts and remounts.
class FaultInjector final : public NandFaultHook {
 public:
  explicit FaultInjector(const FaultPlan& plan, uint32_t die_index = 0);

  NandFaultAction OnNandOp(NandOpKind op, uint32_t block, uint32_t page) override;

  // Total gated device ops observed (including ones a fault blocked).
  uint64_t ops_observed() const { return next_op_; }
  // Count of faults fired, by kind.
  uint64_t injected(FaultKind kind) const { return injected_[static_cast<int>(kind)]; }
  uint64_t injected_total() const;

  // Registers fault.injected.<kind> counters (and .total) under `prefix`.
  void ToMetrics(obs::MetricRegistry& registry, const std::string& prefix = "fault.injected.") const;

 private:
  struct PendingSpec {
    FaultSpec spec;
    bool fired = false;
  };

  FaultPlan plan_;
  uint32_t die_index_;
  uint64_t next_op_ = 0;  // index the next OnNandOp call will get
  bool die_failed_ = false;
  std::vector<FaultSpec> dead_planes_;   // activated plane_fail specs
  std::vector<uint32_t> stuck_blocks_;   // activated block_stuck blocks
  std::vector<PendingSpec> pending_;     // not-yet-fired schedule
  uint64_t injected_[kNumFaultKinds] = {};
};

}  // namespace sos

#endif  // SOS_SRC_FAULT_FAULT_H_
