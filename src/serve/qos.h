// Copyright (c) 2026 The SOS Authors. MIT License.
//
// QosScheduler: weighted per-class dispatch for the serve layer.
//
// Four strict-priority-ordered classes (request.h) with configurable
// weights. Scheduling is weighted round-robin over *backlogged* classes:
// every class starts a cycle with credit = weight; Next() serves the
// highest-priority backlogged class that still has credit, and when every
// backlogged class is out of credit the cycle resets. A SYS read therefore
// waits at most the other classes' remaining credits in the current cycle
// -- it is never queued behind an unbounded run of SPARE bulk writes or
// maintenance flushes. With qos=false Next() degrades to a single global
// FIFO (admission order), which is exactly the comparison row bench_serve
// plots.
//
// The scheduler is deliberately *not* synchronized: it is plain deterministic
// state owned by AsyncBlockService and only touched under the service mutex.
// Determinism matters because the pump-mode bench replays a seeded stream
// through it and goldens the resulting per-class latencies.

#ifndef SOS_SRC_SERVE_QOS_H_
#define SOS_SRC_SERVE_QOS_H_

#include <cstdint>
#include <deque>
#include <optional>

#include "src/serve/request.h"

namespace sos::serve {

// Per-class weights, highest priority first. A weight of w gives the class
// w dispatch slots per cycle; zero is clamped to 1 (a zero-weight class
// would starve, defeating the bounded-wait guarantee).
struct QosWeights {
  uint32_t weights[kNumQosClasses] = {8, 4, 2, 1};

  uint32_t of(QosClass cls) const {
    const uint32_t w = weights[static_cast<uint32_t>(cls)];
    return w == 0 ? 1 : w;
  }
};

class QosScheduler {
 public:
  QosScheduler(bool qos_enabled, const QosWeights& weights);

  // Admission-capacity check: sys classes get the full depth, bulk and
  // maintenance half of it, so background work cannot occupy every slot
  // ahead of critical traffic (per-pool admission, DESIGN.md §14).
  bool HasRoom(QosClass cls, size_t depth) const;

  void Enqueue(Pending pending);

  // The next request to dispatch, or nullopt when idle.
  std::optional<Pending> Next();

  // Removes and returns the queued request adjacent to [lba, lba+1) with the
  // same class, op and handle, scanning at most `window` entries of the
  // class queue -- the coalescing probe. `lba` is the exclusive end of the
  // run built so far; only forward-adjacent requests merge, which keeps the
  // batch one ascending LBA run.
  std::optional<Pending> TakeAdjacent(QosClass cls, ServeOp op, uint64_t lba,
                                      PlacementHandle handle, uint32_t window);

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  size_t class_size(QosClass cls) const { return queues_[static_cast<uint32_t>(cls)].size(); }

 private:
  const bool qos_enabled_;
  const QosWeights weights_;
  std::deque<Pending> queues_[kNumQosClasses];
  uint32_t credit_[kNumQosClasses] = {};
  size_t size_ = 0;
};

}  // namespace sos::serve

#endif  // SOS_SRC_SERVE_QOS_H_
