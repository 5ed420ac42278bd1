// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Request/response value types of the serve layer (DESIGN.md §14).
//
// A ServeRequest is one block-service operation as submitted by a client;
// the service classifies it into a QosClass at admission (from the op and
// the placement handle's declared durability) and hands the caller a future
// for the ServeResponse. Everything here is plain data -- the scheduling,
// synchronization and device access live in service.{h,cc}.

#ifndef SOS_SRC_SERVE_REQUEST_H_
#define SOS_SRC_SERVE_REQUEST_H_

#include <cstdint>
#include <future>
#include <vector>

#include "src/common/status.h"
#include "src/common/units.h"
#include "src/host/placement.h"

namespace sos::serve {

// The block-service operations sosd speaks (wire.h mirrors these as frame
// types, plus the placement-handle lifecycle frames).
enum class ServeOp : uint8_t {
  kRead = 0,
  kWrite = 1,
  kTrim = 2,
  kFlush = 3,
  kDescribePlacement = 4,
};

// QoS classes in strict priority order of the weighted scheduler. The class
// is derived, never declared: critical-handle traffic is SYS-bound, so it
// must not queue behind SPARE bulk writes or maintenance work (the per-pool
// QoS requirement of §14).
enum class QosClass : uint8_t {
  kSysRead = 0,      // reads under a critical (SYS-pool) handle + describes
  kSysWrite = 1,     // writes under a critical handle
  kBulk = 2,         // degradable reads/writes, trims
  kMaintenance = 3,  // flushes (stage drain + background GC)
};

inline constexpr uint32_t kNumQosClasses = 4;

inline const char* QosClassName(QosClass cls) {
  switch (cls) {
    case QosClass::kSysRead:
      return "sys_read";
    case QosClass::kSysWrite:
      return "sys_write";
    case QosClass::kBulk:
      return "bulk";
    case QosClass::kMaintenance:
      return "maintenance";
  }
  return "?";
}

// One submitted operation. `data` is the payload for writes; `handle` is
// required for writes (placement) and consulted for reads only to classify
// (a read's bytes come from the device's own mapping).
struct ServeRequest {
  ServeOp op = ServeOp::kRead;
  uint64_t lba = 0;
  std::vector<uint8_t> data;
  PlacementHandle handle;
};

// The completion a client's future resolves to.
struct ServeResponse {
  Status status;
  std::vector<uint8_t> data;     // read payload (empty otherwise)
  bool degraded = false;         // read served from approximate storage
  PlacementSpec spec;            // describe-placement answer
  QosClass cls = QosClass::kBulk;
  // Sim-time bracket of the request: admission -> completion. The difference
  // is the per-class latency bench_serve reports (sim time, so the numbers
  // are deterministic and golden-able; wall clock never appears here).
  SimTimeUs submit_sim_us = 0;
  SimTimeUs complete_sim_us = 0;
};

// A request in flight inside the service: the scheduler's unit of work.
// Move-only (it owns the promise side of the client's future).
struct Pending {
  ServeRequest req;
  std::promise<ServeResponse> promise;
  QosClass cls = QosClass::kBulk;
  uint64_t seq = 0;  // admission order; the QoS-off FIFO key
  SimTimeUs submit_sim_us = 0;

  Pending() = default;
  Pending(Pending&&) = default;
  Pending& operator=(Pending&&) = default;
  Pending(const Pending&) = delete;
  Pending& operator=(const Pending&) = delete;
};

}  // namespace sos::serve

#endif  // SOS_SRC_SERVE_REQUEST_H_
