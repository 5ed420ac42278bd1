// Copyright (c) 2026 The SOS Authors. MIT License.
//
// AsyncBlockService: a thread-safe async request core over SosDevice
// (DESIGN.md §14 -- the sosd tentpole).
//
// SosDevice and the FTL beneath it are single-caller by design: the
// deterministic sim path drives them from one thread and the goldens depend
// on that op schedule. This layer is the multi-caller adapter. Clients
// Call() or Submit() requests from any number of threads; internally the
// service
//
//   1. classifies each request into a QosClass from its op and the placement
//      handle's declared durability (critical -> SYS classes),
//   2. admits it into a bounded submission queue with per-class capacity
//      (bulk/maintenance can occupy at most half the depth -- per-pool
//      admission, so background work never starves SYS),
//   3. dispatches via a weighted scheduler (qos.h), coalescing adjacent-LBA
//      requests of the same class/op/handle into one dispatch. Coalescing
//      only groups requests under one hold of the device gate: the dispatch
//      still runs one page per device call, in LBA order, and once a
//      request returns kPowerLost the rest fail with it without touching
//      the dark device,
//   4. serializes all device + sim-clock access behind one device gate
//      mutex, so the device itself never sees concurrency, and
//   5. resolves each batch's futures on the thread that ran it, recording
//      per-class sim-time latency in an exact value -> count store whose
//      memory is bounded by the number of distinct latencies, not requests.
//
// Who dispatches. Call() is the synchronous entry point: the calling thread
// admits its requests and runs scheduler batches itself (anyone's, in
// scheduler order) until its own requests are done, so a synchronous
// request costs no thread hand-off. InProcessClient and SosdServer use it.
// Submit() is the asynchronous entry point; its requests are dispatched by
// whoever runs next:
//   workers == 0  -- deterministic pump mode: no threads are created; the
//                    caller drives dispatch with RunPending() (or any
//                    Call()). Benches and QoS unit tests use this so
//                    latency goldens are exact; sosd runs here too, each
//                    connection thread dispatching its own requests.
//   workers > 0   -- async mode: N long-lived worker jobs on a ThreadPool
//                    dispatch what Submit() admits. The stress harness runs
//                    this, with Call() threads alongside, under TSan.
//
// Latency is sim time end to end: admission stamps the current sim time,
// completion stamps it again after the device batch ran. Wall clock never
// enters any number this class reports.

#ifndef SOS_SRC_SERVE_SERVICE_H_
#define SOS_SRC_SERVE_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/sim_clock.h"
#include "src/common/stats.h"
#include "src/common/thread_pool.h"
#include "src/serve/qos.h"
#include "src/serve/request.h"
#include "src/sos/sos_device.h"

namespace sos::serve {

struct ServeConfig {
  // 0 = pump mode (caller drives via RunPending; fully deterministic).
  size_t workers = 0;
  // Total submission-queue depth; bulk/maintenance classes are each capped
  // at half of it (see QosScheduler::HasRoom).
  size_t submission_depth = 256;
  // Weighted per-class dispatch (default QosWeights); false = one global
  // FIFO.
  bool qos = true;
};

// Per-class completion statistics snapshot.
struct ClassStats {
  uint64_t completed = 0;
  uint64_t errors = 0;  // completions with !status.ok()
};

struct ServeStats {
  ClassStats per_class[kNumQosClasses];
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t rejected = 0;  // refused at admission (shutdown)
  uint64_t batches = 0;   // device dispatches
  uint64_t coalesced = 0; // requests that rode along in a multi-request batch
};

// Sim-time latency percentiles for one class, in microseconds.
struct LatencySummary {
  uint64_t count = 0;
  double p50 = 0;
  double p99 = 0;
  double p999 = 0;
};

class AsyncBlockService {
 public:
  // `device` and `clock` must outlive the service. The clock must be the
  // device's own sim clock (the gate advances it on every dispatch).
  AsyncBlockService(SosDevice* device, SimClock* clock, const ServeConfig& config);
  ~AsyncBlockService();

  AsyncBlockService(const AsyncBlockService&) = delete;
  AsyncBlockService& operator=(const AsyncBlockService&) = delete;

  // --- Control plane (synchronous; brokered so classification can see the
  // declared durability without a device round-trip per request) -----------

  [[nodiscard]] Result<PlacementHandle> OpenPlacement(const PlacementSpec& spec);
  [[nodiscard]] Status ClosePlacement(PlacementHandle handle);

  // --- Data plane ----------------------------------------------------------

  // Thread-safe. Admits the requests in order and dispatches scheduler
  // batches on the calling thread until all of them have completed, making
  // room inline when a class is full (never waiting for space); returns the
  // responses in request order. After shutdown began, each resolves to
  // kUnavailable.
  [[nodiscard]] std::vector<ServeResponse> Call(std::vector<ServeRequest> reqs);

  // Thread-safe. Wakes a worker; in async mode blocks while the target
  // class's admission quota is full (pump mode makes room inline). Fails
  // fast (future resolves to kUnavailable) once shutdown began.
  [[nodiscard]] std::future<ServeResponse> Submit(ServeRequest req);

  // Pump mode only (workers == 0): dispatches every queued batch inline on
  // the calling thread, delivering completions before returning. Returns
  // the number of requests completed.
  size_t RunPending();

  // Blocks until every submitted request has completed. In pump mode this
  // pumps inline; in async mode it waits on the workers and Call() threads.
  void Drain();

  // Orderly stop: drains queued work, then joins the workers. Idempotent;
  // the destructor calls it. Submissions racing with shutdown resolve to
  // kUnavailable instead of blocking.
  void Shutdown();

  // --- Introspection -------------------------------------------------------

  ServeStats Stats() const;
  // Computed under the service lock on the live store, copying no samples;
  // callable concurrently.
  LatencySummary Latency(QosClass cls) const;

  SosDevice* device() { return device_; }
  const ServeConfig& config() const { return config_; }

 private:
  // One dispatch: 1..kMaxCoalesce requests (service.cc), ascending
  // contiguous LBAs when size > 1.
  struct Batch {
    std::vector<Pending> reqs;
  };

  QosClass Classify(const ServeRequest& req) const;  // callers hold mu_
  // Classifies and enqueues one request. A full class either makes room by
  // dispatching on the calling thread or waits on space_cv_.
  std::future<ServeResponse> Admit(ServeRequest req, bool make_room_inline);
  bool PopBatchLocked(Batch* batch);                 // callers hold mu_
  // Pops and runs one batch on the calling thread; returns its request
  // count, 0 when the queue was empty.
  size_t DispatchOne();
  void ExecuteBatch(Batch batch);
  void WorkerLoop();

  SosDevice* const device_;
  SimClock* const clock_;
  const ServeConfig config_;

  // Guards scheduler_, handle_specs_, seq_, stats counters, and the latency
  // samplers. Never held across a device call.
  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // scheduler gained work / stopping
  std::condition_variable space_cv_;  // scheduler freed admission space
  std::condition_variable idle_cv_;   // completed_ caught up to submitted_
  QosScheduler scheduler_;
  std::map<uint32_t, PlacementSpec> handle_specs_;  // open slot id -> spec
  uint64_t seq_ = 0;
  ServeStats stats_;
  Percentiles latency_us_[kNumQosClasses];
  bool stopping_ = false;

  // The device gate: all SosDevice and SimClock access happens under this
  // mutex, one batch at a time -- the external synchronization layer that
  // keeps the device single-caller. Acquired after (never while holding)
  // mu_.
  std::mutex device_mu_;
  // Sim-time mirror maintained under device_mu_, readable without it at
  // Submit for the admission timestamp.
  std::atomic<uint64_t> sim_now_us_;

  // Async mode only.
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::future<void>> worker_futures_;
};

}  // namespace sos::serve

#endif  // SOS_SRC_SERVE_SERVICE_H_
