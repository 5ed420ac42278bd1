// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/serve/service.h"

#include <chrono>
#include <utility>

namespace sos::serve {
namespace {

// Coalescing: merge up to kMaxCoalesce forward-adjacent same-class same-op
// same-handle requests per dispatch, scanning at most kCoalesceWindow queued
// entries per probe.
constexpr size_t kMaxCoalesce = 8;
constexpr uint32_t kCoalesceWindow = 32;

}  // namespace

AsyncBlockService::AsyncBlockService(SosDevice* device, SimClock* clock,
                                     const ServeConfig& config)
    : device_(device),
      clock_(clock),
      config_(config),
      scheduler_(config.qos, QosWeights{}),
      sim_now_us_(clock->now()) {
  if (config_.workers > 0) {
    pool_ = std::make_unique<ThreadPool>(config_.workers);
    worker_futures_.reserve(config_.workers);
    for (size_t i = 0; i < config_.workers; ++i) {
      worker_futures_.push_back(pool_->Submit([this] { WorkerLoop(); }));
    }
  }
}

AsyncBlockService::~AsyncBlockService() { Shutdown(); }

Result<PlacementHandle> AsyncBlockService::OpenPlacement(const PlacementSpec& spec) {
  std::lock_guard<std::mutex> gate(device_mu_);
  auto opened = device_->OpenPlacement(spec);
  if (opened.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    handle_specs_[opened.value().id()] = spec;
  }
  return opened;
}

Status AsyncBlockService::ClosePlacement(PlacementHandle handle) {
  std::lock_guard<std::mutex> gate(device_mu_);
  Status closed = device_->ClosePlacement(handle);
  if (closed.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    handle_specs_.erase(handle.id());
  }
  return closed;
}

QosClass AsyncBlockService::Classify(const ServeRequest& req) const {
  switch (req.op) {
    case ServeOp::kFlush:
      return QosClass::kMaintenance;
    case ServeOp::kTrim:
      return QosClass::kBulk;
    case ServeOp::kDescribePlacement:
      return QosClass::kSysRead;
    case ServeOp::kRead:
    case ServeOp::kWrite:
      break;
  }
  // Reads carry the handle as a durability hint; writes place under it. A
  // handle this service did not broker (or an invalid one) defaults to bulk
  // -- the device will report the lifecycle error on the write path.
  auto it = handle_specs_.find(req.handle.id());
  const bool critical = it != handle_specs_.end() && it->second.durability == Durability::kCritical;
  if (!critical) {
    return QosClass::kBulk;
  }
  return req.op == ServeOp::kRead ? QosClass::kSysRead : QosClass::kSysWrite;
}

std::future<ServeResponse> AsyncBlockService::Submit(ServeRequest req) {
  // Pump mode has no dispatcher to wait for: blocking on space would
  // deadlock, so make room inline instead.
  std::future<ServeResponse> future =
      Admit(std::move(req), /*make_room_inline=*/config_.workers == 0);
  work_cv_.notify_one();
  return future;
}

std::vector<ServeResponse> AsyncBlockService::Call(std::vector<ServeRequest> reqs) {
  std::vector<std::future<ServeResponse>> futures;
  futures.reserve(reqs.size());
  for (ServeRequest& req : reqs) {
    futures.push_back(Admit(std::move(req), /*make_room_inline=*/true));
  }
  // Dispatch in scheduler order -- other callers' batches included -- until
  // this call's own requests are done. An empty queue with one of them still
  // pending means another thread is running it: only then block.
  for (size_t next = 0; next < futures.size();) {
    if (futures[next].wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      ++next;
    } else if (DispatchOne() == 0) {
      break;
    }
  }
  std::vector<ServeResponse> resps;
  resps.reserve(futures.size());
  for (std::future<ServeResponse>& f : futures) {
    resps.push_back(f.get());
  }
  return resps;
}

std::future<ServeResponse> AsyncBlockService::Admit(ServeRequest req, bool make_room_inline) {
  std::promise<ServeResponse> promise;
  std::future<ServeResponse> future = promise.get_future();

  Pending pending;
  pending.req = std::move(req);

  std::unique_lock<std::mutex> lock(mu_);
  pending.cls = Classify(pending.req);
  if (make_room_inline) {
    while (!stopping_ && !scheduler_.HasRoom(pending.cls, config_.submission_depth)) {
      lock.unlock();
      DispatchOne();
      lock.lock();
    }
  } else {
    space_cv_.wait(lock, [&] {
      return stopping_ || scheduler_.HasRoom(pending.cls, config_.submission_depth);
    });
  }
  if (stopping_) {
    ++stats_.rejected;
    lock.unlock();
    ServeResponse resp;
    resp.status = Status(StatusCode::kUnavailable, "service is shutting down");
    resp.cls = pending.cls;
    promise.set_value(std::move(resp));
    return future;
  }
  pending.seq = seq_++;
  pending.submit_sim_us = sim_now_us_.load(std::memory_order_relaxed);
  pending.promise = std::move(promise);
  ++stats_.submitted;
  scheduler_.Enqueue(std::move(pending));
  return future;
}

bool AsyncBlockService::PopBatchLocked(Batch* batch) {
  std::optional<Pending> first = scheduler_.Next();
  if (!first.has_value()) {
    return false;
  }
  const QosClass cls = first->cls;
  const ServeOp op = first->req.op;
  const uint64_t start_lba = first->req.lba;
  const PlacementHandle handle = first->req.handle;
  batch->reqs.push_back(std::move(*first));
  if (op == ServeOp::kRead || op == ServeOp::kWrite) {
    while (batch->reqs.size() < kMaxCoalesce) {
      std::optional<Pending> next = scheduler_.TakeAdjacent(
          cls, op, start_lba + batch->reqs.size(), handle, kCoalesceWindow);
      if (!next.has_value()) {
        break;
      }
      batch->reqs.push_back(std::move(*next));
    }
  }
  return true;
}

void AsyncBlockService::ExecuteBatch(Batch batch) {
  const size_t n = batch.reqs.size();
  std::vector<ServeResponse> resps(n);

  std::unique_lock<std::mutex> gate(device_mu_);
  for (size_t i = 0; i < n; ++i) {
    if (i > 0 && resps[i - 1].status.code() == StatusCode::kPowerLost) {
      // The device went dark mid-batch: the rest fail without touching it.
      resps[i].status = resps[i - 1].status;
      continue;
    }
    Pending& p = batch.reqs[i];
    switch (p.req.op) {
      case ServeOp::kRead: {
        auto result = device_->Read(p.req.lba);
        if (result.ok()) {
          resps[i].data = std::move(result.value().data);
          resps[i].degraded = result.value().degraded;
        } else {
          resps[i].status = result.status();
        }
        break;
      }
      case ServeOp::kWrite:
        resps[i].status = device_->Write(p.req.lba, p.req.data, p.req.handle);
        break;
      case ServeOp::kTrim:
        resps[i].status = device_->Trim(p.req.lba);
        break;
      case ServeOp::kFlush: {
        if (device_->staging_enabled()) {
          auto flushed = device_->FlushStage();
          if (!flushed.ok()) {
            resps[i].status = flushed.status();
          }
        }
        device_->ftl().BackgroundCollect();
        break;
      }
      case ServeOp::kDescribePlacement: {
        auto described = device_->DescribePlacement(p.req.handle);
        if (described.ok()) {
          resps[i].spec = described.value();
        } else {
          resps[i].status = described.status();
        }
        break;
      }
    }
  }
  const uint64_t now = clock_->now();
  sim_now_us_.store(now, std::memory_order_relaxed);
  gate.unlock();

  // The thread that ran the batch resolves it: one hold of mu_ accounts for
  // every request, then each future gets its response.
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.batches;
    stats_.coalesced += n - 1;
    for (size_t i = 0; i < n; ++i) {
      const uint32_t c = static_cast<uint32_t>(batch.reqs[i].cls);
      ++stats_.completed;
      ++stats_.per_class[c].completed;
      if (!resps[i].status.ok()) {
        ++stats_.per_class[c].errors;
      }
      latency_us_[c].Add(static_cast<double>(now - batch.reqs[i].submit_sim_us));
    }
  }
  idle_cv_.notify_all();
  for (size_t i = 0; i < n; ++i) {
    Pending& p = batch.reqs[i];
    resps[i].cls = p.cls;
    resps[i].submit_sim_us = p.submit_sim_us;
    resps[i].complete_sim_us = now;
    p.promise.set_value(std::move(resps[i]));
  }
}

void AsyncBlockService::WorkerLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stopping_ || !scheduler_.empty(); });
      if (scheduler_.empty()) {
        return;  // stopping, and nothing left to run
      }
    }
    DispatchOne();
  }
}

size_t AsyncBlockService::DispatchOne() {
  Batch batch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!PopBatchLocked(&batch)) {
      return 0;
    }
  }
  space_cv_.notify_all();
  const size_t n = batch.reqs.size();
  ExecuteBatch(std::move(batch));
  return n;
}

size_t AsyncBlockService::RunPending() {
  if (config_.workers != 0) {
    return 0;  // async mode dispatches itself
  }
  size_t completed = 0;
  while (const size_t n = DispatchOne()) {
    completed += n;
  }
  return completed;
}

void AsyncBlockService::Drain() {
  if (config_.workers == 0) {
    RunPending();
  }
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return stats_.completed >= stats_.submitted; });
}

void AsyncBlockService::Shutdown() {
  Drain();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      return;
    }
    stopping_ = true;
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  if (config_.workers > 0) {
    for (std::future<void>& worker : worker_futures_) {
      worker.get();
    }
    pool_->Shutdown();
  }
}

ServeStats AsyncBlockService::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

LatencySummary AsyncBlockService::Latency(QosClass cls) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Percentiles& samples = latency_us_[static_cast<uint32_t>(cls)];
  LatencySummary summary;
  summary.count = samples.count();
  summary.p50 = samples.Get(50);
  summary.p99 = samples.Get(99);
  summary.p999 = samples.Get(99.9);
  return summary;
}

}  // namespace sos::serve
