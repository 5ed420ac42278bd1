// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/serve/client.h"

#include <unistd.h>

#include <utility>

namespace sos::serve {

// --- InProcessClient --------------------------------------------------------

ServeResponse InProcessClient::Roundtrip(ServeRequest req) {
  std::vector<ServeRequest> reqs;
  reqs.push_back(std::move(req));
  return std::move(service_->Call(std::move(reqs)).front());
}

Result<PlacementHandle> InProcessClient::OpenPlacement(const PlacementSpec& spec) {
  return service_->OpenPlacement(spec);
}

Status InProcessClient::ClosePlacement(PlacementHandle handle) {
  return service_->ClosePlacement(handle);
}

Result<PlacementSpec> InProcessClient::DescribePlacement(PlacementHandle handle) {
  ServeRequest req;
  req.op = ServeOp::kDescribePlacement;
  req.handle = handle;
  ServeResponse resp = Roundtrip(std::move(req));
  if (!resp.status.ok()) {
    return resp.status;
  }
  return resp.spec;
}

Status InProcessClient::Write(uint64_t lba, std::span<const uint8_t> data,
                              PlacementHandle handle) {
  ServeRequest req;
  req.op = ServeOp::kWrite;
  req.lba = lba;
  req.data.assign(data.begin(), data.end());
  req.handle = handle;
  return Roundtrip(std::move(req)).status;
}

Result<BlockReadResult> InProcessClient::Read(uint64_t lba, PlacementHandle hint) {
  ServeRequest req;
  req.op = ServeOp::kRead;
  req.lba = lba;
  req.handle = hint;
  ServeResponse resp = Roundtrip(std::move(req));
  if (!resp.status.ok()) {
    return resp.status;
  }
  BlockReadResult result;
  result.data = std::move(resp.data);
  result.degraded = resp.degraded;
  return result;
}

Result<std::vector<BlockReadResult>> InProcessClient::ReadBatch(uint64_t lba, uint32_t count,
                                                                PlacementHandle hint) {
  std::vector<ServeRequest> reqs(count);
  for (uint32_t i = 0; i < count; ++i) {
    reqs[i].op = ServeOp::kRead;
    reqs[i].lba = lba + i;
    reqs[i].handle = hint;
  }
  std::vector<BlockReadResult> results;
  results.reserve(count);
  for (ServeResponse& resp : service_->Call(std::move(reqs))) {
    if (!resp.status.ok()) {
      return resp.status;
    }
    BlockReadResult result;
    result.data = std::move(resp.data);
    result.degraded = resp.degraded;
    results.push_back(std::move(result));
  }
  return results;
}

Status InProcessClient::Trim(uint64_t lba) {
  ServeRequest req;
  req.op = ServeOp::kTrim;
  req.lba = lba;
  return Roundtrip(std::move(req)).status;
}

Status InProcessClient::Flush() {
  ServeRequest req;
  req.op = ServeOp::kFlush;
  return Roundtrip(std::move(req)).status;
}

// --- SocketClient -----------------------------------------------------------

SocketClient::~SocketClient() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Result<Frame> SocketClient::Roundtrip(const Frame& request) {
  std::vector<uint8_t> out;
  AppendFrame(out, request);
  if (!SendAll(fd_, out)) {
    return Status(StatusCode::kUnavailable, "connection write failed");
  }
  for (;;) {
    auto parsed = reader_.Next();
    if (parsed.ok()) {
      if (!parsed.value().reply) {
        return Status(StatusCode::kInvalidArgument, "peer sent a request frame");
      }
      return parsed;
    }
    if (parsed.status().code() != StatusCode::kUnavailable) {
      return parsed.status();
    }
    const Status filled = reader_.Fill(fd_);
    if (!filled.ok()) {
      return filled;
    }
  }
}

Result<PlacementHandle> SocketClient::OpenPlacement(const PlacementSpec& spec) {
  Frame req;
  req.type = FrameType::kOpenPlacement;
  req.payload = EncodeSpec(spec);
  auto reply = Roundtrip(req);
  if (!reply.ok()) {
    return reply.status();
  }
  if (reply.value().status != StatusCode::kOk) {
    return Status(reply.value().status, "open placement refused");
  }
  return PlacementHandle(static_cast<uint32_t>(reply.value().lba));
}

Status SocketClient::ClosePlacement(PlacementHandle handle) {
  Frame req;
  req.type = FrameType::kClosePlacement;
  req.handle_slot = handle.id();
  auto reply = Roundtrip(req);
  if (!reply.ok()) {
    return reply.status();
  }
  return reply.value().status == StatusCode::kOk
             ? Status::Ok()
             : Status(reply.value().status, "close placement refused");
}

Result<PlacementSpec> SocketClient::DescribePlacement(PlacementHandle handle) {
  Frame req;
  req.type = FrameType::kDescribePlacement;
  req.handle_slot = handle.id();
  auto reply = Roundtrip(req);
  if (!reply.ok()) {
    return reply.status();
  }
  if (reply.value().status != StatusCode::kOk) {
    return Status(reply.value().status, "describe placement refused");
  }
  return DecodeSpec(reply.value().payload);
}

Status SocketClient::Write(uint64_t lba, std::span<const uint8_t> data, PlacementHandle handle) {
  Frame req;
  req.type = FrameType::kWrite;
  req.lba = lba;
  req.handle_slot = handle.id();
  req.payload.assign(data.begin(), data.end());
  auto reply = Roundtrip(req);
  if (!reply.ok()) {
    return reply.status();
  }
  return reply.value().status == StatusCode::kOk ? Status::Ok()
                                                 : Status(reply.value().status, "write failed");
}

Result<BlockReadResult> SocketClient::Read(uint64_t lba, PlacementHandle hint) {
  auto batch = ReadBatch(lba, 1, hint);
  if (!batch.ok()) {
    return batch.status();
  }
  return std::move(batch.value().front());
}

Result<std::vector<BlockReadResult>> SocketClient::ReadBatch(uint64_t lba, uint32_t count,
                                                             PlacementHandle hint) {
  Frame req;
  req.type = FrameType::kRead;
  req.lba = lba;
  req.count = count;
  req.handle_slot = hint.valid() ? hint.id() : 0;
  auto reply = Roundtrip(req);
  if (!reply.ok()) {
    return reply.status();
  }
  if (reply.value().status != StatusCode::kOk) {
    return Status(reply.value().status, "read failed");
  }
  const std::vector<uint8_t>& payload = reply.value().payload;
  if (count == 0 || payload.size() % count != 0) {
    return Status(StatusCode::kInvalidArgument, "read reply payload not divisible by count");
  }
  const size_t page = payload.size() / count;
  std::vector<BlockReadResult> results(count);
  for (uint32_t i = 0; i < count; ++i) {
    results[i].data.assign(payload.begin() + static_cast<std::ptrdiff_t>(i * page),
                           payload.begin() + static_cast<std::ptrdiff_t>((i + 1) * page));
    results[i].degraded = reply.value().degraded;
  }
  return results;
}

Status SocketClient::Trim(uint64_t lba) {
  Frame req;
  req.type = FrameType::kTrim;
  req.lba = lba;
  auto reply = Roundtrip(req);
  if (!reply.ok()) {
    return reply.status();
  }
  return reply.value().status == StatusCode::kOk ? Status::Ok()
                                                 : Status(reply.value().status, "trim failed");
}

Status SocketClient::Flush() {
  Frame req;
  req.type = FrameType::kFlush;
  auto reply = Roundtrip(req);
  if (!reply.ok()) {
    return reply.status();
  }
  return reply.value().status == StatusCode::kOk ? Status::Ok()
                                                 : Status(reply.value().status, "flush failed");
}

}  // namespace sos::serve
