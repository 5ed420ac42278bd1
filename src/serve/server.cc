// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <thread>
#include <utility>
#include <vector>

namespace sos::serve {
namespace {

Frame ErrorReply(StatusCode code) {
  Frame reply;
  reply.type = FrameType::kRead;  // designated error carrier
  reply.reply = true;
  reply.status = code;
  return reply;
}

}  // namespace

bool SosdServer::HandleFrame(const Frame& frame, std::vector<uint8_t>* reply_bytes) {
  if (frame.reply) {
    AppendFrame(*reply_bytes, ErrorReply(StatusCode::kInvalidArgument));
    return false;
  }

  Frame reply;
  reply.type = frame.type;
  reply.reply = true;
  reply.lba = frame.lba;
  reply.count = frame.count;

  switch (frame.type) {
    case FrameType::kOpenPlacement: {
      auto spec = DecodeSpec(frame.payload);
      if (!spec.ok()) {
        AppendFrame(*reply_bytes, ErrorReply(spec.status().code()));
        return false;
      }
      auto opened = service_->OpenPlacement(spec.value());
      reply.status = opened.ok() ? StatusCode::kOk : opened.status().code();
      reply.lba = opened.ok() ? opened.value().id() : 0;
      break;
    }
    case FrameType::kClosePlacement: {
      reply.status = service_->ClosePlacement(PlacementHandle(frame.handle_slot)).code();
      break;
    }
    case FrameType::kDescribePlacement: {
      std::vector<ServeRequest> reqs(1);
      reqs[0].op = ServeOp::kDescribePlacement;
      reqs[0].handle = PlacementHandle(frame.handle_slot);
      const ServeResponse resp = std::move(service_->Call(std::move(reqs)).front());
      reply.status = resp.status.code();
      if (resp.status.ok()) {
        reply.payload = EncodeSpec(resp.spec);
      }
      break;
    }
    case FrameType::kRead: {
      // A reply the wire cannot carry is refused before the device sees the
      // read, and the connection stays usable.
      const uint64_t page = service_->device()->config().nand.page_size_bytes;
      if (frame.count * page > kMaxFramePayload) {
        reply.status = StatusCode::kInvalidArgument;
        break;
      }
      // Fan out per block; the service coalesces adjacent requests back into
      // one dispatch.
      std::vector<ServeRequest> reqs(frame.count);
      for (uint32_t i = 0; i < frame.count; ++i) {
        reqs[i].op = ServeOp::kRead;
        reqs[i].lba = frame.lba + i;
        reqs[i].handle = PlacementHandle(frame.handle_slot);
      }
      for (const ServeResponse& resp : service_->Call(std::move(reqs))) {
        if (!resp.status.ok() && reply.status == StatusCode::kOk) {
          reply.status = resp.status.code();
        }
        reply.degraded = reply.degraded || resp.degraded;
        reply.payload.insert(reply.payload.end(), resp.data.begin(), resp.data.end());
      }
      if (reply.status != StatusCode::kOk) {
        reply.payload.clear();
      }
      break;
    }
    case FrameType::kWrite: {
      if (frame.payload.empty() || frame.payload.size() % frame.count != 0) {
        AppendFrame(*reply_bytes, ErrorReply(StatusCode::kInvalidArgument));
        return false;
      }
      const size_t page = frame.payload.size() / frame.count;
      std::vector<ServeRequest> reqs(frame.count);
      for (uint32_t i = 0; i < frame.count; ++i) {
        reqs[i].op = ServeOp::kWrite;
        reqs[i].lba = frame.lba + i;
        reqs[i].handle = PlacementHandle(frame.handle_slot);
        reqs[i].data.assign(frame.payload.begin() + static_cast<std::ptrdiff_t>(i * page),
                            frame.payload.begin() + static_cast<std::ptrdiff_t>((i + 1) * page));
      }
      for (const ServeResponse& resp : service_->Call(std::move(reqs))) {
        if (!resp.status.ok() && reply.status == StatusCode::kOk) {
          reply.status = resp.status.code();
        }
      }
      break;
    }
    case FrameType::kTrim:
    case FrameType::kFlush: {
      std::vector<ServeRequest> reqs(1);
      reqs[0].op = frame.type == FrameType::kTrim ? ServeOp::kTrim : ServeOp::kFlush;
      reqs[0].lba = frame.lba;
      reply.status = service_->Call(std::move(reqs)).front().status.code();
      break;
    }
  }
  AppendFrame(*reply_bytes, reply);
  return true;
}

uint64_t SosdServer::ServeConnection(int fd) {
  FrameReader reader;
  uint64_t served = 0;
  for (;;) {
    auto parsed = reader.Next();
    if (!parsed.ok()) {
      if (parsed.status().code() == StatusCode::kUnavailable) {
        if (!reader.Fill(fd).ok()) {
          return served;  // peer closed or read failed
        }
        continue;  // incomplete; read more
      }
      std::vector<uint8_t> error_bytes;
      AppendFrame(error_bytes, ErrorReply(StatusCode::kInvalidArgument));
      IgnoreResult(SendAll(fd, error_bytes));  // closing either way
      return served;  // malformed stream: close
    }
    std::vector<uint8_t> reply_bytes;
    const bool keep_open = HandleFrame(parsed.value(), &reply_bytes);
    if (!SendAll(fd, reply_bytes) || !keep_open) {
      return served;
    }
    ++served;
  }
}

void SosdServer::ServeListener(int listen_fd, const std::atomic<bool>& stop) {
  std::vector<std::thread> connections;
  while (!stop.load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready < 0 && errno != EINTR) {
      break;
    }
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) {
      continue;
    }
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == EAGAIN) {
        continue;
      }
      break;
    }
    connections.emplace_back([this, fd] {
      ServeConnection(fd);
      ::close(fd);
    });
  }
  for (std::thread& t : connections) {
    t.join();
  }
}

}  // namespace sos::serve
