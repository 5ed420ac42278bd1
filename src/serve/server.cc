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
      ServeRequest req;
      req.op = ServeOp::kDescribePlacement;
      req.handle = PlacementHandle(frame.handle_slot);
      auto future = service_->Submit(std::move(req));
      service_->RunPending();
      ServeResponse resp = future.get();
      reply.status = resp.status.code();
      if (resp.status.ok()) {
        reply.payload = EncodeSpec(resp.spec);
      }
      break;
    }
    case FrameType::kRead: {
      // Fan out per block; the service coalesces adjacent submissions back
      // into one dispatch.
      std::vector<std::future<ServeResponse>> futures;
      futures.reserve(frame.count);
      for (uint32_t i = 0; i < frame.count; ++i) {
        ServeRequest req;
        req.op = ServeOp::kRead;
        req.lba = frame.lba + i;
        req.handle = PlacementHandle(frame.handle_slot);
        futures.push_back(service_->Submit(std::move(req)));
      }
      service_->RunPending();  // no-op in async mode; drives pump mode
      for (std::future<ServeResponse>& f : futures) {
        ServeResponse resp = f.get();
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
      std::vector<std::future<ServeResponse>> futures;
      futures.reserve(frame.count);
      for (uint32_t i = 0; i < frame.count; ++i) {
        ServeRequest req;
        req.op = ServeOp::kWrite;
        req.lba = frame.lba + i;
        req.handle = PlacementHandle(frame.handle_slot);
        req.data.assign(frame.payload.begin() + static_cast<std::ptrdiff_t>(i * page),
                        frame.payload.begin() + static_cast<std::ptrdiff_t>((i + 1) * page));
        futures.push_back(service_->Submit(std::move(req)));
      }
      service_->RunPending();
      for (std::future<ServeResponse>& f : futures) {
        ServeResponse resp = f.get();
        if (!resp.status.ok() && reply.status == StatusCode::kOk) {
          reply.status = resp.status.code();
        }
      }
      break;
    }
    case FrameType::kTrim:
    case FrameType::kFlush: {
      ServeRequest req;
      req.op = frame.type == FrameType::kTrim ? ServeOp::kTrim : ServeOp::kFlush;
      req.lba = frame.lba;
      auto future = service_->Submit(std::move(req));
      service_->RunPending();
      reply.status = future.get().status.code();
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
