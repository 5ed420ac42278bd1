// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/serve/wire.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace sos::serve {
namespace {

void PutU16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v & 0xff));
  out.push_back(static_cast<uint8_t>(v >> 8));
}

void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void PutU64(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

uint32_t GetU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | p[i];
  }
  return v;
}

uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | p[i];
  }
  return v;
}

// Highest StatusCode a well-formed reply may carry.
constexpr uint8_t kMaxStatusCode = static_cast<uint8_t>(StatusCode::kResourceExhausted);

bool ValidFrameType(uint8_t raw) {
  return raw >= static_cast<uint8_t>(FrameType::kRead) &&
         raw <= static_cast<uint8_t>(FrameType::kClosePlacement);
}

}  // namespace

void AppendFrame(std::vector<uint8_t>& out, const Frame& frame) {
  out.push_back(kWireMagic0);
  out.push_back(kWireMagic1);
  out.push_back(kWireVersion);
  out.push_back(static_cast<uint8_t>(frame.type) | (frame.reply ? kReplyBit : 0));
  out.push_back(static_cast<uint8_t>(frame.status));
  uint8_t flags = 0;
  if (frame.reply && frame.degraded) {
    flags |= kFlagDegraded;
  }
  if (!frame.reply) {
    flags |= static_cast<uint8_t>((frame.handle_slot & 0x0f) << 4);
  }
  out.push_back(flags);
  PutU16(out, 0);  // reserved
  PutU64(out, frame.lba);
  PutU32(out, static_cast<uint32_t>(frame.payload.size()));
  PutU32(out, frame.count);
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
}

Result<Frame> ParseFrame(std::span<const uint8_t> bytes, size_t* consumed) {
  if (bytes.size() < kWireHeaderSize) {
    return Status(StatusCode::kUnavailable, "incomplete frame header");
  }
  const uint8_t* h = bytes.data();
  if (h[0] != kWireMagic0 || h[1] != kWireMagic1) {
    return Status(StatusCode::kInvalidArgument, "bad frame magic");
  }
  if (h[2] != kWireVersion) {
    return Status(StatusCode::kInvalidArgument, "unsupported wire version");
  }
  const uint8_t raw_type = h[3];
  if (!ValidFrameType(raw_type & static_cast<uint8_t>(~kReplyBit))) {
    return Status(StatusCode::kInvalidArgument, "unknown frame type");
  }
  if (h[4] > kMaxStatusCode) {
    return Status(StatusCode::kInvalidArgument, "unknown status code");
  }
  const uint8_t flags = h[5];
  if ((flags & 0x0e) != 0) {
    return Status(StatusCode::kInvalidArgument, "reserved flag bits set");
  }
  if (h[6] != 0 || h[7] != 0) {
    return Status(StatusCode::kInvalidArgument, "reserved header bytes set");
  }
  const uint32_t payload_len = GetU32(h + 16);
  if (payload_len > kMaxFramePayload) {
    return Status(StatusCode::kInvalidArgument, "frame payload too large");
  }
  const uint32_t count = GetU32(h + 20);
  if (count > kMaxFrameCount) {
    return Status(StatusCode::kInvalidArgument, "frame count too large");
  }
  if (bytes.size() < kWireHeaderSize + payload_len) {
    return Status(StatusCode::kUnavailable, "incomplete frame payload");
  }

  Frame frame;
  frame.reply = (raw_type & kReplyBit) != 0;
  frame.type = static_cast<FrameType>(raw_type & static_cast<uint8_t>(~kReplyBit));
  frame.status = static_cast<StatusCode>(h[4]);
  frame.degraded = frame.reply && (flags & kFlagDegraded) != 0;
  frame.handle_slot = frame.reply ? 0 : static_cast<uint32_t>(flags >> 4);
  if (frame.reply && (flags & 0xf0) != 0) {
    // Bits 4..7 carry the handle slot on requests only.
    return Status(StatusCode::kInvalidArgument, "reserved reply flag bits set");
  }
  if (!frame.reply && (flags & kFlagDegraded) != 0) {
    return Status(StatusCode::kInvalidArgument, "degraded flag on a request");
  }
  frame.lba = GetU64(h + 8);
  frame.count = count == 0 ? 1 : count;
  frame.payload.assign(bytes.begin() + kWireHeaderSize,
                       bytes.begin() + kWireHeaderSize + payload_len);
  *consumed = kWireHeaderSize + payload_len;
  return frame;
}

std::vector<uint8_t> EncodeSpec(const PlacementSpec& spec) {
  // Pre-sized + memcpy rather than push_back/insert: GCC 12's
  // -Wstringop-overflow misfires on the grow-then-insert form and CI builds
  // with -Werror (same workaround as PlacementLabel).
  std::vector<uint8_t> out(3 + spec.label.size());
  out[0] = static_cast<uint8_t>(spec.durability);
  out[1] = static_cast<uint8_t>(spec.lifetime);
  out[2] = static_cast<uint8_t>(spec.update_frequency);
  if (!spec.label.empty()) {
    std::memcpy(out.data() + 3, spec.label.data(), spec.label.size());
  }
  return out;
}

Result<PlacementSpec> DecodeSpec(std::span<const uint8_t> payload) {
  if (payload.size() < 3) {
    return Status(StatusCode::kInvalidArgument, "placement spec payload too short");
  }
  if (payload[0] > static_cast<uint8_t>(Durability::kDegradable) ||
      payload[1] > static_cast<uint8_t>(LifetimeHint::kLong) ||
      payload[2] > static_cast<uint8_t>(UpdateFrequency::kFrequent)) {
    return Status(StatusCode::kInvalidArgument, "placement spec attribute out of range");
  }
  PlacementSpec spec(static_cast<Durability>(payload[0]), static_cast<LifetimeHint>(payload[1]),
                     static_cast<UpdateFrequency>(payload[2]),
                     std::string(payload.begin() + 3, payload.end()));
  return spec;
}

Result<Frame> FrameReader::Next() {
  size_t consumed = 0;
  auto parsed = ParseFrame(std::span<const uint8_t>(buffer_).subspan(begin_, end_ - begin_),
                           &consumed);
  if (parsed.ok()) {
    begin_ += consumed;
    if (begin_ == end_) {
      begin_ = end_ = 0;
    }
  }
  return parsed;
}

Status FrameReader::Fill(int fd) {
  if (buffer_.size() - end_ < kStreamReadSize) {
    // Slide the unparsed bytes to the front, then grow if still short.
    if (begin_ > 0) {
      std::memmove(buffer_.data(), buffer_.data() + begin_, end_ - begin_);
      end_ -= begin_;
      begin_ = 0;
    }
    if (buffer_.size() - end_ < kStreamReadSize) {
      buffer_.resize(end_ + kStreamReadSize);
    }
  }
  for (;;) {
    const ssize_t n = ::read(fd, buffer_.data() + end_, buffer_.size() - end_);
    if (n > 0) {
      end_ += static_cast<size_t>(n);
      return Status::Ok();
    }
    if (n == 0) {
      return Status(StatusCode::kUnavailable, "connection closed by peer");
    }
    if (errno != EINTR) {
      return Status(StatusCode::kUnavailable, "connection read failed");
    }
  }
}

bool SendAll(int fd, std::span<const uint8_t> bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace sos::serve
