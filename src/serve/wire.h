// Copyright (c) 2026 The SOS Authors. MIT License.
//
// The sosd wire protocol: length-prefixed binary frames over a byte stream.
//
// Every frame is a fixed 24-byte little-endian header followed by
// `payload_len` payload bytes:
//
//   offset  size  field
//   0       2     magic 'S','B'
//   2       1     version (kWireVersion)
//   3       1     type (FrameType; replies set kReplyBit)
//   4       1     status (StatusCode of a reply; 0 on requests)
//   5       1     flags: bit0 = degraded (replies); bits 4..7 = placement
//                 handle slot id (requests); bits 1..3 reserved, must be 0
//   6       2     reserved, must be 0
//   8       8     lba (also carries the handle id in open-placement replies)
//   16      4     payload_len
//   20      4     count (multi-block ops; 0 and 1 both mean one block)
//
// Payloads: write request = block bytes; read reply = block bytes;
// open-placement request / describe reply = encoded PlacementSpec
// (3 attribute bytes + label). Everything else has none.
//
// Parsing is incremental and hostile-input safe: ParseFrame reports
// kUnavailable for "need more bytes" (the only retryable status) and
// kInvalidArgument for anything malformed -- bad magic, unknown version or
// type, nonzero reserved bits, oversized payload or count. A server closes
// the connection on the latter; the fuzz test feeds it arbitrary bytes and
// asserts it never does anything but one of those two outcomes.

#ifndef SOS_SRC_SERVE_WIRE_H_
#define SOS_SRC_SERVE_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/common/units.h"
#include "src/host/placement.h"

namespace sos::serve {

inline constexpr uint8_t kWireMagic0 = 'S';
inline constexpr uint8_t kWireMagic1 = 'B';
inline constexpr uint8_t kWireVersion = 1;
inline constexpr size_t kWireHeaderSize = 24;

// Bounds a malicious length prefix can't exceed: no device in this repo has
// pages anywhere near 1 MiB, and batches are capped well below 4096 blocks.
inline constexpr uint32_t kMaxFramePayload = 1u << 20;
inline constexpr uint32_t kMaxFrameCount = 4096;

inline constexpr uint8_t kReplyBit = 0x80;

enum class FrameType : uint8_t {
  kRead = 1,
  kWrite = 2,
  kTrim = 3,
  kFlush = 4,
  kDescribePlacement = 5,
  kOpenPlacement = 6,
  kClosePlacement = 7,
};

// Reply flag bits.
inline constexpr uint8_t kFlagDegraded = 0x01;

struct Frame {
  FrameType type = FrameType::kRead;
  bool reply = false;
  StatusCode status = StatusCode::kOk;  // meaningful on replies
  bool degraded = false;                // reply flag bit0
  uint32_t handle_slot = 0;             // request flag bits 4..7
  uint64_t lba = 0;
  uint32_t count = 1;
  std::vector<uint8_t> payload;
};

// Serializes `frame` onto `out` (appends; never fails -- oversized payloads
// are a programming error upstream and are clamped by the caller's bounds).
void AppendFrame(std::vector<uint8_t>& out, const Frame& frame);

// Parses one frame from the front of `bytes`. On Ok, *consumed is the number
// of bytes the frame occupied. kUnavailable = incomplete (retry with more
// bytes; *consumed untouched); kInvalidArgument = malformed stream.
[[nodiscard]] Result<Frame> ParseFrame(std::span<const uint8_t> bytes, size_t* consumed);

// PlacementSpec payload codec (open-placement requests, describe replies):
// durability, lifetime, update_frequency as one byte each, then the label.
std::vector<uint8_t> EncodeSpec(const PlacementSpec& spec);
[[nodiscard]] Result<PlacementSpec> DecodeSpec(std::span<const uint8_t> payload);

// --- Byte-stream transport (server and SocketClient share these) ----------

// Reassembles frames from a connected byte-stream fd. Each read() lands
// straight in the buffer's free tail, which Fill keeps at least
// kStreamReadSize long, so a frame up to that size takes one read(); parsed
// frames are consumed by advancing an offset.
class FrameReader {
 public:
  static constexpr size_t kStreamReadSize = 64 * kKiB;

  // The next complete buffered frame, or ParseFrame's error: kUnavailable
  // means Fill first.
  [[nodiscard]] Result<Frame> Next();

  // One read() from `fd` into the free tail, retried on EINTR. kUnavailable
  // when the peer closed or the read failed.
  [[nodiscard]] Status Fill(int fd);

 private:
  std::vector<uint8_t> buffer_;
  size_t begin_ = 0;  // first unparsed byte
  size_t end_ = 0;    // one past the last byte read
};

// Writes all of `bytes` to the socket `fd`, retrying on EINTR and short
// writes. Sends with MSG_NOSIGNAL: a peer that already hung up is a false
// return (EPIPE), never a SIGPIPE that kills the process.
[[nodiscard]] bool SendAll(int fd, std::span<const uint8_t> bytes);

}  // namespace sos::serve

#endif  // SOS_SRC_SERVE_WIRE_H_
