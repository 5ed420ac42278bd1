// Copyright (c) 2026 The SOS Authors. MIT License.
//
// SosdServer: speaks the sosd wire protocol (wire.h) on byte-stream file
// descriptors and forwards requests into an AsyncBlockService.
//
// One connection = one blocking parse/call/reply loop (ServeConnection),
// usable directly on a socketpair end in tests. tools/sosd adds the listening
// socket and runs ServeConnection on a thread per accepted client
// (ServeListener). Frame handling:
//
//   - every data frame is one AsyncBlockService::Call, so the connection
//     thread dispatches its own requests (no hand-off to a worker);
//   - multi-count reads/writes fan out into per-block requests (which the
//     service's coalescer merges back into device batches); the reply
//     aggregates payloads and reports the first non-ok status;
//   - a read whose reply would exceed kMaxFramePayload gets a
//     kInvalidArgument reply without touching the device, and the
//     connection stays open;
//   - placement lifecycle frames run synchronously on the service's control
//     plane;
//   - a malformed frame gets one kInvalidArgument error reply (type kRead,
//     the protocol's designated error carrier) and the connection is closed.
//     Incomplete frames just wait for more bytes.

#ifndef SOS_SRC_SERVE_SERVER_H_
#define SOS_SRC_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>

#include "src/serve/service.h"
#include "src/serve/wire.h"

namespace sos::serve {

class SosdServer {
 public:
  // `service` must outlive the server.
  explicit SosdServer(AsyncBlockService* service) : service_(service) {}

  // Serves one established connection until the peer closes, an I/O error
  // occurs, or a malformed frame arrives. Blocking; run it on its own
  // thread. Returns the number of request frames served.
  uint64_t ServeConnection(int fd);

  // Accept loop for a listening socket: spawns a thread per connection and
  // polls `stop` between accepts. Returns when `stop` becomes true or the
  // listening socket fails. Joins all connection threads before returning.
  void ServeListener(int listen_fd, const std::atomic<bool>& stop);

  AsyncBlockService* service() { return service_; }

 private:
  // Handles one parsed request frame; appends the reply bytes. Returns false
  // when the frame is unserviceable and the connection should close.
  bool HandleFrame(const Frame& frame, std::vector<uint8_t>* reply);

  AsyncBlockService* const service_;
};

}  // namespace sos::serve

#endif  // SOS_SRC_SERVE_SERVER_H_
