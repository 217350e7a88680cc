// Pluggable peer-to-peer transports. A Transport manufactures duplex
// frame pipes; the flow-control layer (flow.h) runs the DATA/EOS/CREDIT/
// ERROR protocol over one pipe per cross-worker channel, so every
// transport gets credit-based backpressure, timeouts, and fault
// injection for free.

#ifndef STREAMSHARE_TRANSPORT_TRANSPORT_H_
#define STREAMSHARE_TRANSPORT_TRANSPORT_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "transport/wire.h"

namespace streamshare::transport {

/// One end of a duplex frame pipe. Each end is driven by exactly one
/// thread; the two ends usually live in different threads.
class PipeEnd {
 public:
  virtual ~PipeEnd() = default;

  /// Sends one frame at `version` (kBaseWireVersion for extension-free
  /// frames, kWireVersion for DATA with a latency stamp). Blocks until
  /// the transport accepted it. Unavailable once the peer end is closed.
  virtual Status SendFrame(FrameType type, std::string_view body,
                           uint8_t version) = 0;
  Status SendFrame(FrameType type, std::string_view body) {
    return SendFrame(type, body, kBaseWireVersion);
  }

  /// Receives the next frame sent by the peer end into *type / *body,
  /// and its wire version into *version (may be null when the caller
  /// does not care). Blocks up to `timeout_ms` (<0 = forever).
  /// DeadlineExceeded on timeout, Unavailable when the peer closed with
  /// nothing left to read.
  virtual Status RecvFrame(FrameType* type, std::string* body,
                           int timeout_ms, uint8_t* version) = 0;
  Status RecvFrame(FrameType* type, std::string* body, int timeout_ms) {
    return RecvFrame(type, body, timeout_ms, nullptr);
  }

  /// Closes this end; the peer's RecvFrame drains then reports
  /// Unavailable, its SendFrame may fail. Idempotent.
  virtual void Close() = 0;

  /// Bytes this end has put on the wire (frame overhead included).
  virtual uint64_t wire_bytes_sent() const = 0;
};

/// A connected duplex pipe: ends[0] talks to ends[1].
struct PipePair {
  std::unique_ptr<PipeEnd> ends[2];
};

class Transport {
 public:
  virtual ~Transport() = default;

  virtual const char* name() const = 0;

  /// Creates a connected pipe. `label` names it in errors.
  virtual Status CreatePipe(const std::string& label, PipePair* pair) = 0;
};

}  // namespace streamshare::transport

#endif  // STREAMSHARE_TRANSPORT_TRANSPORT_H_
