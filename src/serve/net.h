// Minimal socket plumbing for the service plane: a localhost TCP
// listener and a buffered frame connection speaking the wire format of
// transport/wire.h. A FrameConn tolerates kUnsupported frames (it
// surfaces them to the caller so the daemon can answer "unsupported"
// instead of dropping the connection)
// and separates buffered non-blocking sends (the daemon's event loop
// must never block on a slow client) from blocking receives (the
// client's request/response calls).

#ifndef STREAMSHARE_SERVE_NET_H_
#define STREAMSHARE_SERVE_NET_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "transport/wire.h"

namespace streamshare::serve {

/// What FrameConn::TryParse produced.
enum class ConnEvent {
  kFrame,        // a dispatchable frame
  kUnsupported,  // well-framed but unknown version/type — answer it
  kNeedMore,     // read more bytes first
};

/// One TCP connection carrying wire frames. Owns the fd.
class FrameConn {
 public:
  FrameConn() = default;
  explicit FrameConn(int fd, std::string label);
  ~FrameConn();
  FrameConn(FrameConn&& other) noexcept;
  FrameConn& operator=(FrameConn&& other) noexcept;
  FrameConn(const FrameConn&) = delete;
  FrameConn& operator=(const FrameConn&) = delete;

  bool open() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  const std::string& label() const { return label_; }

  /// Appends one frame to the send buffer. Nothing is written to the
  /// socket until FlushSome/FlushAll, so a caller that queues many
  /// frames pays one send() for all of them.
  Status QueueFrame(transport::FrameType type, std::string_view body,
                    uint8_t version = transport::kBaseWireVersion);

  /// Writes as much buffered output as the socket accepts right now;
  /// the only path that writes to the socket.
  Status FlushSome();
  /// Blocks until the send buffer is empty (or `timeout_ms` passes).
  Status FlushAll(int timeout_ms);
  bool has_pending_output() const { return tx_sent_ < tx_buffer_.size(); }

  /// Appends freshly received bytes to the parse buffer. Returns
  /// Unavailable on orderly peer close (EOF), Ok when bytes were read or
  /// the read would block.
  Status ReadSome();

  /// Parses the next frame out of the receive buffer. On kFrame and
  /// kUnsupported, `frame` is filled (body aliases the receive buffer,
  /// valid until the next TryParse/RecvFrame/ReadSome call) and the
  /// bytes consumed.
  Result<ConnEvent> TryParse(transport::Frame* frame);

  /// Blocking receive of the next frame (kUnsupported surfaces as a
  /// kUnsupported ConnEvent too). Used by the client.
  Result<ConnEvent> RecvFrame(transport::Frame* frame, int timeout_ms);

  void Close();

  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t bytes_received() const { return bytes_received_; }
  /// send() system calls made, including ones that would block.
  uint64_t sends() const { return sends_; }
  /// Frames queued for sending.
  uint64_t frames_out() const { return frames_out_; }

 private:
  int fd_ = -1;
  std::string label_;
  /// Received bytes; [0, rx_parsed_) are frames TryParse already
  /// returned. ReadSome drops them before appending.
  std::string rx_buffer_;
  size_t rx_parsed_ = 0;
  /// Queued bytes; [0, tx_sent_) already went out. FlushSome drops them
  /// once they are at least half the buffer, so draining is linear.
  std::string tx_buffer_;
  size_t tx_sent_ = 0;
  uint64_t bytes_sent_ = 0;
  uint64_t bytes_received_ = 0;
  uint64_t sends_ = 0;
  uint64_t frames_out_ = 0;
};

/// Listening localhost socket. Port 0 binds an ephemeral port.
class Listener {
 public:
  Listener() = default;
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  Status Bind(int port);
  /// Accepts one pending connection (non-blocking; call after poll).
  Result<FrameConn> Accept();
  int fd() const { return fd_; }
  int port() const { return port_; }
  void Close();

 private:
  int fd_ = -1;
  int port_ = 0;
};

/// Dial tuning for ConnectTcp. The connect loop retries with doubling
/// sleeps from initial_backoff_ms capped at max_backoff_ms until
/// timeout_ms expires.
struct DialOptions {
  int timeout_ms = 5000;
  int initial_backoff_ms = 5;
  int max_backoff_ms = 200;
};

/// Blocking localhost connect with retries (the daemon may still be
/// binding when a client starts).
Result<FrameConn> ConnectTcp(const std::string& host, int port,
                             const DialOptions& options);
Result<FrameConn> ConnectTcp(const std::string& host, int port,
                             int timeout_ms);

}  // namespace streamshare::serve

#endif  // STREAMSHARE_SERVE_NET_H_
