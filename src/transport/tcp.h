// Localhost TCP transport. Every pipe is one TCP connection on
// 127.0.0.1 (an ephemeral listener per pipe, closed after the
// connect/accept handshake), so every frame crosses a real socket with
// its kernel buffering, partial reads and teardown — this is what backs
// `streamshare_sim --transport=tcp`, one worker thread per super-peer
// partition.

#ifndef STREAMSHARE_TRANSPORT_TCP_H_
#define STREAMSHARE_TRANSPORT_TCP_H_

#include "transport/transport.h"

namespace streamshare::transport {

struct TcpOptions {
  /// connect() attempts beyond the first before giving up. The
  /// listener exists before connect is issued, so on a healthy host the
  /// first attempt succeeds; retries absorb transient refusals under
  /// load (backlog overflow) instead of failing the whole run.
  int connect_retries = 2;
  /// Backoff added per retry: retry k sleeps k * this before connecting.
  int connect_backoff_ms = 20;
};

class TcpTransport final : public Transport {
 public:
  explicit TcpTransport(TcpOptions options = {}) : options_(options) {}

  const char* name() const override { return "tcp"; }
  Status CreatePipe(const std::string& label, PipePair* pair) override;

 private:
  TcpOptions options_;
};

}  // namespace streamshare::transport

#endif  // STREAMSHARE_TRANSPORT_TCP_H_
