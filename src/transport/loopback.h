// In-process transport: frames are handed between ends as moved strings
// under a mutex — no serialization to a wire, no byte copies beyond the
// frame body itself. The default transport: the whole flow-control
// protocol without a socket.

#ifndef STREAMSHARE_TRANSPORT_LOOPBACK_H_
#define STREAMSHARE_TRANSPORT_LOOPBACK_H_

#include "transport/transport.h"

namespace streamshare::transport {

class LoopbackTransport final : public Transport {
 public:
  const char* name() const override { return "loopback"; }
  Status CreatePipe(const std::string& label, PipePair* pair) override;
};

}  // namespace streamshare::transport

#endif  // STREAMSHARE_TRANSPORT_LOOPBACK_H_
