#include "transport/tcp.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

namespace streamshare::transport {

namespace {

using Clock = std::chrono::steady_clock;

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + strerror(errno));
}

class TcpPipeEnd final : public PipeEnd {
 public:
  TcpPipeEnd(int fd, std::string label)
      : fd_(fd), label_(std::move(label)) {}

  ~TcpPipeEnd() override { Close(); }

  Status SendFrame(FrameType type, std::string_view body,
                   uint8_t version) override {
    if (fd_ < 0) return Status::Unavailable(label_ + ": pipe closed");
    std::string frame;
    frame.reserve(body.size() + 12);
    AppendFrame(&frame, type, body, version);
    size_t off = 0;
    while (off < frame.size()) {
      // MSG_NOSIGNAL: a vanished peer must surface as a Status, not a
      // process-killing SIGPIPE.
      ssize_t n = ::send(fd_, frame.data() + off, frame.size() - off,
                         MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EPIPE || errno == ECONNRESET) {
          return Status::Unavailable(label_ + ": peer closed connection");
        }
        return Errno(label_ + ": send");
      }
      off += static_cast<size_t>(n);
    }
    bytes_sent_ += frame.size();
    return Status::Ok();
  }

  Status RecvFrame(FrameType* type, std::string* body, int timeout_ms,
                   uint8_t* version) override {
    if (fd_ < 0) return Status::Unavailable(label_ + ": pipe closed");
    Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    while (true) {
      Frame frame;
      size_t consumed = 0;
      switch (ParseFrame(rx_buffer_, &frame, &consumed)) {
        case ParseResult::kFrame:
          *type = frame.type;
          if (version != nullptr) *version = frame.version;
          body->assign(frame.body);
          rx_buffer_.erase(0, consumed);
          return Status::Ok();
        case ParseResult::kMalformed:
          return Status::ParseError(label_ +
                                    ": malformed frame on TCP stream");
        case ParseResult::kUnsupported:
          // Data-plane pipes connect peers of the same build; a frame we
          // cannot dispatch here is a protocol error, not something to
          // skip. (The serve control loop answers these instead.)
          return Status::Unsupported(
              label_ + ": unsupported frame (version " +
              std::to_string(frame.version) + ", type " +
              std::to_string(frame.raw_type) + ") on TCP stream");
        case ParseResult::kNeedMore:
          break;
      }
      int wait_ms = -1;
      if (timeout_ms >= 0) {
        auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - Clock::now());
        wait_ms = static_cast<int>(left.count());
        if (wait_ms < 0) wait_ms = 0;
      }
      struct pollfd pfd = {fd_, POLLIN, 0};
      int ready = ::poll(&pfd, 1, wait_ms);
      if (ready < 0) {
        if (errno == EINTR) continue;
        return Errno(label_ + ": poll");
      }
      if (ready == 0) {
        return Status::DeadlineExceeded(label_ + ": recv timed out");
      }
      char chunk[16384];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == ECONNRESET) {
          return Status::Unavailable(label_ + ": peer closed connection");
        }
        return Errno(label_ + ": recv");
      }
      if (n == 0) {
        return rx_buffer_.empty()
                   ? Status::Unavailable(label_ + ": peer closed connection")
                   : Status::Unavailable(
                         label_ + ": connection closed mid-frame");
      }
      rx_buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  void Close() override {
    // Plain close: each end is driven by one thread, so nobody is
    // blocked on this fd when it closes; the peer sees EOF once it is
    // gone.
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  uint64_t wire_bytes_sent() const override { return bytes_sent_; }

 private:
  int fd_;
  std::string label_;
  std::string rx_buffer_;
  uint64_t bytes_sent_ = 0;
};

Status SetNoDelay(int fd) {
  int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
    return Errno("setsockopt(TCP_NODELAY)");
  }
  return Status::Ok();
}

}  // namespace

Status TcpTransport::CreatePipe(const std::string& label, PipePair* pair) {
  int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) return Errno(label + ": socket");
  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  if (::bind(listener, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listener, 1) != 0) {
    Status status = Errno(label + ": bind/listen");
    ::close(listener);
    return status;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listener, reinterpret_cast<struct sockaddr*>(&addr),
                    &addr_len) != 0) {
    Status status = Errno(label + ": getsockname");
    ::close(listener);
    return status;
  }

  int client = -1;
  for (int attempt = 0; attempt <= options_.connect_retries; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(attempt * options_.connect_backoff_ms));
    }
    client = ::socket(AF_INET, SOCK_STREAM, 0);
    if (client < 0) {
      Status status = Errno(label + ": socket");
      ::close(listener);
      return status;
    }
    if (::connect(client, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      break;
    }
    Status status = Errno(label + ": connect");
    ::close(client);
    client = -1;
    if (attempt == options_.connect_retries) {
      ::close(listener);
      return status.WithContext("after " + std::to_string(attempt + 1) +
                                " attempts");
    }
  }
  int server = ::accept(listener, nullptr, nullptr);
  ::close(listener);
  if (server < 0) {
    Status status = Errno(label + ": accept");
    ::close(client);
    return status;
  }
  Status nodelay = SetNoDelay(client);
  if (nodelay.ok()) nodelay = SetNoDelay(server);
  if (!nodelay.ok()) {
    ::close(client);
    ::close(server);
    return nodelay;
  }
  pair->ends[0] = std::make_unique<TcpPipeEnd>(client, label + "[0]");
  pair->ends[1] = std::make_unique<TcpPipeEnd>(server, label + "[1]");
  return Status::Ok();
}

}  // namespace streamshare::transport
