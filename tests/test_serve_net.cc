// FrameConn buffer behavior: many frames plus a trailing partial frame
// parsed out of one read and a multi-megabyte send buffer drained across
// partial sends. Also the daemon's RESULT body (AppendResultFrameHeader
// then the item, in one reused buffer) byte-identical to
// EncodeResultFrame.

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "serve/control.h"
#include "serve/net.h"
#include "transport/wire.h"

namespace streamshare::serve {
namespace {

/// A connected non-blocking AF_UNIX stream pair wrapped as FrameConns.
std::pair<FrameConn, FrameConn> SocketPair() {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  for (int fd : fds) {
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  }
  return {FrameConn(fds[0], "left"), FrameConn(fds[1], "right")};
}

/// Body of the i-th test frame: varying lengths, content tied to `i`.
std::string Body(size_t i, size_t base_len) {
  std::string body(base_len + i % 97, '\0');
  for (size_t b = 0; b < body.size(); ++b) {
    body[b] = static_cast<char>('a' + (i * 7 + b) % 26);
  }
  return body;
}

bool WaitReadable(int fd, int timeout_ms) {
  struct pollfd pfd = {fd, POLLIN, 0};
  return ::poll(&pfd, 1, timeout_ms) == 1;
}

TEST(ServeNet, ManyFramesAndTrailingPartialFromOneRead) {
  auto [writer, reader] = SocketPair();
  constexpr size_t kFrames = 2000;
  std::string wire;
  for (size_t i = 0; i < kFrames; ++i) {
    transport::AppendFrame(&wire, transport::FrameType::kResult,
                           Body(i, 20));
  }
  std::string last;
  transport::AppendFrame(&last, transport::FrameType::kResult,
                         Body(kFrames, 300));
  size_t split = last.size() / 2;
  wire.append(last, 0, split);
  // One write; the whole blob sits in the socket before the read.
  ASSERT_EQ(::send(writer.fd(), wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));

  ASSERT_TRUE(WaitReadable(reader.fd(), 5000));
  ASSERT_TRUE(reader.ReadSome().ok());
  ASSERT_EQ(reader.bytes_received(), wire.size());
  for (size_t i = 0; i < kFrames; ++i) {
    transport::Frame frame;
    auto event = reader.TryParse(&frame);
    ASSERT_TRUE(event.ok()) << event.status();
    ASSERT_EQ(*event, ConnEvent::kFrame) << "frame " << i;
    ASSERT_EQ(frame.type, transport::FrameType::kResult);
    ASSERT_EQ(frame.body, Body(i, 20)) << "frame " << i;
  }
  transport::Frame frame;
  auto event = reader.TryParse(&frame);
  ASSERT_TRUE(event.ok());
  EXPECT_EQ(*event, ConnEvent::kNeedMore);

  // The rest of the partial frame completes it.
  ASSERT_EQ(::send(writer.fd(), last.data() + split, last.size() - split,
                   0),
            static_cast<ssize_t>(last.size() - split));
  event = reader.RecvFrame(&frame, 5000);
  ASSERT_TRUE(event.ok()) << event.status();
  ASSERT_EQ(*event, ConnEvent::kFrame);
  EXPECT_EQ(frame.body, Body(kFrames, 300));
  event = reader.TryParse(&frame);
  ASSERT_TRUE(event.ok());
  EXPECT_EQ(*event, ConnEvent::kNeedMore);
}

TEST(ServeNet, MultiMegabyteSendBufferDrainsAcrossPartialSends) {
  Listener listener;
  ASSERT_TRUE(listener.Bind(0).ok());
  auto sender = ConnectTcp("127.0.0.1", listener.port(), 5000);
  ASSERT_TRUE(sender.ok()) << sender.status();
  ASSERT_TRUE(WaitReadable(listener.fd(), 5000));
  auto receiver = listener.Accept();
  ASSERT_TRUE(receiver.ok()) << receiver.status();
  // A small send buffer forces many partial sends.
  int sndbuf = 8192;
  ASSERT_EQ(::setsockopt(sender->fd(), SOL_SOCKET, SO_SNDBUF, &sndbuf,
                         sizeof(sndbuf)),
            0);

  constexpr size_t kFrames = 500;  // about 2 MB
  uint64_t queued = 0;
  for (size_t i = 0; i < kFrames; ++i) {
    std::string body = Body(i, 4000);
    ASSERT_TRUE(
        sender->QueueFrame(transport::FrameType::kResult, body).ok());
    queued += body.size();
  }
  EXPECT_EQ(sender->frames_out(), kFrames);
  EXPECT_EQ(sender->sends(), 0u) << "QueueFrame must not write";

  size_t received = 0;
  int partial_flushes = 0;
  while (received < kFrames) {
    if (sender->has_pending_output()) {
      ASSERT_TRUE(sender->FlushSome().ok());
      if (sender->has_pending_output()) ++partial_flushes;
    }
    // Either side may be the one that can move: the receiver has bytes,
    // or acknowledged bytes freed the sender's buffer.
    struct pollfd pfds[2] = {
        {receiver->fd(), POLLIN, 0},
        {sender->fd(),
         static_cast<short>(sender->has_pending_output() ? POLLOUT : 0), 0}};
    ASSERT_GT(::poll(pfds, 2, 5000), 0)
        << "stalled after " << received << " frames";
    if ((pfds[0].revents & POLLIN) == 0) continue;
    ASSERT_TRUE(receiver->ReadSome().ok());
    while (true) {
      transport::Frame frame;
      auto event = receiver->TryParse(&frame);
      ASSERT_TRUE(event.ok()) << event.status();
      if (*event == ConnEvent::kNeedMore) break;
      ASSERT_EQ(frame.body, Body(received, 4000)) << "frame " << received;
      ++received;
    }
  }
  EXPECT_FALSE(sender->has_pending_output());
  EXPECT_GT(partial_flushes, 1);
  EXPECT_GT(sender->sends(), static_cast<uint64_t>(partial_flushes));
  EXPECT_EQ(sender->bytes_sent(), receiver->bytes_received());
  EXPECT_GT(sender->bytes_sent(), queued);
}

TEST(ServeNet, ResultFrameHeaderPlusItemMatchesEncodeResultFrame) {
  std::vector<std::string> items = {"", std::string(200, 'x'),
                                    std::string(20000, 'y')};
  // Reused across frames, as the daemon's forwarding pass does.
  std::string body = "stale bytes of an earlier frame";
  for (size_t i = 0; i < items.size(); ++i) {
    int64_t query_id = 3 + static_cast<int64_t>(i);
    uint64_t seq = 1000 * i, delivery_us = 5'000'000 + i;
    uint64_t send_us = delivery_us + 77;
    body.clear();
    AppendResultFrameHeader(&body, query_id, seq, delivery_us, send_us);
    body.append(items[i]);
    EXPECT_EQ(body, EncodeResultFrame(query_id, seq, delivery_us, send_us,
                                      items[i]))
        << "item " << i;
    auto decoded = DecodeResultFrame(body);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->query_id, query_id);
    EXPECT_EQ(decoded->seq, seq);
    EXPECT_EQ(decoded->residency_us, 77u);
    EXPECT_EQ(decoded->item, items[i]);
  }
}

}  // namespace
}  // namespace streamshare::serve
