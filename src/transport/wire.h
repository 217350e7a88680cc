// Binary wire format of the service plane (serve/): LEB128 varints and
// length-prefixed, versioned frames. A frame on the wire is
//
//   varint(payload length) | version u8 | type u8 | body
//
// where the length covers version, type, and body. Frame bodies:
//
//   CONTROL  varint request id | varint verb | verb payload (serve/control.h)
//   ACK      varint request id | varint status code | varint message length |
//            message | verb payload
//   RESULT   varint query id | varint seq | stamp extension | encoded item
//            (engine/codec.h)
//   EOS      varint results forwarded | varint final (serve/control.h)
//
// The stamp extension is varint flags | varint send tick µs |
// varint (send tick − earlier tick) | varint queue µs | varint transport µs;
// flags bit 0 marks a stamped item, and the encoding is stateless per
// frame. Version 2 only exists to carry it: RESULT frames are emitted at
// version 2, every other frame at version 1. Type codes 1, 3 and 4 belonged
// to the retired DATA, CREDIT and ERROR frames and now parse as unknown.
//
// See docs/TRANSPORT.md for the full format table.

#ifndef STREAMSHARE_TRANSPORT_WIRE_H_
#define STREAMSHARE_TRANSPORT_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/varint.h"

namespace streamshare::transport {

/// Base frame layout every peer speaks; every frame without the stamp
/// extension is emitted at this version.
inline constexpr uint8_t kBaseWireVersion = 1;

/// Highest version this build emits or parses; a receiver rejects frames
/// whose version it does not speak. Version 2 = frames carrying the
/// latency-stamp extension.
inline constexpr uint8_t kWireVersion = 2;

/// Largest payload a receiver accepts — a corrupted length prefix must
/// not make it allocate gigabytes.
inline constexpr uint64_t kMaxFramePayload = 64ull * 1024 * 1024;

/// Type bytes 1, 3 and 4 belonged to retired frame types; they parse as
/// kUnsupported like any other unknown type.
enum class FrameType : uint8_t {
  kEos = 2,
  // Request/response control channel and the per-query result stream a
  // daemon forwards to attached clients.
  kControl = 5,
  kControlAck = 6,
  kResult = 7,
};


// The varints every frame is built from (common/varint.h).
using ::streamshare::GetVarint;
using ::streamshare::PutVarint;

/// Appends one whole frame (length prefix, version, type, body).
void AppendFrame(std::string* out, FrameType type, std::string_view body,
                 uint8_t version = kBaseWireVersion);

/// One parsed frame; `body` aliases the parse buffer. On kUnsupported,
/// `raw_type` and `version` hold the peer's bytes verbatim (`type` is
/// meaningless) so a receiver can name what it is rejecting.
struct Frame {
  FrameType type = FrameType::kControl;
  uint8_t raw_type = 0;
  uint8_t version = kBaseWireVersion;
  std::string_view body;
};

/// Outcome of trying to parse a frame from a byte buffer.
enum class ParseResult {
  kFrame,        // *frame filled, *consumed bytes used
  kNeedMore,     // buffer holds only a frame prefix so far
  kUnsupported,  // well-framed but unknown version or type; *consumed is
                 // set — skip it and answer, the stream is still usable
  kMalformed,    // bad length prefix — the stream is unusable
};

/// Parses the first frame of `buffer`. On kFrame, `frame->body` points
/// into `buffer` and `*consumed` is the total encoded size.
ParseResult ParseFrame(std::string_view buffer, Frame* frame,
                       size_t* consumed);

}  // namespace streamshare::transport

#endif  // STREAMSHARE_TRANSPORT_WIRE_H_
