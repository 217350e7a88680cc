#include "transport/wire.h"

namespace streamshare::transport {

namespace {

bool KnownFrameType(uint8_t type) {
  switch (static_cast<FrameType>(type)) {
    case FrameType::kEos:
    case FrameType::kControl:
    case FrameType::kControlAck:
    case FrameType::kResult:
      return true;
  }
  return false;
}

}  // namespace

void AppendFrame(std::string* out, FrameType type, std::string_view body,
                 uint8_t version) {
  PutVarint(out, body.size() + 2);  // version + type
  out->push_back(static_cast<char>(version));
  out->push_back(static_cast<char>(type));
  out->append(body);
}

ParseResult ParseFrame(std::string_view buffer, Frame* frame,
                       size_t* consumed) {
  std::string_view rest = buffer;
  uint64_t length = 0;
  if (!GetVarint(&rest, &length)) {
    // A varint never needs more than 10 bytes; more without termination
    // means garbage, not a short read.
    return buffer.size() >= 10 ? ParseResult::kMalformed
                               : ParseResult::kNeedMore;
  }
  if (length < 2 || length > kMaxFramePayload + 2) {
    return ParseResult::kMalformed;
  }
  if (rest.size() < length) return ParseResult::kNeedMore;
  uint8_t version = static_cast<uint8_t>(rest[0]);
  uint8_t type = static_cast<uint8_t>(rest[1]);
  frame->raw_type = type;
  frame->version = version;
  frame->body = rest.substr(2, length - 2);
  *consumed = (buffer.size() - rest.size()) + length;
  // The length prefix framed this correctly, so an unknown version or
  // type is a vocabulary mismatch, not corruption: report it skippable
  // and let the receiver answer with a decodable error.
  if (version < kBaseWireVersion || version > kWireVersion ||
      !KnownFrameType(type)) {
    return ParseResult::kUnsupported;
  }
  frame->type = static_cast<FrameType>(type);
  return ParseResult::kFrame;
}

}  // namespace streamshare::transport
