// LEB128 varints (7 bits per byte, high bit = more): the integer form of
// the item codec (engine/codec.h) and of every wire frame
// (transport/wire.h).

#ifndef STREAMSHARE_COMMON_VARINT_H_
#define STREAMSHARE_COMMON_VARINT_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace streamshare {

/// Appends `value` LEB128-encoded (7 bits per byte, high bit = more).
void PutVarint(std::string* out, uint64_t value);

/// Decodes a varint from [*pos, end). Advances *pos past it. False on
/// truncated or over-long (>10 byte) input.
bool GetVarint(const uint8_t** pos, const uint8_t* end, uint64_t* value);

/// Convenience over a string_view cursor: decodes a varint from the front
/// of *data and strips it. False on malformed input.
bool GetVarint(std::string_view* data, uint64_t* value);

}  // namespace streamshare

#endif  // STREAMSHARE_COMMON_VARINT_H_
