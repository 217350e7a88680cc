#include "common/varint.h"

namespace streamshare {

void PutVarint(std::string* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

bool GetVarint(const uint8_t** pos, const uint8_t* end, uint64_t* value) {
  uint64_t result = 0;
  int shift = 0;
  const uint8_t* p = *pos;
  while (p < end && shift < 64) {
    uint8_t byte = *p++;
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *pos = p;
      *value = result;
      return true;
    }
    shift += 7;
  }
  return false;  // truncated, or continuation bits past 64 bits
}

bool GetVarint(std::string_view* data, uint64_t* value) {
  const uint8_t* pos = reinterpret_cast<const uint8_t*>(data->data());
  const uint8_t* end = pos + data->size();
  if (!GetVarint(&pos, end, value)) return false;
  data->remove_prefix(
      static_cast<size_t>(pos -
                          reinterpret_cast<const uint8_t*>(data->data())));
  return true;
}

}  // namespace streamshare
