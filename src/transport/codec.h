// The item codec is the engine's (engine/codec.h): encoded result slots
// are written and decoded inside it. This header keeps its former
// transport-qualified names for servebench/loadgen.cc, which is built
// against them; new code includes engine/codec.h.

#ifndef STREAMSHARE_TRANSPORT_CODEC_H_
#define STREAMSHARE_TRANSPORT_CODEC_H_

#include "engine/codec.h"

namespace streamshare::transport {

using engine::ItemDecoder;
using engine::ItemEncoder;

}  // namespace streamshare::transport

#endif  // STREAMSHARE_TRANSPORT_CODEC_H_
