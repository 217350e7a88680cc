#include "engine/latency.h"

#include <chrono>

namespace streamshare::engine::latency {

uint64_t NowUs() {
  auto now = std::chrono::steady_clock::now().time_since_epoch();
  uint64_t us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(now).count());
  // 0 means "unstamped"; the steady clock could in principle read 0 in
  // the first microsecond after boot.
  return us == 0 ? 1 : us;
}

}  // namespace streamshare::engine::latency
