#include "serve/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>

#include "serve/crashpoint.h"
#include "transport/wire.h"

namespace streamshare::serve {

namespace {

using transport::GetVarint;
using transport::PutVarint;

/// 03: every logged registration carries its plan choices.
constexpr char kMagic[] = "SSCKPT03";
constexpr size_t kMagicLen = sizeof(kMagic) - 1;
/// The version-independent part of the magic: a file that starts with it
/// but carries another version is a checkpoint this build cannot read.
constexpr std::string_view kMagicFamily = "SSCKPT";

uint64_t Mix(uint64_t h, uint64_t v) {
  // splitmix64 finalizer as the fold step.
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  uint64_t z = h;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t MixString(uint64_t h, std::string_view text) {
  h = Mix(h, text.size());
  for (char c : text) h = Mix(h, static_cast<unsigned char>(c));
  return h;
}

uint64_t MixDouble(uint64_t h, double value) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return Mix(h, bits);
}

void PutString(std::string* out, std::string_view text) {
  PutVarint(out, text.size());
  out->append(text);
}

bool GetString(std::string_view* data, std::string* out) {
  uint64_t length = 0;
  if (!GetVarint(data, &length) || data->size() < length) return false;
  out->assign(data->substr(0, length));
  data->remove_prefix(length);
  return true;
}

uint64_t Zig(int64_t value) {
  return (static_cast<uint64_t>(value) << 1) ^
         static_cast<uint64_t>(value >> 63);
}

int64_t Unzig(uint64_t value) {
  return static_cast<int64_t>((value >> 1) ^ (~(value & 1) + 1));
}

/// Stream and node ids are ints; a wider logged value is corrupt.
bool FitsInt(int64_t value) {
  return value >= std::numeric_limits<int>::min() &&
         value <= std::numeric_limits<int>::max();
}

bool GetSigned(std::string_view* data, int64_t* out) {
  uint64_t raw = 0;
  if (!GetVarint(data, &raw)) return false;
  *out = Unzig(raw);
  return true;
}

}  // namespace

uint64_t ScenarioFingerprint(const workload::ScenarioSpec& scenario) {
  uint64_t h = 0x5353464Eull;  // "SSFN"
  h = MixString(h, scenario.name);
  h = Mix(h, scenario.topology.peer_count());
  h = Mix(h, scenario.topology.link_count());
  for (const network::Link& link : scenario.topology.links()) {
    h = Mix(h, static_cast<uint64_t>(link.a));
    h = Mix(h, static_cast<uint64_t>(link.b));
    h = MixDouble(h, link.bandwidth_kbps);
  }
  for (const network::Peer& peer : scenario.topology.peers()) {
    h = MixString(h, peer.name);
    h = MixDouble(h, peer.max_load);
  }
  h = Mix(h, scenario.streams.size());
  for (const workload::StreamSpec& stream : scenario.streams) {
    h = MixString(h, stream.name);
    h = Mix(h, static_cast<uint64_t>(stream.source));
    h = Mix(h, stream.gen.seed);
    h = MixDouble(h, stream.gen.frequency_hz);
    h = MixDouble(h, stream.gen.det_time_increment_mean);
    h = Mix(h, stream.gen.hot_regions.size());
    for (const workload::SkyBox& box : stream.gen.hot_regions) {
      h = MixDouble(h, box.ra_min);
      h = MixDouble(h, box.ra_max);
      h = MixDouble(h, box.dec_min);
      h = MixDouble(h, box.dec_max);
    }
    for (double weight : stream.gen.hot_weights) {
      h = MixDouble(h, weight);
    }
  }
  return h == 0 ? 1 : h;
}

namespace {

/// Fsyncs the directory holding `path`, making a just-renamed entry
/// durable (the rename itself lives in directory metadata).
Status SyncParentDir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::Internal("cannot open directory " + dir + ": " +
                            std::strerror(errno));
  }
  int synced = ::fsync(fd);
  ::close(fd);
  if (synced != 0) {
    return Status::Internal("fsync of directory " + dir + " failed: " +
                            std::strerror(errno));
  }
  return Status::Ok();
}

/// The crash-atomic writer: temp file in the same directory, fsync the
/// file, rename over the target, fsync the directory. `fail_after_bytes`
/// is the unit-test fault seam — writing stops there and the call errors
/// out with the partial temp file left behind, exactly what a crash
/// mid-write leaves.
Status WriteFileAtomic(const std::string& path, std::string_view bytes,
                       size_t fail_after_bytes) {
  std::string temp = path + ".tmp";
  crashpoint::MaybeCrash(crashpoint::kCkptPreTempWrite);
  int fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal("cannot write checkpoint " + temp + ": " +
                            std::strerror(errno));
  }
  // Two write halves with the mid-write crashpoint between them: the
  // bytes of the first half really reach the kernel before the kill.
  size_t total = std::min(bytes.size(), fail_after_bytes);
  size_t half = total / 2;
  auto write_all = [fd](const char* data, size_t n) {
    size_t done = 0;
    while (done < n) {
      ssize_t wrote = ::write(fd, data + done, n - done);
      if (wrote < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      done += static_cast<size_t>(wrote);
    }
    return true;
  };
  bool ok = write_all(bytes.data(), half);
  crashpoint::MaybeCrash(crashpoint::kCkptMidTempWrite);
  ok = ok && write_all(bytes.data() + half, total - half);
  if (fail_after_bytes < bytes.size()) {
    // Fault injection: die here (without cleanup — a crash would not
    // clean up either).
    ::close(fd);
    return Status::Internal("fault injection: checkpoint write stopped after " +
                            std::to_string(total) + " bytes");
  }
  ok = ok && ::fsync(fd) == 0;
  ::close(fd);
  if (!ok) {
    std::remove(temp.c_str());
    return Status::Internal("short write on checkpoint " + temp);
  }
  crashpoint::MaybeCrash(crashpoint::kCkptPreRename);
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    std::remove(temp.c_str());
    return Status::Internal("cannot rename checkpoint into place: " +
                            std::string(std::strerror(errno)));
  }
  return SyncParentDir(path);
}

std::string EncodeCheckpoint(const Checkpoint& checkpoint) {
  std::string out(kMagic, kMagicLen);
  PutVarint(&out, checkpoint.scenario_fingerprint);
  PutVarint(&out, checkpoint.epoch);
  PutVarint(&out, checkpoint.generation);
  PutVarint(&out, checkpoint.items_fed);
  PutVarint(&out, checkpoint.events.size());
  for (const LogEvent& event : checkpoint.events) {
    AppendLogEvent(&out, event);
  }
  PutVarint(&out, checkpoint.deliveries.size());
  for (const DeliverySnapshot& delivery : checkpoint.deliveries) {
    PutVarint(&out, Zig(delivery.query_id));
    PutVarint(&out, delivery.items);
    PutVarint(&out, delivery.content_hash);
  }
  return out;
}

}  // namespace

void AppendLogEvent(std::string* out, const LogEvent& event) {
  PutVarint(out, static_cast<uint64_t>(event.kind));
  PutVarint(out, event.at_items);
  switch (event.kind) {
    case LogEvent::Kind::kSubscribe:
      PutVarint(out, Zig(event.vq));
      PutVarint(out, event.strategy);
      PutString(out, event.query_text);
      PutVarint(out, event.choices.size());
      for (const sharing::PlanChoice& choice : event.choices) {
        PutVarint(out, static_cast<uint64_t>(choice.kind));
        PutVarint(out, Zig(choice.stream));
        PutVarint(out, Zig(choice.node));
      }
      break;
    case LogEvent::Kind::kUnsubscribe:
      PutVarint(out, Zig(event.query_id));
      break;
    case LogEvent::Kind::kFailPeer:
      PutVarint(out, Zig(event.peer));
      break;
    case LogEvent::Kind::kCutLink:
      PutVarint(out, Zig(event.link_a));
      PutVarint(out, Zig(event.link_b));
      break;
    case LogEvent::Kind::kReoptimize:
      PutVarint(out, Zig(event.max_migrations));
      break;
  }
}

bool ParseLogEvent(std::string_view* data, LogEvent* event) {
  uint64_t kind = 0, strategy = 0;
  if (!GetVarint(data, &kind) || !GetVarint(data, &event->at_items)) {
    return false;
  }
  if (kind < static_cast<uint64_t>(LogEvent::Kind::kSubscribe) ||
      kind > static_cast<uint64_t>(LogEvent::Kind::kReoptimize)) {
    return false;
  }
  event->kind = static_cast<LogEvent::Kind>(kind);
  switch (event->kind) {
    case LogEvent::Kind::kSubscribe: {
      uint64_t count = 0;
      if (!GetSigned(data, &event->vq) || !GetVarint(data, &strategy) ||
          !GetString(data, &event->query_text) ||
          !GetVarint(data, &count) || count > data->size()) {
        return false;
      }
      event->strategy = static_cast<uint8_t>(strategy);
      event->choices.clear();
      event->choices.reserve(count);
      for (uint64_t i = 0; i < count; ++i) {
        uint64_t kind = 0;
        int64_t stream = 0, node = 0;
        if (!GetVarint(data, &kind) ||
            kind > static_cast<uint64_t>(sharing::PlanChoice::Kind::kWiden) ||
            !GetSigned(data, &stream) || !GetSigned(data, &node) ||
            !FitsInt(stream) || !FitsInt(node)) {
          return false;
        }
        sharing::PlanChoice choice;
        choice.kind = static_cast<sharing::PlanChoice::Kind>(kind);
        choice.stream = static_cast<network::StreamId>(stream);
        choice.node = static_cast<network::NodeId>(node);
        event->choices.push_back(choice);
      }
      break;
    }
    case LogEvent::Kind::kUnsubscribe:
      if (!GetSigned(data, &event->query_id)) return false;
      break;
    case LogEvent::Kind::kFailPeer:
      if (!GetSigned(data, &event->peer)) return false;
      break;
    case LogEvent::Kind::kCutLink:
      if (!GetSigned(data, &event->link_a) ||
          !GetSigned(data, &event->link_b)) {
        return false;
      }
      break;
    case LogEvent::Kind::kReoptimize:
      if (!GetSigned(data, &event->max_migrations)) return false;
      break;
  }
  return true;
}

Status SaveCheckpoint(const std::string& path,
                      const Checkpoint& checkpoint) {
  return WriteFileAtomic(path, EncodeCheckpoint(checkpoint),
                         static_cast<size_t>(-1));
}

Status SaveCheckpointFaulted(const std::string& path,
                             const Checkpoint& checkpoint,
                             size_t fail_after_bytes) {
  std::string encoded = EncodeCheckpoint(checkpoint);
  if (fail_after_bytes >= encoded.size()) {
    return Status::InvalidArgument(
        "fault offset past the end of the encoding (" +
        std::to_string(encoded.size()) + " bytes) would not fault");
  }
  return WriteFileAtomic(path, encoded, fail_after_bytes);
}

Result<Checkpoint> LoadCheckpoint(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::NotFound("no checkpoint at " + path);
  }
  std::string bytes;
  char chunk[16384];
  size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
    bytes.append(chunk, n);
  }
  std::fclose(file);

  std::string_view data = bytes;
  const std::string_view magic(kMagic, kMagicLen);
  if (data.size() >= kMagicLen && data.substr(0, kMagicLen) != magic &&
      data.substr(0, kMagicFamily.size()) == kMagicFamily) {
    return Status::ParseError(
        path + " is checkpoint format " +
        std::string(data.substr(0, kMagicLen)) + "; this build reads " +
        std::string(magic) + " only (" + std::string(magic) +
        " logs each registration's plan choices)");
  }
  if (data.size() < kMagicLen || data.substr(0, kMagicLen) != magic) {
    return Status::ParseError(path + " is not a streamshare checkpoint");
  }
  data.remove_prefix(kMagicLen);

  auto truncated = [&path]() {
    return Status::ParseError("truncated checkpoint " + path);
  };
  Checkpoint checkpoint;
  uint64_t event_count = 0;
  if (!GetVarint(&data, &checkpoint.scenario_fingerprint) ||
      !GetVarint(&data, &checkpoint.epoch) ||
      !GetVarint(&data, &checkpoint.generation) ||
      !GetVarint(&data, &checkpoint.items_fed) ||
      !GetVarint(&data, &event_count)) {
    return truncated();
  }
  checkpoint.events.reserve(event_count);
  for (uint64_t i = 0; i < event_count; ++i) {
    LogEvent event;
    if (!ParseLogEvent(&data, &event)) return truncated();
    checkpoint.events.push_back(std::move(event));
  }
  uint64_t delivery_count = 0;
  if (!GetVarint(&data, &delivery_count)) return truncated();
  checkpoint.deliveries.reserve(delivery_count);
  for (uint64_t i = 0; i < delivery_count; ++i) {
    DeliverySnapshot delivery;
    if (!GetSigned(&data, &delivery.query_id) ||
        !GetVarint(&data, &delivery.items) ||
        !GetVarint(&data, &delivery.content_hash)) {
      return truncated();
    }
    checkpoint.deliveries.push_back(delivery);
  }
  if (!data.empty()) {
    return Status::ParseError("trailing bytes in checkpoint " + path);
  }
  return checkpoint;
}

}  // namespace streamshare::serve
