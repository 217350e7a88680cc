#include "serve/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "engine/latency.h"
#include "serve/crashpoint.h"
#include "transport/wire.h"

namespace streamshare::serve {

namespace {

using engine::latency::NowUs;
using transport::GetVarint;
using transport::PutVarint;

/// 002: every logged registration carries its plan choices.
constexpr char kWalMagic[] = "SSWAL002";
constexpr size_t kWalMagicLen = sizeof(kWalMagic) - 1;
/// The version-independent part of the magic (see LoadCheckpoint).
constexpr std::string_view kWalMagicFamily = "SSWAL";
// magic + three 8-byte LE fields + 4-byte CRC of those 24 bytes.
constexpr size_t kWalHeaderLen = kWalMagicLen + 24 + 4;
// A record longer than this is treated as corruption, not a record.
constexpr uint64_t kMaxRecordLen = 16u << 20;

void PutLe32(std::string* out, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

void PutLe64(std::string* out, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

uint32_t GetLe32(std::string_view bytes) {
  uint32_t value = 0;
  for (int i = 3; i >= 0; --i) {
    value = (value << 8) | static_cast<unsigned char>(bytes[i]);
  }
  return value;
}

uint64_t GetLe64(std::string_view bytes) {
  uint64_t value = 0;
  for (int i = 7; i >= 0; --i) {
    value = (value << 8) | static_cast<unsigned char>(bytes[i]);
  }
  return value;
}

Status WriteAll(int fd, const char* data, size_t n) {
  size_t done = 0;
  while (done < n) {
    ssize_t wrote = ::write(fd, data + done, n - done);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("wal write failed: ") +
                              std::strerror(errno));
    }
    done += static_cast<size_t>(wrote);
  }
  return Status::Ok();
}

Status SyncFd(int fd, const std::string& path) {
  if (::fsync(fd) != 0) {
    return Status::Internal("fsync of " + path + " failed: " +
                            std::strerror(errno));
  }
  return Status::Ok();
}

Status SyncDirOf(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::Internal("cannot open directory " + dir + ": " +
                            std::strerror(errno));
  }
  Status synced = SyncFd(fd, dir);
  ::close(fd);
  return synced;
}

std::string EncodeWalPayload(const WalRecord& record) {
  std::string payload;
  PutVarint(&payload, static_cast<uint64_t>(record.kind));
  if (record.kind == WalRecord::Kind::kEvent) {
    AppendLogEvent(&payload, record.event);
  } else {
    PutVarint(&payload, record.items_fed);
  }
  return payload;
}

bool ParseWalPayload(std::string_view payload, WalRecord* record) {
  uint64_t kind = 0;
  if (!GetVarint(&payload, &kind)) return false;
  if (kind == static_cast<uint64_t>(WalRecord::Kind::kEvent)) {
    record->kind = WalRecord::Kind::kEvent;
    if (!ParseLogEvent(&payload, &record->event)) return false;
  } else if (kind == static_cast<uint64_t>(WalRecord::Kind::kFeed)) {
    record->kind = WalRecord::Kind::kFeed;
    if (!GetVarint(&payload, &record->items_fed)) return false;
  } else {
    return false;
  }
  return payload.empty();
}

}  // namespace

uint32_t Crc32(std::string_view bytes) {
  static const uint32_t* table = [] {
    static uint32_t entries[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) != 0 ? 0xedb88320u : 0u);
      }
      entries[i] = crc;
    }
    return entries;
  }();
  uint32_t crc = 0xffffffffu;
  for (char c : bytes) {
    crc = (crc >> 8) ^ table[(crc ^ static_cast<unsigned char>(c)) & 0xff];
  }
  return crc ^ 0xffffffffu;
}

std::string DefaultWalPath(const std::string& checkpoint_path) {
  return checkpoint_path + ".wal";
}

std::string EncodeWalRecord(const WalRecord& record) {
  std::string payload = EncodeWalPayload(record);
  std::string framed;
  framed.reserve(8 + payload.size());
  PutLe32(&framed, static_cast<uint32_t>(payload.size()));
  PutLe32(&framed, Crc32(payload));
  framed.append(payload);
  return framed;
}

WriteAheadLog::~WriteAheadLog() { Close(); }

WriteAheadLog::WriteAheadLog(WriteAheadLog&& other) noexcept
    : fd_(other.fd_),
      path_(std::move(other.path_)),
      counters_(other.counters_) {
  other.fd_ = -1;
}

WriteAheadLog& WriteAheadLog::operator=(WriteAheadLog&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    counters_ = other.counters_;
    other.fd_ = -1;
  }
  return *this;
}

void WriteAheadLog::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<WriteAheadLog> WriteAheadLog::Create(const std::string& path,
                                            const WalHeader& header) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal("cannot create wal " + path + ": " +
                            std::strerror(errno));
  }
  std::string fields;
  PutLe64(&fields, header.scenario_fingerprint);
  PutLe64(&fields, header.epoch);
  PutLe64(&fields, header.base_generation);
  std::string bytes(kWalMagic, kWalMagicLen);
  bytes.append(fields);
  PutLe32(&bytes, Crc32(fields));
  Status written = WriteAll(fd, bytes.data(), bytes.size());
  if (written.ok()) written = SyncFd(fd, path);
  if (!written.ok()) {
    ::close(fd);
    return written;
  }
  SS_RETURN_IF_ERROR(SyncDirOf(path));
  WriteAheadLog wal;
  wal.fd_ = fd;
  wal.path_ = path;
  return wal;
}

Status WriteAheadLog::Append(const WalRecord& record) {
  if (fd_ < 0) return Status::Internal("wal is not open");
  crashpoint::MaybeCrash(crashpoint::kWalPreAppend);
  std::string framed = EncodeWalRecord(record);
  // Two write halves with the mid-record crashpoint between them: the
  // first half genuinely reaches the kernel before the kill, producing a
  // real torn tail for recovery to truncate.
  size_t half = framed.size() / 2;
  SS_RETURN_IF_ERROR(WriteAll(fd_, framed.data(), half));
  crashpoint::MaybeCrash(crashpoint::kWalMidRecord);
  SS_RETURN_IF_ERROR(
      WriteAll(fd_, framed.data() + half, framed.size() - half));
  crashpoint::MaybeCrash(crashpoint::kWalPostAppendPreSync);
  uint64_t start = NowUs();
  SS_RETURN_IF_ERROR(SyncFd(fd_, path_));
  counters_.fsync_us += NowUs() - start;
  counters_.appends += 1;
  counters_.bytes += framed.size();
  return Status::Ok();
}

Result<WalRecovery> RecoverWal(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::NotFound("no wal at " + path);
  }
  std::string bytes;
  char chunk[16384];
  size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
    bytes.append(chunk, n);
  }
  std::fclose(file);

  WalRecovery recovery;
  std::string_view data = bytes;
  const std::string_view magic(kWalMagic, kWalMagicLen);
  if (data.size() >= kWalMagicLen && data.substr(0, kWalMagicLen) != magic &&
      data.substr(0, kWalMagicFamily.size()) == kWalMagicFamily) {
    return Status::ParseError(
        path + " is wal format " + std::string(data.substr(0, kWalMagicLen)) +
        "; this build reads " + std::string(magic) + " only (" +
        std::string(magic) + " logs each registration's plan choices)");
  }
  size_t magic_probe = std::min(data.size(), kWalMagicLen);
  if (data.substr(0, magic_probe) != magic.substr(0, magic_probe)) {
    return Status::ParseError(path + " is not a streamshare wal");
  }
  if (data.size() < kWalHeaderLen) {
    // Crash during Create: the log never held a record; the checkpoint
    // beside it is the complete durable history.
    recovery.torn_header = true;
    recovery.torn_tail = true;
    recovery.torn_bytes = data.size();
    return recovery;
  }
  std::string_view fields = data.substr(kWalMagicLen, 24);
  uint32_t crc = GetLe32(data.substr(kWalMagicLen + 24, 4));
  if (crc != Crc32(fields)) {
    recovery.torn_header = true;
    recovery.torn_tail = true;
    recovery.torn_bytes = data.size();
    return recovery;
  }
  recovery.header.scenario_fingerprint = GetLe64(fields.substr(0, 8));
  recovery.header.epoch = GetLe64(fields.substr(8, 8));
  recovery.header.base_generation = GetLe64(fields.substr(16, 8));
  recovery.valid_bytes = kWalHeaderLen;

  data.remove_prefix(kWalHeaderLen);
  while (!data.empty()) {
    // Any mismatch from here on is a torn tail: stop at the last fully
    // valid record — the prefix property ("acknowledged operations
    // replay exactly, nothing half-applies") is what recovery promises.
    if (data.size() < 8) break;
    uint64_t length = GetLe32(data.substr(0, 4));
    uint32_t want_crc = GetLe32(data.substr(4, 4));
    if (length > kMaxRecordLen || data.size() < 8 + length) break;
    std::string_view payload = data.substr(8, length);
    if (Crc32(payload) != want_crc) break;
    WalRecord record;
    if (!ParseWalPayload(payload, &record)) break;
    recovery.records.push_back(std::move(record));
    recovery.valid_bytes += 8 + length;
    data.remove_prefix(8 + length);
  }
  recovery.torn_bytes = bytes.size() - recovery.valid_bytes;
  recovery.torn_tail = recovery.torn_bytes != 0;
  return recovery;
}

}  // namespace streamshare::serve
