// The durability plane's on-disk formats under deliberate damage. The
// WAL round-trips every record kind; then a recorded log is truncated
// at EVERY byte boundary and each record's CRC (and every payload byte)
// is bit-flipped, and recovery must hand back an exact prefix of the
// appended records or a decodable refusal — never a crash, a hang, or a
// silently divergent record. The checkpoint writer's fault seam
// (SaveCheckpointFaulted) proves the crash-atomicity half: a write that
// dies at any byte of the temp file leaves the previous checkpoint
// loadable and intact.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "serve/checkpoint.h"
#include "serve/wal.h"
#include "transport/wire.h"

namespace streamshare::serve {
namespace {

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "ss_wal_" + name;
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  ASSERT_EQ(std::fclose(f), 0);
}

std::string ReadBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::string bytes;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.append(buf, n);
  }
  std::fclose(f);
  return bytes;
}

/// One plan choice of every kind, as a three-input registration logs them.
std::vector<sharing::PlanChoice> SampleChoices() {
  using Kind = sharing::PlanChoice::Kind;
  return {{Kind::kShipRaw, 0, 3}, {Kind::kTap, 17, 5}, {Kind::kWiden, 300, 0}};
}

/// One record of every kind the daemon ever appends, with every LogEvent
/// field exercised somewhere.
std::vector<WalRecord> SampleRecords() {
  std::vector<WalRecord> records;

  LogEvent sub;
  sub.kind = LogEvent::Kind::kSubscribe;
  sub.at_items = 7;
  sub.query_text = "/site/detector[energy > 3]/photon";
  sub.vq = 3;
  sub.strategy = 2;
  sub.choices = SampleChoices();
  records.push_back(WalRecord::Event(sub));

  LogEvent shipped;
  shipped.kind = LogEvent::Kind::kSubscribe;
  shipped.at_items = 7;
  shipped.query_text = "/site/detector/photon";
  shipped.vq = 0;
  shipped.strategy = 0;  // data shipping logs no choices
  records.push_back(WalRecord::Event(shipped));

  records.push_back(WalRecord::Feed(13));

  LogEvent fail;
  fail.kind = LogEvent::Kind::kFailPeer;
  fail.at_items = 13;
  fail.peer = 4;
  records.push_back(WalRecord::Event(fail));

  LogEvent cut;
  cut.kind = LogEvent::Kind::kCutLink;
  cut.at_items = 20;
  cut.link_a = 0;
  cut.link_b = 2;
  records.push_back(WalRecord::Event(cut));

  LogEvent reopt;
  reopt.kind = LogEvent::Kind::kReoptimize;
  reopt.at_items = 26;
  reopt.max_migrations = 5;
  records.push_back(WalRecord::Event(reopt));

  LogEvent unsub;
  unsub.kind = LogEvent::Kind::kUnsubscribe;
  unsub.at_items = 31;
  unsub.query_id = 1;
  records.push_back(WalRecord::Event(unsub));

  records.push_back(WalRecord::Feed(40));
  return records;
}

void ExpectSameRecord(const WalRecord& got, const WalRecord& want,
                      size_t index) {
  SCOPED_TRACE("record " + std::to_string(index));
  ASSERT_EQ(got.kind, want.kind);
  if (want.kind == WalRecord::Kind::kFeed) {
    EXPECT_EQ(got.items_fed, want.items_fed);
    return;
  }
  EXPECT_EQ(got.event.kind, want.event.kind);
  EXPECT_EQ(got.event.at_items, want.event.at_items);
  EXPECT_EQ(got.event.query_text, want.event.query_text);
  EXPECT_EQ(got.event.vq, want.event.vq);
  EXPECT_EQ(got.event.strategy, want.event.strategy);
  EXPECT_EQ(got.event.choices, want.event.choices);
  EXPECT_EQ(got.event.query_id, want.event.query_id);
  EXPECT_EQ(got.event.peer, want.event.peer);
  EXPECT_EQ(got.event.link_a, want.event.link_a);
  EXPECT_EQ(got.event.link_b, want.event.link_b);
  EXPECT_EQ(got.event.max_migrations, want.event.max_migrations);
}

/// Writes the sample records through the real writer and returns the raw
/// file image plus the record-boundary offsets (first boundary is the
/// header end).
std::string RecordedLog(const std::string& path,
                        const std::vector<WalRecord>& records,
                        std::vector<size_t>* boundaries) {
  WalHeader header;
  header.scenario_fingerprint = 0x5ca1ab1eULL;
  header.epoch = 3;
  header.base_generation = 2;
  auto wal = WriteAheadLog::Create(path, header);
  EXPECT_TRUE(wal.ok()) << wal.status().ToString();
  std::vector<size_t> cuts;
  std::string image = ReadBytes(path);
  cuts.push_back(image.size());  // header length
  for (const auto& record : records) {
    EXPECT_TRUE(wal->Append(record).ok());
    cuts.push_back(cuts.back() + EncodeWalRecord(record).size());
  }
  wal->Close();
  if (boundaries != nullptr) *boundaries = cuts;
  return ReadBytes(path);
}

TEST(Crc32, MatchesTheIsoHdlcCheckValue) {
  // The standard check value for CRC-32/ISO-HDLC (zlib's crc32).
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  // Sensitivity: one flipped bit changes the sum.
  EXPECT_NE(Crc32("123456789"), Crc32("123456788"));
}

TEST(Wal, RoundTripsEveryRecordKind) {
  const std::string path = TestPath("roundtrip");
  const std::vector<WalRecord> records = SampleRecords();
  std::vector<size_t> boundaries;
  const std::string image = RecordedLog(path, records, &boundaries);

  auto recovered = RecoverWal(path);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->header.scenario_fingerprint, 0x5ca1ab1eULL);
  EXPECT_EQ(recovered->header.epoch, 3u);
  EXPECT_EQ(recovered->header.base_generation, 2u);
  EXPECT_FALSE(recovered->torn_tail);
  EXPECT_FALSE(recovered->torn_header);
  EXPECT_EQ(recovered->valid_bytes, image.size());
  ASSERT_EQ(recovered->records.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    ExpectSameRecord(recovered->records[i], records[i], i);
  }
  std::remove(path.c_str());
}

TEST(Wal, MissingFileIsNotFound) {
  auto recovered = RecoverWal(TestPath("never_written"));
  EXPECT_FALSE(recovered.ok());
  EXPECT_TRUE(recovered.status().IsNotFound());
}

TEST(Wal, ForeignFileIsADecodableParseError) {
  const std::string path = TestPath("foreign");
  WriteBytes(path, "definitely not a write-ahead log, much longer "
                   "than one header");
  auto recovered = RecoverWal(path);
  EXPECT_FALSE(recovered.ok());
  EXPECT_TRUE(recovered.status().IsParseError());
  std::remove(path.c_str());
}

// A registration's plan choices round-trip through the event codec, and
// an event cut anywhere inside them is torn: ParseLogEvent refuses it
// instead of handing back a registration with fewer choices.
TEST(LogEventCodec, PlanChoicesRoundTripAndTornChoicesRefuse) {
  LogEvent sub;
  sub.kind = LogEvent::Kind::kSubscribe;
  sub.at_items = 1234;
  sub.query_text = "/site/detector/photon";
  sub.vq = 9;
  sub.choices = SampleChoices();
  std::string encoded;
  AppendLogEvent(&encoded, sub);

  std::string_view data = encoded;
  LogEvent parsed;
  ASSERT_TRUE(ParseLogEvent(&data, &parsed));
  EXPECT_TRUE(data.empty());
  EXPECT_EQ(parsed.choices, sub.choices);
  EXPECT_EQ(parsed.query_text, sub.query_text);

  // The choices are the event's tail: everything after the query text.
  LogEvent bare = sub;
  bare.choices.clear();
  std::string prefix;
  AppendLogEvent(&prefix, bare);
  const size_t choices_start = prefix.size() - 1;  // the count varint
  ASSERT_EQ(encoded.compare(0, choices_start, prefix, 0, choices_start), 0);
  for (size_t cut = choices_start; cut < encoded.size(); ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    std::string_view torn(encoded.data(), cut);
    LogEvent out;
    EXPECT_FALSE(ParseLogEvent(&torn, &out));
  }

  // An unknown choice kind is refused too, not read as some other kind.
  std::string bad_kind = encoded;
  bad_kind[choices_start + 1] = 3;  // the first choice's kind byte
  std::string_view bad = bad_kind;
  LogEvent out;
  EXPECT_FALSE(ParseLogEvent(&bad, &out));

  // So is a stream id wider than an int, instead of being truncated.
  std::string wide = prefix;
  wide.pop_back();  // the zero choice count
  transport::PutVarint(&wide, 1);
  transport::PutVarint(&wide, 1);                   // kTap
  transport::PutVarint(&wide, uint64_t{1} << 41);   // zigzag of 2^40
  transport::PutVarint(&wide, 0);                   // node 0
  std::string_view wide_view = wide;
  EXPECT_FALSE(ParseLogEvent(&wide_view, &out));
}

// A log written before registrations carried their plan choices is
// refused with an error naming both format versions: recovery never
// falls back to searching an old log.
TEST(Wal, OlderFormatIsRefusedNamingBothVersions) {
  const std::string path = TestPath("old_format");
  std::string image = RecordedLog(path, SampleRecords(), nullptr);
  ASSERT_EQ(image.substr(0, 8), "SSWAL002");
  image.replace(0, 8, "SSWAL001");
  WriteBytes(path, image);
  auto recovered = RecoverWal(path);
  ASSERT_FALSE(recovered.ok());
  EXPECT_TRUE(recovered.status().IsParseError());
  EXPECT_NE(recovered.status().message().find("SSWAL001"), std::string::npos)
      << recovered.status().message();
  EXPECT_NE(recovered.status().message().find("SSWAL002"), std::string::npos)
      << recovered.status().message();
  std::remove(path.c_str());
}

// The tentpole's table test: cut the recorded log at EVERY byte
// boundary. Recovery must return the exact record prefix that fits
// below the cut, flag the remainder as a torn tail (or a torn header
// when the cut lands inside the header), and never error — a truncation
// of a real log is a normal crash outcome, not a foreign file.
TEST(Wal, TruncationAtEveryByteRecoversAnExactPrefix) {
  const std::string path = TestPath("torn_src");
  const std::vector<WalRecord> records = SampleRecords();
  std::vector<size_t> boundaries;
  const std::string image = RecordedLog(path, records, &boundaries);
  const size_t header_len = boundaries[0];
  const std::string cut_path = TestPath("torn_cut");

  for (size_t cut = 0; cut <= image.size(); ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    WriteBytes(cut_path, image.substr(0, cut));
    auto recovered = RecoverWal(cut_path);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

    if (cut < header_len) {
      // Crash during Create: no usable state, decodably so.
      EXPECT_TRUE(recovered->torn_header);
      EXPECT_TRUE(recovered->records.empty());
      continue;
    }
    EXPECT_FALSE(recovered->torn_header);

    // The longest record prefix whose frames fit wholly below the cut.
    size_t fit = 0;
    while (fit < records.size() && boundaries[fit + 1] <= cut) ++fit;
    ASSERT_EQ(recovered->records.size(), fit);
    for (size_t i = 0; i < fit; ++i) {
      ExpectSameRecord(recovered->records[i], records[i], i);
    }
    EXPECT_EQ(recovered->valid_bytes, boundaries[fit]);
    EXPECT_EQ(recovered->torn_tail, cut != boundaries[fit]);
    EXPECT_EQ(recovered->torn_bytes, cut - boundaries[fit]);
  }
  std::remove(path.c_str());
  std::remove(cut_path.c_str());
}

// Bit-flip every bit of every record's stored CRC: the scan must stop
// exactly at the damaged record, keeping the intact prefix.
TEST(Wal, CrcBitFlipsStopTheScanAtTheDamagedRecord) {
  const std::string path = TestPath("crc_src");
  const std::vector<WalRecord> records = SampleRecords();
  std::vector<size_t> boundaries;
  const std::string image = RecordedLog(path, records, &boundaries);
  const std::string flip_path = TestPath("crc_flip");

  for (size_t r = 0; r < records.size(); ++r) {
    // The 4-byte CRC field sits after the 4-byte length prefix.
    const size_t crc_offset = boundaries[r] + 4;
    for (int bit = 0; bit < 32; ++bit) {
      SCOPED_TRACE("record " + std::to_string(r) + " crc bit " +
                   std::to_string(bit));
      std::string damaged = image;
      damaged[crc_offset + bit / 8] ^= static_cast<char>(1 << (bit % 8));
      WriteBytes(flip_path, damaged);
      auto recovered = RecoverWal(flip_path);
      ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
      EXPECT_FALSE(recovered->torn_header);
      ASSERT_EQ(recovered->records.size(), r);
      for (size_t i = 0; i < r; ++i) {
        ExpectSameRecord(recovered->records[i], records[i], i);
      }
      EXPECT_TRUE(recovered->torn_tail);
      EXPECT_EQ(recovered->valid_bytes, boundaries[r]);
    }
  }
  std::remove(path.c_str());
  std::remove(flip_path.c_str());
}

// Payload corruption (not just the CRC field) is caught by the CRC: flip
// one bit in every payload byte of every record.
TEST(Wal, PayloadBitFlipsAreCaughtByTheCrc) {
  const std::string path = TestPath("payload_src");
  const std::vector<WalRecord> records = SampleRecords();
  std::vector<size_t> boundaries;
  const std::string image = RecordedLog(path, records, &boundaries);
  const std::string flip_path = TestPath("payload_flip");

  for (size_t r = 0; r < records.size(); ++r) {
    const size_t payload_begin = boundaries[r] + 8;
    for (size_t off = payload_begin; off < boundaries[r + 1]; ++off) {
      SCOPED_TRACE("record " + std::to_string(r) + " payload byte " +
                   std::to_string(off - payload_begin));
      std::string damaged = image;
      damaged[off] ^= 0x40;
      WriteBytes(flip_path, damaged);
      auto recovered = RecoverWal(flip_path);
      ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
      ASSERT_EQ(recovered->records.size(), r);
      EXPECT_TRUE(recovered->torn_tail);
      EXPECT_EQ(recovered->valid_bytes, boundaries[r]);
    }
  }
  std::remove(path.c_str());
  std::remove(flip_path.c_str());
}

// A bit-flip inside the header's own CRC (or fields) is a torn header:
// no usable records, but still a recovery outcome, not an error.
TEST(Wal, HeaderBitFlipsAreATornHeaderNotAnError) {
  const std::string path = TestPath("header_src");
  std::vector<size_t> boundaries;
  const std::string image = RecordedLog(path, SampleRecords(), &boundaries);
  const size_t header_len = boundaries[0];
  const std::string flip_path = TestPath("header_flip");

  // Skip the 8-byte magic — damaging it is the foreign-file case tested
  // above; every other header byte must come back as torn_header.
  for (size_t off = 8; off < header_len; ++off) {
    SCOPED_TRACE("header byte " + std::to_string(off));
    std::string damaged = image;
    damaged[off] ^= 0x10;
    WriteBytes(flip_path, damaged);
    auto recovered = RecoverWal(flip_path);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_TRUE(recovered->torn_header);
    EXPECT_TRUE(recovered->records.empty());
  }
  std::remove(path.c_str());
  std::remove(flip_path.c_str());
}

// Create truncates an existing log: a stale predecessor never leaks
// records into the new epoch's scan.
TEST(Wal, CreateDiscardsAPreviousLog)
{
  const std::string path = TestPath("recreate");
  RecordedLog(path, SampleRecords(), nullptr);

  WalHeader header;
  header.scenario_fingerprint = 9;
  header.epoch = 8;
  header.base_generation = 7;
  auto wal = WriteAheadLog::Create(path, header);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  ASSERT_TRUE(wal->Append(WalRecord::Feed(99)).ok());
  EXPECT_EQ(wal->counters().appends, 1u);
  EXPECT_GT(wal->counters().bytes, 0u);
  wal->Close();

  auto recovered = RecoverWal(path);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->header.epoch, 8u);
  EXPECT_EQ(recovered->header.base_generation, 7u);
  ASSERT_EQ(recovered->records.size(), 1u);
  EXPECT_EQ(recovered->records[0].kind, WalRecord::Kind::kFeed);
  EXPECT_EQ(recovered->records[0].items_fed, 99u);
  std::remove(path.c_str());
}

Checkpoint SampleCheckpoint(uint64_t generation, uint64_t items_fed) {
  Checkpoint checkpoint;
  checkpoint.scenario_fingerprint = 0xfeedULL;
  checkpoint.epoch = generation;
  checkpoint.generation = generation;
  checkpoint.items_fed = items_fed;
  for (const auto& record : SampleRecords()) {
    if (record.kind == WalRecord::Kind::kEvent) {
      checkpoint.events.push_back(record.event);
    }
  }
  DeliverySnapshot delivery;
  delivery.query_id = 0;
  delivery.items = items_fed;
  delivery.content_hash = 0x1234 + generation;
  checkpoint.deliveries.push_back(delivery);
  return checkpoint;
}

void ExpectSameCheckpoint(const Checkpoint& got, const Checkpoint& want) {
  EXPECT_EQ(got.scenario_fingerprint, want.scenario_fingerprint);
  EXPECT_EQ(got.epoch, want.epoch);
  EXPECT_EQ(got.generation, want.generation);
  EXPECT_EQ(got.items_fed, want.items_fed);
  ASSERT_EQ(got.events.size(), want.events.size());
  for (size_t i = 0; i < want.events.size(); ++i) {
    ExpectSameRecord(WalRecord::Event(got.events[i]),
                     WalRecord::Event(want.events[i]), i);
  }
  ASSERT_EQ(got.deliveries.size(), want.deliveries.size());
  for (size_t i = 0; i < want.deliveries.size(); ++i) {
    EXPECT_EQ(got.deliveries[i].query_id, want.deliveries[i].query_id);
    EXPECT_EQ(got.deliveries[i].items, want.deliveries[i].items);
    EXPECT_EQ(got.deliveries[i].content_hash,
              want.deliveries[i].content_hash);
  }
}

// The crash-atomicity satellite: a checkpoint write that dies after ANY
// number of temp-file bytes leaves the previous checkpoint loadable and
// byte-identical. The fault seam sweeps every prefix length of the new
// image; the old image must survive each one.
TEST(Checkpoint, AFaultedSaveNeverCorruptsThePreviousCheckpoint) {
  const std::string path = TestPath("ckpt_atomic");
  const Checkpoint previous = SampleCheckpoint(/*generation=*/3,
                                               /*items_fed=*/26);
  const Checkpoint next = SampleCheckpoint(/*generation=*/4,
                                           /*items_fed=*/52);
  ASSERT_TRUE(SaveCheckpoint(path, previous).ok());

  size_t faulted_writes = 0;
  for (size_t fail_after = 0;; ++fail_after) {
    Status faulted = SaveCheckpointFaulted(path, next, fail_after);
    if (faulted.IsInvalidArgument()) break;  // past the encoded size
    ASSERT_FALSE(faulted.ok()) << "fault seam ignored at byte "
                               << fail_after;
    ++faulted_writes;
    auto loaded = LoadCheckpoint(path);
    ASSERT_TRUE(loaded.ok())
        << "previous checkpoint unreadable after a crash at temp byte "
        << fail_after << ": " << loaded.status().ToString();
    ExpectSameCheckpoint(*loaded, previous);
  }
  EXPECT_GT(faulted_writes, 36u);  // the sweep really covered the image

  // And after all that abuse a clean save still replaces it whole.
  ASSERT_TRUE(SaveCheckpoint(path, next).ok());
  auto loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameCheckpoint(*loaded, next);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

// The checkpoint half of the format bump: an SSCKPT02 checkpoint (no
// plan choices) is refused by name, never replayed by searching.
TEST(Checkpoint, OlderFormatIsRefusedNamingBothVersions) {
  const std::string path = TestPath("ckpt_old_format");
  ASSERT_TRUE(SaveCheckpoint(path, SampleCheckpoint(1, 26)).ok());
  std::string image = ReadBytes(path);
  ASSERT_EQ(image.substr(0, 8), "SSCKPT03");
  image.replace(0, 8, "SSCKPT02");
  WriteBytes(path, image);
  auto loaded = LoadCheckpoint(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsParseError());
  EXPECT_NE(loaded.status().message().find("SSCKPT02"), std::string::npos)
      << loaded.status().message();
  EXPECT_NE(loaded.status().message().find("SSCKPT03"), std::string::npos)
      << loaded.status().message();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace streamshare::serve
