// Codec tests for the serve CONTROL plane: request/response/reply
// roundtrips, RESULT frame stamp semantics, serve EOS, and the drain
// checkpoint's binary format (atomic save, replay-exact load, scenario
// fingerprint discrimination).

#include <cstdio>
#include <string>

#include "common/varint.h"
#include "gtest/gtest.h"
#include "serve/checkpoint.h"
#include "serve/control.h"
#include "workload/scenario.h"

namespace streamshare::serve {
namespace {

TEST(ServeProtocol, RequestRoundtripsEveryVerb) {
  ControlRequest hello;
  hello.request_id = 7;
  hello.verb = Verb::kHello;
  hello.protocol = kServeProtocolVersion;
  hello.client_name = "smoke";
  auto decoded = DecodeRequest(EncodeRequest(hello));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->request_id, 7u);
  EXPECT_EQ(decoded->verb, Verb::kHello);
  EXPECT_EQ(decoded->client_name, "smoke");

  ControlRequest subscribe;
  subscribe.request_id = 8;
  subscribe.verb = Verb::kSubscribe;
  subscribe.query_text = "wxquery text";
  subscribe.vq = 3;
  subscribe.strategy = 2;
  subscribe.attach_query_plus1 = 5;
  subscribe.resume_from = 42;
  decoded = DecodeRequest(EncodeRequest(subscribe));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->query_text, "wxquery text");
  EXPECT_EQ(decoded->vq, 3);
  EXPECT_EQ(decoded->strategy, 2);
  EXPECT_EQ(decoded->attach_query_plus1, 5u);
  EXPECT_EQ(decoded->resume_from, 42u);

  ControlRequest unsubscribe;
  unsubscribe.verb = Verb::kUnsubscribe;
  unsubscribe.query_id = -1;  // zigzag must survive the sentinel
  decoded = DecodeRequest(EncodeRequest(unsubscribe));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->query_id, -1);

  ControlRequest cut;
  cut.verb = Verb::kCutLink;
  cut.link_a = 1;
  cut.link_b = 4;
  decoded = DecodeRequest(EncodeRequest(cut));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->link_a, 1);
  EXPECT_EQ(decoded->link_b, 4);

  ControlRequest feed;
  feed.verb = Verb::kFeed;
  feed.feed_items = 1000;
  decoded = DecodeRequest(EncodeRequest(feed));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->feed_items, 1000u);

  ControlRequest drain;
  drain.verb = Verb::kDrain;
  drain.final_drain = true;
  decoded = DecodeRequest(EncodeRequest(drain));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(decoded->final_drain);

  ControlRequest batch;
  batch.verb = Verb::kSubscribeBatch;
  batch.batch.push_back({"query one", 3, 2});
  batch.batch.push_back({"query two", -1, 0});  // zigzag'd vq sentinel
  decoded = DecodeRequest(EncodeRequest(batch));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->batch.size(), 2u);
  EXPECT_EQ(decoded->batch[0].query_text, "query one");
  EXPECT_EQ(decoded->batch[0].vq, 3);
  EXPECT_EQ(decoded->batch[0].strategy, 2);
  EXPECT_EQ(decoded->batch[1].query_text, "query two");
  EXPECT_EQ(decoded->batch[1].vq, -1);
  EXPECT_EQ(decoded->batch[1].strategy, 0);

  ControlRequest reoptimize;
  reoptimize.verb = Verb::kReoptimize;
  reoptimize.max_migrations = -1;  // "no cap" must survive the zigzag
  decoded = DecodeRequest(EncodeRequest(reoptimize));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->max_migrations, -1);
}

TEST(ServeProtocol, BatchAndReoptimizeRepliesRoundtrip) {
  SubscribeBatchReply batch;
  SubscribeReply accepted;
  accepted.query_id = 0;
  accepted.accepted = true;
  batch.entries.push_back(accepted);
  SubscribeReply rejected;
  rejected.query_id = 1;
  rejected.accepted = false;
  rejected.reject_reason = "link SP2-SP3 bandwidth exceeded";
  batch.entries.push_back(rejected);
  auto decoded_batch =
      DecodeSubscribeBatchReply(EncodeSubscribeBatchReply(batch));
  ASSERT_TRUE(decoded_batch.ok()) << decoded_batch.status();
  ASSERT_EQ(decoded_batch->entries.size(), 2u);
  EXPECT_TRUE(decoded_batch->entries[0].accepted);
  EXPECT_FALSE(decoded_batch->entries[1].accepted);
  EXPECT_EQ(decoded_batch->entries[1].reject_reason,
            "link SP2-SP3 bandwidth exceeded");

  ReoptimizeReply reoptimize;
  reoptimize.examined = 12;
  reoptimize.migrated = 3;
  reoptimize.torn_down = 1;
  reoptimize.lost_windows = 7;
  reoptimize.cost_before = 1234.5625;
  reoptimize.cost_after = 0.1;  // not exactly representable: the wire
                                // format must round-trip the bits anyway
  auto decoded_reopt =
      DecodeReoptimizeReply(EncodeReoptimizeReply(reoptimize));
  ASSERT_TRUE(decoded_reopt.ok()) << decoded_reopt.status();
  EXPECT_EQ(decoded_reopt->examined, 12u);
  EXPECT_EQ(decoded_reopt->migrated, 3u);
  EXPECT_EQ(decoded_reopt->torn_down, 1u);
  EXPECT_EQ(decoded_reopt->lost_windows, 7u);
  EXPECT_EQ(decoded_reopt->cost_before, 1234.5625);
  EXPECT_EQ(decoded_reopt->cost_after, 0.1);
}

TEST(ServeProtocol, RejectsUnknownVerbAndTrailingBytes) {
  ControlRequest stats;
  stats.verb = Verb::kStats;
  std::string encoded = EncodeRequest(stats);
  encoded.push_back('x');
  EXPECT_TRUE(DecodeRequest(encoded).status().IsParseError());

  // Verb 99 is beyond this build's protocol.
  std::string unknown;
  unknown.push_back(0);   // request id 0
  unknown.push_back(99);  // verb
  EXPECT_TRUE(DecodeRequest(unknown).status().IsUnsupported());
}

TEST(ServeProtocol, ListCountBeyondThePayloadIsTruncatedNotAnAllocation) {
  // A peer claims 2^40 list entries and sends none: decoding must fail
  // with a parse error, not size a vector from the claim and abort.
  constexpr uint64_t kClaimed = uint64_t{1} << 40;
  std::string request;
  PutVarint(&request, 7);  // request id
  PutVarint(&request, static_cast<uint64_t>(Verb::kSubscribeBatch));
  PutVarint(&request, kClaimed);
  EXPECT_TRUE(DecodeRequest(request).status().IsParseError());

  std::string batch_reply;
  PutVarint(&batch_reply, kClaimed);
  EXPECT_TRUE(
      DecodeSubscribeBatchReply(batch_reply).status().IsParseError());

  // The per-query count is the last field of a reply without queries.
  std::string stats_reply = EncodeStatsReply(StatsReply());
  ASSERT_EQ(stats_reply.back(), '\0');
  stats_reply.pop_back();
  PutVarint(&stats_reply, kClaimed);
  EXPECT_TRUE(DecodeStatsReply(stats_reply).status().IsParseError());
}

TEST(ServeProtocol, ResponseCarriesStatusAndPayload) {
  ControlResponse response;
  response.request_id = 12;
  response.code = static_cast<uint64_t>(StatusCode::kOverload);
  response.message = "bandwidth exceeded";
  response.payload = "opaque-reply";
  auto decoded = DecodeResponse(EncodeResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->request_id, 12u);
  EXPECT_EQ(decoded->payload, "opaque-reply");
  Status status = ResponseStatus(*decoded);
  EXPECT_TRUE(status.IsOverload());
  EXPECT_EQ(status.message(), "bandwidth exceeded");

  // An out-of-range code from a newer peer degrades to kInternal
  // instead of a bogus enum value.
  decoded->code = 200;
  EXPECT_TRUE(ResponseStatus(*decoded).IsInternal());

  decoded->code = 0;
  EXPECT_TRUE(ResponseStatus(*decoded).ok());
}

TEST(ServeProtocol, RepliesRoundtrip) {
  SubscribeReply subscribe;
  subscribe.query_id = 17;
  subscribe.accepted = false;
  subscribe.reject_reason = "peer SP3 load exceeded";
  subscribe.forward_from = 9;
  auto sub = DecodeSubscribeReply(EncodeSubscribeReply(subscribe));
  ASSERT_TRUE(sub.ok()) << sub.status();
  EXPECT_EQ(sub->query_id, 17);
  EXPECT_FALSE(sub->accepted);
  EXPECT_EQ(sub->reject_reason, "peer SP3 load exceeded");
  EXPECT_EQ(sub->forward_from, 9u);

  StatsReply stats;
  stats.epoch = 2;
  stats.draining = true;
  stats.items_fed = 500;
  stats.attached_clients = 3;
  stats.admitted = 10;
  stats.rejected = 2;
  stats.results_forwarded = 1234;
  stats.recovery_replayed_registrations = 2000;
  stats.recovery_candidates_examined = 3;
  stats.recovery_replay_us = 900000;
  stats.recovery_checkpoint_load_us = 2400;
  stats.recovery_wal_scan_us = 300;
  stats.recovery_replay_register_us = 180000;
  stats.recovery_replay_feed_us = 420000;
  stats.recovery_fold_us = 5000;
  QueryStat query;
  query.query_id = 4;
  query.accepted = true;
  query.active = true;
  query.items = 77;
  query.bytes = 8080;
  query.content_hash = 0xdeadbeefull;
  stats.queries.push_back(query);
  auto decoded = DecodeStatsReply(EncodeStatsReply(stats));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->epoch, 2u);
  EXPECT_TRUE(decoded->draining);
  EXPECT_EQ(decoded->recovery_replayed_registrations, 2000u);
  EXPECT_EQ(decoded->recovery_candidates_examined, 3u);
  EXPECT_EQ(decoded->recovery_replay_us, 900000u);
  EXPECT_EQ(decoded->recovery_checkpoint_load_us, 2400u);
  EXPECT_EQ(decoded->recovery_wal_scan_us, 300u);
  EXPECT_EQ(decoded->recovery_replay_register_us, 180000u);
  EXPECT_EQ(decoded->recovery_replay_feed_us, 420000u);
  EXPECT_EQ(decoded->recovery_fold_us, 5000u);
  ASSERT_EQ(decoded->queries.size(), 1u);
  EXPECT_EQ(decoded->queries[0].content_hash, 0xdeadbeefull);

  RecoveryReply recovery;
  recovery.replans = 3;
  recovery.lost_queries = 1;
  recovery.dead_targets = 2;
  recovery.lost_windows = 40;
  auto rec = DecodeRecoveryReply(EncodeRecoveryReply(recovery));
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(rec->replans, 3u);
  EXPECT_EQ(rec->lost_windows, 40u);
}

TEST(ServeProtocol, ResultFrameStampReconstructsTicks) {
  std::string item_bytes = "\x01\x02\x03pretend-encoded-item";
  std::string body =
      EncodeResultFrame(/*query_id=*/5, /*seq=*/9, /*delivery_us=*/1000,
                        /*send_us=*/1450, item_bytes);
  auto frame = DecodeResultFrame(body);
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_EQ(frame->query_id, 5);
  EXPECT_EQ(frame->seq, 9u);
  EXPECT_TRUE(frame->stamped);
  EXPECT_EQ(frame->send_us, 1450u);
  EXPECT_EQ(frame->delivery_us, 1000u);
  EXPECT_EQ(frame->residency_us, 450u);
  EXPECT_EQ(frame->transport_us, 0u);
  EXPECT_EQ(frame->item, item_bytes);
}

TEST(ServeProtocol, ServeEosRoundtrips) {
  ServeEos eos;
  eos.results_forwarded = 321;
  eos.final_drain = true;
  auto decoded = DecodeServeEos(EncodeServeEos(eos));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->results_forwarded, 321u);
  EXPECT_TRUE(decoded->final_drain);
}

TEST(ServeCheckpoint, SaveLoadRoundtrips) {
  Checkpoint checkpoint;
  checkpoint.scenario_fingerprint = 0x1234abcdull;
  checkpoint.epoch = 1;
  checkpoint.items_fed = 640;

  LogEvent subscribe;
  subscribe.kind = LogEvent::Kind::kSubscribe;
  subscribe.at_items = 0;
  subscribe.query_text = "some query";
  subscribe.vq = 2;
  subscribe.strategy = 2;
  checkpoint.events.push_back(subscribe);

  LogEvent fail;
  fail.kind = LogEvent::Kind::kFailPeer;
  fail.at_items = 320;
  fail.peer = 3;
  checkpoint.events.push_back(fail);

  LogEvent unsubscribe;
  unsubscribe.kind = LogEvent::Kind::kUnsubscribe;
  unsubscribe.at_items = 400;
  unsubscribe.query_id = 0;
  checkpoint.events.push_back(unsubscribe);

  LogEvent reoptimize;
  reoptimize.kind = LogEvent::Kind::kReoptimize;
  reoptimize.at_items = 480;
  reoptimize.max_migrations = -1;
  checkpoint.events.push_back(reoptimize);

  DeliverySnapshot delivery;
  delivery.query_id = 0;
  delivery.items = 93;
  delivery.content_hash = 0x5555ull;
  checkpoint.deliveries.push_back(delivery);

  std::string path =
      ::testing::TempDir() + "/serve_checkpoint_roundtrip.bin";
  std::remove(path.c_str());
  ASSERT_TRUE(SaveCheckpoint(path, checkpoint).ok());
  auto loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->scenario_fingerprint, 0x1234abcdull);
  EXPECT_EQ(loaded->epoch, 1u);
  EXPECT_EQ(loaded->items_fed, 640u);
  ASSERT_EQ(loaded->events.size(), 4u);
  EXPECT_EQ(loaded->events[0].kind, LogEvent::Kind::kSubscribe);
  EXPECT_EQ(loaded->events[0].query_text, "some query");
  EXPECT_EQ(loaded->events[1].kind, LogEvent::Kind::kFailPeer);
  EXPECT_EQ(loaded->events[1].peer, 3);
  EXPECT_EQ(loaded->events[1].at_items, 320u);
  EXPECT_EQ(loaded->events[2].query_id, 0);
  EXPECT_EQ(loaded->events[3].kind, LogEvent::Kind::kReoptimize);
  EXPECT_EQ(loaded->events[3].at_items, 480u);
  EXPECT_EQ(loaded->events[3].max_migrations, -1);
  ASSERT_EQ(loaded->deliveries.size(), 1u);
  EXPECT_EQ(loaded->deliveries[0].items, 93u);
  std::remove(path.c_str());
}

TEST(ServeCheckpoint, LoadRejectsGarbageAndMissing) {
  EXPECT_TRUE(LoadCheckpoint(::testing::TempDir() + "/no_such_ckpt.bin")
                  .status()
                  .IsNotFound());

  std::string path = ::testing::TempDir() + "/garbage_ckpt.bin";
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  std::fputs("definitely not a checkpoint", file);
  std::fclose(file);
  EXPECT_TRUE(LoadCheckpoint(path).status().IsParseError());
  std::remove(path.c_str());
}

TEST(ServeCheckpoint, FingerprintDiscriminatesScenarios) {
  workload::ScenarioSpec a = workload::ExtendedExampleScenario();
  workload::ScenarioSpec b = workload::GridScenario();
  workload::ScenarioSpec a2 = workload::ExtendedExampleScenario();
  EXPECT_EQ(ScenarioFingerprint(a), ScenarioFingerprint(a2));
  EXPECT_NE(ScenarioFingerprint(a), ScenarioFingerprint(b));

  // A different generator seed is a different input history — the
  // fingerprint must catch it.
  workload::ScenarioSpec a3 = workload::ExtendedExampleScenario(99);
  EXPECT_NE(ScenarioFingerprint(a), ScenarioFingerprint(a3));
}

}  // namespace
}  // namespace streamshare::serve
