// Behavior tests for the streamshare_serve daemon: live subscribe
// through the real planner, delivery forwarding, double-unsubscribe
// NotFound semantics, E6 admission rejection leaving the deployment
// untouched, detach/re-attach catch-up, implicit unsubscribe on
// disconnect, the unsupported-frame answer path, and the forwarding
// plane's frame order, send coalescing and backpressure.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/codec.h"
#include "engine/operator.h"
#include "gtest/gtest.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/net.h"
#include "serve/wal.h"
#include "workload/scenario.h"
#include "xml/xml_node.h"

namespace streamshare::serve {
namespace {

workload::ScenarioSpec SmallScenario() {
  return workload::ExtendedExampleScenario(/*seed=*/11,
                                           /*query_count=*/4);
}

/// The E6 setup: capacities so tight that repeatedly data-shipping the
/// raw stream must overload a link or peer.
workload::ScenarioSpec TinyCapacityScenario() {
  workload::ScenarioSpec scenario = SmallScenario();
  scenario.name = "tiny-capacity";
  scenario.topology = network::Topology::ExtendedExample(
      /*bandwidth_kbps=*/150.0, /*max_load=*/60.0);
  return scenario;
}

std::unique_ptr<ServeDaemon> StartDaemon(
    const workload::ScenarioSpec& scenario,
    DaemonOptions options = DaemonOptions()) {
  auto daemon = std::make_unique<ServeDaemon>(scenario, options);
  Status started = daemon->Start();
  EXPECT_TRUE(started.ok()) << started;
  return started.ok() ? std::move(daemon) : nullptr;
}

ServeClient MakeClient(const ServeDaemon& daemon,
                       const std::string& name) {
  ClientOptions options;
  options.port = daemon.port();
  options.name = name;
  return ServeClient(options);
}

/// A bare control connection that sees every frame, for tests that pin
/// frame order, pipeline requests or stop reading. RESULT frames fold
/// into `results` exactly as ServeClient folds them.
struct RawClient {
  FrameConn conn;
  engine::ItemDecoder decoder;
  uint64_t next_request_id = 1;
  std::map<int64_t, ClientQueryResults> results;
  uint64_t results_seen = 0;
  /// Every query's deliveries arrived as seq 0, 1, 2, ...
  bool seq_in_order = true;
  /// query id -> seq -> the decoded delivery.
  std::map<int64_t, std::map<uint64_t, std::unique_ptr<xml::XmlNode>>>
      trees;
  /// query id -> seq -> (delivery tick, encoded item) of the frame.
  std::map<int64_t, std::map<uint64_t, std::pair<uint64_t, std::string>>>
      frames;

  /// Dials the daemon; a nonzero `rcvbuf` shrinks the receive buffer
  /// before the connection is made.
  static std::unique_ptr<RawClient> Connect(int port, int rcvbuf = 0) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return nullptr;
    if (rcvbuf != 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    }
    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd);
      return nullptr;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    auto client = std::make_unique<RawClient>();
    client->conn = FrameConn(fd, "raw-client");
    return client;
  }

  Status Send(ControlRequest request) {
    request.request_id = next_request_id++;
    SS_RETURN_IF_ERROR(conn.QueueFrame(transport::FrameType::kControl,
                                       EncodeRequest(request)));
    return conn.FlushAll(30000);
  }

  /// Reads up to the next ACK (or EOS, which returns an empty
  /// response); `results_before` counts the RESULT frames ahead of it.
  Result<ControlResponse> ReadAck(uint64_t* results_before = nullptr) {
    uint64_t before = results_seen;
    while (true) {
      transport::Frame frame;
      SS_ASSIGN_OR_RETURN(ConnEvent event, conn.RecvFrame(&frame, 30000));
      if (event != ConnEvent::kFrame) {
        return Status::Internal("unsupported frame from the daemon");
      }
      if (frame.type == transport::FrameType::kResult) {
        SS_RETURN_IF_ERROR(Accumulate(frame.body));
        continue;
      }
      if (results_before != nullptr) {
        *results_before = results_seen - before;
      }
      if (frame.type == transport::FrameType::kEos) {
        return ControlResponse();
      }
      if (frame.type != transport::FrameType::kControlAck) {
        return Status::Internal("unexpected frame type " +
                                std::to_string(frame.raw_type));
      }
      return DecodeResponse(frame.body);
    }
  }

  /// Send + ReadAck; a non-OK response comes back as its status.
  Result<ControlResponse> Call(ControlRequest request,
                               uint64_t* results_before = nullptr) {
    SS_RETURN_IF_ERROR(Send(std::move(request)));
    SS_ASSIGN_OR_RETURN(ControlResponse response, ReadAck(results_before));
    SS_RETURN_IF_ERROR(ResponseStatus(response));
    return response;
  }

  Status Hello() {
    ControlRequest request;
    request.verb = Verb::kHello;
    request.client_name = "raw";
    return Call(request).status();
  }

  /// Subscribes every scenario query in one batch; returns the accepted
  /// query ids.
  Result<std::vector<int64_t>> SubscribeAll(
      const workload::ScenarioSpec& scenario) {
    ControlRequest request;
    request.verb = Verb::kSubscribeBatch;
    for (const workload::QuerySpec& query : scenario.queries) {
      request.batch.push_back({query.text, query.target, /*strategy=*/2});
    }
    SS_ASSIGN_OR_RETURN(ControlResponse response, Call(request));
    SS_ASSIGN_OR_RETURN(SubscribeBatchReply reply,
                        DecodeSubscribeBatchReply(response.payload));
    std::vector<int64_t> accepted;
    for (const SubscribeReply& entry : reply.entries) {
      if (entry.accepted) accepted.push_back(entry.query_id);
    }
    return accepted;
  }

  /// Re-attaches to `query_id`, forwarding from delivery `resume_from`.
  Status Attach(int64_t query_id, uint64_t resume_from) {
    ControlRequest request;
    request.verb = Verb::kSubscribe;
    request.attach_query_plus1 = static_cast<uint64_t>(query_id) + 1;
    request.resume_from = resume_from;
    return Call(request).status();
  }

  Status Detach() {
    ControlRequest request;
    request.verb = Verb::kDetach;
    return Call(request).status();
  }

  static ControlRequest FeedRequest(uint64_t items) {
    ControlRequest request;
    request.verb = Verb::kFeed;
    request.feed_items = items;
    return request;
  }

  Result<StatsReply> Stats(uint64_t* results_before = nullptr) {
    ControlRequest request;
    request.verb = Verb::kStats;
    SS_ASSIGN_OR_RETURN(ControlResponse response,
                        Call(request, results_before));
    return DecodeStatsReply(response.payload);
  }

  Status Accumulate(std::string_view body) {
    SS_ASSIGN_OR_RETURN(ResultFrame result, DecodeResultFrame(body));
    std::unique_ptr<xml::XmlNode> item;
    decoder.Reset();  // every RESULT body is self-contained
    SS_RETURN_IF_ERROR(decoder.Decode(result.item, &item));
    ClientQueryResults& query = results[result.query_id];
    if (result.seq != query.next_seq) seq_in_order = false;
    query.items += 1;
    query.bytes += item->SerializedSize();
    query.content_hash += engine::HashItemContent(*item);
    query.next_seq = result.seq + 1;
    ++results_seen;
    trees[result.query_id][result.seq] = std::move(item);
    frames[result.query_id][result.seq] = {result.delivery_us,
                                           std::string(result.item)};
    return Status::Ok();
  }

  /// Every query's sink counters in `stats` equal what arrived here.
  void ExpectMatches(const StatsReply& stats) const {
    uint64_t sink_total = 0;
    for (const QueryStat& query : stats.queries) {
      auto it = results.find(query.query_id);
      ClientQueryResults got =
          it == results.end() ? ClientQueryResults() : it->second;
      EXPECT_EQ(got.items, query.items) << "query " << query.query_id;
      EXPECT_EQ(got.bytes, query.bytes) << "query " << query.query_id;
      EXPECT_EQ(got.content_hash, query.content_hash)
          << "query " << query.query_id;
      sink_total += query.items;
    }
    EXPECT_EQ(results_seen, sink_total);
  }
};

TEST(ServeDaemon, SubscribeFeedForwardsDeliveriesMatchingSinks) {
  workload::ScenarioSpec scenario = SmallScenario();
  auto daemon = StartDaemon(scenario);
  ASSERT_NE(daemon, nullptr);

  ServeClient client = MakeClient(*daemon, "feeder");
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_EQ(client.hello().epoch, 0u);
  EXPECT_EQ(client.hello().items_fed, 0u);

  auto q0 = client.Subscribe(scenario.queries[0].text,
                             scenario.queries[0].target);
  auto q1 = client.Subscribe(scenario.queries[1].text,
                             scenario.queries[1].target);
  ASSERT_TRUE(q0.ok()) << q0.status();
  ASSERT_TRUE(q1.ok()) << q1.status();
  ASSERT_TRUE(q0->accepted) << q0->reject_reason;
  ASSERT_TRUE(q1->accepted) << q1->reject_reason;
  EXPECT_NE(q0->query_id, q1->query_id);

  auto fed = client.Feed(200);
  ASSERT_TRUE(fed.ok()) << fed.status();
  EXPECT_EQ(fed->items_fed, 200u);

  // The daemon's own sink counters must agree with what reached the
  // client: same items, same bytes, same order-insensitive hash.
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->items_fed, 200u);
  EXPECT_EQ(stats->admitted, 2u);
  uint64_t sink_total = 0;
  for (const QueryStat& query : stats->queries) {
    ClientQueryResults results = client.results(query.query_id);
    EXPECT_EQ(results.items, query.items) << "query " << query.query_id;
    EXPECT_EQ(results.bytes, query.bytes) << "query " << query.query_id;
    EXPECT_EQ(results.content_hash, query.content_hash)
        << "query " << query.query_id;
    sink_total += query.items;
  }
  EXPECT_GT(sink_total, 0u) << "workload produced no deliveries at all";
  EXPECT_EQ(stats->results_forwarded, sink_total);

  // Deliveries carry measured latency stamps.
  ClientQueryResults r0 = client.results(q0->query_id);
  EXPECT_EQ(r0.residency_us.size(), r0.items);
  EXPECT_EQ(r0.total_us.size(), r0.items);

  auto drained = client.Drain(/*final_drain=*/true);
  ASSERT_TRUE(drained.ok()) << drained.status();
  auto eos = client.WaitEos(10000);
  ASSERT_TRUE(eos.ok()) << eos.status();
  EXPECT_TRUE(eos->final_drain);
  daemon->Join();
  EXPECT_TRUE(daemon->loop_status().ok()) << daemon->loop_status();
}

TEST(ServeDaemon, DoubleUnsubscribeReturnsNotFound) {
  workload::ScenarioSpec scenario = SmallScenario();
  auto daemon = StartDaemon(scenario);
  ASSERT_NE(daemon, nullptr);
  ServeClient client = MakeClient(*daemon, "unsub");
  ASSERT_TRUE(client.Connect().ok());

  auto q0 = client.Subscribe(scenario.queries[0].text,
                             scenario.queries[0].target);
  ASSERT_TRUE(q0.ok() && q0->accepted);

  EXPECT_TRUE(client.Unsubscribe(q0->query_id).ok());
  // Again: the id once existed but was already removed.
  Status again = client.Unsubscribe(q0->query_id);
  EXPECT_TRUE(again.IsNotFound()) << again;
  // Never registered at all.
  Status never = client.Unsubscribe(4242);
  EXPECT_TRUE(never.IsNotFound()) << never;
  // The connection survives both errors.
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_FALSE(stats->queries[0].active);

  daemon->RequestDrain(/*final_drain=*/true);
  daemon->Join();
}

TEST(ServeDaemon, AdmissionRejectionIsStructuredAndNonDisruptive) {
  workload::ScenarioSpec scenario = TinyCapacityScenario();
  DaemonOptions options;
  options.system.enforce_limits = true;
  auto daemon = StartDaemon(scenario, options);
  ASSERT_NE(daemon, nullptr);
  ServeClient client = MakeClient(*daemon, "overloader");
  ASSERT_TRUE(client.Connect().ok());

  // First data-shipped copy of the raw stream fits.
  auto first = client.Subscribe(scenario.queries[0].text,
                                scenario.queries[0].target,
                                /*strategy=*/0);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(first->accepted) << first->reject_reason;
  ASSERT_TRUE(client.Feed(50).ok());
  ClientQueryResults before = client.results(first->query_id);

  // Shipping more raw copies must hit the E6 admission wall: the daemon
  // answers with a structured rejection, not an error, not an exit.
  bool rejected = false;
  std::string reason;
  for (int i = 0; i < 6 && !rejected; ++i) {
    auto result = client.Subscribe(scenario.queries[0].text,
                                   scenario.queries[0].target,
                                   /*strategy=*/0);
    ASSERT_TRUE(result.ok()) << result.status();
    if (!result->accepted) {
      rejected = true;
      reason = result->reject_reason;
      EXPECT_GE(result->query_id, 0);  // the attempt consumed an id
    }
  }
  ASSERT_TRUE(rejected);
  EXPECT_FALSE(reason.empty());

  // A batch runs on past rejections: every entry gets its own structured
  // answer and consumes its own id.
  const std::vector<ControlRequest::BatchEntry> more(
      3, {scenario.queries[0].text, scenario.queries[0].target,
          /*strategy=*/0});
  auto batched = client.SubscribeBatch(more);
  ASSERT_TRUE(batched.ok()) << batched.status();
  ASSERT_EQ(batched->entries.size(), more.size());
  for (size_t i = 0; i < more.size(); ++i) {
    EXPECT_FALSE(batched->entries[i].accepted) << "entry " << i;
    EXPECT_EQ(batched->entries[i].reject_reason, reason) << "entry " << i;
    if (i > 0) {
      EXPECT_EQ(batched->entries[i].query_id,
                batched->entries[i - 1].query_id + 1);
    }
  }

  // The installed population is untouched and still serving: the first
  // query keeps receiving deliveries after the rejection.
  ASSERT_TRUE(client.Feed(50).ok());
  ClientQueryResults after = client.results(first->query_id);
  EXPECT_GT(after.items, before.items);

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GE(stats->rejected, 1u);
  for (const QueryStat& query : stats->queries) {
    if (!query.accepted) EXPECT_FALSE(query.active);
  }

  daemon->RequestDrain(/*final_drain=*/true);
  daemon->Join();
  EXPECT_TRUE(daemon->loop_status().ok()) << daemon->loop_status();
}

TEST(ServeDaemon, DetachKeepsSubscriptionAndReattachCatchesUp) {
  workload::ScenarioSpec scenario = SmallScenario();
  auto daemon = StartDaemon(scenario);
  ASSERT_NE(daemon, nullptr);

  ServeClient first = MakeClient(*daemon, "first-life");
  ASSERT_TRUE(first.Connect().ok());
  auto q0 = first.Subscribe(scenario.queries[0].text,
                            scenario.queries[0].target);
  ASSERT_TRUE(q0.ok() && q0->accepted);
  ASSERT_TRUE(first.Feed(100).ok());
  ClientQueryResults first_results = first.results(q0->query_id);
  ASSERT_TRUE(first.Detach().ok());

  // While nobody is attached the subscription keeps accumulating.
  ASSERT_TRUE(first.Feed(100).ok());
  EXPECT_EQ(first.results(q0->query_id).items, first_results.items)
      << "detached client must not receive deliveries";

  // A second life re-attaches and catches up exactly the missed window.
  ServeClient second = MakeClient(*daemon, "second-life");
  ASSERT_TRUE(second.Connect().ok());
  auto attached = second.Attach(q0->query_id, first_results.next_seq);
  ASSERT_TRUE(attached.ok()) << attached.status();
  EXPECT_EQ(attached->forward_from, first_results.next_seq);
  ASSERT_TRUE(second.Feed(1).ok());

  auto stats = second.Stats();
  ASSERT_TRUE(stats.ok());
  uint64_t sink_items = stats->queries[q0->query_id].items;
  uint64_t sink_hash = stats->queries[q0->query_id].content_hash;
  ClientQueryResults caught_up = second.results(q0->query_id);
  EXPECT_EQ(first_results.items + caught_up.items, sink_items);
  EXPECT_EQ(first_results.content_hash + caught_up.content_hash,
            sink_hash);

  daemon->RequestDrain(/*final_drain=*/true);
  daemon->Join();
}

TEST(ServeDaemon, DisconnectImplicitlyUnsubscribes) {
  workload::ScenarioSpec scenario = SmallScenario();
  auto daemon = StartDaemon(scenario);
  ASSERT_NE(daemon, nullptr);

  {
    ServeClient doomed = MakeClient(*daemon, "doomed");
    ASSERT_TRUE(doomed.Connect().ok());
    auto q0 = doomed.Subscribe(scenario.queries[0].text,
                               scenario.queries[0].target);
    ASSERT_TRUE(q0.ok() && q0->accepted);
    doomed.Close();  // vanish without Unsubscribe or Detach
  }

  ServeClient observer = MakeClient(*daemon, "observer");
  ASSERT_TRUE(observer.Connect().ok());
  // The loop notices the EOF within a poll interval; the refcounted GC
  // then removes the orphaned subscription.
  bool inactive = false;
  for (int i = 0; i < 100 && !inactive; ++i) {
    auto stats = observer.Stats();
    ASSERT_TRUE(stats.ok()) << stats.status();
    if (!stats->queries.empty() && !stats->queries[0].active) {
      inactive = true;
    }
  }
  EXPECT_TRUE(inactive) << "disconnect did not trigger unsubscribe";
  auto final_stats = observer.Stats();
  ASSERT_TRUE(final_stats.ok());
  EXPECT_EQ(daemon->stats().unsubscribed, 1u);

  daemon->RequestDrain(/*final_drain=*/true);
  daemon->Join();
}

TEST(ServeDaemon, UnsupportedFrameGetsDecodableAnswerNotTeardown) {
  workload::ScenarioSpec scenario = SmallScenario();
  auto daemon = StartDaemon(scenario);
  ASSERT_NE(daemon, nullptr);

  auto conn = ConnectTcp("127.0.0.1", daemon->port(), 5000);
  ASSERT_TRUE(conn.ok()) << conn.status();

  // A frame type from the future: well-framed, undispatchable.
  ASSERT_TRUE(conn->QueueFrame(static_cast<transport::FrameType>(0x41),
                               "mystery-payload")
                  .ok());
  ASSERT_TRUE(conn->FlushAll(2000).ok());
  transport::Frame frame;
  auto event = conn->RecvFrame(&frame, 5000);
  ASSERT_TRUE(event.ok()) << event.status();
  ASSERT_EQ(*event, ConnEvent::kFrame);
  ASSERT_EQ(frame.type, transport::FrameType::kControlAck);
  auto response = DecodeResponse(frame.body);
  ASSERT_TRUE(response.ok()) << response.status();
  Status answer = ResponseStatus(*response);
  EXPECT_TRUE(answer.IsUnsupported()) << answer;
  EXPECT_NE(answer.message().find("type 65"), std::string::npos)
      << answer.message();

  // The connection is still usable: a proper handshake succeeds on it.
  ControlRequest hello;
  hello.request_id = 1;
  hello.verb = Verb::kHello;
  hello.client_name = "post-mystery";
  ASSERT_TRUE(conn->QueueFrame(transport::FrameType::kControl,
                               EncodeRequest(hello))
                  .ok());
  ASSERT_TRUE(conn->FlushAll(2000).ok());
  event = conn->RecvFrame(&frame, 5000);
  ASSERT_TRUE(event.ok()) << event.status();
  ASSERT_EQ(frame.type, transport::FrameType::kControlAck);
  response = DecodeResponse(frame.body);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(ResponseStatus(*response).ok());
  EXPECT_EQ(daemon->stats().unsupported_frames, 1u);

  daemon->RequestDrain(/*final_drain=*/true);
  daemon->Join();
}

TEST(ServeDaemon, RestartableDrainCheckpointsAndExitsCleanly) {
  workload::ScenarioSpec scenario = SmallScenario();
  DaemonOptions options;
  options.checkpoint_path =
      ::testing::TempDir() + "/serve_drain_reject.ckpt";
  std::remove(options.checkpoint_path.c_str());
  std::remove(DefaultWalPath(options.checkpoint_path).c_str());
  auto daemon = StartDaemon(scenario, options);
  ASSERT_NE(daemon, nullptr);

  ServeClient client = MakeClient(*daemon, "late");
  ASSERT_TRUE(client.Connect().ok());
  auto q0 = client.Subscribe(scenario.queries[0].text,
                             scenario.queries[0].target);
  ASSERT_TRUE(q0.ok() && q0->accepted);
  ASSERT_TRUE(client.Feed(50).ok());

  auto drained = client.Drain(/*final_drain=*/false);
  ASSERT_TRUE(drained.ok()) << drained.status();
  auto eos = client.WaitEos(10000);
  ASSERT_TRUE(eos.ok()) << eos.status();
  EXPECT_FALSE(eos->final_drain);
  daemon->Join();
  EXPECT_TRUE(daemon->loop_status().ok()) << daemon->loop_status();

  auto checkpoint = LoadCheckpoint(options.checkpoint_path);
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status();
  EXPECT_EQ(checkpoint->items_fed, 50u);
  ASSERT_EQ(checkpoint->events.size(), 1u);
  EXPECT_EQ(checkpoint->events[0].kind, LogEvent::Kind::kSubscribe);
  std::remove(options.checkpoint_path.c_str());
  std::remove(DefaultWalPath(options.checkpoint_path).c_str());
}

TEST(ServeDaemon, SubscribeBatchMatchesSequentialSubscribes) {
  workload::ScenarioSpec scenario = SmallScenario();

  // Daemon A takes the whole workload in one SubscribeBatch verb, daemon
  // B takes it as individual Subscribe verbs; identical deliveries.
  auto batch_daemon = StartDaemon(scenario);
  auto seq_daemon = StartDaemon(scenario);
  ASSERT_NE(batch_daemon, nullptr);
  ASSERT_NE(seq_daemon, nullptr);
  ServeClient batch_client = MakeClient(*batch_daemon, "batcher");
  ServeClient seq_client = MakeClient(*seq_daemon, "sequential");
  ASSERT_TRUE(batch_client.Connect().ok());
  ASSERT_TRUE(seq_client.Connect().ok());

  // The scenario's queries plus a repeat of the first template at a
  // different target.
  std::vector<ControlRequest::BatchEntry> entries;
  for (const workload::QuerySpec& query : scenario.queries) {
    entries.push_back({query.text, query.target, /*strategy=*/2});
  }
  entries.push_back({scenario.queries[0].text,
                     scenario.queries[1].target, /*strategy=*/2});
  for (const ControlRequest::BatchEntry& entry : entries) {
    auto result = seq_client.Subscribe(
        entry.query_text, static_cast<network::NodeId>(entry.vq));
    ASSERT_TRUE(result.ok()) << result.status();
  }
  auto batched = batch_client.SubscribeBatch(entries);
  ASSERT_TRUE(batched.ok()) << batched.status();
  ASSERT_EQ(batched->entries.size(), entries.size());

  constexpr uint64_t kItems = 200;
  ASSERT_TRUE(batch_client.Feed(kItems).ok());
  ASSERT_TRUE(seq_client.Feed(kItems).ok());
  auto batch_stats = batch_client.Stats();
  auto seq_stats = seq_client.Stats();
  ASSERT_TRUE(batch_stats.ok()) << batch_stats.status();
  ASSERT_TRUE(seq_stats.ok()) << seq_stats.status();
  ASSERT_EQ(batch_stats->queries.size(), seq_stats->queries.size());
  uint64_t total = 0;
  for (size_t q = 0; q < batch_stats->queries.size(); ++q) {
    const QueryStat& a = batch_stats->queries[q];
    const QueryStat& b = seq_stats->queries[q];
    EXPECT_EQ(a.accepted, b.accepted) << "query " << q;
    EXPECT_EQ(batched->entries[q].accepted, b.accepted) << "query " << q;
    EXPECT_EQ(a.items, b.items) << "query " << q;
    EXPECT_EQ(a.bytes, b.bytes) << "query " << q;
    EXPECT_EQ(a.content_hash, b.content_hash) << "query " << q;
    total += a.items;
  }
  EXPECT_GT(total, 0u) << "workload delivered nothing; identity vacuous";

  // The batch subscriber receives deliveries for its accepted entries
  // just like individual subscribers do.
  uint64_t client_total = 0;
  for (const SubscribeReply& entry : batched->entries) {
    if (entry.accepted) {
      client_total += batch_client.results(entry.query_id).items;
    }
  }
  EXPECT_EQ(client_total, total);

  batch_daemon->RequestDrain(/*final_drain=*/true);
  seq_daemon->RequestDrain(/*final_drain=*/true);
  batch_daemon->Join();
  seq_daemon->Join();
  EXPECT_TRUE(batch_daemon->loop_status().ok())
      << batch_daemon->loop_status();
}

TEST(ServeDaemon, ReoptimizeVerbReportsAndKeepsServing) {
  workload::ScenarioSpec scenario = SmallScenario();
  auto daemon = StartDaemon(scenario);
  ASSERT_NE(daemon, nullptr);
  ServeClient client = MakeClient(*daemon, "reoptimizer");
  ASSERT_TRUE(client.Connect().ok());

  std::vector<ControlRequest::BatchEntry> entries;
  for (const workload::QuerySpec& query : scenario.queries) {
    entries.push_back({query.text, query.target, /*strategy=*/2});
  }
  auto batched = client.SubscribeBatch(entries);
  ASSERT_TRUE(batched.ok()) << batched.status();
  ASSERT_TRUE(client.Feed(100).ok());

  auto report = client.Reoptimize();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->examined, 0u);
  EXPECT_EQ(report->torn_down, 0u);

  // The daemon keeps serving after the pass, whatever it migrated.
  ClientQueryResults before = client.results(0);
  ASSERT_TRUE(client.Feed(100).ok());
  EXPECT_GT(client.results(0).items, before.items);

  daemon->RequestDrain(/*final_drain=*/true);
  daemon->Join();
  EXPECT_TRUE(daemon->loop_status().ok()) << daemon->loop_status();
}

TEST(ServeDaemon, ReoptimizeInterleavesWithLiveSubscribeAndFeed) {
  // Two clients hammer the daemon concurrently: one keeps subscribing
  // and feeding, the other keeps requesting re-optimization passes. The
  // daemon loop serializes the verbs; under TSAN this pins down that the
  // migration machinery shares no unsynchronized state with the live
  // subscribe/feed path (client threads vs the daemon loop thread).
  workload::ScenarioSpec scenario = SmallScenario();
  auto daemon = StartDaemon(scenario);
  ASSERT_NE(daemon, nullptr);

  std::thread subscriber([&] {
    ServeClient client = MakeClient(*daemon, "subscriber");
    ASSERT_TRUE(client.Connect().ok());
    for (int round = 0; round < 8; ++round) {
      const workload::QuerySpec& query =
          scenario.queries[round % scenario.queries.size()];
      auto result = client.Subscribe(query.text, query.target);
      ASSERT_TRUE(result.ok()) << result.status();
      ASSERT_TRUE(client.Feed(25).ok());
    }
    client.Close();
  });
  std::thread reoptimizer([&] {
    ServeClient client = MakeClient(*daemon, "reoptimizer");
    ASSERT_TRUE(client.Connect().ok());
    for (int round = 0; round < 8; ++round) {
      auto report = client.Reoptimize(/*max_migrations=*/2);
      ASSERT_TRUE(report.ok()) << report.status();
    }
    client.Close();
  });
  subscriber.join();
  reoptimizer.join();

  daemon->RequestDrain(/*final_drain=*/true);
  daemon->Join();
  EXPECT_TRUE(daemon->loop_status().ok()) << daemon->loop_status();
}

TEST(ServeDaemon, FeedResultsPrecedeTheAckInFewSends) {
  workload::ScenarioSpec scenario =
      workload::GridScenario(/*seed=*/13, /*query_count=*/20);
  auto daemon = StartDaemon(scenario);
  ASSERT_NE(daemon, nullptr);
  auto raw = RawClient::Connect(daemon->port());
  ASSERT_NE(raw, nullptr);
  ASSERT_TRUE(raw->Hello().ok());
  auto accepted = raw->SubscribeAll(scenario);
  ASSERT_TRUE(accepted.ok()) << accepted.status();
  ASSERT_FALSE(accepted->empty());
  uint64_t acks = 2;

  constexpr uint64_t kFeeds = 10;
  for (uint64_t feed = 0; feed < kFeeds; ++feed) {
    uint64_t results_before = 0;
    auto fed = raw->Call(RawClient::FeedRequest(10), &results_before);
    ASSERT_TRUE(fed.ok()) << fed.status();
    // Nothing of this feed trails its ACK: the sinks hold exactly what
    // arrived ahead of it.
    uint64_t stragglers = 0;
    auto stats = raw->Stats(&stragglers);
    ASSERT_TRUE(stats.ok()) << stats.status();
    EXPECT_EQ(stragglers, 0u) << "feed " << feed;
    raw->ExpectMatches(*stats);
    EXPECT_EQ(stats->results_forwarded, raw->results_seen);
    acks += 2;
  }
  EXPECT_TRUE(raw->seq_in_order);
  EXPECT_GT(raw->results_seen, 5 * kFeeds)
      << "too few deliveries for the send count to mean anything";

  ControlRequest drain;
  drain.verb = Verb::kDrain;
  drain.final_drain = true;
  ASSERT_TRUE(raw->Call(drain).ok());
  ++acks;
  ASSERT_TRUE(raw->ReadAck().ok());  // the EOS, after any flushed windows
  daemon->Join();
  EXPECT_TRUE(daemon->loop_status().ok()) << daemon->loop_status();

  DaemonStats stats = daemon->stats();
  EXPECT_EQ(stats.net_frames_out, raw->results_seen + acks + 1);
  EXPECT_EQ(stats.net_bytes_out, raw->conn.bytes_received());
  // One send() per answered request; a feed's pass and the drain's EOS
  // may take a second when their output outgrows the socket buffer.
  EXPECT_LE(stats.net_sends, acks + kFeeds + 2);
  obs::MetricsRegistry registry;
  daemon->ExportMetrics(&registry);
  EXPECT_EQ(registry.GetGauge("serve.net.sends")->Value(),
            static_cast<double>(stats.net_sends));
  EXPECT_EQ(registry.GetGauge("serve.net.frames_out")->Value(),
            static_cast<double>(stats.net_frames_out));
  EXPECT_EQ(registry.GetGauge("serve.net.bytes_out")->Value(),
            static_cast<double>(stats.net_bytes_out));
}

TEST(ServeDaemon, StalledSubscriberIsBufferedWithoutStallingOthers) {
  // Whole-item queries: many result bytes for little engine work.
  workload::ScenarioSpec scenario =
      workload::GridScenario(/*seed=*/13, /*query_count=*/0);
  for (network::NodeId target : {1, 4, 5, 6, 9, 10, 11, 14}) {
    scenario.queries.push_back(
        {"<all> { for $p in stream(\"photons\")/photons/photon "
         "return $p } </all>",
         target});
  }
  auto daemon = StartDaemon(scenario);
  ASSERT_NE(daemon, nullptr);
  // The subscriber's small receive buffer fills after a few frames.
  auto subscriber = RawClient::Connect(daemon->port(), /*rcvbuf=*/4096);
  ASSERT_NE(subscriber, nullptr);
  ASSERT_TRUE(subscriber->Hello().ok());
  auto accepted = subscriber->SubscribeAll(scenario);
  ASSERT_TRUE(accepted.ok()) << accepted.status();
  ASSERT_FALSE(accepted->empty());
  ServeClient feeder = MakeClient(*daemon, "feeder");
  ASSERT_TRUE(feeder.Connect().ok());

  // The subscriber stops reading while the feeder keeps feeding; the
  // kernel buffers a few MB first (the daemon's send buffer autotunes).
  // Each feed forwards far more than kAckSlack bytes of results to the
  // subscriber. Once its socket is full, the daemon's bytes out grow by
  // little more than the feeder's ACKs across a feed. The feeder's Stats round trip after each
  // feed makes the daemon fold that feed's pass into its counters first.
  constexpr uint64_t kAckSlack = 1024;
  uint64_t bytes_out = daemon->stats().net_bytes_out;
  uint64_t feeds = 0;
  bool backed_up = false;
  while (!backed_up && feeds < 400) {
    const uint64_t forwarded = daemon->stats().results_forwarded;
    auto fed = feeder.Feed(200);
    ASSERT_TRUE(fed.ok()) << fed.status();
    ASSERT_TRUE(feeder.Stats().ok());
    ++feeds;
    const DaemonStats now = daemon->stats();
    ASSERT_GT(now.results_forwarded, forwarded) << "feed " << feeds;
    backed_up = now.net_bytes_out - bytes_out < kAckSlack;
    bytes_out = now.net_bytes_out;
  }
  ASSERT_TRUE(backed_up) << "the subscriber's socket never filled";
  // The first feed meets an empty socket: its results leave.
  EXPECT_GT(feeds, 1u);
  for (int more = 0; more < 3; ++more) {
    ASSERT_TRUE(feeder.Feed(200).ok());
  }

  // Resumed, the subscriber gets every queued frame intact, ahead of
  // its Stats ACK.
  auto stats = subscriber->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_TRUE(subscriber->seq_in_order);
  subscriber->ExpectMatches(*stats);
  EXPECT_EQ(stats->results_forwarded, subscriber->results_seen);

  daemon->RequestDrain(/*final_drain=*/true);
  daemon->Join();
  EXPECT_TRUE(daemon->loop_status().ok()) << daemon->loop_status();
}

TEST(ServeDaemon, BrokenSubscriberDoesNotFailAnotherClientsFeed) {
  workload::ScenarioSpec scenario = SmallScenario();
  auto daemon = StartDaemon(scenario);
  ASSERT_NE(daemon, nullptr);
  // The feeder connects first, so the loop serves it ahead of the
  // subscriber within a pass.
  auto feeder = RawClient::Connect(daemon->port());
  auto subscriber = RawClient::Connect(daemon->port());
  ASSERT_NE(feeder, nullptr);
  ASSERT_NE(subscriber, nullptr);
  ASSERT_TRUE(feeder->Hello().ok());
  ASSERT_TRUE(subscriber->Hello().ok());
  auto accepted = subscriber->SubscribeAll(scenario);
  ASSERT_TRUE(accepted.ok()) << accepted.status();
  ASSERT_FALSE(accepted->empty());

  // Two pipelined feeds around the subscriber's socket going away: the
  // daemon forwards into a broken connection while serving them.
  ASSERT_TRUE(feeder->Send(RawClient::FeedRequest(100)).ok());
  ASSERT_EQ(::shutdown(subscriber->conn.fd(), SHUT_RDWR), 0);
  ASSERT_TRUE(feeder->Send(RawClient::FeedRequest(100)).ok());
  for (int feed = 0; feed < 2; ++feed) {
    auto ack = feeder->ReadAck();
    ASSERT_TRUE(ack.ok()) << ack.status();
    // Both feeds were applied and made durable; their ACKs say so.
    EXPECT_TRUE(ResponseStatus(*ack).ok()) << ResponseStatus(*ack);
  }

  // The broken subscriber's queries are collected as on disconnect.
  bool collected = false;
  for (int i = 0; i < 100 && !collected; ++i) {
    auto stats = feeder->Stats();
    ASSERT_TRUE(stats.ok()) << stats.status();
    collected = true;
    for (const QueryStat& query : stats->queries) {
      if (query.active) collected = false;
    }
  }
  EXPECT_TRUE(collected) << "the broken subscriber's queries stayed";
  EXPECT_EQ(daemon->stats().unsubscribed, accepted->size());
  EXPECT_EQ(daemon->stats().items_fed, 200u);

  daemon->RequestDrain(/*final_drain=*/true);
  daemon->Join();
  EXPECT_TRUE(daemon->loop_status().ok()) << daemon->loop_status();
}

TEST(ServeDaemon, MidLogAttachDecodesEveryResultBodyOnItsOwn) {
  workload::ScenarioSpec scenario =
      workload::GridScenario(/*seed=*/13, /*query_count=*/20);
  auto daemon = StartDaemon(scenario);
  ASSERT_NE(daemon, nullptr);
  auto first = RawClient::Connect(daemon->port());
  ASSERT_NE(first, nullptr);
  ASSERT_TRUE(first->Hello().ok());
  auto accepted = first->SubscribeAll(scenario);
  ASSERT_TRUE(accepted.ok()) << accepted.status();
  ASSERT_TRUE(first->Call(RawClient::FeedRequest(200)).ok());
  // The query with the most deliveries, attached from the middle of its
  // log by a connection that has seen no frame before.
  int64_t query = -1;
  uint64_t delivered = 0;
  for (const auto& [id, results] : first->results) {
    if (results.items > delivered) {
      query = id;
      delivered = results.items;
    }
  }
  ASSERT_GT(delivered, 4u);
  ASSERT_TRUE(first->Detach().ok());

  const uint64_t mid = delivered / 2;
  auto late = RawClient::Connect(daemon->port());
  ASSERT_NE(late, nullptr);
  ASSERT_TRUE(late->Hello().ok());
  ASSERT_TRUE(late->Attach(query, mid).ok());
  ASSERT_TRUE(late->Call(RawClient::FeedRequest(20)).ok());
  const auto& got = late->trees[query];
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got.begin()->first, mid);
  // Each body decoded with a reset decoder, and it is the very delivery
  // the first connection decoded at that sequence.
  for (uint64_t seq = mid; seq < delivered; ++seq) {
    ASSERT_EQ(got.count(seq), 1u) << "seq " << seq;
    EXPECT_TRUE(got.at(seq)->Equals(*first->trees[query].at(seq)))
        << "seq " << seq;
  }
  daemon->RequestDrain(/*final_drain=*/true);
  daemon->Join();
}

TEST(ServeDaemon, ReattachAtZeroGetsTheTicksTheFirstLifeSent) {
  workload::ScenarioSpec scenario =
      workload::GridScenario(/*seed=*/13, /*query_count=*/20);
  auto daemon = StartDaemon(scenario);
  ASSERT_NE(daemon, nullptr);
  auto first = RawClient::Connect(daemon->port());
  ASSERT_NE(first, nullptr);
  ASSERT_TRUE(first->Hello().ok());
  auto accepted = first->SubscribeAll(scenario);
  ASSERT_TRUE(accepted.ok()) << accepted.status();
  // Several feeds: each forwarding pass stamps its deliveries with a tick
  // of its own.
  for (int feed = 0; feed < 5; ++feed) {
    ASSERT_TRUE(first->Call(RawClient::FeedRequest(40)).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  int64_t query = -1;
  uint64_t delivered = 0;
  for (const auto& [id, results] : first->results) {
    if (results.items > delivered) {
      query = id;
      delivered = results.items;
    }
  }
  const auto& sent = first->frames[query];
  ASSERT_EQ(sent.size(), delivered);
  std::set<uint64_t> ticks;
  for (const auto& [seq, frame] : sent) ticks.insert(frame.first);
  ASSERT_GT(ticks.size(), 1u) << "the feeds' passes share one tick";
  ASSERT_TRUE(first->Detach().ok());

  auto again = RawClient::Connect(daemon->port());
  ASSERT_NE(again, nullptr);
  ASSERT_TRUE(again->Hello().ok());
  ASSERT_TRUE(again->Attach(query, 0).ok());
  ASSERT_TRUE(again->Call(RawClient::FeedRequest(20)).ok());
  const auto& resent = again->frames[query];
  for (uint64_t seq = 0; seq < delivered; ++seq) {
    ASSERT_EQ(resent.count(seq), 1u) << "seq " << seq;
    EXPECT_EQ(resent.at(seq).first, sent.at(seq).first) << "seq " << seq;
    EXPECT_EQ(resent.at(seq).second, sent.at(seq).second) << "seq " << seq;
  }
  daemon->RequestDrain(/*final_drain=*/true);
  daemon->Join();
}

TEST(ServeDaemon, Protocol2HelloIsRefused) {
  workload::ScenarioSpec scenario = SmallScenario();
  auto daemon = StartDaemon(scenario);
  ASSERT_NE(daemon, nullptr);
  auto raw = RawClient::Connect(daemon->port());
  ASSERT_NE(raw, nullptr);
  // A protocol-2 client keeps one codec dictionary per connection and
  // would misread self-contained RESULT bodies.
  ControlRequest old_hello;
  old_hello.verb = Verb::kHello;
  old_hello.protocol = 2;
  old_hello.client_name = "v2";
  Status refused = raw->Call(old_hello).status();
  EXPECT_TRUE(refused.IsUnsupported()) << refused;
  EXPECT_NE(refused.message().find("serve protocol 2"), std::string::npos)
      << refused.message();
  ControlRequest feed = RawClient::FeedRequest(1);
  EXPECT_TRUE(raw->Call(feed).status().IsInvalidArgument())
      << "a refused Hello must not open the connection";
  EXPECT_TRUE(raw->Hello().ok());
  daemon->RequestDrain(/*final_drain=*/true);
  daemon->Join();
}

TEST(ServeDaemon, FeedAfterUnsubscribeDoesNotRecreateTheQueryChannel) {
  workload::ScenarioSpec scenario = SmallScenario();
  auto daemon = StartDaemon(scenario);
  ASSERT_NE(daemon, nullptr);
  ServeClient client = MakeClient(*daemon, "churner");
  ASSERT_TRUE(client.Connect().ok());
  auto q0 = client.Subscribe(scenario.queries[0].text,
                             scenario.queries[0].target);
  auto q1 = client.Subscribe(scenario.queries[1].text,
                             scenario.queries[1].target);
  ASSERT_TRUE(q0.ok() && q0->accepted);
  ASSERT_TRUE(q1.ok() && q1->accepted);
  ASSERT_TRUE(client.Feed(50).ok());
  EXPECT_EQ(daemon->stats().forward_channels, 2u);
  ASSERT_TRUE(client.Unsubscribe(q1->query_id).ok());
  EXPECT_EQ(daemon->stats().forward_channels, 1u);
  // The next forwarding pass scans only attached queries: the departed
  // one's channel stays gone.
  ASSERT_TRUE(client.Feed(50).ok());
  EXPECT_EQ(daemon->stats().forward_channels, 1u);
  EXPECT_GT(client.results(q0->query_id).items, 0u);
  daemon->RequestDrain(/*final_drain=*/true);
  daemon->Join();
}

TEST(ServeDaemon, UnsubscribeFreesTheResultLogAndKeepsStatsRows) {
  workload::ScenarioSpec scenario =
      workload::GridScenario(/*seed=*/13, /*query_count=*/20);
  DaemonOptions options;
  options.checkpoint_path =
      ::testing::TempDir() + "/serve_unsubscribe_log.ckpt";
  std::remove(options.checkpoint_path.c_str());
  std::remove(DefaultWalPath(options.checkpoint_path).c_str());
  auto daemon = StartDaemon(scenario, options);
  ASSERT_NE(daemon, nullptr);
  ServeClient client = MakeClient(*daemon, "churner");
  ASSERT_TRUE(client.Connect().ok());
  std::vector<ControlRequest::BatchEntry> entries;
  for (const workload::QuerySpec& query : scenario.queries) {
    entries.push_back({query.text, query.target, /*strategy=*/2});
  }
  auto batched = client.SubscribeBatch(entries);
  ASSERT_TRUE(batched.ok()) << batched.status();
  ASSERT_TRUE(client.Feed(200).ok());
  auto before = client.Stats();
  ASSERT_TRUE(before.ok()) << before.status();

  // Every other accepted query leaves.
  for (size_t i = 0; i < batched->entries.size(); i += 2) {
    if (!batched->entries[i].accepted) continue;
    ASSERT_TRUE(client.Unsubscribe(batched->entries[i].query_id).ok());
  }
  auto after = client.Stats();
  ASSERT_TRUE(after.ok()) << after.status();
  ASSERT_EQ(after->queries.size(), before->queries.size());
  uint64_t delivered = 0, active_delivered = 0;
  for (size_t q = 0; q < after->queries.size(); ++q) {
    const QueryStat& was = before->queries[q];
    const QueryStat& is = after->queries[q];
    EXPECT_EQ(is.accepted, was.accepted) << "query " << q;
    EXPECT_EQ(is.items, was.items) << "query " << q;
    EXPECT_EQ(is.bytes, was.bytes) << "query " << q;
    EXPECT_EQ(is.content_hash, was.content_hash) << "query " << q;
    delivered += is.items;
    if (is.active) active_delivered += is.items;
  }
  ASSERT_LT(active_delivered, delivered)
      << "the departed queries delivered nothing; the check is vacuous";

  // A restartable drain flushes no window, so the logs hold exactly what
  // the feed delivered: the active queries' share.
  ASSERT_TRUE(client.Drain(/*final_drain=*/false).ok());
  ASSERT_TRUE(client.WaitEos(10000).ok());
  daemon->Join();
  EXPECT_TRUE(daemon->loop_status().ok()) << daemon->loop_status();
  obs::MetricsRegistry registry;
  daemon->ExportMetrics(&registry);
  EXPECT_EQ(registry.GetGauge("engine.sink.retained_results")->Value(),
            static_cast<double>(active_delivered));
  std::remove(options.checkpoint_path.c_str());
  std::remove(DefaultWalPath(options.checkpoint_path).c_str());
}

/// Copies the checkpoint and WAL a running daemon has made durable: what
/// a kill -9 would leave on disk, since every ACK follows its fsync.
void CopyDurableState(const std::string& from, const std::string& to) {
  for (const auto& [src, dst] :
       {std::pair(from, to), std::pair(DefaultWalPath(from),
                                       DefaultWalPath(to))}) {
    std::ifstream in(src, std::ios::binary);
    std::ofstream(dst, std::ios::binary) << in.rdbuf();
  }
}

void RemoveDurableState(const std::string& checkpoint_path) {
  std::remove(checkpoint_path.c_str());
  std::remove(DefaultWalPath(checkpoint_path).c_str());
}

/// The replay test's history: 677 items per stream in nine feeds, the
/// first larger than a replay chunk, with three Subscribes and one
/// Unsubscribe spread over it.
Status PlayReplayHistory(ServeClient* client,
                         const workload::ScenarioSpec& scenario) {
  auto subscribe = [&](size_t q) -> Result<int64_t> {
    SS_ASSIGN_OR_RETURN(SubscribeReply reply,
                        client->Subscribe(scenario.queries[q].text,
                                          scenario.queries[q].target));
    if (!reply.accepted) return Status::Internal("query rejected");
    return reply.query_id;
  };
  SS_ASSIGN_OR_RETURN(int64_t first, subscribe(0));
  SS_RETURN_IF_ERROR(subscribe(1).status());
  SS_RETURN_IF_ERROR(client->Feed(301).status());
  for (int i = 0; i < 5; ++i) SS_RETURN_IF_ERROR(client->Feed(13).status());
  SS_RETURN_IF_ERROR(subscribe(2).status());
  SS_RETURN_IF_ERROR(client->Feed(203).status());
  SS_RETURN_IF_ERROR(client->Unsubscribe(first));
  SS_RETURN_IF_ERROR(client->Feed(97).status());
  return client->Feed(11).status();
}

void ExpectSameStatsRows(const StatsReply& got, const StatsReply& want) {
  EXPECT_EQ(got.items_fed, want.items_fed);
  ASSERT_EQ(got.queries.size(), want.queries.size());
  for (size_t q = 0; q < want.queries.size(); ++q) {
    const QueryStat& is = got.queries[q];
    const QueryStat& was = want.queries[q];
    EXPECT_EQ(is.query_id, was.query_id) << "query " << q;
    EXPECT_EQ(is.accepted, was.accepted) << "query " << q;
    EXPECT_EQ(is.active, was.active) << "query " << q;
    EXPECT_EQ(is.items, was.items) << "query " << q;
    EXPECT_EQ(is.bytes, was.bytes) << "query " << q;
    EXPECT_EQ(is.content_hash, was.content_hash) << "query " << q;
  }
}

// Recovery replays the history in bounded chunks and merges the WAL
// tail's consecutive feed records; neither may change a result. Batches
// of 8 make a replay chunk 128 items per stream, so the history spans
// several chunks and none of its feed offsets falls on a batch or chunk
// boundary. After a WAL-tail restart, and then a restart from the
// checkpoint that one folded, every per-query Stats row equals the
// uninterrupted daemon's, and so does a live feed afterwards.
TEST(ServeDaemon, ChunkedReplayMatchesTheUninterruptedDaemon) {
  const workload::ScenarioSpec scenario = SmallScenario();
  constexpr uint64_t kHistoryItems = 677;
  constexpr uint64_t kHistoryEvents = 4;
  constexpr uint64_t kHistoryRegistrations = 3;  // + one unsubscribe
  constexpr uint64_t kHistoryRecords = kHistoryEvents + 9;  // + feeds
  DaemonOptions options;
  options.system.batch_size = 8;
  const std::string base = ::testing::TempDir() + "/serve_chunked_replay";
  DaemonOptions live_options = options;
  live_options.checkpoint_path = base + ".live.ckpt";
  DaemonOptions wal_tail_options = options;
  wal_tail_options.checkpoint_path = base + ".wal_tail.ckpt";
  DaemonOptions restored_options = options;
  restored_options.checkpoint_path = base + ".restored.ckpt";
  for (const DaemonOptions* durable :
       {&live_options, &wal_tail_options, &restored_options}) {
    RemoveDurableState(durable->checkpoint_path);
  }

  auto reference = StartDaemon(scenario, options);
  auto live = StartDaemon(scenario, live_options);
  ASSERT_NE(reference, nullptr);
  ASSERT_NE(live, nullptr);
  ServeClient reference_client = MakeClient(*reference, "reference");
  ServeClient live_client = MakeClient(*live, "live");
  ASSERT_TRUE(reference_client.Connect().ok());
  ASSERT_TRUE(live_client.Connect().ok());
  Status played = PlayReplayHistory(&reference_client, scenario);
  ASSERT_TRUE(played.ok()) << played;
  played = PlayReplayHistory(&live_client, scenario);
  ASSERT_TRUE(played.ok()) << played;
  auto want = reference_client.Stats();
  ASSERT_TRUE(want.ok()) << want.status();
  ASSERT_EQ(want->items_fed, kHistoryItems);
  uint64_t delivered = 0;
  for (const QueryStat& query : want->queries) delivered += query.items;
  ASSERT_GT(delivered, 0u) << "the history delivers nothing to compare";
  auto live_stats = live_client.Stats();
  ASSERT_TRUE(live_stats.ok()) << live_stats.status();
  ExpectSameStatsRows(*live_stats, *want);

  // Restarts the daemon from `options`' durable files; expects it to
  // have replayed the whole history and to match the reference.
  auto restart = [&](const DaemonOptions& durable,
                     uint64_t wal_records) -> std::unique_ptr<ServeDaemon> {
    auto daemon = StartDaemon(scenario, durable);
    if (daemon == nullptr) return nullptr;
    EXPECT_EQ(daemon->stats().wal_recovered_records, wal_records);
    obs::MetricsRegistry registry;
    daemon->ExportMetrics(&registry);
    EXPECT_EQ(registry.GetGauge("serve.recovery.replay_items")->Value(),
              static_cast<double>(kHistoryItems));
    EXPECT_EQ(registry.GetGauge("serve.recovery.replayed_events")->Value(),
              static_cast<double>(kHistoryEvents));
    EXPECT_EQ(
        registry.GetGauge("serve.recovery.replayed_registrations")->Value(),
        static_cast<double>(kHistoryRegistrations));
    // Replay rebuilds each logged plan; it never searches (invariant 12).
    EXPECT_EQ(
        registry.GetGauge("serve.recovery.candidates_examined")->Value(),
        0.0);
    const DaemonStats recovered = daemon->stats();
    EXPECT_LE(recovered.recovery_replay_register_us +
                  recovered.recovery_replay_feed_us,
              recovered.recovery_replay_us);
    ServeClient client = MakeClient(*daemon, "recovered");
    EXPECT_TRUE(client.Connect().ok());
    auto stats = client.Stats();
    EXPECT_TRUE(stats.ok()) << stats.status();
    if (stats.ok()) {
      ExpectSameStatsRows(*stats, *want);
      // Stats carries the same recovery figures as --metrics.
      EXPECT_EQ(stats->recovery_replayed_registrations,
                kHistoryRegistrations);
      EXPECT_EQ(stats->recovery_candidates_examined,
                recovered.recovery_candidates_examined);
      EXPECT_EQ(stats->recovery_replay_us, recovered.recovery_replay_us);
      EXPECT_EQ(stats->recovery_checkpoint_load_us,
                recovered.recovery_checkpoint_load_us);
      EXPECT_EQ(stats->recovery_wal_scan_us,
                recovered.recovery_wal_scan_us);
      EXPECT_EQ(stats->recovery_replay_register_us,
                recovered.recovery_replay_register_us);
      EXPECT_EQ(stats->recovery_replay_feed_us,
                recovered.recovery_replay_feed_us);
      EXPECT_EQ(stats->recovery_fold_us, recovered.recovery_fold_us);
    }
    return daemon;
  };
  std::unique_ptr<ServeDaemon> wal_tail;
  {
    SCOPED_TRACE("wal-tail restart");
    CopyDurableState(live_options.checkpoint_path,
                     wal_tail_options.checkpoint_path);
    wal_tail = restart(wal_tail_options, kHistoryRecords);
    ASSERT_NE(wal_tail, nullptr);
  }
  SCOPED_TRACE("checkpoint restart");
  // The WAL-tail restart folded the tail into a checkpoint and left an
  // empty log.
  CopyDurableState(wal_tail_options.checkpoint_path,
                   restored_options.checkpoint_path);
  auto restored = restart(restored_options, 0);
  ASSERT_NE(restored, nullptr);

  // Live again: one more feed larger than a chunk delivers the same.
  ServeClient restored_client = MakeClient(*restored, "restored");
  ASSERT_TRUE(restored_client.Connect().ok());
  ASSERT_TRUE(reference_client.Feed(150).ok());
  ASSERT_TRUE(restored_client.Feed(150).ok());
  want = reference_client.Stats();
  ASSERT_TRUE(want.ok()) << want.status();
  auto restored_stats = restored_client.Stats();
  ASSERT_TRUE(restored_stats.ok()) << restored_stats.status();
  ExpectSameStatsRows(*restored_stats, *want);

  for (const DaemonOptions* durable :
       {&live_options, &wal_tail_options, &restored_options}) {
    RemoveDurableState(durable->checkpoint_path);
  }
}

TEST(ServeDaemon, RestartableDrainNeedsCheckpointPath) {
  workload::ScenarioSpec scenario = SmallScenario();
  auto daemon = StartDaemon(scenario);  // no checkpoint_path
  ASSERT_NE(daemon, nullptr);
  ServeClient client = MakeClient(*daemon, "no-ckpt");
  ASSERT_TRUE(client.Connect().ok());
  auto drained = client.Drain(/*final_drain=*/false);
  EXPECT_TRUE(drained.status().IsInvalidArgument()) << drained.status();
  daemon->RequestDrain(/*final_drain=*/true);
  daemon->Join();
}

}  // namespace
}  // namespace streamshare::serve
