#include "serve/serve_oracle.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>

#include "serve/client.h"

namespace streamshare::serve {

Result<ServeRunReport> RunScenarioThroughDaemon(
    const workload::ScenarioSpec& scenario,
    const ServeRunOptions& options) {
  if (options.drain_at > 0 && options.checkpoint_path.empty()) {
    return Status::InvalidArgument(
        "drain_at needs a checkpoint_path to restart from");
  }
  if (!options.checkpoint_path.empty()) {
    // A stale checkpoint (or its WAL) from an earlier run must not
    // hijack the fresh start.
    std::remove(options.checkpoint_path.c_str());
    std::remove(DefaultWalPath(options.checkpoint_path).c_str());
  }

  DaemonOptions daemon_options;
  daemon_options.port = 0;
  daemon_options.checkpoint_path = options.checkpoint_path;
  daemon_options.resume = options.resume;
  daemon_options.system = options.system;

  auto daemon = std::make_unique<ServeDaemon>(scenario, daemon_options);
  SS_RETURN_IF_ERROR(daemon->Start());

  ClientOptions client_options;
  client_options.port = daemon->port();
  client_options.name = "serve-oracle";
  ServeClient client(client_options);
  SS_RETURN_IF_ERROR(client.Connect());

  // Subscribe every scenario query live, through the real planner.
  std::vector<SubscribeReply> subscriptions;
  subscriptions.reserve(scenario.queries.size());
  for (const workload::QuerySpec& query : scenario.queries) {
    SS_ASSIGN_OR_RETURN(
        SubscribeReply reply,
        client.Subscribe(query.text, query.target, options.strategy));
    subscriptions.push_back(std::move(reply));
  }

  // Feeds in chunks; deliveries arrive interleaved with each Feed ACK, so
  // the client accumulates them inside Feed() itself.
  auto feed = [&](size_t from, size_t to) -> Status {
    for (size_t at = from; at < to; at += options.feed_chunk) {
      SS_RETURN_IF_ERROR(
          client.Feed(std::min(options.feed_chunk, to - at)).status());
    }
    return Status::Ok();
  };
  auto apply = [&](const workload::ChurnEvent& event) -> Status {
    if (event.kind == workload::ChurnEvent::Kind::kFailPeer) {
      return client.FailPeer(event.peer).status();
    }
    return client.CutLink(event.link_a, event.link_b).status();
  };

  ServeRunReport report;
  workload::ChurnWalk walk(options.churn, options.items_per_stream);
  if (options.drain_at > 0 && options.drain_at < options.items_per_stream) {
    SS_RETURN_IF_ERROR(walk.RunTo(options.drain_at, feed, apply));

    // Restartable drain: checkpoint, EOS to every client, loop exit.
    SS_ASSIGN_OR_RETURN(DrainReply drained,
                        client.Drain(/*final_drain=*/false));
    (void)drained;
    SS_ASSIGN_OR_RETURN(ServeEos eos, client.WaitEos(10000));
    if (eos.final_drain) {
      return Status::Internal(
          "restartable drain answered with a final EOS");
    }
    client.Close();
    daemon->Join();
    SS_RETURN_IF_ERROR(daemon->loop_status());

    // Second service life: resume from the checkpoint.
    daemon = std::make_unique<ServeDaemon>(scenario, daemon_options);
    SS_RETURN_IF_ERROR(daemon->Start());
    report.epochs = daemon->epoch() + 1;

    client.set_port(daemon->port());
    SS_RETURN_IF_ERROR(client.Connect());

    // Re-attach every query that survived (admission rejects never
    // deployed; churn may have torn some down — those stay detached).
    for (const SubscribeReply& subscription : subscriptions) {
      if (!subscription.accepted) continue;
      Result<SubscribeReply> attach = client.Attach(
          subscription.query_id,
          client.results(subscription.query_id).next_seq);
      if (!attach.ok() && !attach.status().IsNotFound()) {
        return attach.status();
      }
    }
  }

  SS_RETURN_IF_ERROR(walk.RunToEnd(feed, apply));

  // Final drain flushes every in-flight window and forwards the tail.
  SS_ASSIGN_OR_RETURN(DrainReply drained,
                      client.Drain(/*final_drain=*/true));
  (void)drained;
  SS_ASSIGN_OR_RETURN(ServeEos eos, client.WaitEos(10000));
  if (!eos.final_drain) {
    return Status::Internal("final drain answered with a restartable EOS");
  }
  client.Close();
  daemon->Join();
  SS_RETURN_IF_ERROR(daemon->loop_status());

  DaemonStats stats = daemon->stats();
  report.items_fed = stats.items_fed;
  report.results_forwarded = stats.results_forwarded;
  report.queries.reserve(subscriptions.size());
  for (const SubscribeReply& subscription : subscriptions) {
    ServeQueryObservation observation;
    observation.query_id = subscription.query_id;
    observation.accepted = subscription.accepted;
    observation.reject_reason = subscription.reject_reason;
    if (subscription.accepted) {
      ClientQueryResults results = client.results(subscription.query_id);
      observation.items = results.items;
      observation.bytes = results.bytes;
      observation.content_hash = results.content_hash;
    }
    report.queries.push_back(std::move(observation));
  }
  return report;
}

}  // namespace streamshare::serve
