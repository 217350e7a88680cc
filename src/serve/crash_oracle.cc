#include "serve/crash_oracle.h"

#include <poll.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <utility>

#include "serve/client.h"
#include "serve/crashpoint.h"
#include "serve/daemon.h"
#include "serve/wal.h"

namespace streamshare::serve {

namespace {

// A dropped connection is the only signal the parent gets that the
// armed crashpoint fired (Unavailable for EOF/refused, Internal for the
// errno paths of a socket that died mid-request). Structured rejections
// keep their codes and are never treated as a crash.
bool IsConnectionLoss(const Status& status) {
  return status.IsUnavailable() || status.IsInternal();
}

// Churn verbs are not idempotent on the wire, but their durable effect
// is: a retried FailPeer/CutLink whose first send was acked-and-logged
// answers "is already dead"/"is already down" — that is the success we
// were waiting to hear about.
bool IsAlreadyApplied(const Status& status) {
  return status.IsInvalidArgument() &&
         (status.message().find("already dead") != std::string::npos ||
          status.message().find("already down") != std::string::npos);
}

[[noreturn]] void RunDaemonChild(const workload::ScenarioSpec& scenario,
                                 const DaemonOptions& options,
                                 const std::string& crash_spec,
                                 int port_pipe_wr) {
  if (!crash_spec.empty() && !crashpoint::Arm(crash_spec).ok()) _exit(64);
  ServeDaemon daemon(scenario, options);
  if (!daemon.Start().ok()) _exit(65);
  int32_t port = daemon.port();
  ssize_t wrote = ::write(port_pipe_wr, &port, sizeof(port));
  ::close(port_pipe_wr);
  if (wrote != static_cast<ssize_t>(sizeof(port))) _exit(66);
  daemon.Join();
  _exit(daemon.loop_status().ok() ? 0 : 67);
}

}  // namespace

Result<CrashRunReport> RunCrashScenario(
    const workload::ScenarioSpec& scenario,
    const CrashRunOptions& options) {
  if (options.state_dir.empty()) {
    return Status::InvalidArgument("crash oracle needs a state_dir");
  }
  const std::string checkpoint_path = options.state_dir + "/checkpoint";
  std::remove(checkpoint_path.c_str());
  std::remove(DefaultWalPath(checkpoint_path).c_str());

  DaemonOptions daemon_options;
  daemon_options.port = 0;
  daemon_options.checkpoint_path = checkpoint_path;
  daemon_options.resume = ResumeFlavor::kReplay;
  daemon_options.wal_compact_bytes = options.wal_compact_bytes;
  daemon_options.system = options.system;

  ClientOptions client_options;
  client_options.name = "crash-oracle";
  client_options.timeout_ms = 10000;
  client_options.reconnect.max_attempts = 4;
  client_options.reconnect.initial_backoff_ms = 5;
  client_options.reconnect.max_backoff_ms = 100;
  ServeClient client(client_options);

  CrashRunReport report;
  pid_t child = -1;
  int next_life = 0;

  // Spawns daemon lives until one survives its own startup (a crashpoint
  // armed inside the recovery path kills the child before it ever
  // listens — that death is part of the exercise, not a failure).
  auto spawn_next_life = [&]() -> Status {
    while (true) {
      if (next_life >= options.max_lives) {
        return Status::Internal(
            "crash oracle exceeded " + std::to_string(options.max_lives) +
            " daemon lives without finishing the workload");
      }
      std::string spec = static_cast<size_t>(next_life) <
                                 options.crash_specs.size()
                             ? options.crash_specs[next_life]
                             : std::string();
      ++next_life;
      ++report.lives;
      int fds[2];
      if (::pipe(fds) != 0) return Status::Internal("pipe failed");
      pid_t pid = ::fork();
      if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        return Status::Internal("fork failed");
      }
      if (pid == 0) {
        ::close(fds[0]);
        RunDaemonChild(scenario, daemon_options, spec, fds[1]);
      }
      ::close(fds[1]);
      int32_t port = 0;
      ssize_t got = ::read(fds[0], &port, sizeof(port));
      ::close(fds[0]);
      if (got == static_cast<ssize_t>(sizeof(port))) {
        child = pid;
        client.set_port(port);
        return Status::Ok();
      }
      // No port: the life died before listening. Reap it and decide —
      // a SIGKILL is the armed crashpoint doing its job; a clean exit
      // code is a startup refusal worth surfacing.
      int wstatus = 0;
      ::waitpid(pid, &wstatus, 0);
      if (WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL) {
        ++report.crashes;
        continue;
      }
      return Status::Internal(
          "daemon life refused to start (exit " +
          std::to_string(WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1) +
          ")");
    }
  };

  // After a connection loss, the child must actually be dead before we
  // respawn over its state files. The SIGKILL it sent itself can race
  // the parent's read error by a scheduling quantum.
  auto confirm_dead = [&]() -> Status {
    if (child < 0) return Status::Ok();
    int wstatus = 0;
    for (int i = 0; i < 500; ++i) {
      pid_t got = ::waitpid(child, &wstatus, WNOHANG);
      if (got == child) {
        child = -1;
        return Status::Ok();
      }
      if (got < 0) {
        child = -1;
        return Status::Ok();
      }
      ::poll(nullptr, 0, 10);
    }
    ::kill(child, SIGKILL);
    ::waitpid(child, &wstatus, 0);
    child = -1;
    return Status::Internal(
        "daemon survived the connection loss that was blamed on it");
  };

  std::vector<SubscribeReply> subscriptions;
  size_t fed = 0;

  // Brings the client back in sync with a freshly recovered daemon:
  // reconnect + re-attach (the client resumes each query at next_seq),
  // re-read the durable feed offset, and adopt any registration whose
  // ACK the crash swallowed — the WAL syncs before the ACK leaves, so
  // the daemon's registration list is the authoritative prefix of ours.
  auto resync = [&]() -> Status {
    SS_RETURN_IF_ERROR(client.Reconnect());
    fed = client.hello().items_fed;
    SS_ASSIGN_OR_RETURN(StatsReply stats, client.Stats());
    while (subscriptions.size() < stats.queries.size()) {
      const QueryStat& stat = stats.queries[subscriptions.size()];
      SubscribeReply adopted;
      adopted.query_id = stat.query_id;
      adopted.accepted = stat.accepted;
      if (!stat.accepted) adopted.reject_reason = "rejected (crash ate the ack)";
      if (stat.accepted) {
        SS_ASSIGN_OR_RETURN(
            SubscribeReply attach,
            client.Attach(stat.query_id,
                          client.results(stat.query_id).next_seq));
        (void)attach;
      }
      subscriptions.push_back(std::move(adopted));
    }
    return Status::Ok();
  };

  // Runs one workload step, absorbing however many crash/recover rounds
  // it takes. Ops must be written to consult the resynced state
  // (subscriptions, fed) so a retry never double-applies.
  auto guarded = [&](const std::function<Status()>& op) -> Status {
    Status status = op();
    while (!status.ok() && IsConnectionLoss(status)) {
      SS_RETURN_IF_ERROR(confirm_dead());
      ++report.crashes;
      SS_RETURN_IF_ERROR(spawn_next_life());
      Status synced = resync();
      if (!synced.ok()) {
        if (IsConnectionLoss(synced)) {
          status = synced;  // crashed again mid-resync; go around
          continue;
        }
        return synced;
      }
      status = op();
    }
    return status;
  };

  SS_RETURN_IF_ERROR(spawn_next_life());
  SS_RETURN_IF_ERROR(guarded([&]() -> Status { return client.Connect(); }));

  for (size_t i = 0; i < scenario.queries.size(); ++i) {
    SS_RETURN_IF_ERROR(guarded([&]() -> Status {
      if (subscriptions.size() > i) return Status::Ok();  // adopted
      SS_ASSIGN_OR_RETURN(
          SubscribeReply reply,
          client.Subscribe(scenario.queries[i].text,
                           scenario.queries[i].target, options.strategy));
      subscriptions.push_back(std::move(reply));
      return Status::Ok();
    }));
  }

  // The feed step counts what the daemon acknowledged, not what the
  // walk asked for: after a restart `fed` is the recovered durable offset.
  auto feed = [&](size_t, size_t to) -> Status {
    return guarded([&]() -> Status {
      while (fed < to) {
        SS_ASSIGN_OR_RETURN(
            FeedReply reply,
            client.Feed(std::min(options.feed_chunk, to - fed)));
        fed = reply.items_fed;
      }
      return Status::Ok();
    });
  };
  auto apply = [&](const workload::ChurnEvent& event) -> Status {
    return guarded([&]() -> Status {
      Status applied =
          event.kind == workload::ChurnEvent::Kind::kFailPeer
              ? client.FailPeer(event.peer).status()
              : client.CutLink(event.link_a, event.link_b).status();
      if (IsAlreadyApplied(applied)) return Status::Ok();
      return applied;
    });
  };
  workload::ChurnWalk walk(options.churn, options.items_per_stream);
  SS_RETURN_IF_ERROR(walk.RunToEnd(feed, apply));

  SS_RETURN_IF_ERROR(guarded([&]() -> Status {
    SS_ASSIGN_OR_RETURN(DrainReply drained,
                        client.Drain(/*final_drain=*/true));
    (void)drained;
    SS_ASSIGN_OR_RETURN(ServeEos eos, client.WaitEos(10000));
    if (!eos.final_drain) {
      return Status::Internal("final drain answered with a restartable EOS");
    }
    return Status::Ok();
  }));
  client.Close();
  if (child >= 0) {
    int wstatus = 0;
    ::waitpid(child, &wstatus, 0);
    child = -1;
  }

  report.items_fed = fed;
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
