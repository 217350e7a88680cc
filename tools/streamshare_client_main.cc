// streamshare_client — attach to a running streamshare_serve daemon and
// drive it over the CONTROL plane. Commands execute in the order they
// appear on the command line, against one connection:
//
//   streamshare_client --port=N [--host=H] [--name=S] [--timeout-ms=N]
//                      [--reconnect] [--reconnect-max-attempts=N]
//                      [--reconnect-backoff-ms=N]
//                      [--reconnect-max-backoff-ms=N]
//                      [--subscribe=QUERY@VQ]... [--subscribe-file=FILE@VQ]...
//                      [--attach=ID@SEQ]... [--unsubscribe=ID]...
//                      [--feed=N]... [--fail-peer=ID]... [--cut-link=A-B]...
//                      [--stats]... [--detach] [--drain=final|restartable]
//                      [--wait-eos]
//
// --subscribe takes the paper's example queries by name (q1..q4) or
// literal WXQuery text; --subscribe-file reads the query text from a
// file. Both print `subscribed q<id>` (or `rejected q<id> reason=...`
// for a structured admission rejection — the connection stays usable).
// --feed asks the daemon to advance its deterministic generators N items
// per stream; deliveries stream back interleaved and are accumulated
// client-side. --stats prints the daemon's deployment counters.
// --drain=restartable needs the daemon to have a --checkpoint;
// --wait-eos blocks until the daemon's EOS after a drain.
//
// --reconnect makes every command survive a dropped connection (daemon
// crash or restart on the same port): the client redials with
// exponential backoff + jitter, re-attaches each subscribed query at
// its next undelivered sequence, and retries the command. The backoff
// knobs tune attempts, the initial sleep, and its cap.
//
// At exit the client prints one `q<id> items=N bytes=N hash=N` line per
// subscribed query — the same observation format streamshare_sim
// --query-stats prints for a batch run, so live and batch runs of the
// same scenario diff with `diff`.
//
// Exit code 0, or 1 when any command fails.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "serve/client.h"
#include "workload/paper_queries.h"

using namespace streamshare;

namespace {

struct Command {
  enum class Kind {
    kSubscribe,
    kAttach,
    kUnsubscribe,
    kFeed,
    kFailPeer,
    kCutLink,
    kStats,
    kDetach,
    kDrain,
    kWaitEos,
  };
  Kind kind;
  std::string text;       // kSubscribe query text
  int64_t a = 0, b = 0;   // ids / counts / links
  bool flag = false;      // kDrain final
};

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

int Usage(const char* program) {
  std::fprintf(
      stderr,
      "usage: %s --port=N [--host=H] [--name=S] [--timeout-ms=N] "
      "[--reconnect] [--reconnect-max-attempts=N] "
      "[--reconnect-backoff-ms=N] [--reconnect-max-backoff-ms=N] "
      "[--subscribe=QUERY@VQ] [--subscribe-file=FILE@VQ] "
      "[--attach=ID@SEQ] [--unsubscribe=ID] [--feed=N] [--fail-peer=ID] "
      "[--cut-link=A-B] [--stats] [--detach] "
      "[--drain=final|restartable] [--wait-eos]\n",
      program);
  return 1;
}

/// The paper's example queries by short name; anything else is taken as
/// literal WXQuery text.
std::string ResolveQueryText(const std::string& text) {
  if (text == "q1") return workload::kQuery1;
  if (text == "q2") return workload::kQuery2;
  if (text == "q3") return workload::kQuery3;
  if (text == "q4") return workload::kQuery4;
  return text;
}

/// Splits "PAYLOAD@NUMBER" at the *last* '@' (query text never ends in
/// one, and this keeps '@' usable inside file names).
bool SplitAtNumber(const std::string& value, std::string* payload,
                   int64_t* number) {
  size_t at = value.rfind('@');
  if (at == std::string::npos || at == 0 || at + 1 >= value.size()) {
    return false;
  }
  *payload = value.substr(0, at);
  *number = std::strtoll(value.c_str() + at + 1, nullptr, 10);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  serve::ClientOptions options;
  bool reconnect = false;
  std::vector<Command> commands;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    Command command;
    if (ParseFlag(argv[i], "--port", &value)) {
      options.port = static_cast<int>(std::strtol(value.c_str(), nullptr,
                                                  10));
    } else if (ParseFlag(argv[i], "--host", &value)) {
      options.host = value;
    } else if (ParseFlag(argv[i], "--name", &value)) {
      options.name = value;
    } else if (ParseFlag(argv[i], "--timeout-ms", &value)) {
      options.timeout_ms = static_cast<int>(std::strtol(value.c_str(),
                                                        nullptr, 10));
    } else if (std::strcmp(argv[i], "--reconnect") == 0) {
      reconnect = true;
    } else if (ParseFlag(argv[i], "--reconnect-max-attempts", &value)) {
      options.reconnect.max_attempts =
          static_cast<int>(std::strtol(value.c_str(), nullptr, 10));
    } else if (ParseFlag(argv[i], "--reconnect-backoff-ms", &value)) {
      options.reconnect.initial_backoff_ms =
          static_cast<int>(std::strtol(value.c_str(), nullptr, 10));
    } else if (ParseFlag(argv[i], "--reconnect-max-backoff-ms", &value)) {
      options.reconnect.max_backoff_ms =
          static_cast<int>(std::strtol(value.c_str(), nullptr, 10));
    } else if (ParseFlag(argv[i], "--subscribe", &value)) {
      command.kind = Command::Kind::kSubscribe;
      if (!SplitAtNumber(value, &command.text, &command.a)) {
        return Usage(argv[0]);
      }
      command.text = ResolveQueryText(command.text);
      commands.push_back(std::move(command));
    } else if (ParseFlag(argv[i], "--subscribe-file", &value)) {
      command.kind = Command::Kind::kSubscribe;
      std::string path;
      if (!SplitAtNumber(value, &path, &command.a)) return Usage(argv[0]);
      std::ifstream file(path);
      if (!file) {
        std::fprintf(stderr, "cannot read %s\n", path.c_str());
        return 1;
      }
      std::ostringstream text;
      text << file.rdbuf();
      command.text = text.str();
      commands.push_back(std::move(command));
    } else if (ParseFlag(argv[i], "--attach", &value)) {
      command.kind = Command::Kind::kAttach;
      std::string id;
      if (!SplitAtNumber(value, &id, &command.b)) return Usage(argv[0]);
      command.a = std::strtoll(id.c_str(), nullptr, 10);
      commands.push_back(std::move(command));
    } else if (ParseFlag(argv[i], "--unsubscribe", &value)) {
      command.kind = Command::Kind::kUnsubscribe;
      command.a = std::strtoll(value.c_str(), nullptr, 10);
      commands.push_back(std::move(command));
    } else if (ParseFlag(argv[i], "--feed", &value)) {
      command.kind = Command::Kind::kFeed;
      command.a = std::strtoll(value.c_str(), nullptr, 10);
      commands.push_back(std::move(command));
    } else if (ParseFlag(argv[i], "--fail-peer", &value)) {
      command.kind = Command::Kind::kFailPeer;
      command.a = std::strtoll(value.c_str(), nullptr, 10);
      commands.push_back(std::move(command));
    } else if (ParseFlag(argv[i], "--cut-link", &value)) {
      command.kind = Command::Kind::kCutLink;
      size_t dash = value.find('-');
      if (dash == std::string::npos || dash == 0 ||
          dash + 1 >= value.size()) {
        return Usage(argv[0]);
      }
      command.a = std::strtoll(value.substr(0, dash).c_str(), nullptr, 10);
      command.b = std::strtoll(value.c_str() + dash + 1, nullptr, 10);
      commands.push_back(std::move(command));
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      command.kind = Command::Kind::kStats;
      commands.push_back(std::move(command));
    } else if (std::strcmp(argv[i], "--detach") == 0) {
      command.kind = Command::Kind::kDetach;
      commands.push_back(std::move(command));
    } else if (ParseFlag(argv[i], "--drain", &value)) {
      command.kind = Command::Kind::kDrain;
      if (value == "final") {
        command.flag = true;
      } else if (value == "restartable") {
        command.flag = false;
      } else {
        return Usage(argv[0]);
      }
      commands.push_back(std::move(command));
    } else if (std::strcmp(argv[i], "--wait-eos") == 0) {
      command.kind = Command::Kind::kWaitEos;
      commands.push_back(std::move(command));
    } else {
      return Usage(argv[0]);
    }
  }
  if (options.port == 0) return Usage(argv[0]);

  serve::ServeClient client(options);
  Status connected = client.Connect();
  if (!connected.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 connected.ToString().c_str());
    return 1;
  }
  std::printf("connected epoch=%llu items_fed=%llu draining=%d\n",
              static_cast<unsigned long long>(client.hello().epoch),
              static_cast<unsigned long long>(client.hello().items_fed),
              client.hello().draining ? 1 : 0);

  bool failed = false;
  std::vector<int64_t> subscribed;
  auto report = [&failed](const char* what, const Status& status) {
    if (!status.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", what,
                   status.ToString().c_str());
      failed = true;
    }
  };
  // With --reconnect, every command rides RunWithReconnect: a dropped
  // connection redials (backoff + jitter), re-attaches the subscribed
  // queries at their next undelivered sequence, and retries the
  // command. Prints happen inside the op, after it succeeded.
  auto run = [&](const char* what,
                 const std::function<Status()>& op) {
    report(what, reconnect ? client.RunWithReconnect(op) : op());
  };

  for (const Command& command : commands) {
    switch (command.kind) {
      case Command::Kind::kSubscribe:
        run("subscribe", [&]() -> Status {
          SS_ASSIGN_OR_RETURN(serve::SubscribeReply reply,
                              client.Subscribe(command.text, command.a));
          if (reply.accepted) {
            std::printf("subscribed q%lld\n",
                        static_cast<long long>(reply.query_id));
            subscribed.push_back(reply.query_id);
          } else {
            std::printf("rejected q%lld reason=%s\n",
                        static_cast<long long>(reply.query_id),
                        reply.reject_reason.c_str());
          }
          return Status::Ok();
        });
        break;
      case Command::Kind::kAttach:
        run("attach", [&]() -> Status {
          SS_ASSIGN_OR_RETURN(
              serve::SubscribeReply reply,
              client.Attach(command.a, static_cast<uint64_t>(command.b)));
          std::printf("attached q%lld from=%llu\n",
                      static_cast<long long>(reply.query_id),
                      static_cast<unsigned long long>(reply.forward_from));
          subscribed.push_back(reply.query_id);
          return Status::Ok();
        });
        break;
      case Command::Kind::kUnsubscribe:
        run("unsubscribe",
            [&]() -> Status { return client.Unsubscribe(command.a); });
        break;
      case Command::Kind::kFeed:
        run("feed", [&]() -> Status {
          return client.Feed(static_cast<uint64_t>(command.a)).status();
        });
        break;
      case Command::Kind::kFailPeer:
        run("fail-peer", [&]() -> Status {
          SS_ASSIGN_OR_RETURN(serve::RecoveryReply reply,
                              client.FailPeer(command.a));
          std::printf(
              "recovered replans=%llu lost=%llu dead_targets=%llu\n",
              static_cast<unsigned long long>(reply.replans),
              static_cast<unsigned long long>(reply.lost_queries),
              static_cast<unsigned long long>(reply.dead_targets));
          return Status::Ok();
        });
        break;
      case Command::Kind::kCutLink:
        run("cut-link", [&]() -> Status {
          SS_ASSIGN_OR_RETURN(serve::RecoveryReply reply,
                              client.CutLink(command.a, command.b));
          std::printf(
              "recovered replans=%llu lost=%llu dead_targets=%llu\n",
              static_cast<unsigned long long>(reply.replans),
              static_cast<unsigned long long>(reply.lost_queries),
              static_cast<unsigned long long>(reply.dead_targets));
          return Status::Ok();
        });
        break;
      case Command::Kind::kStats:
        run("stats", [&]() -> Status {
          SS_ASSIGN_OR_RETURN(serve::StatsReply reply, client.Stats());
          std::printf(
              "stats epoch=%llu draining=%d items_fed=%llu clients=%llu "
              "admitted=%llu rejected=%llu forwarded=%llu\n",
              static_cast<unsigned long long>(reply.epoch),
              reply.draining ? 1 : 0,
              static_cast<unsigned long long>(reply.items_fed),
              static_cast<unsigned long long>(reply.attached_clients),
              static_cast<unsigned long long>(reply.admitted),
              static_cast<unsigned long long>(reply.rejected),
              static_cast<unsigned long long>(reply.results_forwarded));
          std::printf(
              "wal appends=%llu bytes=%llu fsync_us=%llu "
              "compactions=%llu recovered=%llu torn_truncations=%llu\n",
              static_cast<unsigned long long>(reply.wal_appends),
              static_cast<unsigned long long>(reply.wal_bytes),
              static_cast<unsigned long long>(reply.wal_fsync_us),
              static_cast<unsigned long long>(reply.wal_compactions),
              static_cast<unsigned long long>(reply.wal_recovered_records),
              static_cast<unsigned long long>(
                  reply.wal_torn_tail_truncations));
          std::printf(
              "recovery registrations=%llu candidates_examined=%llu "
              "replay_us=%llu checkpoint_load_us=%llu wal_scan_us=%llu "
              "replay_register_us=%llu replay_feed_us=%llu fold_us=%llu\n",
              static_cast<unsigned long long>(
                  reply.recovery_replayed_registrations),
              static_cast<unsigned long long>(
                  reply.recovery_candidates_examined),
              static_cast<unsigned long long>(reply.recovery_replay_us),
              static_cast<unsigned long long>(
                  reply.recovery_checkpoint_load_us),
              static_cast<unsigned long long>(reply.recovery_wal_scan_us),
              static_cast<unsigned long long>(
                  reply.recovery_replay_register_us),
              static_cast<unsigned long long>(
                  reply.recovery_replay_feed_us),
              static_cast<unsigned long long>(reply.recovery_fold_us));
          for (const serve::QueryStat& query : reply.queries) {
            std::printf("  q%lld %s items=%llu bytes=%llu hash=%llu\n",
                        static_cast<long long>(query.query_id),
                        query.active ? "active" : "inactive",
                        static_cast<unsigned long long>(query.items),
                        static_cast<unsigned long long>(query.bytes),
                        static_cast<unsigned long long>(
                            query.content_hash));
          }
          return Status::Ok();
        });
        break;
      case Command::Kind::kDetach:
        run("detach", [&]() -> Status { return client.Detach(); });
        break;
      case Command::Kind::kDrain:
        run("drain", [&]() -> Status {
          return client.Drain(command.flag).status();
        });
        break;
      case Command::Kind::kWaitEos: {
        // Never wrapped: the EOS ends the connection by design, and a
        // redial would wait on a daemon that just left.
        auto eos = client.WaitEos(options.timeout_ms);
        if (!eos.ok()) {
          report("wait-eos", eos.status());
          break;
        }
        std::printf("eos final=%d results=%llu\n",
                    eos->final_drain ? 1 : 0,
                    static_cast<unsigned long long>(
                        eos->results_forwarded));
        break;
      }
    }
  }

  // One line per subscribed query (in subscription order, zero
  // observations included), diffable against `streamshare_sim
  // --query-stats`.
  for (int64_t query_id : subscribed) {
    serve::ClientQueryResults results = client.results(query_id);
    std::printf("q%lld items=%llu bytes=%llu hash=%llu\n",
                static_cast<long long>(query_id),
                static_cast<unsigned long long>(results.items),
                static_cast<unsigned long long>(results.bytes),
                static_cast<unsigned long long>(results.content_hash));
  }
  client.Close();
  return failed ? 1 : 0;
}
