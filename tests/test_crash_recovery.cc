// Kill -9 the daemon at every named crashpoint and prove the recovered
// history is indistinguishable from an uninterrupted run (invariant 11).
// Each case runs the same scenario twice: once through the plain serve
// oracle (one daemon, no interruptions) and once through the crash
// oracle, whose forked daemon child arms one crashpoint per service
// life, SIGKILLs itself there, and is respawned from checkpoint + WAL.
// The client-side per-query observations must match field for field.
// One more case kills a forked daemon between lives and compares the
// peak memory of its WAL-tail and checkpoint-restored recoveries.
//
// fork() and TSAN don't mix (the child inherits a runtime that thinks
// the parent's threads still exist), so under TSAN the fork-heavy cases
// skip.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "serve/crash_oracle.h"
#include "serve/client.h"
#include "serve/crashpoint.h"
#include "serve/daemon.h"
#include "serve/serve_oracle.h"
#include "serve/wal.h"
#include "workload/scenario.h"

#if defined(__SANITIZE_THREAD__)
#define STREAMSHARE_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define STREAMSHARE_TSAN 1
#endif
#endif
#ifndef STREAMSHARE_TSAN
#define STREAMSHARE_TSAN 0
#endif
#if defined(__SANITIZE_ADDRESS__)
#define STREAMSHARE_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define STREAMSHARE_ASAN 1
#endif
#endif
#ifndef STREAMSHARE_ASAN
#define STREAMSHARE_ASAN 0
#endif

namespace streamshare::serve {
namespace {

constexpr size_t kItems = 60;
constexpr size_t kFeedChunk = 13;

workload::ScenarioSpec SmallScenario() {
  return workload::ExtendedExampleScenario(/*seed=*/11, /*query_count=*/4);
}

std::string MakeStateDir() {
  std::string templ = ::testing::TempDir() + "ss_crash_XXXXXX";
  std::vector<char> buf(templ.begin(), templ.end());
  buf.push_back('\0');
  char* dir = ::mkdtemp(buf.data());
  EXPECT_NE(dir, nullptr);
  return dir == nullptr ? std::string() : std::string(dir);
}

void RemoveStateDir(const std::string& dir) {
  const std::string checkpoint = dir + "/checkpoint";
  std::remove(checkpoint.c_str());
  std::remove((checkpoint + ".tmp").c_str());
  std::remove(DefaultWalPath(checkpoint).c_str());
  ::rmdir(dir.c_str());
}

ServeRunReport UninterruptedReference() {
  ServeRunOptions options;
  options.items_per_stream = kItems;
  options.feed_chunk = kFeedChunk;
  auto report = RunScenarioThroughDaemon(SmallScenario(), options);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? *report : ServeRunReport{};
}

void ExpectSameHistory(const CrashRunReport& crashed,
                       const ServeRunReport& reference,
                       const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(crashed.queries.size(), reference.queries.size());
  for (size_t i = 0; i < reference.queries.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    const ServeQueryObservation& got = crashed.queries[i];
    const ServeQueryObservation& want = reference.queries[i];
    EXPECT_EQ(got.query_id, want.query_id);
    EXPECT_EQ(got.accepted, want.accepted);
    EXPECT_EQ(got.reject_reason, want.reject_reason);
    EXPECT_EQ(got.items, want.items);
    EXPECT_EQ(got.bytes, want.bytes);
    EXPECT_EQ(got.content_hash, want.content_hash);
  }
  EXPECT_EQ(crashed.items_fed, reference.items_fed);
}

#if !STREAMSHARE_TSAN

// No crashpoints armed: the harness itself is a faithful serve run (one
// life, zero crashes, identical history). Anything the crash cases
// catch after this is the crash's fault, not the harness's.
TEST(CrashRecovery, UnarmedHarnessMatchesThePlainServeRun) {
  const ServeRunReport reference = UninterruptedReference();
  const std::string state_dir = MakeStateDir();
  ASSERT_FALSE(state_dir.empty());

  CrashRunOptions options;
  options.items_per_stream = kItems;
  options.feed_chunk = kFeedChunk;
  options.state_dir = state_dir;
  auto report = RunCrashScenario(SmallScenario(), options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->lives, 1u);
  EXPECT_EQ(report->crashes, 0u);
  ExpectSameHistory(*report, reference, "unarmed");
  RemoveStateDir(state_dir);
}

// The tentpole sweep: every named crashpoint, one SIGKILL each, and the
// recovered history must equal the uninterrupted one. A point this
// workload never reaches (drain-pre-checkpoint fires only on a
// restartable drain; scripts/crash_smoke.sh exercises it via SIGTERM)
// simply completes crash-free — arming it must still be harmless.
TEST(CrashRecovery, EveryCrashpointIsIndistinguishableFromADrain) {
  const ServeRunReport reference = UninterruptedReference();

  for (const std::string& point : crashpoint::AllPoints()) {
    SCOPED_TRACE("crashpoint " + point);
    const std::string state_dir = MakeStateDir();
    ASSERT_FALSE(state_dir.empty());

    CrashRunOptions options;
    options.items_per_stream = kItems;
    options.feed_chunk = kFeedChunk;
    options.state_dir = state_dir;
    // Small enough that compactions (and their crashpoints) fire inside
    // this short workload.
    options.wal_compact_bytes = 128;
    options.crash_specs = {point + ":1"};
    auto report = RunCrashScenario(SmallScenario(), options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    if (point != std::string(crashpoint::kDrainPreCheckpoint)) {
      EXPECT_GE(report->crashes, 1u)
          << "the armed crashpoint never fired — the sweep is not "
             "actually testing this window";
    }
    EXPECT_EQ(report->lives, report->crashes + 1);
    ExpectSameHistory(*report, reference, point);
    RemoveStateDir(state_dir);
  }
}

// Several consecutive lives each die at a different window — the WAL
// chains across generations (append, compact, recover, append again)
// and the final history still matches.
TEST(CrashRecovery, BackToBackCrashesAcrossDifferentWindows) {
  const ServeRunReport reference = UninterruptedReference();
  const std::string state_dir = MakeStateDir();
  ASSERT_FALSE(state_dir.empty());

  CrashRunOptions options;
  options.items_per_stream = kItems;
  options.feed_chunk = kFeedChunk;
  options.state_dir = state_dir;
  options.wal_compact_bytes = 128;
  options.crash_specs = {
      std::string(crashpoint::kWalPostSyncPreAck) + ":1",
      std::string(crashpoint::kFeedPostFeedPreLog) + ":2",
      std::string(crashpoint::kCkptPreRename) + ":1",
      std::string(crashpoint::kWalMidRecord) + ":1",
  };
  auto report = RunCrashScenario(SmallScenario(), options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->crashes, 4u);
  ExpectSameHistory(*report, reference, "back-to-back");
  RemoveStateDir(state_dir);
}

// Churn survives the kill: peers die and links get cut mid-run AND the
// daemon gets murdered mid-WAL-append — the recovered run must match an
// uninterrupted run of the same churned workload.
TEST(CrashRecovery, ChurnedWorkloadSurvivesAMidAppendKill) {
  workload::ScenarioSpec scenario = SmallScenario();
  std::vector<workload::ChurnEvent> churn;
  workload::ChurnEvent fail;
  fail.kind = workload::ChurnEvent::Kind::kFailPeer;
  fail.at_offset = 26;
  fail.peer = 2;
  churn.push_back(fail);

  ServeRunOptions serial;
  serial.items_per_stream = kItems;
  serial.feed_chunk = kFeedChunk;
  serial.churn = churn;
  auto reference = RunScenarioThroughDaemon(scenario, serial);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  const std::string state_dir = MakeStateDir();
  ASSERT_FALSE(state_dir.empty());
  CrashRunOptions options;
  options.items_per_stream = kItems;
  options.feed_chunk = kFeedChunk;
  options.churn = churn;
  options.state_dir = state_dir;
  options.wal_compact_bytes = 128;
  options.crash_specs = {std::string(crashpoint::kWalMidRecord) + ":2"};
  auto report = RunCrashScenario(scenario, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->crashes, 1u);
  ExpectSameHistory(*report, *reference, "churned");
  RemoveStateDir(state_dir);
}

/// A daemon in a forked child, started (recovery included) by the time
/// Spawn returns. Whatever fails, the child does not outlive the test.
class ForkedDaemon {
 public:
  ForkedDaemon() = default;
  ForkedDaemon(const ForkedDaemon&) = delete;
  ForkedDaemon& operator=(const ForkedDaemon&) = delete;
  ~ForkedDaemon() { Kill9(); }

  /// Forks the child, which serves until Kill9; false if it did not
  /// start.
  bool Spawn(const workload::ScenarioSpec& scenario,
             const DaemonOptions& options) {
    int fds[2];
    if (::pipe(fds) != 0) return false;
    pid_ = ::fork();
    if (pid_ < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      return false;
    }
    if (pid_ == 0) {
      ::close(fds[0]);
      ServeDaemon daemon(scenario, options);
      int32_t port = daemon.Start().ok() ? daemon.port() : -1;
      ssize_t wrote = ::write(fds[1], &port, sizeof(port));
      ::close(fds[1]);
      if (wrote == static_cast<ssize_t>(sizeof(port)) && port > 0) {
        daemon.Join();  // serves until the parent's SIGKILL
      }
      ::_exit(1);
    }
    ::close(fds[1]);
    int32_t port = -1;
    bool read_port = ::read(fds[0], &port, sizeof(port)) ==
                     static_cast<ssize_t>(sizeof(port));
    ::close(fds[0]);
    port_ = read_port ? port : -1;
    return port_ > 0;
  }

  int port() const { return port_; }

  /// Peak resident set (VmHWM) of the child so far, in KiB; 0 if
  /// unreadable.
  uint64_t PeakRssKb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string key;
    while (status >> key) {
      if (key == "VmHWM:") {
        uint64_t kb = 0;
        status >> kb;
        return kb;
      }
      status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    }
    return 0;
  }

  /// SIGKILLs and reaps the child; true if it died of that signal.
  bool Kill9() {
    if (pid_ <= 0) return false;
    ::kill(pid_, SIGKILL);
    int wstatus = 0;
    bool reaped = ::waitpid(pid_, &wstatus, 0) == pid_;
    pid_ = -1;
    return reaped && WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL;
  }

 private:
  pid_t pid_ = -1;
  int port_ = -1;
};

// A SubscribeBatch whose middle entry does not parse: the ACK carries
// the parse error, the entries before it stay installed and are in the
// WAL, and a daemon restarted from what a kill -9 leaves on disk assigns
// the same query ids.
TEST(CrashRecovery, SubscribeBatchHardErrorKeepsTheLoggedPrefix) {
  const workload::ScenarioSpec scenario = SmallScenario();
  const std::string state_dir = MakeStateDir();
  ASSERT_FALSE(state_dir.empty());
  DaemonOptions options;
  options.checkpoint_path = state_dir + "/checkpoint";

  ForkedDaemon child;
  ASSERT_TRUE(child.Spawn(scenario, options));

  ClientOptions client_options;
  client_options.port = child.port();
  client_options.name = "batcher";
  ServeClient client(client_options);
  ASSERT_TRUE(client.Connect().ok());
  const std::vector<ControlRequest::BatchEntry> entries = {
      {scenario.queries[0].text, scenario.queries[0].target, 2},
      {scenario.queries[1].text, scenario.queries[1].target, 2},
      {"this is not wxquery", 1, 2},
      {scenario.queries[2].text, scenario.queries[2].target, 2},
  };
  auto batched = client.SubscribeBatch(entries);
  ASSERT_FALSE(batched.ok());
  EXPECT_TRUE(batched.status().IsParseError()) << batched.status();
  auto before = client.Stats();
  ASSERT_TRUE(before.ok()) << before.status();
  ASSERT_EQ(before->queries.size(), 2u);

  ASSERT_TRUE(child.Kill9());

  // The prefix, and nothing past the bad entry, is in the log.
  auto wal = RecoverWal(DefaultWalPath(options.checkpoint_path));
  ASSERT_TRUE(wal.ok()) << wal.status();
  ASSERT_EQ(wal->records.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(wal->records[i].kind, WalRecord::Kind::kEvent);
    EXPECT_EQ(wal->records[i].event.kind, LogEvent::Kind::kSubscribe);
    EXPECT_EQ(wal->records[i].event.query_text, entries[i].query_text);
  }

  ServeDaemon restarted(scenario, options);
  ASSERT_TRUE(restarted.Start().ok());
  client_options.port = restarted.port();
  ServeClient again(client_options);
  ASSERT_TRUE(again.Connect().ok());
  auto after = again.Stats();
  ASSERT_TRUE(after.ok()) << after.status();
  ASSERT_EQ(after->queries.size(), before->queries.size());
  for (size_t q = 0; q < before->queries.size(); ++q) {
    EXPECT_EQ(after->queries[q].query_id, before->queries[q].query_id);
    EXPECT_EQ(after->queries[q].accepted, before->queries[q].accepted);
    EXPECT_EQ(after->queries[q].active, before->queries[q].active);
  }
  again.Close();
  restarted.RequestDrain(/*final_drain=*/true);
  restarted.Join();
  EXPECT_TRUE(restarted.loop_status().ok()) << restarted.loop_status();
  RemoveStateDir(state_dir);
}

// Replay memory does not grow with the history. Life 2 replays ~20k
// items per stream from the WAL tail and folds them into a checkpoint;
// life 3 restores that checkpoint with no WAL records. Both regenerate
// the same history and rebuild the same sink logs, so the restored
// life must peak no higher than the WAL-tail one: replaying the
// checkpoint's history in one piece (every regenerated slot of both
// streams live at once) peaked ~1.5x higher. AddressSanitizer inflates
// RSS, so it skips.
TEST(CrashRecovery, CheckpointRestoreReplaysInBoundedMemory) {
#if STREAMSHARE_ASAN
  GTEST_SKIP() << "AddressSanitizer inflates the resident set";
#endif
  constexpr uint64_t kFeeds = 40;
  constexpr uint64_t kItemsPerFeed = 500;
  const workload::ScenarioSpec scenario =
      workload::GridScenario(/*seed=*/13, /*query_count=*/100);
  const std::string state_dir = MakeStateDir();
  ASSERT_FALSE(state_dir.empty());
  DaemonOptions options;
  options.checkpoint_path = state_dir + "/checkpoint";
  ClientOptions client_options;
  client_options.name = "history";

  // Life 1 serves the history. The client detaches, so nothing is
  // forwarded; the sinks still log every delivery.
  {
    ForkedDaemon serving;
    ASSERT_TRUE(serving.Spawn(scenario, options));
    client_options.port = serving.port();
    ServeClient client(client_options);
    ASSERT_TRUE(client.Connect().ok());
    std::vector<ControlRequest::BatchEntry> entries;
    for (const workload::QuerySpec& query : scenario.queries) {
      entries.push_back({query.text, query.target, /*strategy=*/2});
    }
    ASSERT_TRUE(client.SubscribeBatch(entries).ok());
    ASSERT_TRUE(client.Detach().ok());
    for (uint64_t i = 0; i < kFeeds; ++i) {
      ASSERT_TRUE(client.Feed(kItemsPerFeed).ok());
    }
    ASSERT_TRUE(serving.Kill9());
  }

  // Lives 2 and 3: each recovers the whole history before it listens.
  auto recovered_peak_kb = [&](const char* label) -> uint64_t {
    SCOPED_TRACE(label);
    ForkedDaemon life;
    EXPECT_TRUE(life.Spawn(scenario, options));
    uint64_t peak_kb = life.PeakRssKb();
    client_options.port = life.port();
    ServeClient client(client_options);
    EXPECT_TRUE(client.Connect().ok());
    auto stats = client.Stats();
    EXPECT_TRUE(stats.ok()) << stats.status();
    if (stats.ok()) {
      EXPECT_EQ(stats->items_fed, kFeeds * kItemsPerFeed);
    }
    EXPECT_TRUE(life.Kill9());
    return peak_kb;
  };
  const uint64_t wal_tail_kb = recovered_peak_kb("wal-tail life");
  const uint64_t restored_kb = recovered_peak_kb("checkpoint life");
  ASSERT_GT(wal_tail_kb, 0u);
  EXPECT_LE(static_cast<double>(restored_kb), 1.1 * wal_tail_kb)
      << "checkpoint life VmHWM " << restored_kb << " KiB vs WAL-tail life "
      << wal_tail_kb << " KiB";
  RemoveStateDir(state_dir);
}

#endif  // !STREAMSHARE_TSAN

// Arm parsing stays testable under every sanitizer: the spec grammar is
// "name" or "name:N" over the published point list.
TEST(CrashRecovery, ArmRejectsUnknownPointsAndBadHitCounts) {
  EXPECT_FALSE(crashpoint::Arm("not-a-point").ok());
  EXPECT_FALSE(crashpoint::Arm("wal-pre-append:0").ok());
  EXPECT_FALSE(crashpoint::Arm("wal-pre-append:x").ok());
  EXPECT_TRUE(crashpoint::Arm("").ok());  // empty spec = stay unarmed
  for (const std::string& point : crashpoint::AllPoints()) {
    EXPECT_TRUE(crashpoint::Arm(point + ":1000000").ok()) << point;
  }
  crashpoint::Disarm();
}

}  // namespace
}  // namespace streamshare::serve
