// Kill -9 the daemon at every named crashpoint and prove the recovered
// history is indistinguishable from an uninterrupted run (invariant 11).
// Each case runs the same scenario twice: once through the plain serve
// oracle (one daemon, no interruptions) and once through the crash
// oracle, whose forked daemon child arms one crashpoint per service
// life, SIGKILLs itself there, and is respawned from checkpoint + WAL.
// The client-side per-query observations must match field for field.
//
// fork() and TSAN don't mix (the child inherits a runtime that thinks
// the parent's threads still exist), so under TSAN the fork-heavy cases
// skip — the same policy test_transport_runner.cc uses.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
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

  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
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
  // Whatever fails below, the child does not outlive the test.
  struct Reaper {
    pid_t pid;
    ~Reaper() {
      if (pid <= 0) return;
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  } reaper{child};
  int32_t port = -1;
  ASSERT_EQ(::read(fds[0], &port, sizeof(port)),
            static_cast<ssize_t>(sizeof(port)));
  ::close(fds[0]);
  ASSERT_GT(port, 0);

  ClientOptions client_options;
  client_options.port = port;
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

  ::kill(child, SIGKILL);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  reaper.pid = -1;
  ASSERT_TRUE(WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL);

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
