// servebench_load — drives one streamshare_serve daemon through one
// benchmark workload and prints a JSON object of measurements on its
// last stdout line (run.py turns it into the benchmark's result line).
//
//   servebench_load --serve=PATH --dir=DIR --workload=NAME --seed=N
//                   --seconds=N [--trace]
//
// The daemon is spawned fresh on an empty checkpoint directory DIR and
// driven over one connection through serve::ServeClient. Everything the
// end-to-end metrics measure crosses only the process boundary (CLI
// flags, the serve protocol, /proc). Afterwards the same operation
// sequence is replayed in-process through each layer's public entry
// point: it is the serial correctness reference in every run and, with
// --trace, the source of the per-layer spans. The daemon is never
// traced.
//
// Workloads (all on the paper's 4x4 grid, stream sharing, default
// capacities; see README.md for why each exists):
//   grid_feed.r6k                  100 attached queries, open-loop feeds
//                                  of 10 items per stream at 6,000 input
//                                  items/s
//   subscribe_churn                1,000 installed queries, closed-loop
//                                  Subscribe/Unsubscribe with light feeds
// and, not listed in BENCHMARK.json (run by hand):
//   grid_feed.r2k                  grid_feed.r6k at 2,000 input items/s
//   grid_bulk                      100 detached queries, closed-loop
//                                  feeds of 500 items per stream

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <chrono>
#include <cmath>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/operator.h"
#include "serve/checkpoint.h"
#include "serve/client.h"
#include "serve/control.h"
#include "serve/wal.h"
#include "sharing/subscribe.h"
#include "sharing/system.h"
#include "transport/codec.h"
#include "workload/photon_gen.h"
#include "workload/query_gen.h"
#include "workload/scenario.h"
#include "wxquery/analyzer.h"
#include "wxquery/parser.h"

using namespace streamshare;

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Linear-interpolated quantile of `values` (q in [0, 1]).
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) *
                          (values[hi] - values[lo]);
}

/// Robust form of Quantile for a measured phase: the samples (in send
/// order) are cut into `slices` consecutive slices, the quantile is taken
/// per slice, and the median across slices is reported. A stall of a
/// second or two on a shared host then moves one or two slices, not the
/// reported figure.
double SlicedQuantile(const std::vector<double>& samples, double q,
                      size_t slices) {
  if (samples.size() < slices) return Quantile(samples, q);
  std::vector<double> per_slice;
  size_t size = samples.size() / slices;
  for (size_t i = 0; i < slices; ++i) {
    auto first = samples.begin() + static_cast<long>(i * size);
    per_slice.push_back(Quantile({first, first + static_cast<long>(size)}, q));
  }
  return Quantile(per_slice, 0.5);
}

// ---------------------------------------------------------------------
// Workloads

constexpr uint64_t kFeedItemsPerStream = 10;    // one grid_feed request
constexpr uint64_t kBulkItemsPerStream = 500;   // one grid_bulk request
constexpr uint64_t kChurnItemsPerStream = 5;    // subscribe_churn's feeds
constexpr int kStreams = 2;                     // the grid's photon streams
/// The query stream (installed population and churn queries) is the
/// paper's grid query generator at GridScenario's own default seed,
/// independent of the run seed: a population drawn per seed moved
/// results per input item between 8.3 and 12.8 across eight seeds, which
/// would drown every bound. The run seed drives the photon streams.
constexpr uint64_t kPopulationSeed = 13;

/// Every measured phase does a fixed amount of work, not a fixed time:
/// every later phase (recovery, reference replay) replays the history,
/// and that history must not depend on how fast the phase ran. The work
/// goes out in kBursts equal bursts started --seconds / kBursts apart;
/// the pauses between them hold setup_s samples on daemons of their own.
/// The host's speed drifts by 10-45% (memory-bound work the most) over
/// stretches of seconds, so a phase in one stretch samples one moment of
/// it; spread over the run, with every rate and latency taken per burst
/// and reported as the median across bursts, it samples many.
constexpr int kBursts = 50;
constexpr double kFeedSeconds = 6.0;      // open-loop feeding in all
constexpr uint64_t kBulkRequests = 100;   // closed-loop 500-per-stream feeds
/// 20 per burst: with every second one unsubscribed and a feed after
/// every 10 control operations, each burst is the same 30 control
/// operations and 3 feeds.
constexpr uint64_t kChurnSubscribes = 1000;

struct WorkloadSpec {
  enum class Kind { kFeed, kBulk, kChurn };
  Kind kind = Kind::kFeed;
  size_t population = 100;
  /// Open-loop input rate (input items/s over both streams), kFeed only.
  double rate = 0.0;
  /// Kill -9 recovery cycles at the end of the run. Single samples move
  /// by up to 45% within a run; the longest history (grid_bulk) gets the
  /// fewest, to fit the run time.
  int recovery_cycles = 7;
  /// The cycles are spread over this share of --seconds, with the side
  /// setups in the pauses between them.
  double recovery_span = 0.5;
  /// Fresh spawn + population subscriptions at the start of the run (the
  /// last one becomes the measured daemon) and at its end, besides one in
  /// every `pauses_per_setup`-th pause; setup_s is their median.
  int setups_at_ends = 3;
  int pauses_per_setup = 1;
};

bool LookupWorkload(const std::string& name, WorkloadSpec* spec) {
  if (name == "grid_feed.r6k" || name == "grid_feed.r2k") {
    spec->kind = WorkloadSpec::Kind::kFeed;
    spec->rate = name == "grid_feed.r6k" ? 6000.0 : 2000.0;
    spec->recovery_cycles = 11;
    return true;
  }
  if (name == "grid_bulk") {
    spec->kind = WorkloadSpec::Kind::kBulk;
    spec->recovery_cycles = 5;
    return true;
  }
  if (name == "subscribe_churn") {
    spec->kind = WorkloadSpec::Kind::kChurn;
    spec->population = 1000;
    spec->setups_at_ends = 2;
    spec->pauses_per_setup = 2;  // a setup of 1,000 queries takes ~0.35 s
    spec->recovery_cycles = 9;
    spec->recovery_span = 0.6;
    return true;
  }
  return false;
}

/// The grid scenario's query stream (GridScenario's generation loop,
/// continued indefinitely): template queries on either photon stream at
/// uniformly chosen super-peers.
class QuerySource {
 public:
  explicit QuerySource(uint64_t seed)
      : first_(workload::QueryGenConfig::Default(seed + 1, "photons")),
        second_(workload::QueryGenConfig::Default(seed + 2, "photons2")),
        rng_(seed + 3) {}

  workload::QuerySpec Next() {
    std::string text = stream_dist_(rng_) == 0 ? first_.Next()
                                               : second_.Next();
    return {std::move(text), target_dist_(rng_)};
  }

 private:
  workload::QueryGenerator first_;
  workload::QueryGenerator second_;
  std::mt19937_64 rng_;
  std::uniform_int_distribution<int> target_dist_{0, 15};
  std::uniform_int_distribution<int> stream_dist_{0, 1};
};

/// One operation of the final daemon history, in order; the in-process
/// replay applies exactly these.
struct Op {
  enum class Kind { kSubscribe, kUnsubscribe, kFeed, kAttach };
  Kind kind = Kind::kFeed;
  std::string text;        // kSubscribe
  int64_t vq = 0;          // kSubscribe
  int64_t query_id = -1;   // kSubscribe (daemon's id), kUnsubscribe,
                           // kAttach
  uint64_t count = 0;      // kFeed: items per stream
  /// Issued inside a measured phase (its untraced latency is a sample of
  /// the end-to-end metric the unattributed remainder is taken from).
  bool measured = false;
};

// ---------------------------------------------------------------------
// Failure accounting and correctness

struct Ledger {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> errors;

  /// An RPC error, timeout, rejection or result mismatch.
  void Fail(const std::string& what) {
    ++failed;
    correct = false;
    if (errors.size() < 8) errors.push_back(what);
  }
};

// ---------------------------------------------------------------------
// Spans (traced replay only): name, start, end, parent; kept in memory
// and written when the run ends.

class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
  };

  void Begin(const char* name) {
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.start_ns = NowNs();
    stack_.push_back(static_cast<int>(spans_.size()));
    spans_.push_back(std::move(span));
  }
  void End() {
    spans_[stack_.back()].end_ns = NowNs();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  double DurationUs(size_t i) const {
    return static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) /
           1000.0;
  }

  /// Summed duration per span name. Every layer span is a leaf, so its
  /// duration is its self time; only the op.* roots have children.
  std::map<std::string, double> TotalUs() const {
    std::map<std::string, double> totals;
    for (size_t i = 0; i < spans_.size(); ++i) {
      totals[spans_[i].name] += DurationUs(i);
    }
    return totals;
  }

  /// Chrome trace_event JSON ("X" events; args carry the parent index).
  bool Write(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) return false;
    std::fprintf(file, "{\"traceEvents\":[\n");
    uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(file,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d}}\n",
                   i == 0 ? "" : ",", s.name.c_str(),
                   static_cast<double>(s.start_ns - origin) / 1000.0,
                   DurationUs(i), i, s.parent);
    }
    std::fprintf(file, "]}\n");
    return std::fclose(file) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Begin(name);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

// ---------------------------------------------------------------------
// The daemon process

struct Args {
  std::string serve_path;
  std::string dir;
  std::string workload;
  uint64_t seed = 1;
  int seconds = 30;
  bool trace = false;
};

/// A daemon's own files (checkpoint, WAL, metrics export, log) live in
/// a subdirectory of the run directory: "daemon" for the measured one,
/// "setup" for the extra setups. The run directory itself keeps the
/// load generator's files (span traces, copies for the traced recovery).
std::string CheckpointPath(const std::string& dir) { return dir + "/ckpt"; }
std::string MetricsPath(const std::string& dir) {
  return dir + "/metrics.csv";
}

/// Removes every regular file in `dir`.
void ClearDir(const std::string& dir) {
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) return;
  while (dirent* entry = ::readdir(handle)) {
    std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    std::string path = dir + "/" + name;
    struct stat st;
    if (::lstat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
      ::unlink(path.c_str());
    }
  }
  ::closedir(handle);
}

class DaemonProcess {
 public:
  DaemonProcess() = default;
  ~DaemonProcess() { Kill9(); }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  /// Spawns streamshare_serve on the grid scenario with its files in
  /// `dir` and waits for its `listening port=N` line.
  Status Spawn(const Args& args, const std::string& dir) {
    int out[2];
    if (::pipe(out) != 0) return Status::Internal("pipe failed");
    std::vector<std::string> argv = {
        args.serve_path,
        "--scenario=grid",
        "--seed=" + std::to_string(args.seed),
        "--checkpoint=" + CheckpointPath(dir),
        "--metrics=" + MetricsPath(dir),
    };
    std::string log_path = dir + "/daemon.log";
    std::vector<char*> raw;
    for (std::string& a : argv) raw.push_back(a.data());
    raw.push_back(nullptr);
    // vfork, not fork: fork copies the load generator's page tables,
    // which grow with the in-process reference, and made a spawn late
    // in the run take 13 ms instead of 3 ms. The child runs only system
    // calls until execv.
    pid_t pid = ::vfork();
    if (pid < 0) return Status::Internal("vfork failed");
    if (pid == 0) {
      // The daemon never outlives the load generator.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(out[1], STDOUT_FILENO);
      int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                       0644);
      if (log >= 0) ::dup2(log, STDERR_FILENO);
      ::close(out[0]);
      ::close(out[1]);
      ::execv(raw[0], raw.data());
      ::_exit(127);
    }
    ::close(out[1]);
    pid_ = pid;
    out_fd_ = out[0];
    std::string line;
    Clock::time_point deadline = Clock::now() + std::chrono::seconds(120);
    while (true) {
      size_t eol = output_.find('\n');
      if (eol != std::string::npos) {
        line = output_.substr(0, eol);
        output_.erase(0, eol + 1);
        if (line.rfind("listening port=", 0) == 0) break;
        continue;
      }
      int left = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - Clock::now())
              .count());
      if (left <= 0) return Status::DeadlineExceeded("daemon start");
      struct pollfd pfd = {out_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, left) <= 0) continue;
      char buffer[4096];
      ssize_t n = ::read(out_fd_, buffer, sizeof(buffer));
      if (n <= 0) return Status::Unavailable("daemon exited at start");
      output_.append(buffer, static_cast<size_t>(n));
    }
    port_ = std::atoi(line.c_str() + std::strlen("listening port="));
    return port_ > 0 ? Status::Ok()
                     : Status::Internal("bad listening line: " + line);
  }

  int port() const { return port_; }
  bool alive() const { return pid_ > 0; }

  /// CPU time of all daemon threads (ns), from schedstat: exact
  /// scheduler accounting rather than tick-sampled utime/stime.
  uint64_t CpuNs() const {
    uint64_t total = 0;
    std::string task_dir = "/proc/" + std::to_string(pid_) + "/task";
    DIR* handle = ::opendir(task_dir.c_str());
    if (handle == nullptr) return 0;
    while (dirent* entry = ::readdir(handle)) {
      if (entry->d_name[0] == '.') continue;
      std::ifstream in(task_dir + "/" + entry->d_name + "/schedstat");
      uint64_t ns = 0;
      if (in >> ns) total += ns;
    }
    ::closedir(handle);
    return total;
  }

  /// Peak resident set (VmHWM) so far, in KiB.
  uint64_t PeakRssKb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string key;
    while (in >> key) {
      if (key == "VmHWM:") {
        uint64_t kb = 0;
        in >> kb;
        return kb;
      }
    }
    return 0;
  }

  void Kill9() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    Reap();
  }

  /// Waits for a draining daemon to exit on its own; false on timeout
  /// (the daemon is then killed) or a non-zero exit.
  bool WaitExit(int timeout_ms) {
    Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    while (Clock::now() < deadline) {
      int status = 0;
      pid_t done = ::waitpid(pid_, &status, WNOHANG);
      if (done == pid_) {
        pid_ = -1;
        CloseOut();
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      ::usleep(2000);
    }
    Kill9();
    return false;
  }

 private:
  void Reap() {
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    CloseOut();
  }
  void CloseOut() {
    if (out_fd_ >= 0) ::close(out_fd_);
    out_fd_ = -1;
    output_.clear();
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
  std::string output_;
};

// ---------------------------------------------------------------------
// The run

struct QueryTotals {
  uint64_t items = 0;
  uint64_t bytes = 0;
  uint64_t content_hash = 0;
  bool operator==(const QueryTotals& other) const {
    return items == other.items && bytes == other.bytes &&
           content_hash == other.content_hash;
  }
};

std::map<int64_t, QueryTotals> ActiveStatsRows(
    const serve::StatsReply& stats) {
  std::map<int64_t, QueryTotals> rows;
  for (const serve::QueryStat& q : stats.queries) {
    if (!q.accepted || !q.active) continue;
    rows[q.query_id] = {q.items, q.bytes, q.content_hash};
  }
  return rows;
}

class Run {
 public:
  Run(Args args, WorkloadSpec spec)
      : args_(std::move(args)), spec_(spec) {
    client_options_.name = "servebench";
    client_options_.timeout_ms = 30000;
  }

  void Execute();
  void PrintJson() const;

 private:
  // --- daemon-side phases
  /// Spawns a daemon with its files in `dir` and connects `client`.
  bool StartDaemon(DaemonProcess* daemon, const std::string& dir,
                   std::unique_ptr<serve::ServeClient>* client);
  /// The measured daemon's setup: its subscriptions start the history.
  bool Setup();
  /// A setup on a daemon of its own, killed when it is done; the
  /// measured daemon, if alive, stays idle meanwhile.
  bool SideSetup();
  bool SideSetups(int count);
  /// After step `next` - 1 of `count` steps spread over `span_s` seconds
  /// from `begin`: one side setup, then idle until step `next` is due.
  bool Pause(Clock::time_point begin, int next, int count, double span_s);
  /// Books one burst of a measured phase: `items` input items fed since
  /// `start`, with the daemon's CPU counter at `cpu_before_ns` then.
  void BookBurst(Clock::time_point start, uint64_t cpu_before_ns,
                 uint64_t items);
  bool MeasureFeed();
  bool MeasureBulk();
  bool MeasureChurn();
  bool RecoveryCycles();
  bool FinalDrain();

  // --- RPC wrappers: count attempts/failures, log the op on success
  bool Subscribe(const workload::QuerySpec& query, double* latency_ms,
                 int64_t* query_id = nullptr);
  bool Unsubscribe(int64_t query_id, double* latency_ms);
  /// `latency_ms` is timed from `from`: the send, or an open-loop
  /// request's due time.
  bool Feed(uint64_t count, double* latency_ms,
            Clock::time_point from = Clock::now());
  bool Attach(int64_t query_id, uint64_t resume_from);
  bool Stats(serve::StatsReply* reply);
  /// Client-side per-query observations == the daemon's Stats rows.
  void CheckClientAgainstStats(const serve::StatsReply& stats,
                               const char* when);

  // --- in-process replay
  void Replay();
  void TracedRecovery();
  void ReadMetricsFile();

  void Metric(const std::string& name, double value) {
    metrics_[name] = value;
  }
  void Info(const std::string& name, double value) { info_[name] = value; }

  Args args_;
  WorkloadSpec spec_;
  Ledger ledger_;
  serve::ClientOptions client_options_;
  std::unique_ptr<serve::ServeClient> client_;
  DaemonProcess daemon_;
  std::vector<Op> ops_;
  /// The grid query stream; setup takes the population from its head,
  /// the churn phase continues it.
  std::unique_ptr<QuerySource> queries_;

  std::vector<double> setup_s_;
  std::vector<double> spawn_s_;  // the spawn → listening part of setup_s_
  std::vector<double> subscribe_ms_;
  std::vector<double> unsubscribe_ms_;
  std::vector<double> feed_ms_;
  std::vector<double> lateness_ms_;
  std::vector<double> recovery_s_;
  uint64_t peak_rss_kb_ = 0;
  uint64_t measured_items_ = 0;
  uint64_t input_items_ = 0;  // fed over the final history, all streams
  double measured_wall_s_ = 0.0;  // time spent feeding in the phase
  // Per burst of the measured phase: input items per second of the
  // burst, daemon CPU per input item.
  std::vector<double> burst_items_per_s_;
  std::vector<double> burst_cpu_us_per_item_;
  uint64_t life_mutations_ = 0;  // acked mutating requests this life
  /// Reference totals: before the final drain, and after it (flushed).
  std::map<int64_t, QueryTotals> ref_before_drain_;
  std::map<int64_t, QueryTotals> ref_after_drain_;
  std::map<int64_t, QueryTotals> stats_before_drain_;
  std::map<int64_t, QueryTotals> client_final_;
  std::string daemon_dir_;  // the measured daemon's files
  std::map<std::string, double> metrics_;
  std::map<std::string, double> info_;
  bool measuring_ = false;
  std::string saved_ckpt_;  // checkpoint/WAL copies of the last kill
};

bool Run::Subscribe(const workload::QuerySpec& query, double* latency_ms,
                    int64_t* query_id) {
  ++ledger_.attempted;
  Clock::time_point start = Clock::now();
  Result<serve::SubscribeReply> reply =
      client_->Subscribe(query.text, query.target);
  if (latency_ms != nullptr) {
    *latency_ms = Seconds(start, Clock::now()) * 1000.0;
  }
  if (!reply.ok() || !reply->accepted) {
    ledger_.Fail("subscribe: " + (reply.ok() ? reply->reject_reason
                                              : reply.status().ToString()));
    if (latency_ms != nullptr) *latency_ms = INFINITY;
    return false;
  }
  Op op;
  op.kind = Op::Kind::kSubscribe;
  op.text = query.text;
  op.vq = query.target;
  op.query_id = reply->query_id;
  op.measured = measuring_;
  ops_.push_back(std::move(op));
  ++life_mutations_;
  if (query_id != nullptr) *query_id = reply->query_id;
  return true;
}

bool Run::Unsubscribe(int64_t query_id, double* latency_ms) {
  ++ledger_.attempted;
  Clock::time_point start = Clock::now();
  Status status = client_->Unsubscribe(query_id);
  *latency_ms = Seconds(start, Clock::now()) * 1000.0;
  if (!status.ok()) {
    ledger_.Fail("unsubscribe: " + status.ToString());
    *latency_ms = INFINITY;
    return false;
  }
  Op op;
  op.kind = Op::Kind::kUnsubscribe;
  op.query_id = query_id;
  ops_.push_back(op);
  ++life_mutations_;
  return true;
}

bool Run::Feed(uint64_t count, double* latency_ms, Clock::time_point from) {
  ++ledger_.attempted;
  Result<serve::FeedReply> reply = client_->Feed(count);
  if (latency_ms != nullptr) {
    *latency_ms = Seconds(from, Clock::now()) * 1000.0;
  }
  if (!reply.ok()) {
    ledger_.Fail("feed: " + reply.status().ToString());
    if (latency_ms != nullptr) *latency_ms = INFINITY;
    return false;
  }
  Op op;
  op.kind = Op::Kind::kFeed;
  op.count = count;
  op.measured = measuring_;
  ops_.push_back(op);
  ++life_mutations_;
  return true;
}

bool Run::Attach(int64_t query_id, uint64_t resume_from) {
  ++ledger_.attempted;
  Result<serve::SubscribeReply> reply =
      client_->Attach(query_id, resume_from);
  if (!reply.ok() || !reply->accepted ||
      reply->forward_from != resume_from) {
    ledger_.Fail("attach " + std::to_string(query_id) + ": " +
                 (reply.ok() ? "forward_from mismatch"
                             : reply.status().ToString()));
    return false;
  }
  return true;
}

bool Run::Stats(serve::StatsReply* reply) {
  ++ledger_.attempted;
  Result<serve::StatsReply> stats = client_->Stats();
  if (!stats.ok()) {
    ledger_.Fail("stats: " + stats.status().ToString());
    return false;
  }
  *reply = std::move(*stats);
  return true;
}

void Run::CheckClientAgainstStats(const serve::StatsReply& stats,
                                  const char* when) {
  std::map<int64_t, QueryTotals> rows = ActiveStatsRows(stats);
  for (int64_t id : client_->attached()) {
    serve::ClientQueryResults seen = client_->results(id);
    QueryTotals client = {seen.items, seen.bytes, seen.content_hash};
    auto it = rows.find(id);
    if (it == rows.end() || !(it->second == client)) {
      ledger_.Fail(std::string(when) + ": query " +
                   std::to_string(id) +
                   " client totals differ from the daemon's Stats");
      return;
    }
  }
}

bool Run::StartDaemon(DaemonProcess* daemon, const std::string& dir,
                      std::unique_ptr<serve::ServeClient>* client) {
  Clock::time_point start = Clock::now();
  ++ledger_.attempted;
  Status spawned = daemon->Spawn(args_, dir);
  if (!spawned.ok()) {
    ledger_.Fail("spawn: " + spawned.ToString());
    return false;
  }
  spawn_s_.push_back(Seconds(start, Clock::now()));
  serve::ClientOptions options = client_options_;
  options.port = daemon->port();
  *client = std::make_unique<serve::ServeClient>(options);
  ++ledger_.attempted;
  Status connected = (*client)->Connect();
  if (!connected.ok()) {
    ledger_.Fail("connect: " + connected.ToString());
    return false;
  }
  return true;
}

bool Run::Setup() {
  ClearDir(daemon_dir_);
  Clock::time_point start = Clock::now();
  if (!StartDaemon(&daemon_, daemon_dir_, &client_)) return false;
  queries_ = std::make_unique<QuerySource>(kPopulationSeed);
  // Subscribe latency samples: the setups' on the grid workloads, the
  // churn phase's on subscribe_churn.
  measuring_ = spec_.kind != WorkloadSpec::Kind::kChurn;
  for (size_t i = 0; i < spec_.population; ++i) {
    double ms = 0.0;
    bool ok = Subscribe(queries_->Next(), &ms);
    if (measuring_) subscribe_ms_.push_back(ms);
    if (!ok) return false;
  }
  setup_s_.push_back(Seconds(start, Clock::now()));
  measuring_ = false;
  peak_rss_kb_ = std::max(peak_rss_kb_, daemon_.PeakRssKb());
  return true;
}

bool Run::SideSetup() {
  const std::string dir = args_.dir + "/setup";
  ClearDir(dir);
  DaemonProcess daemon;
  std::unique_ptr<serve::ServeClient> client;
  Clock::time_point start = Clock::now();
  if (!StartDaemon(&daemon, dir, &client)) return false;
  QuerySource queries(kPopulationSeed);
  for (size_t i = 0; i < spec_.population; ++i) {
    workload::QuerySpec query = queries.Next();
    ++ledger_.attempted;
    Clock::time_point sent = Clock::now();
    Result<serve::SubscribeReply> reply =
        client->Subscribe(query.text, query.target);
    if (!reply.ok() || !reply->accepted) {
      ledger_.Fail("setup subscribe: " +
                   (reply.ok() ? reply->reject_reason
                               : reply.status().ToString()));
      return false;
    }
    if (spec_.kind != WorkloadSpec::Kind::kChurn) {
      subscribe_ms_.push_back(Seconds(sent, Clock::now()) * 1000.0);
    }
  }
  setup_s_.push_back(Seconds(start, Clock::now()));
  peak_rss_kb_ = std::max(peak_rss_kb_, daemon.PeakRssKb());
  return true;
}

bool Run::SideSetups(int count) {
  for (int i = 0; i < count; ++i) {
    if (!SideSetup()) return false;
  }
  return true;
}

bool Run::Pause(Clock::time_point begin, int next, int count,
                double span_s) {
  if (next == count) return true;
  if (next % spec_.pauses_per_setup == 0 && !SideSetup()) return false;
  std::this_thread::sleep_until(
      begin + std::chrono::microseconds(static_cast<int64_t>(
                  span_s * 1e6 * next / count)));
  return true;
}

void Run::BookBurst(Clock::time_point start, uint64_t cpu_before_ns,
                    uint64_t items) {
  double wall_s = Seconds(start, Clock::now());
  double cpu_us =
      static_cast<double>(daemon_.CpuNs() - cpu_before_ns) / 1000.0;
  measured_wall_s_ += wall_s;
  measured_items_ += items;
  burst_items_per_s_.push_back(static_cast<double>(items) / wall_s);
  burst_cpu_us_per_item_.push_back(cpu_us / static_cast<double>(items));
}

bool Run::MeasureFeed() {
  const double interval_s =
      static_cast<double>(kFeedItemsPerStream * kStreams) / spec_.rate;
  const uint64_t per_burst =
      static_cast<uint64_t>(std::llround(kFeedSeconds / interval_s)) /
      kBursts;
  // One open-loop stretch of `count` feeds at the workload's rate, each
  // timed from its due time.
  auto paced = [&](uint64_t count, bool record) {
    Clock::time_point start = Clock::now();
    for (uint64_t i = 0; i < count; ++i) {
      Clock::time_point due =
          start + std::chrono::nanoseconds(static_cast<int64_t>(
                      static_cast<double>(i) * interval_s * 1e9));
      std::this_thread::sleep_until(due);
      double late_ms = Seconds(due, Clock::now()) * 1000.0;
      double ms = 0.0;
      bool ok = Feed(kFeedItemsPerStream, &ms, due);
      if (record) {
        feed_ms_.push_back(ms);
        lateness_ms_.push_back(late_ms);
      }
      if (!ok) return false;
    }
    return true;
  };
  // Warm-up at the same rate (caches, allocator, socket buffers); the
  // feeds are part of the history but not measured.
  if (!paced(static_cast<uint64_t>(1.0 / interval_s), false)) return false;
  Clock::time_point begin = Clock::now();
  for (int burst = 0; burst < kBursts; ++burst) {
    measuring_ = true;
    uint64_t cpu_ns = daemon_.CpuNs();
    Clock::time_point start = Clock::now();
    if (!paced(per_burst, true)) return false;
    BookBurst(start, cpu_ns, per_burst * kFeedItemsPerStream * kStreams);
    measuring_ = false;
    if (!Pause(begin, burst + 1, kBursts, args_.seconds)) return false;
  }
  return true;
}

bool Run::MeasureBulk() {
  ++ledger_.attempted;
  Status detached = client_->Detach();
  if (!detached.ok()) {
    ledger_.Fail("detach: " + detached.ToString());
    return false;
  }
  double ms = 0.0;
  for (int i = 0; i < 2; ++i) {  // warm-up
    if (!Feed(kBulkItemsPerStream, &ms)) return false;
  }
  Clock::time_point begin = Clock::now();
  for (int burst = 0; burst < kBursts; ++burst) {
    measuring_ = true;
    uint64_t cpu_ns = daemon_.CpuNs();
    Clock::time_point start = Clock::now();
    const uint64_t requests = kBulkRequests / kBursts;
    for (uint64_t i = 0; i < requests; ++i) {
      bool ok = Feed(kBulkItemsPerStream, &ms);
      feed_ms_.push_back(ms);
      if (!ok) return false;
    }
    BookBurst(start, cpu_ns, requests * kBulkItemsPerStream * kStreams);
    measuring_ = false;
    if (!Pause(begin, burst + 1, kBursts, args_.seconds)) return false;
  }
  // A subscriber comes back online: query 0 re-attaches from sequence 0
  // and the next feed forwards its whole history (a catch-up through
  // the codec and the socket; the client-side check then covers it).
  if (!Attach(0, 0)) return false;
  Op op;
  op.kind = Op::Kind::kAttach;
  op.query_id = 0;
  ops_.push_back(op);
  return Feed(kFeedItemsPerStream, nullptr);
}

bool Run::MeasureChurn() {
  // Per burst: kChurnSubscribes / kBursts fresh Subscribes, every second
  // one unsubscribed at once, a light 10-item feed (5 per stream) after
  // every 10 control operations.
  uint64_t control_ops = 0;
  uint64_t items = 0;
  auto after_control_op = [&]() {
    if (++control_ops % 10 != 0) return true;
    double ms = 0.0;
    bool ok = Feed(kChurnItemsPerStream, &ms);
    feed_ms_.push_back(ms);
    items += kChurnItemsPerStream * kStreams;
    return ok;
  };
  Clock::time_point begin = Clock::now();
  for (int burst = 0; burst < kBursts; ++burst) {
    measuring_ = true;
    uint64_t cpu_ns = daemon_.CpuNs();
    Clock::time_point start = Clock::now();
    uint64_t items_before = items;
    for (uint64_t i = 0; i < kChurnSubscribes / kBursts; ++i) {
      double ms = 0.0;
      int64_t id = -1;
      bool ok = Subscribe(queries_->Next(), &ms, &id);
      subscribe_ms_.push_back(ms);
      if (!ok || !after_control_op()) return false;
      if (i % 2 == 1) {
        if (!Unsubscribe(id, &ms)) return false;
        unsubscribe_ms_.push_back(ms);
        if (!after_control_op()) return false;
      }
    }
    BookBurst(start, cpu_ns, items - items_before);
    measuring_ = false;
    if (!Pause(begin, burst + 1, kBursts, args_.seconds)) return false;
  }
  return true;
}

bool Run::RecoveryCycles() {
  std::string ckpt = CheckpointPath(daemon_dir_);
  Clock::time_point begin = Clock::now();
  for (int cycle = 0; cycle < spec_.recovery_cycles; ++cycle) {
    if (cycle > 0 && !Pause(begin, cycle, spec_.recovery_cycles,
                            spec_.recovery_span * args_.seconds)) {
      return false;
    }
    serve::StatsReply before;
    if (!Stats(&before)) return false;
    CheckClientAgainstStats(before, "pre-kill");
    peak_rss_kb_ = std::max(peak_rss_kb_, daemon_.PeakRssKb());

    Clock::time_point start = Clock::now();
    daemon_.Kill9();
    if (args_.trace && cycle + 1 == spec_.recovery_cycles) {
      // Keep the durable files this recovery reads, for the traced
      // in-process recovery (outside the timed window).
      Clock::time_point copy_start = Clock::now();
      saved_ckpt_ = args_.dir + "/saved_ckpt";
      std::string wal = serve::DefaultWalPath(ckpt);
      std::ifstream c(ckpt, std::ios::binary), w(wal, std::ios::binary);
      std::ofstream(saved_ckpt_, std::ios::binary) << c.rdbuf();
      std::ofstream(serve::DefaultWalPath(saved_ckpt_), std::ios::binary)
          << w.rdbuf();
      start += Clock::now() - copy_start;
    }
    ++ledger_.attempted;
    Status spawned = daemon_.Spawn(args_, daemon_dir_);
    if (!spawned.ok()) {
      ledger_.Fail("respawn: " + spawned.ToString());
      return false;
    }
    client_->Close();
    client_->set_port(daemon_.port());
    ++ledger_.attempted;
    Status connected = client_->Connect();
    Clock::time_point hello = Clock::now();
    if (!connected.ok()) {
      ledger_.Fail("reconnect: " + connected.ToString());
      return false;
    }
    recovery_s_.push_back(Seconds(start, hello));

    // Durable state survived exactly.
    serve::StatsReply after;
    if (!Stats(&after)) return false;
    if (ActiveStatsRows(after) != ActiveStatsRows(before) ||
        after.items_fed != before.items_fed) {
      ledger_.Fail("recovery changed the per-query Stats");
    }
    // Re-attach at next_seq; the next feed must forward only new
    // deliveries (no duplicates of what the client already holds).
    std::set<int64_t> attached = client_->attached();
    for (int64_t id : attached) {
      if (!Attach(id, client_->results(id).next_seq)) return false;
    }
    if (!Feed(kFeedItemsPerStream, nullptr)) return false;
    serve::StatsReply fed;
    if (!Stats(&fed)) return false;
    uint64_t expected = 0;
    std::map<int64_t, QueryTotals> rows_before = ActiveStatsRows(after);
    std::map<int64_t, QueryTotals> rows_after = ActiveStatsRows(fed);
    for (int64_t id : attached) {
      expected += rows_after[id].items - rows_before[id].items;
    }
    if (fed.results_forwarded != expected) {
      ledger_.Fail("re-attach at next_seq forwarded " +
                   std::to_string(fed.results_forwarded) +
                   " results, expected " + std::to_string(expected));
    }
    CheckClientAgainstStats(fed, "post-recovery");
  }
  return true;
}

bool Run::FinalDrain() {
  serve::StatsReply stats;
  if (!Stats(&stats)) return false;
  CheckClientAgainstStats(stats, "pre-drain");
  stats_before_drain_ = ActiveStatsRows(stats);
  peak_rss_kb_ = std::max(peak_rss_kb_, daemon_.PeakRssKb());
  ++ledger_.attempted;
  Result<serve::DrainReply> drained = client_->Drain(/*final_drain=*/true);
  if (!drained.ok()) {
    ledger_.Fail("drain: " + drained.status().ToString());
    return false;
  }
  ++ledger_.attempted;
  Result<serve::ServeEos> eos = client_->WaitEos(30000);
  if (!eos.ok()) {
    ledger_.Fail("eos: " + eos.status().ToString());
    return false;
  }
  for (int64_t id : client_->attached()) {
    serve::ClientQueryResults seen = client_->results(id);
    client_final_[id] = {seen.items, seen.bytes, seen.content_hash};
  }
  ++ledger_.attempted;
  if (!daemon_.WaitExit(60000)) {
    ledger_.Fail("daemon did not exit cleanly after the final drain");
    return false;
  }
  return true;
}

// --- in-process replay -------------------------------------------------

void Run::Replay() {
  Tracer tracer;
  Tracer* t = args_.trace ? &tracer : nullptr;
  workload::ScenarioSpec scenario = workload::GridScenario(args_.seed, 0);
  sharing::SystemConfig config;
  config.keep_results = true;
  Result<std::unique_ptr<sharing::StreamShareSystem>> built =
      workload::BuildSystem(scenario, config);
  if (!built.ok()) {
    ledger_.Fail("reference build: " + built.status().ToString());
    return;
  }
  std::unique_ptr<sharing::StreamShareSystem> system = std::move(*built);
  std::vector<workload::PhotonGenerator> generators;
  for (const workload::StreamSpec& stream : scenario.streams) {
    generators.emplace_back(stream.gen);
  }
  // The planner of the attribution run works on the system's own
  // registry, network state and candidate index.
  sharing::Planner planner(&system->topology(), &system->state(),
                           &system->registry(), &system->cost_model(),
                           config.planner);
  planner.set_candidate_index(system->candidate_index());

  serve::WriteAheadLog wal;
  std::string wal_path = args_.dir + "/replay.wal";
  if (t != nullptr) {
    Result<serve::WriteAheadLog> created =
        serve::WriteAheadLog::Create(wal_path, serve::WalHeader());
    if (created.ok()) wal = std::move(*created);
  }
  auto wal_append = [&](const serve::WalRecord& record) {
    if (!wal.open()) return;
    ScopedSpan span(t, "serve.wal.append");
    (void)wal.Append(record);
  };

  // Forwarding mirror: attached queries and their cursors.
  std::map<int64_t, uint64_t> cursor;
  transport::ItemEncoder encoder;
  transport::ItemDecoder decoder;
  uint64_t items_fed = 0;
  uint64_t results_forwarded = 0;
  uint64_t encoded_bytes = 0;
  std::vector<size_t> feed_roots, subscribe_roots;
  std::vector<std::string> frames;
  double examined = 0, matched = 0, pruned = 0, plans = 0;
  uint64_t subscribes = 0;

  auto forward = [&]() {
    frames.clear();
    {
      ScopedSpan span(t, "transport.encode");
      std::string encoded;
      for (auto& [id, next] : cursor) {
        if (!system->IsActive(static_cast<int>(id))) continue;
        const engine::SinkOp* sink = system->registrations()[id].sink;
        const std::vector<engine::ItemPtr>& items = sink->items();
        for (; next < items.size(); ++next) {
          encoded.clear();
          encoder.Encode(*items[next], &encoded);
          encoded_bytes += encoded.size();
          frames.push_back(encoded);
        }
      }
    }
    {
      ScopedSpan span(t, "serve.frame.encode");
      for (std::string& frame : frames) {
        frame = serve::EncodeResultFrame(0, 0, 0, 0, frame);
      }
    }
    std::vector<serve::ResultFrame> decoded(frames.size());
    {
      ScopedSpan span(t, "serve.frame.decode");
      for (size_t i = 0; i < frames.size(); ++i) {
        Result<serve::ResultFrame> r = serve::DecodeResultFrame(frames[i]);
        if (r.ok()) decoded[i] = *r;
      }
    }
    {
      ScopedSpan span(t, "transport.decode");
      for (const serve::ResultFrame& frame : decoded) {
        std::unique_ptr<xml::XmlNode> item;
        if (!decoder.Decode(frame.item, &item).ok()) {
          ledger_.Fail("reference decode failed");
          return;
        }
      }
    }
    results_forwarded += frames.size();
  };

  for (const Op& op : ops_) {
    switch (op.kind) {
      case Op::Kind::kSubscribe: {
        if (t != nullptr) {
          if (op.measured) subscribe_roots.push_back(tracer.spans().size());
          tracer.Begin("op.subscribe");
          // Attribution-only calls: the layers RegisterQuery runs
          // internally, timed through their own public entry points. The
          // first pass warms the caches (RegisterQuery's own calls run
          // warm right after), the second is timed.
          for (Tracer* timed : {static_cast<Tracer*>(nullptr), t}) {
            Result<wxquery::ExprPtr> parsed = Status::Internal("unset");
            {
              ScopedSpan span(timed, "wxquery.parse");
              parsed = wxquery::ParseQuery(op.text);
            }
            if (!parsed.ok()) break;
            Result<wxquery::AnalyzedQuery> analyzed =
                Status::Internal("unset");
            {
              ScopedSpan span(timed, "wxquery.analyze");
              analyzed = wxquery::Analyze(std::move(*parsed));
            }
            if (!analyzed.ok()) break;
            ScopedSpan span(timed, "sharing.plan");
            (void)planner.Subscribe(*analyzed,
                                    static_cast<network::NodeId>(op.vq));
          }
        }
        Result<sharing::RegistrationResult> result =
            Status::Internal("unset");
        {
          ScopedSpan span(t, "sharing.register");
          result = system->RegisterQuery(
              op.text, static_cast<network::NodeId>(op.vq),
              sharing::Strategy::kStreamSharing);
        }
        if (!result.ok() || !result->accepted ||
            result->query_id != op.query_id) {
          ledger_.Fail("reference registration of query " +
                       std::to_string(op.query_id) + " differs");
          if (t != nullptr) tracer.End();
          return;
        }
        result->sink->EnableContentHash();
        examined += result->search.candidates_examined;
        matched += result->search.candidates_matched;
        pruned += result->search.candidates_pruned;
        plans += result->search.plans_generated;
        ++subscribes;
        serve::LogEvent event;
        event.kind = serve::LogEvent::Kind::kSubscribe;
        event.at_items = items_fed;
        event.query_text = op.text;
        event.vq = op.vq;
        wal_append(serve::WalRecord::Event(std::move(event)));
        if (spec_.kind != WorkloadSpec::Kind::kBulk) cursor[op.query_id] = 0;
        if (t != nullptr) tracer.End();
        break;
      }
      case Op::Kind::kUnsubscribe: {
        ScopedSpan root(t, "op.unsubscribe");
        Status status;
        {
          ScopedSpan span(t, "sharing.unsubscribe");
          status = system->Unsubscribe(static_cast<int>(op.query_id));
        }
        if (!status.ok()) {
          ledger_.Fail("reference unsubscribe: " + status.ToString());
          return;
        }
        cursor.erase(op.query_id);
        serve::LogEvent event;
        event.kind = serve::LogEvent::Kind::kUnsubscribe;
        event.at_items = items_fed;
        event.query_id = op.query_id;
        wal_append(serve::WalRecord::Event(std::move(event)));
        break;
      }
      case Op::Kind::kAttach:
        cursor[op.query_id] = 0;
        break;
      case Op::Kind::kFeed: {
        if (t != nullptr) {
          if (op.measured) feed_roots.push_back(tracer.spans().size());
          tracer.Begin("op.feed");
        }
        std::map<std::string, std::vector<engine::ItemPtr>> items;
        {
          ScopedSpan span(t, "workload.generate");
          for (size_t s = 0; s < generators.size(); ++s) {
            items[scenario.streams[s].name] = generators[s].Generate(op.count);
          }
        }
        Status fed;
        {
          ScopedSpan span(t, "engine.feed");
          fed = system->Feed(items);
        }
        if (!fed.ok()) {
          ledger_.Fail("reference feed: " + fed.ToString());
          if (t != nullptr) tracer.End();
          return;
        }
        items_fed += op.count;
        wal_append(serve::WalRecord::Feed(items_fed));
        forward();
        if (t != nullptr) tracer.End();
        break;
      }
    }
  }

  auto totals = [&]() {
    std::map<int64_t, QueryTotals> rows;
    for (const sharing::RegistrationResult& r : system->registrations()) {
      if (!r.accepted || r.sink == nullptr || !system->IsActive(r.query_id)) {
        continue;
      }
      rows[r.query_id] = {r.sink->item_count(), r.sink->total_bytes(),
                          r.sink->content_hash()};
    }
    return rows;
  };
  ref_before_drain_ = totals();
  uint64_t retained = 0;
  uint64_t delivered = 0;
  for (const sharing::RegistrationResult& r : system->registrations()) {
    if (r.sink != nullptr) {
      retained += r.sink->items().size();
      delivered += r.sink->item_count();
    }
  }
  Status shut = system->Shutdown();
  if (!shut.ok()) ledger_.Fail("reference shutdown: " + shut.ToString());
  ref_after_drain_ = totals();

  if (t == nullptr) return;
  double input_items = static_cast<double>(items_fed) * kStreams;
  std::map<std::string, double> sum = tracer.TotalUs();
  auto total_us = [&](const char* name) { return sum[name]; };
  auto per = [](double value, double count) {
    return count > 0 ? value / count : 0.0;
  };
  double subs = static_cast<double>(subscribes);
  Metric("workload.generate_us_per_item",
         per(total_us("workload.generate"), input_items));
  Metric("wxquery.parse_us", per(total_us("wxquery.parse"), subs));
  Metric("wxquery.analyze_us", per(total_us("wxquery.analyze"), subs));
  Metric("sharing.plan_us", per(total_us("sharing.plan"), subs));
  Metric("sharing.register_us", per(total_us("sharing.register"), subs));
  Metric("sharing.deploy_us",
         per(total_us("sharing.register") - total_us("wxquery.parse") -
                 total_us("wxquery.analyze") - total_us("sharing.plan"),
             subs));
  Metric("sharing.candidates_examined", per(examined, subs));
  Metric("sharing.candidates_matched", per(matched, subs));
  Metric("sharing.candidates_pruned", per(pruned, subs));
  Metric("sharing.plans_generated", per(plans, subs));
  Metric("engine.feed_us_per_item", per(total_us("engine.feed"), input_items));
  Metric("engine.results_per_item",
         per(static_cast<double>(delivered), input_items));
  Metric("engine.retained_results", static_cast<double>(retained));
  double results = static_cast<double>(results_forwarded);
  Metric("transport.encode_us_per_result",
         per(total_us("transport.encode"), results));
  Metric("transport.decode_us_per_result",
         per(total_us("transport.decode"), results));
  Metric("transport.bytes_per_result",
         per(static_cast<double>(encoded_bytes), results));
  Metric("serve.frame_us_per_result",
         per(total_us("serve.frame.encode") + total_us("serve.frame.decode"),
             results));
  const serve::WalCounters& wal_counters = wal.counters();
  Metric("serve.wal.append_us", per(total_us("serve.wal.append"),
                                    static_cast<double>(wal_counters.appends)));
  Metric("serve.wal.bytes_per_ack",
         per(static_cast<double>(wal_counters.bytes),
             static_cast<double>(wal_counters.appends)));
  wal.Close();
  ::unlink(wal_path.c_str());

  // Unattributed remainder: untraced end-to-end median minus the median
  // per-op sum of the layer spans on the request path.
  std::vector<double> feed_path, subscribe_path;
  const std::vector<Tracer::Span>& spans = tracer.spans();
  std::vector<double> child_sum(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent < 0) continue;
    const std::string& name = spans[i].name;
    bool attribution_only = name == "wxquery.parse" ||
                            name == "wxquery.analyze" ||
                            name == "sharing.plan";
    if (!attribution_only) child_sum[spans[i].parent] += tracer.DurationUs(i);
  }
  for (size_t root : feed_roots) feed_path.push_back(child_sum[root]);
  for (size_t root : subscribe_roots) {
    subscribe_path.push_back(child_sum[root]);
  }
  Metric("serve.unattributed_us_per_feed",
         Quantile(feed_ms_, 0.5) * 1000.0 - Quantile(feed_path, 0.5));
  Metric("serve.unattributed_us_per_subscribe",
         Quantile(subscribe_ms_, 0.5) * 1000.0 -
             Quantile(subscribe_path, 0.5));
  Info("trace.spans", static_cast<double>(spans.size()));
  tracer.Write(args_.dir + "/trace.json");
}

void Run::TracedRecovery() {
  Tracer tracer;
  workload::ScenarioSpec scenario = workload::GridScenario(args_.seed, 0);
  Result<serve::Checkpoint> checkpoint = Status::NotFound("none");
  {
    ScopedSpan span(&tracer, "serve.recovery.checkpoint_load");
    checkpoint = serve::LoadCheckpoint(saved_ckpt_);
  }
  Result<serve::WalRecovery> wal = Status::NotFound("none");
  {
    ScopedSpan span(&tracer, "serve.recovery.wal_scan");
    wal = serve::RecoverWal(serve::DefaultWalPath(saved_ckpt_));
  }
  // Replay exactly what startup recovery replays: the checkpoint's
  // events at their offsets, then the WAL records, regenerating and
  // re-feeding the item history in between.
  struct Step {
    uint64_t at = 0;
    const serve::LogEvent* event = nullptr;  // null = feed up to `at`
  };
  std::vector<Step> steps;
  if (checkpoint.ok()) {
    for (const serve::LogEvent& event : checkpoint->events) {
      steps.push_back({event.at_items, &event});
    }
    steps.push_back({checkpoint->items_fed, nullptr});
  }
  if (wal.ok()) {
    uint64_t base = checkpoint.ok() ? checkpoint->generation : 0;
    if (wal->header.base_generation == base) {
      for (const serve::WalRecord& record : wal->records) {
        if (record.kind == serve::WalRecord::Kind::kEvent) {
          steps.push_back({record.event.at_items, &record.event});
        } else {
          steps.push_back({record.items_fed, nullptr});
        }
      }
    }
  }
  sharing::SystemConfig config;
  config.keep_results = true;
  Result<std::unique_ptr<sharing::StreamShareSystem>> built =
      workload::BuildSystem(scenario, config);
  if (!built.ok()) return;
  std::unique_ptr<sharing::StreamShareSystem> system = std::move(*built);
  std::vector<workload::PhotonGenerator> generators;
  for (const workload::StreamSpec& stream : scenario.streams) {
    generators.emplace_back(stream.gen);
  }
  uint64_t fed = 0;
  for (const Step& step : steps) {
    if (step.at > fed) {
      ScopedSpan span(&tracer, "serve.recovery.replay_feed");
      std::map<std::string, std::vector<engine::ItemPtr>> items;
      for (size_t s = 0; s < generators.size(); ++s) {
        items[scenario.streams[s].name] = generators[s].Generate(step.at - fed);
      }
      if (!system->Feed(items).ok()) {
        ledger_.Fail("traced recovery feed failed");
        return;
      }
      fed = step.at;
    }
    if (step.event == nullptr) continue;
    ScopedSpan span(&tracer, "serve.recovery.replay_register");
    const serve::LogEvent& event = *step.event;
    Status applied;
    if (event.kind == serve::LogEvent::Kind::kSubscribe) {
      applied = system
                    ->RegisterQuery(event.query_text,
                                    static_cast<network::NodeId>(event.vq),
                                    sharing::Strategy::kStreamSharing)
                    .status();
    } else if (event.kind == serve::LogEvent::Kind::kUnsubscribe) {
      applied = system->Unsubscribe(static_cast<int>(event.query_id));
    }
    if (!applied.ok()) {
      ledger_.Fail("traced recovery event: " + applied.ToString());
      return;
    }
  }
  // Startup then folds what it replayed into a fresh checkpoint and
  // starts an empty log extending it (ServeDaemon::RecoverDurableState):
  // the same checkpoint contents, written through the same calls.
  std::string folded = saved_ckpt_ + ".fold";
  {
    ScopedSpan span(&tracer, "serve.recovery.fold");
    serve::Checkpoint fold;
    fold.scenario_fingerprint = serve::ScenarioFingerprint(scenario);
    fold.items_fed = fed;
    for (const Step& step : steps) {
      if (step.event != nullptr) fold.events.push_back(*step.event);
    }
    for (const sharing::RegistrationResult& r : system->registrations()) {
      if (r.sink == nullptr || !r.accepted || !system->IsActive(r.query_id)) {
        continue;
      }
      serve::DeliverySnapshot snapshot;
      snapshot.query_id = r.query_id;
      snapshot.items = r.sink->item_count();
      snapshot.content_hash = r.sink->content_hash();
      fold.deliveries.push_back(snapshot);
    }
    Status saved = serve::SaveCheckpoint(folded, fold);
    serve::WalHeader header;
    header.scenario_fingerprint = fold.scenario_fingerprint;
    Result<serve::WriteAheadLog> log =
        serve::WriteAheadLog::Create(serve::DefaultWalPath(folded), header);
    if (!saved.ok() || !log.ok()) {
      ledger_.Fail("traced recovery fold failed");
      return;
    }
    log->Close();
  }
  ::unlink(folded.c_str());
  ::unlink(serve::DefaultWalPath(folded).c_str());
  std::map<std::string, double> sum = tracer.TotalUs();
  Metric("serve.recovery.checkpoint_load_ms",
         sum["serve.recovery.checkpoint_load"] / 1000.0);
  Metric("serve.recovery.wal_scan_ms",
         sum["serve.recovery.wal_scan"] / 1000.0);
  Metric("serve.recovery.replay_register_ms",
         sum["serve.recovery.replay_register"] / 1000.0);
  Metric("serve.recovery.replay_feed_ms",
         sum["serve.recovery.replay_feed"] / 1000.0);
  Metric("serve.recovery.fold_ms", sum["serve.recovery.fold"] / 1000.0);
  // Unattributed: the untraced recovery_s median (process start, scenario
  // build, listen, Hello) minus the traced steps above.
  double traced_ms = 0.0;
  for (const auto& [name, us] : sum) traced_ms += us / 1000.0;
  Metric("serve.recovery.unattributed_ms",
         Quantile(recovery_s_, 0.5) * 1000.0 - traced_ms);
  tracer.Write(args_.dir + "/trace_recovery.json");
  ::unlink(saved_ckpt_.c_str());
  ::unlink(serve::DefaultWalPath(saved_ckpt_).c_str());
}

void Run::ReadMetricsFile() {
  std::ifstream in(MetricsPath(daemon_dir_));
  double link_bytes = 0.0, peer_work = 0.0;
  bool seen = false;
  std::string line;
  while (std::getline(in, line)) {
    std::vector<std::string> cols;
    std::stringstream row(line);
    std::string col;
    while (std::getline(row, col, ',')) cols.push_back(col);
    if (cols.size() < 3 || cols[1] != "gauge") continue;
    const std::string& name = cols[0];
    auto ends_with = [&](const char* suffix) {
      size_t n = std::strlen(suffix);
      return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
    };
    if (name.rfind("engine.link.", 0) == 0 && ends_with(".bytes")) {
      link_bytes += std::atof(cols[2].c_str());
      seen = true;
    } else if (name.rfind("engine.peer.", 0) == 0 && ends_with(".work")) {
      peer_work += std::atof(cols[2].c_str());
    }
  }
  if (!seen) {
    ledger_.Fail("daemon metrics export missing or empty");
    return;
  }
  double input_items = static_cast<double>(input_items_);
  Metric("link_bytes_per_item", link_bytes / input_items);
  Metric("peer_work_per_item", peer_work / input_items);
}

void Run::Execute() {
  daemon_dir_ = args_.dir + "/daemon";
  for (const std::string& dir : {daemon_dir_, args_.dir + "/setup"}) {
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
      ledger_.Fail("cannot create " + dir);
      return;
    }
  }
  if (!SideSetups(spec_.setups_at_ends - 1) || !Setup()) return;
  bool ok = false;
  switch (spec_.kind) {
    case WorkloadSpec::Kind::kFeed:
      ok = MeasureFeed();
      break;
    case WorkloadSpec::Kind::kBulk:
      ok = MeasureBulk();
      break;
    case WorkloadSpec::Kind::kChurn:
      ok = MeasureChurn();
      break;
  }
  serve::StatsReply stats;
  ok = ok && Stats(&stats);
  if (ok) {
    CheckClientAgainstStats(stats, "after the measured phase");
    // Every acknowledged mutation of this life fsync'd exactly one WAL
    // record (Stats itself mutates nothing).
    Info("acked_mutations", static_cast<double>(life_mutations_));
    Metric("wal_syncs_per_ack", static_cast<double>(stats.wal_appends) /
                                    static_cast<double>(life_mutations_));
  }
  ok = ok && RecoveryCycles() && FinalDrain();
  if (!ok) return;
  for (const Op& op : ops_) {
    if (op.kind == Op::Kind::kFeed) input_items_ += op.count * kStreams;
  }
  ReadMetricsFile();
  Replay();
  for (const auto& [id, totals] : stats_before_drain_) {
    auto it = ref_before_drain_.find(id);
    if (it == ref_before_drain_.end() || !(it->second == totals)) {
      ledger_.Fail("daemon Stats for query " + std::to_string(id) +
                   " differ from the serial reference");
      break;
    }
  }
  if (stats_before_drain_.size() != ref_before_drain_.size()) {
    ledger_.Fail("daemon and reference disagree on active queries");
  }
  for (const auto& [id, totals] : client_final_) {
    auto it = ref_after_drain_.find(id);
    if (it == ref_after_drain_.end() || !(it->second == totals)) {
      ledger_.Fail("client totals for query " + std::to_string(id) +
                   " differ from the serial reference after drain");
      break;
    }
  }
  if (args_.trace) TracedRecovery();
  if (!SideSetups(spec_.setups_at_ends)) return;

  // The workload's primary operation: Feed (grid workloads, timed from
  // its due time when open-loop) or Subscribe (churn).
  const std::vector<double>& primary =
      spec_.kind == WorkloadSpec::Kind::kChurn ? subscribe_ms_ : feed_ms_;
  Metric("setup_s", Quantile(setup_s_, 0.5));
  Metric("latency_p50_ms", SlicedQuantile(primary, 0.5, kBursts));
  // Per-layer only: on a shared host the p90 of the open-loop workloads
  // moved by more than the largest allowed bound between runs.
  Metric("serve.latency_p90_ms", SlicedQuantile(primary, 0.9, kBursts));
  Info("latency_samples", static_cast<double>(primary.size()));
  Info("feed_p50_ms", Quantile(feed_ms_, 0.5));
  Info("feed_p90_ms", Quantile(feed_ms_, 0.9));
  Info("subscribe_p50_ms", Quantile(subscribe_ms_, 0.5));
  Info("subscribe_p90_ms", Quantile(subscribe_ms_, 0.9));
  Metric("ingest_items_per_s", Quantile(burst_items_per_s_, 0.5));
  Metric("serve_cpu_us_per_item", Quantile(burst_cpu_us_per_item_, 0.5));
  Metric("recovery_s", Quantile(recovery_s_, 0.5));
  Metric("peak_rss_mb", static_cast<double>(peak_rss_kb_) / 1024.0);

  Info("setup_samples", static_cast<double>(setup_s_.size()));
  Info("setup_spawn_s", Quantile(spawn_s_, 0.5));
  Info("feed_samples", static_cast<double>(feed_ms_.size()));
  Info("subscribe_samples", static_cast<double>(subscribe_ms_.size()));
  Info("recovery_samples", static_cast<double>(recovery_s_.size()));
  Info("input_items_total", static_cast<double>(input_items_));
  Info("measured_items", static_cast<double>(measured_items_));
  Info("measured_wall_s", measured_wall_s_);
  if (!unsubscribe_ms_.empty()) {
    Info("unsubscribe_p50_ms", Quantile(unsubscribe_ms_, 0.5));
    Info("unsubscribe_samples", static_cast<double>(unsubscribe_ms_.size()));
  }
  if (!lateness_ms_.empty()) {
    // Open-loop honesty: how late the generator sent, overall and in the
    // first vs last quarter of the phase (growth = a building backlog).
    size_t quarter = lateness_ms_.size() / 4;
    std::vector<double> first(lateness_ms_.begin(),
                              lateness_ms_.begin() + quarter);
    std::vector<double> last(lateness_ms_.end() - quarter,
                             lateness_ms_.end());
    Info("offered_items_per_s", spec_.rate);
    Info("late_p50_ms", Quantile(lateness_ms_, 0.5));
    Info("late_p90_ms", Quantile(lateness_ms_, 0.9));
    Info("late_max_ms", Quantile(lateness_ms_, 1.0));
    Info("late_p90_ms_first_quarter", Quantile(first, 0.9));
    Info("late_p90_ms_last_quarter", Quantile(last, 0.9));
  }
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void Run::PrintJson() const {
  std::string out = "{\"correct\":" +
                    std::string(ledger_.correct ? "true" : "false");
  out += ",\"attempted\":" + std::to_string(ledger_.attempted);
  out += ",\"failed\":" + std::to_string(ledger_.failed);
  out += ",\"errors\":[";
  for (size_t i = 0; i < ledger_.errors.size(); ++i) {
    out += (i == 0 ? "" : ",") + JsonString(ledger_.errors[i]);
  }
  out += "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : metrics_) {
    out += (first ? "" : ",") + JsonString(name) + ":" + JsonNumber(value);
    first = false;
  }
  out += "},\"info\":{";
  first = true;
  for (const auto& [name, value] : info_) {
    out += (first ? "" : ",") + JsonString(name) + ":" + JsonNumber(value);
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--serve", &value)) {
      args.serve_path = value;
    } else if (ParseFlag(argv[i], "--dir", &value)) {
      args.dir = value;
    } else if (ParseFlag(argv[i], "--workload", &value)) {
      args.workload = value;
    } else if (ParseFlag(argv[i], "--seed", &value)) {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--seconds", &value)) {
      args.seconds = std::atoi(value.c_str());
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      args.trace = true;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", argv[i]);
      return 2;
    }
  }
  WorkloadSpec spec;
  if (args.serve_path.empty() || args.dir.empty() || args.seconds < 1 ||
      !LookupWorkload(args.workload, &spec)) {
    std::fprintf(stderr,
                 "usage: servebench_load --serve=PATH --dir=DIR "
                 "--workload=NAME --seed=N --seconds=N [--trace]\n");
    return 2;
  }
  // A dropped connection must surface as an error, not kill the run.
  std::signal(SIGPIPE, SIG_IGN);
  Run run(args, spec);
  run.Execute();
  run.PrintJson();
  return 0;
}
