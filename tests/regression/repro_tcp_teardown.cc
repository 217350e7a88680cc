// Regression: found by the differential fuzzer's TCP sweep (seed 24,
// ~20% flaky), back when each TCP worker could run as its own process.
//
// A worker that let its channel socket go right after EOS closed it with
// unread CREDIT frames in the receive buffer; TCP turns that close into a
// reset, which can destroy the peer's still-buffered EOS frame — surfacing
// as "peer closed connection" on the receiving worker. The fix makes
// receivers close their end on EOS and senders drain in-flight credits
// until that close before letting their fds go. Worker threads close
// their sockets the same way, so the teardown path stays covered here.
//
// Hand-minimized scenario: one stream, one remote subscription, so there
// is exactly one cross-worker channel. The item count stays under the
// initial credit window — then the sender never reads a single CREDIT and
// every grant is sitting unread at teardown, maximizing the chance of a
// reset. Repeated runs make the race likely enough to catch (each pre-fix
// run failed ~1 in 5).

#include <gtest/gtest.h>

#include "testing/fuzz_scenario.h"
#include "testing/oracle.h"

namespace streamshare::testing {
namespace {

FuzzScenario TeardownScenario() {
  FuzzScenario scenario;
  scenario.seed = 24;
  scenario.topology.peers = 2;
  scenario.topology.links = {{0, 1}};
  FuzzStreamSpec stream;
  stream.source = 1;
  stream.gen_seed = 13204904816907374629ull;
  scenario.streams.push_back(stream);
  FuzzQuerySpec query;
  query.kind = FuzzQuerySpec::Kind::kSelection;
  query.target = 0;  // remote from the source: forces a cross-worker channel
  scenario.queries.push_back(query);
  scenario.items_per_stream = 250;  // < initial_credits: all grants unread
  return scenario;
}

TEST(FuzzRegression, TcpTeardownDeliversEos) {
  OracleOptions options;
  FuzzScenario scenario = TeardownScenario();
  for (int run = 0; run < 20; ++run) {
    auto report = RunOracle(scenario, options);
    ASSERT_TRUE(report.ok())
        << "run " << run << ": " << report.status().ToString();
    EXPECT_TRUE(report->ok()) << "run " << run << ": " << report->failure;
  }
}

}  // namespace
}  // namespace streamshare::testing
