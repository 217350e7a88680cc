// Regression: found by the differential fuzzer's TCP sweep (seed 24,
// ~20% flaky), when a partitioned executor still ran cross-peer edges
// over localhost TCP sockets.
//
// A worker that let its channel socket go right after EOS closed it with
// unread CREDIT frames in the receive buffer; TCP turns that close into a
// reset, which can destroy the peer's still-buffered EOS frame. That
// executor is gone (docs/TRANSPORT.md, "no partitioned executor"), so no
// socket is left to race; the hand-minimized scenario — one stream, one
// subscription remote from its source — stays as a regression seed that
// every oracle arm must run clean.

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
  query.target = 0;  // remote from the source
  scenario.queries.push_back(query);
  scenario.items_per_stream = 250;
  return scenario;
}

TEST(FuzzRegression, TcpTeardownDeliversEos) {
  auto report = RunOracle(TeardownScenario());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->failure;
}

}  // namespace
}  // namespace streamshare::testing
