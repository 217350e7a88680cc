// The differential-testing harness tested against itself: generator
// determinism, JSON replay round-trips, the oracle passing clean seeds in
// every execution mode, and — the critical property — a deliberately
// injected equivalence bug being caught, shrunk to a minimal scenario,
// and emitted as a compilable reproducer.

#include <gtest/gtest.h>

#include <string>

#include "testing/fuzz_scenario.h"
#include "testing/oracle.h"
#include "testing/reproducer.h"
#include "testing/scenario_json.h"
#include "testing/shrink.h"
#include "wxquery/analyzer.h"

namespace streamshare::testing {
namespace {

// --- Generator ------------------------------------------------------------

TEST(FuzzScenarioTest, SameSeedGeneratesIdenticalScenario) {
  FuzzScenario a = GenerateScenario(42);
  FuzzScenario b = GenerateScenario(42);
  EXPECT_EQ(ToJson(a), ToJson(b));
  EXPECT_EQ(a.ToString(), b.ToString());
}

TEST(FuzzScenarioTest, DifferentSeedsDiffer) {
  EXPECT_NE(ToJson(GenerateScenario(1)), ToJson(GenerateScenario(2)));
}

TEST(FuzzScenarioTest, GeneratedScenariosAreWellFormed) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    FuzzScenario scenario = GenerateScenario(seed);
    EXPECT_GE(scenario.topology.peers, 3);
    EXPECT_GE(scenario.queries.size(), 2u);
    EXPECT_GE(scenario.streams.size(), 1u);
    auto topology = scenario.topology.Build();
    ASSERT_TRUE(topology.ok()) << "seed " << seed << ": "
                               << topology.status().ToString();
    for (const auto& q : scenario.queries) {
      EXPECT_LT(q.target, scenario.topology.peers) << "seed " << seed;
      EXPECT_FALSE(q.ToQueryText().empty());
    }
  }
}

TEST(FuzzScenarioTest, RenderedQueriesAlwaysParse) {
  // Every query text the generator can emit must be valid WXQuery —
  // otherwise fuzz coverage silently narrows to the parsable subset.
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    FuzzScenario scenario = GenerateScenario(seed);
    for (size_t i = 0; i < scenario.queries.size(); ++i) {
      auto analyzed =
          wxquery::ParseAndAnalyze(scenario.queries[i].ToQueryText());
      EXPECT_TRUE(analyzed.ok())
          << "seed " << seed << " q" << i << ": " << analyzed.status()
          << "\n" << scenario.queries[i].ToQueryText();
    }
  }
}

// --- JSON replay ----------------------------------------------------------

TEST(ScenarioJsonTest, RoundTripIsExact) {
  for (uint64_t seed : {1ull, 7ull, 99ull, 12345ull}) {
    FuzzScenario scenario = GenerateScenario(seed);
    auto replayed = FromJson(ToJson(scenario));
    ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
    EXPECT_EQ(ToJson(*replayed), ToJson(scenario)) << "seed " << seed;
    EXPECT_EQ(replayed->ToString(), scenario.ToString());
  }
}

TEST(ScenarioJsonTest, RejectsGarbage) {
  EXPECT_FALSE(FromJson("").ok());
  EXPECT_FALSE(FromJson("{").ok());
  EXPECT_FALSE(FromJson("[1, 2]").ok());
  EXPECT_FALSE(FromJson("{\"seed\": \"1\"}").ok());  // missing fields
}

// --- The oracle on clean seeds --------------------------------------------

TEST(OracleTest, CleanSeedsPassAllModes) {
  OracleOptions options;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    FuzzScenario scenario = GenerateScenario(seed);
    auto report = RunOracle(scenario, options);
    ASSERT_TRUE(report.ok()) << "seed " << seed << ": "
                             << report.status().ToString();
    EXPECT_TRUE(report->ok()) << "seed " << seed << ": "
                              << report->failure;
    EXPECT_GT(report->accepted, 0) << "seed " << seed;
  }
}

TEST(OracleTest, ServeArmMatchesSerialReference) {
  // The serve arm: the same scenario hosted by a live daemon, every
  // subscription installed over the CONTROL plane, deliveries streamed
  // back over real localhost TCP. A clean seed must agree with the
  // serial reference byte for byte; a churned seed diffs against the
  // serial churned run (the daemon applies the same FailPeer/CutLink
  // events through its verbs).
  OracleOptions options;
  options.run_serve = true;
  options.run_loopback = false;  // speed; the serve arm is under test
  options.run_tcp = false;
  GeneratorOptions gen;
  gen.churn_probability = 0.5;
  int serve_modes = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    auto report = RunOracle(GenerateScenario(seed, gen), options);
    ASSERT_TRUE(report.ok()) << "seed " << seed << ": "
                             << report.status().ToString();
    EXPECT_TRUE(report->serve_ok) << "seed " << seed << ": "
                                  << report->failure;
    for (const ModeObservation& mode : report->modes) {
      if (mode.mode == "serve") ++serve_modes;
    }
  }
  EXPECT_EQ(serve_modes, 6) << "the serve arm must actually run";
}

TEST(OracleTest, SweepExercisesSharing) {
  // Across a batch of seeds the generator's box-pool bias must actually
  // produce plans that reuse derived streams — otherwise the sharing
  // oracle is vacuous.
  OracleOptions options;
  options.run_tcp = false;  // speed; sharing is mode-independent
  options.run_loopback = false;
  int reuses = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    auto report = RunOracle(GenerateScenario(seed), options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->ok()) << "seed " << seed << ": " << report->failure;
    reuses += report->shared_reuses;
  }
  EXPECT_GT(reuses, 0);
}

// --- The acceptance demo: injected bug → caught → shrunk → reproducer ----

/// Finds a seed whose scenario trips the injected divergence (it needs an
/// accepted aggregation query with a window at least `min_window` wide).
uint64_t FindInjectableSeed(const OracleOptions& options) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    auto report = RunOracle(GenerateScenario(seed), options);
    if (report.ok() && !report->ok()) return seed;
  }
  return 0;
}

TEST(InjectedBugTest, DivergenceIsCaughtAndShrunkToMinimalReproducer) {
  OracleOptions options;
  options.run_tcp = false;  // loopback already covers the transport path
  options.inject_divergence_mode = "transport-loopback";
  options.inject_min_window = 1;

  uint64_t seed = FindInjectableSeed(options);
  ASSERT_NE(seed, 0u) << "no seed tripped the injected bug";
  FuzzScenario scenario = GenerateScenario(seed);
  auto report = RunOracle(scenario, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_FALSE(report->ok());
  EXPECT_FALSE(report->equivalence_ok);
  EXPECT_NE(report->failure.find("transport-loopback"), std::string::npos)
      << report->failure;

  // Shrink to a minimal scenario that still trips the same oracle.
  ShrinkStats stats;
  FuzzScenario minimal = Shrink(
      scenario,
      [&](const FuzzScenario& candidate) {
        auto r = RunOracle(candidate, options);
        return r.ok() && !r->ok();
      },
      /*max_rounds=*/4, &stats);
  EXPECT_GT(stats.accepted_steps, 0);

  // The injection only fires on aggregation queries, so a correct shrink
  // ends at exactly one query — an aggregation — and still fails.
  ASSERT_EQ(minimal.queries.size(), 1u);
  EXPECT_EQ(minimal.queries[0].kind, FuzzQuerySpec::Kind::kAggregation);
  EXPECT_LE(minimal.items_per_stream, scenario.items_per_stream);
  auto minimal_report = RunOracle(minimal, options);
  ASSERT_TRUE(minimal_report.ok());
  EXPECT_FALSE(minimal_report->ok());

  // And the clean oracle passes the minimal scenario: the failure is the
  // injected bug, not a latent one.
  auto clean = RunOracle(minimal, OracleOptions{});
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_TRUE(clean->ok()) << clean->failure;

  // The reproducer embeds a replayable copy of the minimal scenario.
  std::string snippet = ReproducerTestSnippet(minimal, "InjectedDemo",
                                              minimal_report->failure);
  EXPECT_NE(snippet.find("TEST(FuzzRegression, InjectedDemo)"),
            std::string::npos);
  size_t open = snippet.find("R\"json(");
  size_t close = snippet.find(")json\"");
  ASSERT_NE(open, std::string::npos);
  ASSERT_NE(close, std::string::npos);
  std::string embedded =
      snippet.substr(open + 7, close - (open + 7));
  auto replayed = FromJson(embedded);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(ToJson(*replayed), ToJson(minimal));
}

}  // namespace
}  // namespace streamshare::testing
