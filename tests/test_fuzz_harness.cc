// The differential-testing harness tested against itself: generator
// determinism, JSON replay round-trips, the oracle passing clean seeds in
// every execution mode, and — the critical property — a deliberately
// injected equivalence bug being caught, shrunk to a minimal scenario,
// and emitted as a compilable reproducer.

#include <gtest/gtest.h>

#include <string>
#include <utility>

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
  int reuses = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    auto report = RunOracle(GenerateScenario(seed), options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->ok()) << "seed " << seed << ": " << report->failure;
    reuses += report->shared_reuses;
  }
  EXPECT_GT(reuses, 0);
}

// --- Out-of-order churn in a hand-edited reproducer ------------------------

// Two minimized reproducers whose churn lists are out of order. When the
// in-process arms applied events in list order while the serve arm sorted
// them, the first tore its query down one item later in serial+churn than
// in the daemon (a false serve divergence), and in the second the
// restricted reference resumed from the list's last event rather than the
// one applied last (a false recovery divergence).
constexpr const char* kOutOfOrderChurn[] = {
    R"json({
  "seed": "12",
  "topology": {"peers": 3, "bandwidth_kbps": 100000, "max_load": 100000, "links": [[0, 1], [0, 2]]},
  "boxes": [[27.868695176977532, 51.000319329328455, 39.650259620289248, 65.705011452496805], [203.65209952544168, 237.23274104856102, 13.388189935694214, 25.397316704035404], [32.664180788623263, 77.155665700614151, -82.922639684954504, -60.274990434819223], [44.76508497622028, 75.666796476584167, -76.724638596663439, -65.252460054074987]],
  "streams": [
    {"name": "photons2", "source": 0, "gen_seed": "5020336113244016093", "frequency_hz": 122, "det_time_increment_mean": 0.625, "hot_weights": [1.25, 1.5, 0, 0.5]}
  ],
  "queries": [
    {"kind": "selection", "stream": "photons2", "target": 1, "ra_min": null, "ra_max": null, "dec_min": null, "dec_max": null, "en_threshold": null, "det_skew": null, "projection": [], "window_type": "diff", "window_size": 40, "window_step": 20, "agg_func": "avg", "agg_filter": null}
  ],
  "churn": [{"kind": "fail-peer", "peer": 2, "at_offset": 3}, {"kind": "fail-peer", "peer": 1, "at_offset": 2}],
  "items_per_stream": 4
})json",
    R"json({
  "seed": "11",
  "topology": {"peers": 4, "bandwidth_kbps": 100000, "max_load": 100000, "links": [[0, 1], [0, 2], [2, 3], [0, 3]]},
  "boxes": [[57.798936516096319, 83.985533058689086, 33.761179495103718, 43.153738237136935], [33.243590231468559, 45.89274479444164, 53.62742340048851, 77.32317932246238], [33.516295222255813, 42.58534905957135, 54.299237725029165, 71.453370455073426], [34.809135330760348, 42.671415112049402, 56.61414767638648, 74.758689466021139]],
  "streams": [
    {"name": "photons2", "source": 3, "gen_seed": "468087485239368515", "frequency_hz": 90, "det_time_increment_mean": 0.875, "hot_weights": [0.25, 0.25, 0.25, 0.25]}
  ],
  "queries": [
    {"kind": "selection", "stream": "photons2", "target": 2, "ra_min": null, "ra_max": null, "dec_min": null, "dec_max": null, "en_threshold": null, "det_skew": null, "projection": [], "window_type": "diff", "window_size": 40, "window_step": 20, "agg_func": "avg", "agg_filter": null}
  ],
  "churn": [{"kind": "cut-link", "link_a": 0, "link_b": 1, "at_offset": 9}, {"kind": "cut-link", "link_a": 2, "link_b": 3, "at_offset": 8}],
  "items_per_stream": 15
})json",
};

TEST(OracleTest, OutOfOrderChurnReplaysLikeSorted) {
  OracleOptions options;
  options.run_serve = true;
  for (const char* json : kOutOfOrderChurn) {
    Result<FuzzScenario> scenario = FromJson(json);
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    ASSERT_GT(scenario->churn[0].at_offset, scenario->churn[1].at_offset);
    auto report = RunOracle(*scenario, options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->ok()) << "seed " << scenario->seed << ": "
                              << report->failure;

    // And the list replays exactly like its sorted form, in every arm.
    FuzzScenario sorted = *scenario;
    std::swap(sorted.churn[0], sorted.churn[1]);
    auto sorted_report = RunOracle(sorted, options);
    ASSERT_TRUE(sorted_report.ok()) << sorted_report.status().ToString();
    ASSERT_EQ(report->modes.size(), sorted_report->modes.size());
    for (size_t m = 0; m < report->modes.size(); ++m) {
      const ModeObservation& mode = report->modes[m];
      const ModeObservation& sorted_mode = sorted_report->modes[m];
      EXPECT_EQ(mode.mode, sorted_mode.mode);
      ASSERT_EQ(mode.queries.size(), sorted_mode.queries.size());
      for (size_t q = 0; q < mode.queries.size(); ++q) {
        EXPECT_EQ(mode.queries[q].items, sorted_mode.queries[q].items)
            << mode.mode << " q" << q;
        EXPECT_EQ(mode.queries[q].content_hash,
                  sorted_mode.queries[q].content_hash)
            << mode.mode << " q" << q;
      }
    }
  }
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
  options.inject_divergence_mode = "serial-record";
  options.inject_min_window = 1;

  uint64_t seed = FindInjectableSeed(options);
  ASSERT_NE(seed, 0u) << "no seed tripped the injected bug";
  FuzzScenario scenario = GenerateScenario(seed);
  auto report = RunOracle(scenario, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_FALSE(report->ok());
  EXPECT_FALSE(report->equivalence_ok);
  EXPECT_NE(report->failure.find("serial-record"), std::string::npos)
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
