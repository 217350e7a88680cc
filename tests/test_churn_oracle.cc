// The chaos half of the differential harness tested against itself:
// churn generation (determinism, independence invariants, clean-seed
// compatibility), JSON replay of churn events, the recovery oracle
// passing churned seeds, and the shrinker's churn handling — events are
// dropped when the failure is a plain differential bug, kept when the
// failure only reproduces under churn.

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "testing/fuzz_scenario.h"
#include "testing/oracle.h"
#include "testing/scenario_json.h"
#include "testing/shrink.h"

namespace streamshare::testing {
namespace {

GeneratorOptions ChurnOptions() {
  GeneratorOptions options;
  options.churn_probability = 1.0;
  return options;
}

/// First seed >= `from` whose scenario carries churn.
FuzzScenario FirstChurnScenario(uint64_t from = 1) {
  for (uint64_t seed = from; seed < from + 50; ++seed) {
    FuzzScenario scenario = GenerateScenario(seed, ChurnOptions());
    if (!scenario.churn.empty()) return scenario;
  }
  ADD_FAILURE() << "no churn scenario in 50 seeds at probability 1.0";
  return {};
}

// --- Generation -----------------------------------------------------------

TEST(ChurnGeneratorTest, DeterministicAndDefaultOff) {
  FuzzScenario a = GenerateScenario(42, ChurnOptions());
  FuzzScenario b = GenerateScenario(42, ChurnOptions());
  EXPECT_EQ(ToJson(a), ToJson(b));
  // The default options never draw churn.
  EXPECT_TRUE(GenerateScenario(42).churn.empty());
}

TEST(ChurnGeneratorTest, CleanPartOnlyGainsRedundancyLinks) {
  // A churn scenario's streams, queries, and item count are identical to
  // the clean scenario of the same seed; the topology's links are a
  // prefix-superset (redundancy chords are appended, never reordered).
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    FuzzScenario churned = GenerateScenario(seed, ChurnOptions());
    FuzzScenario clean = GenerateScenario(seed);
    ASSERT_FALSE(churned.churn.empty()) << "seed " << seed;
    EXPECT_EQ(churned.items_per_stream, clean.items_per_stream);
    EXPECT_EQ(churned.topology.peers, clean.topology.peers);
    ASSERT_EQ(churned.streams.size(), clean.streams.size());
    for (size_t s = 0; s < clean.streams.size(); ++s) {
      EXPECT_EQ(churned.streams[s].source, clean.streams[s].source);
      EXPECT_EQ(churned.streams[s].gen_seed, clean.streams[s].gen_seed);
    }
    ASSERT_EQ(churned.queries.size(), clean.queries.size());
    for (size_t q = 0; q < clean.queries.size(); ++q) {
      EXPECT_EQ(churned.queries[q].ToQueryText(),
                clean.queries[q].ToQueryText());
    }
    ASSERT_GE(churned.topology.links.size(), clean.topology.links.size());
    for (size_t l = 0; l < clean.topology.links.size(); ++l) {
      EXPECT_EQ(churned.topology.links[l], clean.topology.links[l]);
    }
  }
}

TEST(ChurnGeneratorTest, EventsAreIndependentAndMidBand) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    FuzzScenario scenario = GenerateScenario(seed, ChurnOptions());
    std::set<int> failed;
    std::set<std::pair<int, int>> cut;
    std::set<int> sources;
    for (const FuzzStreamSpec& stream : scenario.streams) {
      sources.insert(stream.source);
    }
    size_t previous = 0;
    for (const workload::ChurnEvent& event : scenario.churn) {
      EXPECT_GE(event.at_offset, previous) << "seed " << seed;
      previous = event.at_offset;
      EXPECT_GE(event.at_offset, scenario.items_per_stream / 4);
      EXPECT_LE(event.at_offset, (scenario.items_per_stream * 3) / 4);
      if (event.kind == workload::ChurnEvent::Kind::kFailPeer) {
        EXPECT_TRUE(failed.insert(event.peer).second)
            << "seed " << seed << ": peer fails twice";
        EXPECT_EQ(sources.count(event.peer), 0u)
            << "seed " << seed << ": stream source failed";
      } else {
        EXPECT_TRUE(cut.insert({event.link_a, event.link_b}).second)
            << "seed " << seed << ": link cut twice";
        EXPECT_EQ(failed.count(event.link_a), 0u) << "seed " << seed;
        EXPECT_EQ(failed.count(event.link_b), 0u) << "seed " << seed;
      }
    }
  }
}

// --- JSON replay ----------------------------------------------------------

TEST(ChurnJsonTest, RoundTripIsExact) {
  FuzzScenario scenario = FirstChurnScenario();
  ASSERT_FALSE(scenario.churn.empty());
  auto replayed = FromJson(ToJson(scenario));
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(ToJson(*replayed), ToJson(scenario));
  ASSERT_EQ(replayed->churn.size(), scenario.churn.size());
  for (size_t i = 0; i < scenario.churn.size(); ++i) {
    EXPECT_EQ(replayed->churn[i].kind, scenario.churn[i].kind);
    EXPECT_EQ(replayed->churn[i].at_offset, scenario.churn[i].at_offset);
  }
}

TEST(ChurnJsonTest, CleanScenariosCarryNoChurnField) {
  // Pre-churn reproducers parse unchanged, and clean scenarios stay
  // byte-compatible with the old format.
  FuzzScenario clean = GenerateScenario(7);
  EXPECT_EQ(ToJson(clean).find("\"churn\""), std::string::npos);
  auto replayed = FromJson(ToJson(clean));
  ASSERT_TRUE(replayed.ok());
  EXPECT_TRUE(replayed->churn.empty());
}

TEST(ChurnJsonTest, RejectsUnknownChurnKind) {
  FuzzScenario scenario = FirstChurnScenario();
  std::string json = ToJson(scenario);
  size_t pos = json.find("\"fail-peer\"");
  if (pos == std::string::npos) pos = json.find("\"cut-link\"");
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, 1, "\"x");  // corrupt the kind string
  EXPECT_FALSE(FromJson(json).ok());
}

// --- The recovery oracle --------------------------------------------------

TEST(ChurnOracleTest, ChurnedSeedsPassAllInvariants) {
  // Replays churned scenarios through every churned mode (serial,
  // serial-record) and checks cross-mode agreement plus the
  // gap-not-garbage epoch invariants. Seeds chosen to cover both a
  // re-planned and a torn-down recovery (see the report fields asserted).
  int replans = 0, lost = 0;
  for (uint64_t seed : {1ull, 3ull}) {
    FuzzScenario scenario = GenerateScenario(seed, ChurnOptions());
    ASSERT_FALSE(scenario.churn.empty()) << "seed " << seed;
    auto report = RunOracle(scenario);
    ASSERT_TRUE(report.ok()) << "seed " << seed << ": "
                             << report.status().ToString();
    EXPECT_TRUE(report->ok()) << "seed " << seed << ": "
                              << report->failure;
    EXPECT_EQ(report->churn_events,
              static_cast<int>(scenario.churn.size()));
    replans += report->churn_replans;
    lost += report->churn_lost;
  }
  EXPECT_GT(replans, 0);  // the re-planned epoch-diff path ran
  EXPECT_GT(lost, 0);     // the teardown path ran
}

TEST(ChurnOracleTest, PlantedRecoveryBugIsCaught) {
  FuzzScenario scenario = FirstChurnScenario();
  OracleOptions options;
  options.inject_churn_mode = "serial+churn";
  auto report = RunOracle(scenario, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->recovery_ok);
  EXPECT_FALSE(report->ok());
  EXPECT_NE(report->failure.find("recovery oracle"), std::string::npos)
      << report->failure;
}

// --- Shrinker churn handling ---------------------------------------------

TEST(ChurnShrinkTest, KeepsChurnWhenTheBugNeedsIt) {
  // The planted recovery bug only reproduces while churn events remain,
  // so the shrinker must not drop them.
  FuzzScenario scenario = FirstChurnScenario();
  OracleOptions options;
  options.inject_churn_mode = "serial+churn";
  auto still_fails = [&](const FuzzScenario& candidate) {
    auto r = RunOracle(candidate, options);
    return r.ok() && !r->ok();
  };
  ASSERT_TRUE(still_fails(scenario));
  FuzzScenario minimal = Shrink(scenario, still_fails, 3);
  EXPECT_FALSE(minimal.churn.empty());
  EXPECT_TRUE(still_fails(minimal));
  EXPECT_LE(minimal.queries.size(), scenario.queries.size());
}

TEST(ChurnShrinkTest, DropsChurnWhenTheBugIsClean) {
  // A plain equivalence bug reproduces without churn, so the shrinker's
  // churn-first pass removes every event — the reproducer pins down that
  // recovery is NOT part of the failure.
  FuzzScenario scenario = FirstChurnScenario();
  OracleOptions options;
  options.inject_divergence_mode = "serial-record";
  options.inject_min_window = 0;
  auto still_fails = [&](const FuzzScenario& candidate) {
    auto r = RunOracle(candidate, options);
    return r.ok() && !r->ok();
  };
  if (!still_fails(scenario)) {
    GTEST_SKIP() << "scenario has no aggregation query to perturb";
  }
  FuzzScenario minimal = Shrink(scenario, still_fails, 3);
  EXPECT_TRUE(minimal.churn.empty());
  EXPECT_TRUE(still_fails(minimal));
}

TEST(ChurnShrinkTest, OffsetsScaleWithItemReduction) {
  FuzzScenario scenario = FirstChurnScenario();
  size_t original_items = scenario.items_per_stream;
  OracleOptions options;
  options.inject_churn_mode = "serial+churn";
  auto still_fails = [&](const FuzzScenario& candidate) {
    auto r = RunOracle(candidate, options);
    return r.ok() && !r->ok();
  };
  ASSERT_TRUE(still_fails(scenario));
  FuzzScenario minimal = Shrink(scenario, still_fails, 3);
  ASSERT_FALSE(minimal.churn.empty());
  if (minimal.items_per_stream < original_items) {
    // Offsets shrank along with the item count instead of collecting
    // past the end of the stream.
    for (const workload::ChurnEvent& event : minimal.churn) {
      EXPECT_LE(event.at_offset, minimal.items_per_stream);
    }
  }
}

}  // namespace
}  // namespace streamshare::testing
