// Unit tests for the workload generators and scenario builders.

#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "predicate/eval.h"
#include "workload/photon_gen.h"
#include "workload/query_gen.h"
#include "workload/scenario.h"
#include "wxquery/analyzer.h"
#include "xml/xml_writer.h"

namespace streamshare::workload {
namespace {

xml::Path P(const char* text) { return xml::Path::Parse(text).value(); }

TEST(PhotonGeneratorTest, ProducesSchemaConformingItems) {
  PhotonGenConfig config;
  PhotonGenerator generator(config);
  auto schema = PhotonGenerator::Schema();
  for (int i = 0; i < 100; ++i) {
    engine::ItemPtr photon = generator.Next();
    EXPECT_EQ(photon->name(), "photon");
    for (const xml::Path& leaf : schema->LeafPaths()) {
      const xml::XmlNode* node = leaf.EvaluateFirst(*photon);
      ASSERT_NE(node, nullptr) << leaf.ToString();
      EXPECT_TRUE(Decimal::Parse(node->text()).ok())
          << leaf.ToString() << " = " << node->text();
    }
  }
}

TEST(PhotonGeneratorTest, DetTimeIsStrictlyIncreasing) {
  PhotonGenerator generator(PhotonGenConfig{});
  Decimal last = Decimal::Parse("-1").value();
  for (int i = 0; i < 200; ++i) {
    engine::ItemPtr photon = generator.Next();
    Decimal t =
        predicate::ExtractValue(*photon, P("det_time")).value();
    EXPECT_GT(t, last);
    last = t;
  }
}

TEST(PhotonGeneratorTest, ValuesStayInConfiguredRanges) {
  PhotonGenConfig config;
  PhotonGenerator generator(config);
  for (int i = 0; i < 200; ++i) {
    engine::ItemPtr photon = generator.Next();
    double ra = predicate::ExtractValue(*photon, P("coord/cel/ra"))
                    .value()
                    .ToDouble();
    double dec = predicate::ExtractValue(*photon, P("coord/cel/dec"))
                     .value()
                     .ToDouble();
    double en =
        predicate::ExtractValue(*photon, P("en")).value().ToDouble();
    EXPECT_GE(ra, 0.0);
    EXPECT_LE(ra, 360.0);
    EXPECT_GE(dec, -90.0);
    EXPECT_LE(dec, 90.0);
    EXPECT_GE(en, config.en_min);
    EXPECT_LE(en, config.en_max);
  }
}

TEST(PhotonGeneratorTest, HotRegionsGetElevatedDensity) {
  PhotonGenConfig config;
  config.hot_regions = {{120.0, 138.0, -49.0, -40.0}};
  config.hot_weights = {4.0};
  config.base_weight = 4.0;  // half the photons land in the vela box
  PhotonGenerator generator(config);
  int in_box = 0;
  const int kCount = 2000;
  for (int i = 0; i < kCount; ++i) {
    engine::ItemPtr photon = generator.Next();
    double ra = predicate::ExtractValue(*photon, P("coord/cel/ra"))
                    .value()
                    .ToDouble();
    double dec = predicate::ExtractValue(*photon, P("coord/cel/dec"))
                     .value()
                     .ToDouble();
    if (ra >= 120.0 && ra <= 138.0 && dec >= -49.0 && dec <= -40.0) {
      ++in_box;
    }
  }
  // ≥ 50% by the hot weight (plus a sliver of uniform hits).
  EXPECT_GT(in_box, kCount * 0.45);
  EXPECT_LT(in_box, kCount * 0.65);
}

TEST(PhotonGeneratorTest, SeedsAreReproducible) {
  PhotonGenConfig config;
  config.seed = 1234;
  PhotonGenerator a(config);
  PhotonGenerator b(config);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(a.Next()->Equals(*b.Next()));
  }
}

// FormatFixed writes photon fields with std::to_chars instead of
// snprintf("%.*f"); the C++ standard specifies the two to agree in the C
// locale. Diff them over 2^18 values in each field's range at that
// field's precision (over a million values in all), plus the range ends
// and exactly representable rounding ties.
TEST(PhotonGeneratorTest, FormatFixedMatchesPrintf) {
  struct Field {
    const char* name;
    double min, max;
    int decimals;
  };
  const Field fields[] = {{"ra", 0.0, 360.0, 4},
                          {"dec", -90.0, 90.0, 4},
                          {"en", 0.1, 2.4, 3},
                          {"det_time", 0.0, 1e7, 1}};
  const double ties[] = {0.25,    -0.25,   0.0625, -0.0625, 0.03125,
                         0.15625, 2.5e-05, 359.96875, -89.90625, 0.0};
  std::mt19937_64 rng(20061);
  size_t compared = 0;
  for (const Field& field : fields) {
    std::uniform_real_distribution<double> in_range(field.min, field.max);
    std::vector<double> values = {field.min, field.max};
    values.insert(values.end(), std::begin(ties), std::end(ties));
    for (int i = 0; i < (1 << 18); ++i) values.push_back(in_range(rng));
    for (double value : values) {
      char want[64];
      std::snprintf(want, sizeof(want), "%.*f", field.decimals, value);
      char buffer[64];
      std::string_view got = FormatFixed(value, field.decimals, buffer);
      ASSERT_EQ(got, std::string_view(want))
          << field.name << " value " << value;
      ++compared;
    }
  }
  EXPECT_GE(compared, 1000000u);
}

// The generator's bytes are part of every durable history: a recovered
// daemon regenerates the items it logged by offset. Pin them for fixed
// seeds — this digest was taken from the snprintf-based generator.
constexpr uint64_t kPinnedPhotonDigest = 0xe55902dff25ff8aeull;

TEST(PhotonGeneratorTest, OutputIsPinnedForFixedSeeds) {
  uint64_t digest = 0xcbf29ce484222325ull;  // FNV-1a over every item
  for (uint64_t seed : {1u, 13u, 29u}) {
    const ScenarioSpec scenario = GridScenario(seed, /*query_count=*/0);
    for (const StreamSpec& stream : scenario.streams) {
      PhotonGenerator generator(stream.gen);
      for (int i = 0; i < 4000; ++i) {
        for (char c : xml::WriteCompact(*generator.Next())) {
          digest = (digest ^ static_cast<unsigned char>(c)) *
                   0x100000001b3ull;
        }
      }
    }
  }
  EXPECT_EQ(digest, kPinnedPhotonDigest);
}

TEST(QueryGeneratorTest, AllGeneratedQueriesAnalyze) {
  QueryGenerator generator(QueryGenConfig::Default(5));
  for (const std::string& text : generator.Generate(300)) {
    Result<wxquery::AnalyzedQuery> analyzed =
        wxquery::ParseAndAnalyze(text);
    ASSERT_TRUE(analyzed.ok()) << analyzed.status() << "\n" << text;
    EXPECT_EQ(analyzed->bindings.size(), 1u);
    EXPECT_EQ(analyzed->bindings[0].stream_name, "photons");
  }
}

TEST(QueryGeneratorTest, MixContainsAllTemplates) {
  QueryGenerator generator(QueryGenConfig::Default(6));
  int aggregates = 0, plain = 0;
  for (const std::string& text : generator.Generate(200)) {
    Result<wxquery::AnalyzedQuery> analyzed =
        wxquery::ParseAndAnalyze(text);
    ASSERT_TRUE(analyzed.ok());
    if (analyzed->bindings[0].aggregate.has_value()) {
      ++aggregates;
    } else {
      ++plain;
    }
  }
  EXPECT_GT(aggregates, 20);
  EXPECT_GT(plain, 80);
}

TEST(QueryGeneratorTest, ConstantsComeFromPredefinedSets) {
  // Repeated boxes are the source of shareability: with 200 queries over
  // 5 predefined boxes, distinct selection-only predicates must repeat.
  QueryGenConfig config = QueryGenConfig::Default(7);
  config.contained_weight = 0.0;  // contained boxes are randomized
  config.aggregation_weight = 0.0;
  QueryGenerator generator(config);
  std::set<std::string> distinct;
  int count = 0;
  for (const std::string& text : generator.Generate(100)) {
    distinct.insert(text);
    ++count;
  }
  EXPECT_LT(distinct.size(), static_cast<size_t>(count) / 2);
}

TEST(ScenarioTest, ExtendedExampleShape) {
  ScenarioSpec scenario = ExtendedExampleScenario(11, 25);
  EXPECT_EQ(scenario.topology.peer_count(), 8u);
  EXPECT_EQ(scenario.streams.size(), 1u);
  EXPECT_EQ(scenario.streams[0].source, 4);
  EXPECT_EQ(scenario.queries.size(), 25u);
  // The first four are the paper's Q1..Q4 at their super-peers.
  EXPECT_EQ(scenario.queries[0].target, 1);
  EXPECT_EQ(scenario.queries[1].target, 7);
  EXPECT_EQ(scenario.queries[2].target, 3);
  EXPECT_EQ(scenario.queries[3].target, 0);
}

TEST(ScenarioTest, GridShape) {
  ScenarioSpec scenario = GridScenario(13, 100);
  EXPECT_EQ(scenario.topology.peer_count(), 16u);
  EXPECT_EQ(scenario.streams.size(), 2u);
  EXPECT_EQ(scenario.queries.size(), 100u);
  std::set<std::string> streams_used;
  for (const QuerySpec& query : scenario.queries) {
    if (query.text.find("photons2") != std::string::npos) {
      streams_used.insert("photons2");
    } else {
      streams_used.insert("photons");
    }
    EXPECT_GE(query.target, 0);
    EXPECT_LT(query.target, 16);
  }
  EXPECT_EQ(streams_used.size(), 2u);
}

TEST(ScenarioTest, RunScenarioSmoke) {
  ScenarioSpec scenario = ExtendedExampleScenario(11, 8);
  Result<ScenarioRun> run = RunScenario(
      scenario, sharing::Strategy::kStreamSharing, sharing::SystemConfig{},
      200);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->registration_failures, 0);
  EXPECT_EQ(run->accepted, 8);
  EXPECT_GT(run->duration_s, 0.0);
  EXPECT_GT(run->system->metrics().TotalWork(), 0.0);
}

// --- The churn walker -------------------------------------------------------

ChurnEvent FailAt(network::NodeId peer, size_t at_offset) {
  ChurnEvent event;
  event.kind = ChurnEvent::Kind::kFailPeer;
  event.peer = peer;
  event.at_offset = at_offset;
  return event;
}

ChurnEvent CutAt(network::NodeId a, network::NodeId b, size_t at_offset) {
  ChurnEvent event;
  event.kind = ChurnEvent::Kind::kCutLink;
  event.link_a = a;
  event.link_b = b;
  event.at_offset = at_offset;
  return event;
}

/// Records every feed and apply call a walk makes, in order. The steps
/// capture `this`, so a recorder must not be copied.
struct WalkRecorder {
  std::vector<std::string> calls;
  ChurnWalk::FeedStep feed = [this](size_t from, size_t to) {
    calls.push_back("feed " + std::to_string(from) + "-" +
                    std::to_string(to));
    return Status::Ok();
  };
  ChurnWalk::ApplyStep apply = [this](const ChurnEvent& event) {
    calls.push_back(
        (event.kind == ChurnEvent::Kind::kFailPeer
             ? "fail " + std::to_string(event.peer)
             : "cut " + std::to_string(event.link_a) + "-" +
                   std::to_string(event.link_b)) +
        "@" + std::to_string(event.at_offset));
    return Status::Ok();
  };
};

using Calls = std::vector<std::string>;

TEST(ChurnWalkTest, NoEventsFeedsEverythingOnce) {
  ChurnWalk walk({}, 100);
  WalkRecorder recorder;
  ASSERT_TRUE(walk.RunToEnd(recorder.feed, recorder.apply).ok());
  EXPECT_EQ(recorder.calls, Calls({"feed 0-100"}));
  EXPECT_EQ(walk.last_offset(), 0u);
}

TEST(ChurnWalkTest, EventAtOffsetZeroAppliesBeforeAnyItem) {
  ChurnWalk walk({FailAt(1, 0)}, 100);
  WalkRecorder recorder;
  ASSERT_TRUE(walk.RunToEnd(recorder.feed, recorder.apply).ok());
  EXPECT_EQ(recorder.calls, Calls({"fail 1@0", "feed 0-100"}));
}

TEST(ChurnWalkTest, EventsAtTheSameOffsetKeepListOrder) {
  ChurnWalk walk({CutAt(2, 3, 40), FailAt(1, 40)}, 100);
  WalkRecorder recorder;
  ASSERT_TRUE(walk.RunToEnd(recorder.feed, recorder.apply).ok());
  EXPECT_EQ(recorder.calls,
            Calls({"feed 0-40", "cut 2-3@40", "fail 1@40", "feed 40-100"}));
}

TEST(ChurnWalkTest, OffsetPastTheEndIsClamped) {
  ChurnWalk walk({FailAt(1, 250)}, 100);
  WalkRecorder recorder;
  ASSERT_TRUE(walk.RunToEnd(recorder.feed, recorder.apply).ok());
  EXPECT_EQ(recorder.calls, Calls({"feed 0-100", "fail 1@100"}));
  EXPECT_EQ(walk.last_offset(), 100u);
}

TEST(ChurnWalkTest, OutOfOrderEventsApplyByOffset) {
  ChurnWalk walk({FailAt(2, 60), FailAt(1, 30)}, 100);
  WalkRecorder recorder;
  ASSERT_TRUE(walk.RunToEnd(recorder.feed, recorder.apply).ok());
  EXPECT_EQ(recorder.calls, Calls({"feed 0-30", "fail 1@30", "feed 30-60",
                                   "fail 2@60", "feed 60-100"}));
  EXPECT_EQ(walk.last_offset(), 60u);
}

TEST(ChurnWalkTest, StopMidWalkThenResume) {
  // The serve arm's drain split: walk to the drain point, restart, then
  // walk on. An event exactly at the stop applies before the stop.
  ChurnWalk walk({FailAt(1, 30), FailAt(2, 45), FailAt(3, 70)}, 100);
  WalkRecorder recorder;
  ASSERT_TRUE(walk.RunTo(45, recorder.feed, recorder.apply).ok());
  EXPECT_EQ(recorder.calls,
            Calls({"feed 0-30", "fail 1@30", "feed 30-45", "fail 2@45"}));
  recorder.calls.clear();
  ASSERT_TRUE(walk.RunToEnd(recorder.feed, recorder.apply).ok());
  EXPECT_EQ(recorder.calls, Calls({"feed 45-70", "fail 3@70", "feed 70-100"}));
}

TEST(ChurnWalkTest, FailedStepStopsTheWalk) {
  ChurnWalk walk({FailAt(1, 30)}, 100);
  WalkRecorder recorder;
  Status status = walk.RunToEnd(recorder.feed, [](const ChurnEvent&) {
    return Status::Internal("peer refused");
  });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(recorder.calls, Calls({"feed 0-30"}));
}

}  // namespace
}  // namespace streamshare::workload
