#include "workload/datasets.h"

#include "exec/query_classifier.h"
#include "gtest/gtest.h"
#include "mpc/mpc_partitioner.h"
#include "sparql/parser.h"
#include "sparql/shape.h"
#include "test_util.h"
#include "workload/lubm.h"

namespace mpc::workload {
namespace {

TEST(LubmTest, HasEighteenPropertiesAndFourteenQueries) {
  LubmOptions options;
  options.num_universities = 5;
  GeneratedDataset d = MakeLubm(options);
  EXPECT_EQ(d.graph.num_properties(), 18u);
  EXPECT_EQ(d.benchmark_queries.size(), 14u);
  EXPECT_GT(d.graph.num_edges(), 1000u);
}

TEST(LubmTest, TenOfFourteenQueriesAreStars) {
  LubmOptions options;
  options.num_universities = 3;
  GeneratedDataset d = MakeLubm(options);
  size_t stars = 0;
  for (const NamedQuery& q : d.benchmark_queries) {
    sparql::QueryGraph parsed = testutil::ParseQueryOrDie(q.sparql);
    EXPECT_EQ(sparql::IsStarQuery(parsed), q.is_star)
        << q.name << " star flag disagrees with its shape";
    stars += q.is_star;
  }
  EXPECT_EQ(stars, 10u);  // Table III: 71.43% of LUBM queries are stars
}

TEST(LubmTest, DeterministicForSeed) {
  LubmOptions options;
  options.num_universities = 3;
  GeneratedDataset a = MakeLubm(options);
  GeneratedDataset b = MakeLubm(options);
  EXPECT_EQ(a.graph.num_edges(), b.graph.num_edges());
  EXPECT_EQ(a.graph.num_vertices(), b.graph.num_vertices());
}

TEST(LubmTest, ScalesWithUniversities) {
  LubmOptions small, large;
  small.num_universities = 3;
  large.num_universities = 12;
  EXPECT_GT(MakeLubm(large).graph.num_edges(),
            2 * MakeLubm(small).graph.num_edges());
}

TEST(LubmTest, MpcFindsFiveCrossingProperties) {
  // The headline Table II number for LUBM.
  LubmOptions options;
  options.num_universities = 40;
  GeneratedDataset d = MakeLubm(options);
  core::MpcOptions mpc_options;
  mpc_options.base.k = 8;
  mpc_options.base.epsilon = 0.1;
  partition::Partitioning p =
      core::MpcPartitioner(mpc_options).Partition(d.graph);
  EXPECT_EQ(p.num_crossing_properties(), 5u);
}

struct DatasetCase {
  DatasetId id;
  // Inclusive bounds on the realized property count at scale 0.2 (rare
  // long-tail vocabulary entries are only realized at larger scales, so
  // DBpedia/LGD bands are wide; the Table I bench runs at full scale).
  size_t min_properties;
  size_t max_properties;
};

/// Prints the dataset name rather than gtest's raw bytes (which include
/// the struct's padding).
void PrintTo(const DatasetCase& c, std::ostream* os) {
  *os << DatasetName(c.id);
}

class DatasetShapeTest : public ::testing::TestWithParam<DatasetCase> {};

TEST_P(DatasetShapeTest, PropertyCountMatchesTableI) {
  const auto [id, min_props, max_props] = GetParam();
  GeneratedDataset d = MakeDataset(id, /*scale=*/0.2, /*seed=*/3);
  EXPECT_GE(d.graph.num_properties(), min_props);
  EXPECT_LE(d.graph.num_properties(), max_props);
  EXPECT_GT(d.graph.num_edges(), 0u);
  EXPECT_EQ(d.name, DatasetName(id));
}

INSTANTIATE_TEST_SUITE_P(
    AllSix, DatasetShapeTest,
    ::testing::Values(DatasetCase{DatasetId::kLubm, 18, 18},
                      DatasetCase{DatasetId::kWatdiv, 86, 86},
                      DatasetCase{DatasetId::kYago2, 98, 98},
                      DatasetCase{DatasetId::kBio2rdf, 1500, 1581},
                      DatasetCase{DatasetId::kDbpedia, 2000, 12064},
                      DatasetCase{DatasetId::kLgd, 1500, 4006}),
    [](const auto& info) { return std::string(DatasetName(info.param.id)); });

TEST(BenchmarkQueriesTest, AllParseAndShapesMatch) {
  for (DatasetId id :
       {DatasetId::kLubm, DatasetId::kYago2, DatasetId::kBio2rdf}) {
    GeneratedDataset d = MakeDataset(id, 0.1, 5);
    EXPECT_FALSE(d.benchmark_queries.empty()) << DatasetName(id);
    for (const NamedQuery& q : d.benchmark_queries) {
      sparql::QueryGraph parsed = testutil::ParseQueryOrDie(q.sparql);
      EXPECT_EQ(sparql::IsStarQuery(parsed), q.is_star)
          << DatasetName(id) << "/" << q.name;
      EXPECT_TRUE(sparql::IsWeaklyConnected(parsed))
          << DatasetName(id) << "/" << q.name;
    }
  }
}

TEST(BenchmarkQueriesTest, Yago2AllNonStar) {
  GeneratedDataset d = MakeDataset(DatasetId::kYago2, 0.1, 5);
  ASSERT_EQ(d.benchmark_queries.size(), 4u);
  for (const NamedQuery& q : d.benchmark_queries) {
    EXPECT_FALSE(q.is_star) << q.name;
  }
}

TEST(BenchmarkQueriesTest, BenchmarkQueriesHaveWitnesses) {
  // Non-selective benchmark queries should return results on the real
  // generated data (LQ1/LQ3-style needle queries may legitimately be
  // empty at tiny scales, so check a known-dense subset).
  GeneratedDataset lubm = MakeDataset(DatasetId::kLubm, 0.3, 5);
  for (const char* name : {"LQ2", "LQ6", "LQ8", "LQ9", "LQ14"}) {
    const NamedQuery* nq = nullptr;
    for (const NamedQuery& q : lubm.benchmark_queries) {
      if (q.name == name) nq = &q;
    }
    ASSERT_NE(nq, nullptr);
    sparql::QueryGraph parsed = testutil::ParseQueryOrDie(nq->sparql);
    EXPECT_GT(testutil::GroundTruth(lubm.graph, parsed).num_rows(), 0u)
        << name << " has no matches";
  }

  GeneratedDataset yago = MakeDataset(DatasetId::kYago2, 0.3, 5);
  for (const NamedQuery& q : yago.benchmark_queries) {
    sparql::QueryGraph parsed = testutil::ParseQueryOrDie(q.sparql);
    EXPECT_GT(testutil::GroundTruth(yago.graph, parsed).num_rows(), 0u)
        << q.name << " has no matches";
  }

  GeneratedDataset bio = MakeDataset(DatasetId::kBio2rdf, 0.3, 5);
  for (const NamedQuery& q : bio.benchmark_queries) {
    sparql::QueryGraph parsed = testutil::ParseQueryOrDie(q.sparql);
    EXPECT_GT(testutil::GroundTruth(bio.graph, parsed).num_rows(), 0u)
        << q.name << " has no matches";
  }
}

TEST(QueryLogTest, GeneratesRequestedCountAndAllParse) {
  GeneratedDataset d = MakeDataset(DatasetId::kWatdiv, 0.1, 5);
  std::vector<NamedQuery> log = MakeQueryLog(DatasetId::kWatdiv, d.graph,
                                             200, /*seed=*/11);
  EXPECT_EQ(log.size(), 200u);
  size_t stars = 0;
  for (const NamedQuery& q : log) {
    sparql::QueryGraph parsed = testutil::ParseQueryOrDie(q.sparql);
    EXPECT_GE(parsed.num_patterns(), 1u);
    stars += q.is_star;
  }
  // Profile: ~50% stars (42% stars + 8% single-pattern), generous band.
  EXPECT_GT(stars, 60u);
  EXPECT_LT(stars, 140u);
}

TEST(QueryLogTest, WalkQueriesHaveWitnesses) {
  GeneratedDataset d = MakeDataset(DatasetId::kLgd, 0.1, 5);
  std::vector<NamedQuery> log =
      MakeQueryLog(DatasetId::kLgd, d.graph, 30, /*seed=*/13);
  size_t nonempty = 0;
  for (const NamedQuery& q : log) {
    sparql::QueryGraph parsed = testutil::ParseQueryOrDie(q.sparql);
    if (testutil::GroundTruth(d.graph, parsed).num_rows() > 0) ++nonempty;
  }
  // Sampled from the data, so the vast majority must be non-empty.
  EXPECT_GE(nonempty, 28u);
}

TEST(QueryLogTest, DeterministicForSeed) {
  GeneratedDataset d = MakeDataset(DatasetId::kWatdiv, 0.05, 5);
  auto a = MakeQueryLog(DatasetId::kWatdiv, d.graph, 50, 17);
  auto b = MakeQueryLog(DatasetId::kWatdiv, d.graph, 50, 17);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].sparql, b[i].sparql);
  }
}

TEST(DatasetRegistryTest, NamesAndEnumeration) {
  EXPECT_EQ(AllDatasets().size(), 6u);
  EXPECT_STREQ(DatasetName(DatasetId::kDbpedia), "DBpedia");
}

}  // namespace
}  // namespace mpc::workload
