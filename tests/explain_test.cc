#include "exec/explain.h"

#include "common/random.h"
#include "exec/decomposer.h"
#include "gtest/gtest.h"
#include "partition/subject_hash_partitioner.h"
#include "test_util.h"

namespace mpc::exec {
namespace {

using partition::Partitioning;
using rdf::RdfGraph;

struct Fixture {
  RdfGraph graph;
  Partitioning partitioning;
  Fixture()
      : graph(testutil::BuildGraph({
            {"a", "in1", "b"},
            {"b", "in2", "c"},
            {"d", "in1", "e"},
            {"e", "in2", "f"},
            {"c", "cross", "d"},
        })) {
    partition::VertexAssignment assignment;
    assignment.k = 2;
    assignment.part.resize(graph.num_vertices());
    for (size_t v = 0; v < graph.num_vertices(); ++v) {
      assignment.part[v] = graph.VertexName(static_cast<uint32_t>(v))[3] <= 'c'
                               ? 0
                               : 1;
    }
    partitioning = Partitioning::MaterializeVertexDisjoint(
        graph, std::move(assignment));
  }
};

TEST(ExtractSubqueryTest, PreservesNamesAndStructure) {
  sparql::QueryGraph q = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?a <t:p> ?b . ?b <t:q> ?c . ?c <t:r> ?d . }");
  sparql::QueryGraph sub = sparql::ExtractSubquery(q, {1, 2});
  EXPECT_EQ(sub.num_patterns(), 2u);
  EXPECT_EQ(sub.num_variables(), 3u);  // b, c, d
  EXPECT_EQ(sub.num_vertices(), 3u);
  // Shared vertex ?c connects the two extracted patterns.
  EXPECT_EQ(sub.ObjectVertex(0), sub.SubjectVertex(1));
  // Names survive re-interning.
  EXPECT_NE(sub.ToString().find("?b"), std::string::npos);
}

TEST(ExplainTest, IeqPlanMentionsUnion) {
  Fixture f;
  sparql::QueryGraph q = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?x <t:in1> ?y . ?y <t:in2> ?z . }");
  std::string plan = ExplainQuery(q, f.partitioning, f.graph);
  EXPECT_NE(plan.find("class: internal"), std::string::npos) << plan;
  EXPECT_NE(plan.find("no join"), std::string::npos) << plan;
}

TEST(ExplainTest, NonIeqPlanListsSubqueriesAndCrossings) {
  Fixture f;
  sparql::QueryGraph q = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?a <t:in1> ?b . ?b <t:cross> ?c . ?c <t:in2> ?d . "
      "}");
  std::string plan = ExplainQuery(q, f.partitioning, f.graph);
  EXPECT_NE(plan.find("class: non-IEQ"), std::string::npos) << plan;
  EXPECT_NE(plan.find("decomposition: 2 subqueries"), std::string::npos)
      << plan;
  EXPECT_NE(plan.find("<t:cross>"), std::string::npos) << plan;
  EXPECT_NE(plan.find("subquery 0"), std::string::npos) << plan;
}

TEST(ExplainTest, ClusterAddsSiteLists) {
  Fixture f;
  Cluster cluster = Cluster::Build(std::move(f.partitioning));
  sparql::QueryGraph q = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?x <t:in1> ?y . }");
  std::string plan =
      ExplainQuery(q, cluster.partitioning(), f.graph, &cluster);
  EXPECT_NE(plan.find("sites:"), std::string::npos) << plan;
}

TEST(ExplainTest, VpPlanScansEachPatternAtItsHomeSite) {
  Fixture f;
  // in1 and cross at site 0, in2 at site 1.
  std::vector<uint32_t> triple_part;
  for (const rdf::Triple& t : f.graph.triples()) {
    triple_part.push_back(f.graph.PropertyName(t.property) == "<t:in2>" ? 1
                                                                        : 0);
  }
  Cluster cluster = Cluster::Build(
      Partitioning::MaterializeEdgeDisjoint(f.graph, 2, triple_part));
  sparql::QueryGraph q = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?x <t:in1> ?y . ?y <t:in2> ?z . }");
  std::string plan =
      ExplainQuery(q, cluster.partitioning(), f.graph, &cluster);
  EXPECT_NE(plan.find("class: non-IEQ -> decompose + inter-partition join"),
            std::string::npos)
      << plan;
  EXPECT_NE(plan.find("decomposition: 2 subqueries"), std::string::npos)
      << plan;
  EXPECT_NE(plan.find("<t:in1> ?y .\n  sites: 0\n"), std::string::npos)
      << plan;
  EXPECT_NE(plan.find("<t:in2> ?z .\n  sites: 1\n"), std::string::npos)
      << plan;
  EXPECT_EQ(plan.find("crossing patterns"), std::string::npos) << plan;

  // Both properties at one home: one union-only subquery there.
  sparql::QueryGraph local = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?x <t:in1> ?y . ?y <t:cross> ?z . }");
  plan = ExplainQuery(local, cluster.partitioning(), f.graph, &cluster);
  EXPECT_NE(plan.find("class: internal -> independent execution"),
            std::string::npos)
      << plan;
  EXPECT_NE(plan.find("<t:cross> ?z .\n  sites: 0\n"), std::string::npos)
      << plan;
}

// The Algorithm 2 guarantee, tested as a property: every subquery of a
// decomposition — extracted and classified standalone — is itself
// independently executable (internal, Type-I or Type-II; Section V-B1).
TEST(ExplainTest, EverySubqueryOfEveryDecompositionIsAnIeq_Property) {
  Rng rng(91);
  for (int round = 0; round < 25; ++round) {
    RdfGraph graph = testutil::RandomGraph(rng, 40, 130, 5, 8, 0.3);
    partition::PartitionerOptions options{
        .k = 2 + static_cast<uint32_t>(rng.Below(4)),
        .epsilon = 0.2,
        .seed = rng.Next()};
    Partitioning p =
        partition::SubjectHashPartitioner(options).Partition(graph);

    // Random connected-ish path/star queries.
    sparql::QueryGraphBuilder builder;
    const size_t num_edges = 2 + rng.Below(4);
    for (size_t i = 0; i < num_edges; ++i) {
      std::string prop = "<t:p" + std::to_string(rng.Below(5)) + ">";
      builder.AddPattern("?v" + std::to_string(rng.Below(num_edges)), prop,
                         "?v" + std::to_string(rng.Below(num_edges) + 1));
    }
    Result<sparql::QueryGraph> q = builder.Build();
    ASSERT_TRUE(q.ok());

    Classification cls = ClassifyQuery(*q, p, graph);
    if (cls.independently_executable()) continue;
    Decomposition dec = DecomposeQuery(*q, cls.crossing_pattern);
    for (const std::vector<size_t>& sub : dec.subqueries) {
      sparql::QueryGraph extracted = sparql::ExtractSubquery(*q, sub);
      Classification sub_cls = ClassifyQuery(extracted, p, graph);
      EXPECT_TRUE(sub_cls.independently_executable())
          << "round " << round << ": subquery "
          << extracted.ToString() << " classified "
          << IeqClassName(sub_cls.cls);
    }
  }
}

}  // namespace
}  // namespace mpc::exec
