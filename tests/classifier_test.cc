#include "exec/query_classifier.h"

#include "common/random.h"
#include "exec/decomposer.h"
#include "gtest/gtest.h"
#include "partition/subject_hash_partitioner.h"
#include "partition/vp_partitioner.h"
#include "sparql/shape.h"
#include "test_util.h"

namespace mpc::exec {
namespace {

using partition::Partitioning;
using partition::VertexAssignment;
using rdf::RdfGraph;

/// Fixture graph where property "cross" crosses and everything else is
/// internal: two halves {a,b,c} and {d,e,f} split by construction.
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
            {"a", "cross", "b"},  // internal edge with crossing property
        })) {
    VertexAssignment assignment;
    assignment.k = 2;
    assignment.part.resize(graph.num_vertices());
    for (size_t v = 0; v < graph.num_vertices(); ++v) {
      const std::string& name = graph.VertexName(static_cast<uint32_t>(v));
      char c = name[3];  // "<t:X>"
      assignment.part[v] = (c <= 'c') ? 0 : 1;
    }
    partitioning = Partitioning::MaterializeVertexDisjoint(
        graph, std::move(assignment));
  }
};

TEST(ClassifierTest, FixtureHasExpectedCrossingSet) {
  Fixture f;
  EXPECT_EQ(f.partitioning.num_crossing_properties(), 1u);
  rdf::PropertyId cross = f.graph.property_dict().Lookup("<t:cross>");
  EXPECT_TRUE(f.partitioning.IsCrossingProperty(cross));
}

TEST(ClassifierTest, InternalQuery) {
  Fixture f;
  sparql::QueryGraph q = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?x <t:in1> ?y . ?y <t:in2> ?z . }");
  Classification c = ClassifyQuery(q, f.partitioning, f.graph);
  EXPECT_EQ(c.cls, IeqClass::kInternal);
  EXPECT_TRUE(c.independently_executable());
  EXPECT_EQ(c.num_crossing_patterns, 0u);
}

TEST(ClassifierTest, DisconnectedQueryIsNonIeq) {
  // No crossing pattern, but the two edges share no variable: one may
  // match at site 0 and the other at site 1, so per-site union would
  // lose those combinations. Each WCC is a subquery, cross-joined.
  Fixture f;
  sparql::QueryGraph q = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?a <t:in1> ?b . ?c <t:in2> ?d . }");
  Classification c = ClassifyQuery(q, f.partitioning, f.graph);
  EXPECT_EQ(c.cls, IeqClass::kNonIeq);
  EXPECT_EQ(c.num_crossing_patterns, 0u);
  QueryPlan plan = PlanQuery(q, f.partitioning, f.graph);
  EXPECT_FALSE(plan.union_only);
  EXPECT_EQ(plan.decomposition.subqueries,
            (std::vector<std::vector<size_t>>{{0}, {1}}));
}

TEST(ClassifierTest, TypeIQuery) {
  // The paper's Q3 shape: removing the crossing edge keeps the query
  // connected (both endpoints sit in the internal part).
  Fixture f;
  sparql::QueryGraph q = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?x <t:in1> ?y . ?y <t:in2> ?z . ?x <t:cross> ?z . }");
  Classification c = ClassifyQuery(q, f.partitioning, f.graph);
  EXPECT_EQ(c.cls, IeqClass::kExtendedTypeI);
  EXPECT_TRUE(c.independently_executable());
}

TEST(ClassifierTest, TypeIIQuery) {
  // The paper's Q4 shape: crossing edges hang satellites off a core.
  Fixture f;
  sparql::QueryGraph q = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?x <t:in1> ?y . ?y <t:in2> ?z . ?y <t:cross> ?w . "
      "?z <t:cross> ?w . }");
  Classification c = ClassifyQuery(q, f.partitioning, f.graph);
  EXPECT_EQ(c.cls, IeqClass::kExtendedTypeII);
  EXPECT_TRUE(c.independently_executable());
}

TEST(ClassifierTest, NonIeqQuery) {
  // Two multi-vertex cores joined by a crossing edge (the paper's Q5
  // after simplification): not independently executable.
  Fixture f;
  sparql::QueryGraph q = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?a <t:in1> ?b . ?b <t:cross> ?c . ?c <t:in2> ?d . "
      "}");
  Classification c = ClassifyQuery(q, f.partitioning, f.graph);
  EXPECT_EQ(c.cls, IeqClass::kNonIeq);
  EXPECT_FALSE(c.independently_executable());
}

// A singleton WCC with an internal self-loop keeps an edge: it is a
// second core, not an edge-less satellite, because its loop is stored
// only at the vertex's owner.
TEST(ClassifierTest, SelfLoopSingletonIsACoreNotASatellite) {
  Fixture f;
  for (const std::string& text :
       {std::string("SELECT * WHERE { ?v0 <t:in1> ?v0 . ?v0 <t:cross> ?v1 . "
                    "?v1 <t:in2> ?v2 . }"),
        std::string("SELECT * WHERE { ?v1 <t:in1> \"c\" . ?v2 <t:cross> "
                    "?v1 . ?v2 <t:in2> ?v2 . }")}) {
    sparql::QueryGraph q = testutil::ParseQueryOrDie(text);
    Classification c = ClassifyQuery(q, f.partitioning, f.graph);
    EXPECT_EQ(c.cls, IeqClass::kNonIeq) << text;
    EXPECT_FALSE(c.independently_executable()) << text;
  }
}

TEST(ClassifierTest, SelfLoopCoreWithEdgeLessSatelliteIsTypeII) {
  Fixture f;
  sparql::QueryGraph q = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?v0 <t:in1> ?v0 . ?v0 <t:cross> ?v1 . }");
  Classification c = ClassifyQuery(q, f.partitioning, f.graph);
  EXPECT_EQ(c.cls, IeqClass::kExtendedTypeII);
}

TEST(ClassifierTest, VariablePredicateCountsAsCrossing) {
  Fixture f;
  sparql::QueryGraph q = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?a <t:in1> ?b . ?b ?p ?c . ?c <t:in2> ?d . }");
  Classification c = ClassifyQuery(q, f.partitioning, f.graph);
  EXPECT_EQ(c.num_crossing_patterns, 1u);
  EXPECT_EQ(c.cls, IeqClass::kNonIeq);
}

TEST(ClassifierTest, UnknownPropertyIsNotCrossing) {
  Fixture f;
  sparql::QueryGraph q = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?x <t:in1> ?y . ?y <t:nosuch> ?z . }");
  Classification c = ClassifyQuery(q, f.partitioning, f.graph);
  EXPECT_EQ(c.cls, IeqClass::kInternal);
}

TEST(ClassifierTest, AllCrossingStarIsTypeII) {
  Fixture f;
  sparql::QueryGraph q = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?x <t:cross> ?a . ?x <t:cross> ?b . ?b <t:cross> "
      "?x . }");
  Classification c = ClassifyQuery(q, f.partitioning, f.graph);
  EXPECT_EQ(c.cls, IeqClass::kExtendedTypeII);
}

TEST(ClassifierTest, AllCrossingNonStarIsNonIeq) {
  Fixture f;
  sparql::QueryGraph q = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?a <t:cross> ?b . ?b <t:cross> ?c . ?c <t:cross> "
      "?d . }");
  Classification c = ClassifyQuery(q, f.partitioning, f.graph);
  EXPECT_EQ(c.cls, IeqClass::kNonIeq);
}

// Theorem 5: a star query is always an IEQ (internal or Type-II) under
// ANY vertex-disjoint partitioning. Property-tested over random graphs,
// random hash partitionings and random star queries.
TEST(ClassifierTest, StarQueriesAlwaysIeq_Theorem5) {
  Rng rng(55);
  for (int round = 0; round < 30; ++round) {
    RdfGraph g = testutil::RandomGraph(rng, 30, 90, 5);
    partition::PartitionerOptions options{
        .k = 2 + static_cast<uint32_t>(rng.Below(4)),
        .epsilon = 0.1,
        .seed = rng.Next()};
    Partitioning p = partition::SubjectHashPartitioner(options).Partition(g);

    // Random star query with 2-4 edges, random directions/properties.
    sparql::QueryGraphBuilder builder;
    const size_t num_edges = 2 + rng.Below(3);
    for (size_t i = 0; i < num_edges; ++i) {
      std::string prop = "<t:p" + std::to_string(rng.Below(5)) + ">";
      std::string leaf = "?v" + std::to_string(i);
      if (rng.Chance(0.5)) {
        builder.AddPattern("?x", prop, leaf);
      } else {
        builder.AddPattern(leaf, prop, "?x");
      }
    }
    Result<sparql::QueryGraph> q = builder.Build();
    ASSERT_TRUE(q.ok());
    ASSERT_TRUE(sparql::IsStarQuery(*q));
    Classification c = ClassifyQuery(*q, p, g);
    EXPECT_TRUE(c.independently_executable())
        << "star query classified " << IeqClassName(c.cls) << " in round "
        << round;
  }
}

TEST(VpLocalityTest, SingleSiteQueriesAreLocal) {
  Rng rng(60);
  RdfGraph g = testutil::RandomGraph(rng, 50, 200, 6);
  partition::PartitionerOptions options{.k = 3, .epsilon = 0.1, .seed = 2};
  Partitioning vp = partition::VpPartitioner(options).Partition(g);

  // A query over one property is always local.
  sparql::QueryGraph q1 = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?x <t:p0> ?y . }");
  EXPECT_TRUE(PlanQuery(q1, vp, g).union_only);

  // A single var-predicate pattern is the union over every site (each
  // triple is stored once); with a second pattern it is not.
  sparql::QueryGraph q2 =
      testutil::ParseQueryOrDie("SELECT * WHERE { ?x ?p ?y . }");
  EXPECT_TRUE(PlanQuery(q2, vp, g).union_only);
  sparql::QueryGraph q2_joined = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?x ?p ?y . ?y <t:p0> ?z . }");
  EXPECT_FALSE(PlanQuery(q2_joined, vp, g).union_only);

  // Two properties: local iff same home.
  rdf::PropertyId p0 = g.property_dict().Lookup("<t:p0>");
  rdf::PropertyId p1 = g.property_dict().Lookup("<t:p1>");
  sparql::QueryGraph q3 = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?x <t:p0> ?y . ?y <t:p1> ?z . }");
  EXPECT_EQ(PlanQuery(q3, vp, g).union_only,
            vp.PropertyHome(p0) == vp.PropertyHome(p1));
}

TEST(VpLocalityTest, UnknownPropertyIsTriviallyLocal) {
  Rng rng(61);
  RdfGraph g = testutil::RandomGraph(rng, 20, 50, 3);
  partition::PartitionerOptions options{.k = 2, .epsilon = 0.1, .seed = 1};
  Partitioning vp = partition::VpPartitioner(options).Partition(g);
  sparql::QueryGraph q = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?x <t:ghost> ?y . }");
  EXPECT_TRUE(PlanQuery(q, vp, g).union_only);
}

}  // namespace
}  // namespace mpc::exec
