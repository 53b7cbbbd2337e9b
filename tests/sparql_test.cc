#include "sparql/parser.h"

#include "gtest/gtest.h"
#include "sparql/shape.h"
#include "test_util.h"

namespace mpc::sparql {
namespace {

TEST(ParserTest, BasicSelectStar) {
  QueryGraph q = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?x <http://p> ?y . }");
  ASSERT_EQ(q.num_patterns(), 1u);
  EXPECT_TRUE(q.projection().empty());
  EXPECT_EQ(q.num_variables(), 2u);
  EXPECT_TRUE(q.patterns()[0].subject.is_variable());
  EXPECT_EQ(q.patterns()[0].predicate.text, "<http://p>");
}

TEST(ParserTest, SelectSpecificVariables) {
  QueryGraph q = testutil::ParseQueryOrDie(
      "SELECT ?y ?x WHERE { ?x <http://p> ?y . }");
  ASSERT_EQ(q.projection().size(), 2u);
  EXPECT_EQ(q.variables()[q.projection()[0]], "y");
  EXPECT_EQ(q.variables()[q.projection()[1]], "x");
}

TEST(ParserTest, PrefixExpansion) {
  QueryGraph q = testutil::ParseQueryOrDie(
      "PREFIX ex: <http://example.org/> "
      "SELECT * WHERE { ?x ex:knows ?y . }");
  EXPECT_EQ(q.patterns()[0].predicate.text, "<http://example.org/knows>");
}

TEST(ParserTest, MultiplePrefixes) {
  QueryGraph q = testutil::ParseQueryOrDie(
      "PREFIX a: <http://a/> PREFIX b: <http://b/> "
      "SELECT * WHERE { a:s b:p a:o . ?x b:q ?y }");
  EXPECT_EQ(q.patterns()[0].subject.text, "<http://a/s>");
  EXPECT_EQ(q.patterns()[0].predicate.text, "<http://b/p>");
}

TEST(ParserTest, AKeywordIsRdfType) {
  QueryGraph q = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?x a <http://C> . }");
  EXPECT_EQ(q.patterns()[0].predicate.text,
            "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>");
}

TEST(ParserTest, LiteralObjects) {
  QueryGraph q = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?x <http://p> \"v\" . ?x <http://q> \"w\"@en . "
      "?x <http://r> \"1\"^^<http://int> . }");
  EXPECT_EQ(q.patterns()[0].object.text, "\"v\"");
  EXPECT_EQ(q.patterns()[1].object.text, "\"w\"@en");
  EXPECT_EQ(q.patterns()[2].object.text, "\"1\"^^<http://int>");
}

TEST(ParserTest, VariablePredicate) {
  QueryGraph q = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?x ?p ?y . }");
  EXPECT_TRUE(q.has_variable_predicate());
  EXPECT_EQ(q.num_variables(), 3u);
}

TEST(ParserTest, SharedVariablesGetOneId) {
  QueryGraph q = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?x <http://p> ?y . ?y <http://q> ?z . }");
  EXPECT_EQ(q.num_variables(), 3u);
  EXPECT_EQ(q.num_vertices(), 3u);
  // ?y is the object of pattern 0 and subject of pattern 1.
  EXPECT_EQ(q.ObjectVertex(0), q.SubjectVertex(1));
}

TEST(ParserTest, RepeatedConstantIsOneVertex) {
  QueryGraph q = testutil::ParseQueryOrDie(
      "SELECT * WHERE { <http://a> <http://p> ?x . <http://a> <http://q> "
      "?y . }");
  EXPECT_EQ(q.SubjectVertex(0), q.SubjectVertex(1));
  EXPECT_EQ(q.num_vertices(), 3u);
}

TEST(ParserTest, CommentsAndCaseInsensitiveKeywords) {
  QueryGraph q = testutil::ParseQueryOrDie(
      "# leading comment\nselect * where { ?x <http://p> ?y . }");
  EXPECT_EQ(q.num_patterns(), 1u);
}

TEST(ParserTest, OptionalTrailingDot) {
  QueryGraph q = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?x <http://p> ?y }");
  EXPECT_EQ(q.num_patterns(), 1u);
}

TEST(ParserTest, DistinctKeyword) {
  QueryGraph q = testutil::ParseQueryOrDie(
      "SELECT DISTINCT ?x WHERE { ?x <http://p> ?y . }");
  EXPECT_TRUE(q.distinct());
  EXPECT_EQ(q.projection().size(), 1u);
  QueryGraph q2 = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?x <http://p> ?y . }");
  EXPECT_FALSE(q2.distinct());
}

TEST(ParserTest, LimitClause) {
  QueryGraph q = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?x <http://p> ?y . } LIMIT 25");
  EXPECT_EQ(q.limit(), 25u);
  EXPECT_NE(q.ToString().find("LIMIT 25"), std::string::npos);
  QueryGraph q2 = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?x <http://p> ?y . }");
  EXPECT_EQ(q2.limit(), SIZE_MAX);
  EXPECT_FALSE(
      SparqlParser::Parse("SELECT * WHERE { ?x <http://p> ?y . } LIMIT x")
          .ok());
  // Past size_t: a ParseError, not an uncaught exception.
  Result<QueryGraph> overflow = SparqlParser::Parse(
      "SELECT * WHERE { ?x <http://p> ?y . } LIMIT 99999999999999999999999");
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kParseError);
}

TEST(ParserTest, ErrorCases) {
  for (const char* bad : {
           "WHERE { ?x <p> ?y . }",               // missing SELECT
           "SELECT WHERE { ?x <http://p> ?y . }", // no vars or *
           "SELECT * WHERE { ?x <http://p> }",    // incomplete pattern
           "SELECT * WHERE { ?x <http://p ?y . }",  // unterminated IRI
           "SELECT * WHERE { ?x <http://p> ?y . ",  // missing }
           "SELECT * WHERE { \"lit\" <http://p> ?y . }",  // literal subject
           "SELECT * WHERE { ?x \"lit\" ?y . }",  // literal predicate
           "SELECT ?z WHERE { ?x <http://p> ?y . }",  // unknown projection
           "SELECT * WHERE { ?x ex:p ?y . }",     // unknown prefix
           "SELECT * WHERE { }",                  // empty BGP
           "SELECT * WHERE { ?x <http://p> ?y . } trailing",
       }) {
    Result<QueryGraph> r = SparqlParser::Parse(bad);
    EXPECT_FALSE(r.ok()) << "should reject: " << bad;
  }
}

TEST(ParserTest, RejectsVariableInBothPredicateAndVertexPosition) {
  Result<QueryGraph> r = SparqlParser::Parse(
      "SELECT * WHERE { ?x ?p ?y . ?p <http://q> ?z . }");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
}

TEST(BuilderTest, ShorthandAndToString) {
  QueryGraphBuilder builder;
  builder.AddPattern("?x", "<http://p>", "?y").Select("x");
  Result<QueryGraph> q = builder.Build();
  ASSERT_TRUE(q.ok());
  EXPECT_NE(q->ToString().find("SELECT ?x"), std::string::npos);
  EXPECT_NE(q->ToString().find("?x <http://p> ?y ."), std::string::npos);
}

TEST(BuilderTest, EmptyQueryRejected) {
  QueryGraphBuilder builder;
  EXPECT_FALSE(builder.Build().ok());
}

TEST(ShapeTest, StarDetection) {
  // Out-star.
  EXPECT_TRUE(IsStarQuery(testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?x <http://p> ?a . ?x <http://q> ?b . }")));
  // In/out mixed star.
  EXPECT_TRUE(IsStarQuery(testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?a <http://p> ?x . ?x <http://q> ?b . ?x "
      "<http://r> ?c . }")));
  // Single pattern is a star.
  EXPECT_TRUE(IsStarQuery(testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?x <http://p> ?y . }")));
  // Path of length 2 is a star centered on the middle.
  EXPECT_TRUE(IsStarQuery(testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?a <http://p> ?b . ?b <http://q> ?c . }")));
  // Path of length 3 is not.
  EXPECT_FALSE(IsStarQuery(testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?a <http://p> ?b . ?b <http://q> ?c . ?c "
      "<http://r> ?d . }")));
  // Triangle is not a star.
  EXPECT_FALSE(IsStarQuery(testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?a <http://p> ?b . ?b <http://q> ?c . ?a "
      "<http://r> ?c . }")));
}

TEST(ShapeTest, WeakConnectivity) {
  EXPECT_TRUE(IsWeaklyConnected(testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?a <http://p> ?b . ?b <http://q> ?c . }")));
  EXPECT_FALSE(IsWeaklyConnected(testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?a <http://p> ?b . ?c <http://q> ?d . }")));
}

TEST(ShapeTest, DecomposeAfterRemoval) {
  QueryGraph q = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?a <http://p> ?b . ?b <http://q> ?c . ?c "
      "<http://r> ?d . }");
  // Remove the middle edge: {a,b} and {c,d}.
  std::vector<bool> removed = {false, true, false};
  QueryComponents comps = DecomposeAfterRemoval(q, removed);
  EXPECT_EQ(comps.num_components, 2u);
  EXPECT_EQ(comps.vertex_component[q.SubjectVertex(0)],
            comps.vertex_component[q.ObjectVertex(0)]);
  EXPECT_NE(comps.vertex_component[q.SubjectVertex(0)],
            comps.vertex_component[q.SubjectVertex(2)]);
  // Remove everything: 4 singletons.
  removed = {true, true, true};
  EXPECT_EQ(DecomposeAfterRemoval(q, removed).num_components, 4u);
}

}  // namespace
}  // namespace mpc::sparql
