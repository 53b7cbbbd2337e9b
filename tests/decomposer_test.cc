#include "exec/decomposer.h"

#include <algorithm>
#include <set>

#include "gtest/gtest.h"
#include "test_util.h"

namespace mpc::exec {
namespace {

std::vector<bool> Mask(size_t n, std::initializer_list<size_t> crossing) {
  std::vector<bool> mask(n, false);
  for (size_t i : crossing) mask[i] = true;
  return mask;
}

std::set<size_t> AllPatterns(const Decomposition& d) {
  std::set<size_t> all;
  for (const auto& sub : d.subqueries) all.insert(sub.begin(), sub.end());
  return all;
}

TEST(DecomposerTest, IeqStaysWhole) {
  sparql::QueryGraph q = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?a <t:p> ?b . ?b <t:q> ?c . }");
  Decomposition d = DecomposeQuery(q, Mask(2, {}));
  ASSERT_EQ(d.num_subqueries(), 1u);
  EXPECT_EQ(d.subqueries[0].size(), 2u);
}

TEST(DecomposerTest, PaperQ5Shape) {
  // Q5 of Fig. 5/6: a larger core q1, a second core q2, a crossing edge
  // between them, a variable-predicate edge, and a hanging satellite.
  //   q1' = {?x <in1> ?u, ?u <in2> ?w}   (3 vertices)
  //   q2' = {?y <in3> ?v}                (2 vertices)
  //   crossing: ?y <cross> ?x            (between q1', q2')
  //   var-pred: ?y ?p ?z                 (?z is the q3' singleton)
  sparql::QueryGraph q = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?x <t:in1> ?u . ?u <t:in2> ?w . ?y <t:in3> ?v . "
      "?y <t:cross> ?x . ?y ?p ?z . }");
  // Patterns 3 (crossing property) and 4 (variable predicate) removed.
  Decomposition d = DecomposeQuery(q, Mask(5, {3, 4}));

  // Two subqueries, as in Fig. 6; the singleton ?z WCC is dropped.
  ASSERT_EQ(d.num_subqueries(), 2u);
  // Every pattern appears exactly once.
  std::set<size_t> all = AllPatterns(d);
  EXPECT_EQ(all.size(), 5u);
  size_t total = 0;
  for (const auto& sub : d.subqueries) total += sub.size();
  EXPECT_EQ(total, 5u);

  // The crossing edge 3 goes to the larger core (patterns {0,1});
  // the var-pred edge 4 attaches to ?y's subquery.
  for (const auto& sub : d.subqueries) {
    bool has0 = std::count(sub.begin(), sub.end(), 0) > 0;
    bool has3 = std::count(sub.begin(), sub.end(), 3) > 0;
    bool has2 = std::count(sub.begin(), sub.end(), 2) > 0;
    bool has4 = std::count(sub.begin(), sub.end(), 4) > 0;
    if (has0) {
      EXPECT_TRUE(has3);
    }
    if (has2) {
      EXPECT_TRUE(has4);
    }
  }
}

TEST(DecomposerTest, CrossingEdgeInsideOneComponentStays) {
  // Triangle with one crossing chord: Type-I; decomposition keeps it in
  // the single subquery.
  sparql::QueryGraph q = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?a <t:p> ?b . ?b <t:q> ?c . ?a <t:cross> ?c . }");
  Decomposition d = DecomposeQuery(q, Mask(3, {2}));
  ASSERT_EQ(d.num_subqueries(), 1u);
  EXPECT_EQ(d.subqueries[0].size(), 3u);
}

TEST(DecomposerTest, TieGoesToObjectSideComponent) {
  // Both endpoint WCCs have one vertex; Algorithm 2's tie rule
  // (|q(vi)| <= |q(vj)| -> add to q(vj)) sends the edge to the object's
  // component.
  sparql::QueryGraph q = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?a <t:cross> ?b . }");
  Decomposition d = DecomposeQuery(q, Mask(1, {0}));
  ASSERT_EQ(d.num_subqueries(), 1u);
  EXPECT_EQ(d.subqueries[0].size(), 1u);
}

TEST(DecomposerTest, AllCrossingPathSplitsPerEdgeOwnership) {
  sparql::QueryGraph q = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?a <t:cross> ?b . ?b <t:cross> ?c . ?c <t:cross> "
      "?d . }");
  Decomposition d = DecomposeQuery(q, Mask(3, {0, 1, 2}));
  // Every pattern assigned somewhere, none lost.
  EXPECT_EQ(AllPatterns(d).size(), 3u);
  EXPECT_GE(d.num_subqueries(), 1u);
}

TEST(DecomposerTest, EveryPatternAssignedExactlyOnce_Property) {
  // Randomized: all 2^n crossing masks of a 4-pattern query.
  sparql::QueryGraph q = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?a <t:p0> ?b . ?b <t:p1> ?c . ?c <t:p2> ?d . ?b "
      "<t:p3> ?e . }");
  for (uint32_t bits = 0; bits < 16; ++bits) {
    std::vector<bool> mask(4);
    for (int i = 0; i < 4; ++i) mask[i] = bits & (1u << i);
    Decomposition d = DecomposeQuery(q, mask);
    std::set<size_t> all = AllPatterns(d);
    size_t total = 0;
    for (const auto& sub : d.subqueries) total += sub.size();
    EXPECT_EQ(all.size(), 4u) << "mask " << bits;
    EXPECT_EQ(total, 4u) << "mask " << bits;
  }
}

}  // namespace
}  // namespace mpc::exec
