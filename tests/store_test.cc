#include "store/triple_store.h"

#include <algorithm>
#include <set>

#include "common/random.h"
#include "gtest/gtest.h"
#include "store/bgp_matcher.h"
#include "test_util.h"

namespace mpc::store {
namespace {

using rdf::kInvalidProperty;
using rdf::kInvalidVertex;
using rdf::Triple;

std::vector<Triple> ToyTriples() {
  // (s, p, o) over small id space.
  return {
      Triple(0, 0, 1), Triple(0, 0, 2), Triple(1, 0, 2),
      Triple(0, 1, 3), Triple(2, 1, 3), Triple(3, 2, 0),
  };
}

size_t CountScan(const TripleStore& store, uint32_t s, uint32_t p,
                 uint32_t o) {
  size_t n = 0;
  store.Scan(s, p, o, [&](const Triple&) {
    ++n;
    return true;
  });
  return n;
}

TEST(TripleStoreTest, DeduplicatesInput) {
  TripleStore store({Triple(0, 0, 1), Triple(0, 0, 1)});
  EXPECT_EQ(store.num_triples(), 1u);
}

TEST(TripleStoreTest, AllBoundCombinations) {
  TripleStore store(ToyTriples());
  // Fully unbound.
  EXPECT_EQ(CountScan(store, kInvalidVertex, kInvalidProperty,
                      kInvalidVertex),
            6u);
  // P bound.
  EXPECT_EQ(CountScan(store, kInvalidVertex, 0, kInvalidVertex), 3u);
  EXPECT_EQ(store.PropertyCount(0), 3u);
  // P+S bound.
  EXPECT_EQ(CountScan(store, 0, 0, kInvalidVertex), 2u);
  // P+O bound.
  EXPECT_EQ(CountScan(store, kInvalidVertex, 1, 3), 2u);
  // S bound only.
  EXPECT_EQ(CountScan(store, 0, kInvalidProperty, kInvalidVertex), 3u);
  // O bound only.
  EXPECT_EQ(CountScan(store, kInvalidVertex, kInvalidProperty, 2), 2u);
  // Point lookup.
  EXPECT_EQ(CountScan(store, 3, 2, 0), 1u);
  EXPECT_EQ(CountScan(store, 3, 2, 1), 0u);
  // S+O bound, P unbound.
  EXPECT_EQ(CountScan(store, 0, kInvalidProperty, 2), 1u);
}

TEST(TripleStoreTest, ScanEarlyStop) {
  TripleStore store(ToyTriples());
  size_t seen = 0;
  bool completed = store.Scan(kInvalidVertex, kInvalidProperty,
                              kInvalidVertex, [&](const Triple&) {
                                ++seen;
                                return seen < 2;
                              });
  EXPECT_FALSE(completed);
  EXPECT_EQ(seen, 2u);
}

TEST(TripleStoreTest, MissingPropertyIsEmpty) {
  TripleStore store(ToyTriples());
  EXPECT_EQ(store.PropertyCount(99), 0u);
  EXPECT_EQ(CountScan(store, kInvalidVertex, 99, kInvalidVertex), 0u);
}

TEST(TripleStoreTest, EmptyStore) {
  TripleStore store;
  EXPECT_EQ(store.num_triples(), 0u);
  EXPECT_EQ(CountScan(store, kInvalidVertex, kInvalidProperty,
                      kInvalidVertex),
            0u);
}

TEST(TripleStoreTest, CardinalityEstimatesAreExactForIndexedPrefixes) {
  TripleStore store(ToyTriples());
  EXPECT_EQ(store.EstimateCardinality(kInvalidVertex, 0, kInvalidVertex),
            3u);
  EXPECT_EQ(store.EstimateCardinality(0, 0, kInvalidVertex), 2u);
  EXPECT_EQ(store.EstimateCardinality(kInvalidVertex, 1, 3), 2u);
  EXPECT_EQ(store.EstimateCardinality(0, kInvalidProperty, kInvalidVertex),
            3u);
  EXPECT_EQ(store.EstimateCardinality(3, 2, 0), 1u);
  EXPECT_EQ(store.EstimateCardinality(3, 2, 2), 0u);
  // OSP-backed: object-only and (subject, object) are exact too.
  EXPECT_EQ(store.EstimateCardinality(kInvalidVertex, kInvalidProperty, 2),
            2u);
  EXPECT_EQ(store.EstimateCardinality(0, kInvalidProperty, 2), 1u);
  EXPECT_EQ(store.EstimateCardinality(kInvalidVertex, kInvalidProperty, 3),
            2u);
}

// --- Matcher tests ---

rdf::RdfGraph MovieGraph() {
  return testutil::BuildGraph({
      {"film1", "starring", "actor1"},
      {"film1", "starring", "actor2"},
      {"film2", "starring", "actor2"},
      {"actor1", "livesIn", "city1"},
      {"actor2", "livesIn", "city1"},
      {"actor2", "spouse", "actor1"},
      {"film2", "sequelOf", "film1"},
  });
}

BindingTable Eval(const rdf::RdfGraph& g, const std::string& query_text) {
  sparql::QueryGraph q = testutil::ParseQueryOrDie(query_text);
  TripleStore store(g.triples());
  ResolvedQuery resolved = ResolveQuery(q, g);
  BindingTable t = BgpMatcher::EvaluateAll(store, resolved);
  t.Deduplicate();
  return t;
}

TEST(BgpMatcherTest, SinglePatternAllVariables) {
  rdf::RdfGraph g = MovieGraph();
  BindingTable t = Eval(g, "SELECT * WHERE { ?f " + testutil::T("starring") +
                               " ?a . }");
  EXPECT_EQ(t.num_rows(), 3u);
}

TEST(BgpMatcherTest, ConstantSubject) {
  rdf::RdfGraph g = MovieGraph();
  BindingTable t =
      Eval(g, "SELECT * WHERE { " + testutil::T("film1") + " " +
                  testutil::T("starring") + " ?a . }");
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(BgpMatcherTest, JoinAcrossPatterns) {
  rdf::RdfGraph g = MovieGraph();
  BindingTable t = Eval(
      g, "SELECT * WHERE { ?f " + testutil::T("starring") + " ?a . ?a " +
             testutil::T("livesIn") + " ?c . }");
  // (film1,actor1,city1), (film1,actor2,city1), (film2,actor2,city1)
  EXPECT_EQ(t.num_rows(), 3u);
}

TEST(BgpMatcherTest, TriangleHomomorphism) {
  rdf::RdfGraph g = MovieGraph();
  BindingTable t = Eval(
      g, "SELECT * WHERE { ?f " + testutil::T("starring") + " ?a . ?f " +
             testutil::T("starring") + " ?b . ?b " + testutil::T("spouse") +
             " ?a . }");
  // film1 stars actor1+actor2, actor2 spouse actor1 -> one match.
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(BgpMatcherTest, VariablePredicate) {
  rdf::RdfGraph g = MovieGraph();
  BindingTable t =
      Eval(g, "SELECT * WHERE { " + testutil::T("actor2") + " ?p ?x . }");
  // actor2: livesIn city1, spouse actor1 -> 2 rows.
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(BgpMatcherTest, RepeatedVariableWithinPattern) {
  rdf::RdfGraph g = testutil::BuildGraph({
      {"a", "p", "a"},
      {"a", "p", "b"},
  });
  BindingTable t =
      Eval(g, "SELECT * WHERE { ?x " + testutil::T("p") + " ?x . }");
  EXPECT_EQ(t.num_rows(), 1u);  // only the self-loop
}

TEST(BgpMatcherTest, UnknownConstantYieldsEmpty) {
  rdf::RdfGraph g = MovieGraph();
  BindingTable t = Eval(g, "SELECT * WHERE { ?x " +
                               testutil::T("nosuchprop") + " ?y . }");
  EXPECT_EQ(t.num_rows(), 0u);
  BindingTable t2 = Eval(g, "SELECT * WHERE { " + testutil::T("ghost") +
                                " " + testutil::T("starring") + " ?y . }");
  EXPECT_EQ(t2.num_rows(), 0u);
}

TEST(BgpMatcherTest, MaxResultsCap) {
  rdf::RdfGraph g = MovieGraph();
  sparql::QueryGraph q = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?f " + testutil::T("starring") + " ?a . }");
  TripleStore store(g.triples());
  ResolvedQuery resolved = ResolveQuery(q, g);
  MatcherOptions options;
  options.max_results = 2;
  BindingTable t = BgpMatcher::EvaluateAll(store, resolved, options);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(BgpMatcherTest, SubsetEvaluation) {
  rdf::RdfGraph g = MovieGraph();
  sparql::QueryGraph q = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?f " + testutil::T("starring") + " ?a . ?a " +
      testutil::T("livesIn") + " ?c . }");
  TripleStore store(g.triples());
  ResolvedQuery resolved = ResolveQuery(q, g);
  std::vector<size_t> second{1};
  BindingTable t = BgpMatcher::Evaluate(store, resolved, second);
  EXPECT_EQ(t.num_rows(), 2u);  // livesIn edges only
  EXPECT_EQ(t.var_ids.size(), 2u);  // ?a, ?c
}

TEST(BgpMatcherTest, AllConstantExistenceCheck) {
  rdf::RdfGraph g = MovieGraph();
  BindingTable present =
      Eval(g, "SELECT * WHERE { " + testutil::T("film2") + " " +
                  testutil::T("sequelOf") + " " + testutil::T("film1") +
                  " . ?f " + testutil::T("starring") + " ?a . }");
  EXPECT_EQ(present.num_rows(), 3u);
  BindingTable absent =
      Eval(g, "SELECT * WHERE { " + testutil::T("film1") + " " +
                  testutil::T("sequelOf") + " " + testutil::T("film2") +
                  " . ?f " + testutil::T("starring") + " ?a . }");
  EXPECT_EQ(absent.num_rows(), 0u);
}

TEST(BindingTableTest, ApplyProjection) {
  BindingTable t;
  t.var_ids = {0, 1, 2};
  t.rows = {{1, 7, 9}, {2, 7, 9}, {1, 7, 8}};
  // Project to (?2, ?0): column reorder + dedup.
  BindingTable p = ApplyProjection(t, {2, 0});
  EXPECT_EQ(p.var_ids, (std::vector<uint32_t>{2, 0}));
  EXPECT_EQ(p.num_rows(), 3u);
  // Project to ?1 alone: all rows collapse to one.
  BindingTable q = ApplyProjection(t, {1});
  EXPECT_EQ(q.num_rows(), 1u);
  EXPECT_EQ(q.rows[0], (std::vector<uint32_t>{7}));
  // Empty projection = SELECT *.
  EXPECT_EQ(ApplyProjection(t, {}).num_rows(), 3u);
  // Unknown var ids are skipped.
  BindingTable r = ApplyProjection(t, {5, 0});
  EXPECT_EQ(r.var_ids, (std::vector<uint32_t>{0}));
}

TEST(BindingTableTest, DeduplicateAndColumnOf) {
  BindingTable t;
  t.var_ids = {3, 5};
  t.rows = {{1, 2}, {1, 2}, {3, 4}};
  t.Deduplicate();
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.ColumnOf(5), 1u);
  EXPECT_EQ(t.ColumnOf(9), SIZE_MAX);
  EXPECT_EQ(t.ByteSize(), 2 * 2 * sizeof(uint32_t));
}

/// `table`'s rows after std::sort + std::unique: the order and content
/// Deduplicate must reproduce.
std::vector<std::vector<uint32_t>> SortUnique(const BindingTable& table) {
  std::vector<std::vector<uint32_t>> rows = table.rows;
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

// Deduplicate radix-sorts large tables and comparison-sorts small ones;
// both must give exactly the rows and order of std::sort + std::unique.
TEST(BindingTableTest, DeduplicateMatchesSortUnique) {
  Rng rng(404);
  for (size_t arity = 0; arity <= 4; ++arity) {
    for (size_t n : {0, 1, 2, 255, 256, 257, 3000, 50000}) {
      // Value ranges: heavy duplicates, a mix, and the full 32 bits.
      for (uint64_t range : {3ULL, 5000ULL, 1ULL << 32}) {
        BindingTable t;
        for (uint32_t v = 0; v < arity; ++v) t.var_ids.push_back(v);
        t.rows.reserve(n);
        for (size_t r = 0; r < n; ++r) {
          if (r > 0 && rng.Chance(0.2)) {  // an exact duplicate
            t.rows.push_back(t.rows[rng.Below(r)]);
            continue;
          }
          std::vector<uint32_t> row(arity);
          for (uint32_t& cell : row) {
            const uint64_t pick = rng.Below(8);
            cell = pick == 0   ? 0
                   : pick == 1 ? UINT32_MAX
                               : static_cast<uint32_t>(rng.Below(range));
          }
          t.rows.push_back(std::move(row));
        }
        const std::vector<std::vector<uint32_t>> expected = SortUnique(t);
        const std::vector<uint32_t> var_ids = t.var_ids;
        t.Deduplicate();
        ASSERT_EQ(t.rows, expected)
            << "arity " << arity << " rows " << n << " range " << range;
        EXPECT_EQ(t.var_ids, var_ids);
      }
    }
  }
}

TEST(BindingTableTest, DeduplicateZeroColumnAndRaggedRows) {
  BindingTable empty_rows;
  empty_rows.rows.assign(1000, std::vector<uint32_t>{});
  empty_rows.Deduplicate();
  EXPECT_EQ(empty_rows.rows, (std::vector<std::vector<uint32_t>>{{}}));

  // Rows of unequal length (no BindingTable builds them) still sort
  // lexicographically.
  Rng rng(405);
  BindingTable ragged;
  for (size_t r = 0; r < 1000; ++r) {
    std::vector<uint32_t> row(rng.Below(3));
    for (uint32_t& cell : row) cell = static_cast<uint32_t>(rng.Below(4));
    ragged.rows.push_back(std::move(row));
  }
  const std::vector<std::vector<uint32_t>> expected = SortUnique(ragged);
  ragged.Deduplicate();
  EXPECT_EQ(ragged.rows, expected);
}

// Rows already strictly ascending (a single-pattern index scan's) are
// left where they are: not one row is moved or reallocated.
TEST(BindingTableTest, DeduplicateLeavesAscendingRowsUntouched) {
  BindingTable t;
  t.var_ids = {0, 1};
  for (uint32_t r = 0; r < 1000; ++r) t.rows.push_back({r / 7, r % 7});
  ASSERT_TRUE(t.StrictlyAscending());
  const std::vector<std::vector<uint32_t>> before = t.rows;
  const std::vector<uint32_t>* table_data = t.rows.data();
  std::vector<const uint32_t*> cells;
  for (const std::vector<uint32_t>& row : t.rows) cells.push_back(row.data());
  t.Deduplicate();
  EXPECT_EQ(t.rows, before);
  EXPECT_EQ(t.rows.data(), table_data);
  for (size_t r = 0; r < t.rows.size(); ++r) {
    ASSERT_EQ(t.rows[r].data(), cells[r]) << r;
  }
}

// One row out of place at the end, or a repeat of the row before it,
// still gets the full sort + unique.
TEST(BindingTableTest, DeduplicateSortsAscendingRowsButTheLast) {
  for (size_t n : {3, 300}) {
    for (const bool repeat : {false, true}) {
      BindingTable t;
      t.var_ids = {0, 1};
      for (uint32_t r = 1; r < n; ++r) t.rows.push_back({r, 2 * r});
      t.rows.push_back(repeat ? t.rows.back()
                              : std::vector<uint32_t>{0, 5});
      EXPECT_FALSE(t.StrictlyAscending());
      const std::vector<std::vector<uint32_t>> expected = SortUnique(t);
      t.Deduplicate();
      EXPECT_EQ(t.rows, expected) << n << " " << repeat;
      EXPECT_TRUE(t.StrictlyAscending());
      EXPECT_EQ(t.num_rows(), repeat ? n - 1 : n);
    }
  }
}

// Rows of unequal width compare lexicographically, a prefix first: an
// ascending mix is kept as is, a shuffled one sorted.
TEST(BindingTableTest, DeduplicateMixedWidthRows) {
  BindingTable t;
  t.rows = {{}, {1}, {1, 0}, {1, 2, 3}, {2}, {2, 0, 0}, {3, 1}};
  ASSERT_TRUE(t.StrictlyAscending());
  const std::vector<std::vector<uint32_t>> sorted = t.rows;
  t.Deduplicate();
  EXPECT_EQ(t.rows, sorted);
  t.rows = {{2}, {1, 2, 3}, {}, {3, 1}, {1}, {2, 0, 0}, {1, 0}, {2}, {}};
  EXPECT_FALSE(t.StrictlyAscending());
  t.Deduplicate();
  EXPECT_EQ(t.rows, sorted);
}

// Property-style: distributed-agnostic sanity — matcher agrees with a
// brute-force nested-loop evaluation on random graphs and 2-pattern
// queries.
TEST(BgpMatcherTest, AgreesWithBruteForceOnRandomGraphs) {
  Rng rng(77);
  for (int round = 0; round < 20; ++round) {
    rdf::RdfGraph g = testutil::RandomGraph(rng, 20, 60, 3);
    // Query: ?x p0 ?y . ?y p1 ?z
    BindingTable t = Eval(
        g, "SELECT * WHERE { ?x <t:p0> ?y . ?y <t:p1> ?z . }");
    size_t expected = 0;
    std::set<std::vector<uint32_t>> expected_rows;
    rdf::PropertyId p0 = g.property_dict().Lookup("<t:p0>");
    rdf::PropertyId p1 = g.property_dict().Lookup("<t:p1>");
    if (p0 != rdf::kInvalidVertex && p1 != rdf::kInvalidVertex) {
      for (const Triple& a : g.EdgesWithProperty(p0)) {
        for (const Triple& b : g.EdgesWithProperty(p1)) {
          if (a.object == b.subject) {
            expected_rows.insert({a.subject, a.object, b.object});
          }
        }
      }
      expected = expected_rows.size();
    }
    EXPECT_EQ(t.num_rows(), expected) << "round " << round;
  }
}

}  // namespace
}  // namespace mpc::store
