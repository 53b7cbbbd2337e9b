#ifndef MPC_TESTS_TEST_UTIL_H_
#define MPC_TESTS_TEST_UTIL_H_

#include <array>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "common/random.h"
#include "rdf/graph.h"
#include "rdf/ntriples.h"
#include "sparql/parser.h"
#include "store/bgp_matcher.h"
#include "store/triple_store.h"

namespace mpc::testutil {

/// Builds a graph from "s p o" triples of bare tokens; tokens are wrapped
/// as IRIs "<t:TOKEN>" (or kept as-is when they already look like a term).
inline rdf::RdfGraph BuildGraph(
    const std::vector<std::array<std::string, 3>>& triples) {
  rdf::GraphBuilder builder;
  auto wrap = [](const std::string& t) {
    if (!t.empty() && (t[0] == '<' || t[0] == '"' || t[0] == '_')) return t;
    return "<t:" + t + ">";
  };
  for (const auto& [s, p, o] : triples) {
    builder.Add(wrap(s), wrap(p), wrap(o));
  }
  return builder.Build();
}

/// Builder-state equality before Build(): ids in first-seen order and the
/// triples in the order they were added, duplicates included.
inline void ExpectSameBuilder(const rdf::GraphBuilder& a,
                              const rdf::GraphBuilder& b,
                              const std::string& label) {
  EXPECT_EQ(a.triples(), b.triples()) << label;
  ASSERT_EQ(a.vertex_dict().size(), b.vertex_dict().size()) << label;
  ASSERT_EQ(a.property_dict().size(), b.property_dict().size()) << label;
  for (uint32_t v = 0; v < a.vertex_dict().size(); ++v) {
    ASSERT_EQ(a.vertex_dict().Lexical(v), b.vertex_dict().Lexical(v))
        << label << " vertex " << v;
  }
  for (uint32_t p = 0; p < a.property_dict().size(); ++p) {
    ASSERT_EQ(a.property_dict().Lexical(p), b.property_dict().Lexical(p))
        << label << " property " << p;
  }
}

/// Parses `text` at 1, 2 and 8 threads; every run must report the serial
/// status and leave the serial builder state.
inline void ExpectParseIdenticalAcrossThreadCounts(const std::string& text,
                                                   const std::string& label) {
  rdf::GraphBuilder serial;
  const Status serial_status =
      rdf::NTriplesParser::ParseDocument(text, &serial, 1);
  for (int threads : {1, 2, 8}) {
    rdf::GraphBuilder builder;
    const Status status =
        rdf::NTriplesParser::ParseDocument(text, &builder, threads);
    const std::string where = label + " threads=" + std::to_string(threads);
    EXPECT_EQ(status.ToString(), serial_status.ToString()) << where;
    ExpectSameBuilder(serial, builder, where);
  }
}

/// Shorthand term for queries built against BuildGraph: "?x" stays a
/// variable, anything else becomes "<t:...>".
inline std::string T(const std::string& t) {
  if (!t.empty() && (t[0] == '?' || t[0] == '<' || t[0] == '"')) return t;
  return "<t:" + t + ">";
}

/// Parses a query or aborts the test.
inline sparql::QueryGraph ParseQueryOrDie(const std::string& text) {
  Result<sparql::QueryGraph> q = sparql::SparqlParser::Parse(text);
  if (!q.ok()) {
    ADD_FAILURE() << "query parse failed: " << q.status().ToString()
                  << " for: " << text;
    return sparql::QueryGraph{};
  }
  return std::move(q).value();
}

/// Ground truth: evaluates the query on a single store holding the whole
/// graph (the k=1 baseline every distributed run must reproduce).
inline store::BindingTable GroundTruth(const rdf::RdfGraph& graph,
                                       const sparql::QueryGraph& query) {
  store::TripleStore single(graph.triples());
  store::ResolvedQuery resolved = store::ResolveQuery(query, graph);
  store::BindingTable table = store::BgpMatcher::EvaluateAll(single, resolved);
  table.Deduplicate();
  return table;
}

/// Rows as a canonical set for order-independent comparison.
inline std::set<std::vector<uint32_t>> RowSet(
    const store::BindingTable& table) {
  return std::set<std::vector<uint32_t>>(table.rows.begin(),
                                         table.rows.end());
}

/// Random multi-property graph for property-based tests: `n` vertices,
/// `m` edges, `num_props` properties, optional community structure
/// (edges stay within communities of size `community` except with
/// probability `escape`).
inline rdf::RdfGraph RandomGraph(Rng& rng, size_t n, size_t m,
                                 size_t num_props, size_t community = 0,
                                 double escape = 0.1) {
  rdf::GraphBuilder builder;
  auto vertex = [&](uint64_t v) {
    return "<t:v" + std::to_string(v) + ">";
  };
  for (size_t i = 0; i < m; ++i) {
    uint64_t u = rng.Below(n);
    uint64_t v;
    if (community > 0 && !rng.Chance(escape)) {
      uint64_t base = (u / community) * community;
      v = base + rng.Below(std::min<uint64_t>(community, n - base));
    } else {
      v = rng.Below(n);
    }
    builder.Add(vertex(u),
                "<t:p" + std::to_string(rng.Below(num_props)) + ">",
                vertex(v));
  }
  return builder.Build();
}

}  // namespace mpc::testutil

#endif  // MPC_TESTS_TEST_UTIL_H_
