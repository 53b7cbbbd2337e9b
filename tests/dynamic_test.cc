#include "dynamic/incremental_maintainer.h"

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "dynamic/update_journal.h"
#include "dynamic/update_log.h"
#include "gtest/gtest.h"
#include "serve/serving_state.h"
#include "test_util.h"

namespace mpc::dynamic {
namespace {

using rdf::RdfGraph;
using rdf::Triple;
using store::BindingTable;
using testutil::T;

TripleUpdate Ins(const std::string& s, const std::string& p,
                 const std::string& o) {
  return TripleUpdate{UpdateKind::kInsert, T(s), T(p), T(o)};
}

TripleUpdate Del(const std::string& s, const std::string& p,
                 const std::string& o) {
  return TripleUpdate{UpdateKind::kDelete, T(s), T(p), T(o)};
}

UpdateBatch Batch(std::vector<TripleUpdate> updates) {
  UpdateBatch b;
  b.updates = std::move(updates);
  return b;
}

/// Vertex-disjoint partitioning assigning each vertex by a name-keyed
/// site map (vertices not listed go to site 0).
partition::Partitioning MakeByName(
    const RdfGraph& graph, uint32_t k,
    const std::map<std::string, uint32_t>& sites) {
  partition::VertexAssignment assignment;
  assignment.k = k;
  assignment.part.assign(graph.num_vertices(), 0);
  for (const auto& [name, site] : sites) {
    rdf::VertexId v = graph.vertex_dict().Lookup(T(name));
    EXPECT_NE(v, rdf::kInvalidVertex) << name;
    if (v != rdf::kInvalidVertex) assignment.part[v] = site;
  }
  return partition::Partitioning::MaterializeVertexDisjoint(
      graph, std::move(assignment));
}

/// Rows as lexical forms, for comparing results across graphs whose
/// dense ids differ.
std::set<std::vector<std::string>> LexRows(const BindingTable& table,
                                           const RdfGraph& graph) {
  std::set<std::vector<std::string>> rows;
  for (const auto& row : table.rows) {
    std::vector<std::string> lex;
    lex.reserve(row.size());
    for (uint32_t id : row) {
      lex.emplace_back(graph.VertexName(id));
    }
    rows.insert(std::move(lex));
  }
  return rows;
}

// ---------------------------------------------------------------- UpdateLog

TEST(UpdateLogTest, ParsesBatchesAndRoundTrips) {
  const std::string text =
      "+ <t:a> <t:p> <t:b> .\n"
      "- <t:b> <t:p> <t:c>\n"
      "\n"
      "# comment separates batches too\n"
      "+ <t:a> <t:q> \"lit\"@en .\n"
      "+ _:blank <t:q> \"x\\\"y\"^^<t:string> .\n";
  Result<std::vector<UpdateBatch>> batches = UpdateLog::ParseDocument(text);
  ASSERT_TRUE(batches.ok()) << batches.status().ToString();
  ASSERT_EQ(batches->size(), 2u);
  EXPECT_EQ((*batches)[0].size(), 2u);
  EXPECT_EQ((*batches)[1].size(), 2u);
  EXPECT_EQ((*batches)[0].updates[0].kind, UpdateKind::kInsert);
  EXPECT_EQ((*batches)[0].updates[1].kind, UpdateKind::kDelete);
  EXPECT_EQ((*batches)[1].updates[0].object, "\"lit\"@en");
  EXPECT_EQ((*batches)[1].updates[1].subject, "_:blank");
  EXPECT_EQ((*batches)[1].updates[1].object, "\"x\\\"y\"^^<t:string>");

  // Round trip.
  Result<std::vector<UpdateBatch>> again =
      UpdateLog::ParseDocument(UpdateLog::Serialize(*batches));
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again->size(), batches->size());
  for (size_t b = 0; b < batches->size(); ++b) {
    ASSERT_EQ((*again)[b].size(), (*batches)[b].size());
    for (size_t i = 0; i < (*batches)[b].size(); ++i) {
      EXPECT_EQ((*again)[b].updates[i].kind, (*batches)[b].updates[i].kind);
      EXPECT_EQ((*again)[b].updates[i].subject,
                (*batches)[b].updates[i].subject);
      EXPECT_EQ((*again)[b].updates[i].property,
                (*batches)[b].updates[i].property);
      EXPECT_EQ((*again)[b].updates[i].object,
                (*batches)[b].updates[i].object);
    }
  }
}

TEST(UpdateLogTest, ParsesCrlfAndBareCrLineEndings) {
  // The same log with Unix, Windows and classic-Mac line endings must
  // parse identically (update logs routinely cross platforms).
  const std::string lf =
      "+ <t:a> <t:p> <t:b> .\n"
      "\n"
      "- <t:b> <t:p> <t:c> .\n"
      "+ <t:a> <t:q> \"lit\"@en .\n";
  const std::string crlf =
      "+ <t:a> <t:p> <t:b> .\r\n"
      "\r\n"
      "- <t:b> <t:p> <t:c> .\r\n"
      "+ <t:a> <t:q> \"lit\"@en .\r\n";
  const std::string cr =
      "+ <t:a> <t:p> <t:b> .\r"
      "\r"
      "- <t:b> <t:p> <t:c> .\r"
      "+ <t:a> <t:q> \"lit\"@en .\r";
  Result<std::vector<UpdateBatch>> from_lf = UpdateLog::ParseDocument(lf);
  ASSERT_TRUE(from_lf.ok()) << from_lf.status().ToString();
  for (const std::string* text : {&crlf, &cr}) {
    Result<std::vector<UpdateBatch>> got = UpdateLog::ParseDocument(*text);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->size(), from_lf->size());
    for (size_t b = 0; b < got->size(); ++b) {
      ASSERT_EQ((*got)[b].size(), (*from_lf)[b].size());
      for (size_t i = 0; i < (*got)[b].size(); ++i) {
        EXPECT_EQ((*got)[b].updates[i].kind, (*from_lf)[b].updates[i].kind);
        EXPECT_EQ((*got)[b].updates[i].subject,
                  (*from_lf)[b].updates[i].subject);
        EXPECT_EQ((*got)[b].updates[i].property,
                  (*from_lf)[b].updates[i].property);
        EXPECT_EQ((*got)[b].updates[i].object,
                  (*from_lf)[b].updates[i].object);
      }
    }
  }
  // Serialize() always emits LF, so a CRLF log round-trips to the LF
  // parse.
  Result<std::vector<UpdateBatch>> again =
      UpdateLog::ParseDocument(UpdateLog::Serialize(
          *UpdateLog::ParseDocument(crlf)));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->size(), from_lf->size());
}

TEST(UpdateLogTest, RejectsMissingSignWithLineNumber) {
  Result<std::vector<UpdateBatch>> r =
      UpdateLog::ParseDocument("+ <t:a> <t:p> <t:b> .\n<t:a> <t:p> <t:b> .\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos);
  EXPECT_NE(r.status().message().find("'+' or '-'"), std::string::npos);
}

TEST(UpdateLogTest, RejectsMalformedTriple) {
  Result<std::vector<UpdateBatch>> r =
      UpdateLog::ParseDocument("+ <t:a> <t:p>\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("malformed triple"),
            std::string::npos);
}

TEST(UpdateLogTest, RejectsTrailingGarbage) {
  Result<std::vector<UpdateBatch>> r =
      UpdateLog::ParseDocument("+ <t:a> <t:p> <t:b> . extra\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("trailing garbage"),
            std::string::npos);
}

// ------------------------------------------------------------ DriftTracker

TEST(RepartitionPolicyTest, LcrossBoundTakesMaxOfRelativeAndSlack) {
  RepartitionPolicy policy;
  policy.max_lcross_growth = 0.5;
  policy.min_lcross_slack = 4;
  EXPECT_EQ(policy.LcrossBound(2), 6u);    // slack dominates tiny seeds
  EXPECT_EQ(policy.LcrossBound(100), 150u);  // relative dominates
}

TEST(RepartitionPolicyTest, ThresholdFiresOnLcrossAndTombstones) {
  RepartitionPolicy policy;
  policy.max_lcross_growth = 0.5;
  policy.min_lcross_slack = 2;
  DriftMetrics m;
  m.seed_crossing_properties = 4;
  m.crossing_properties = 6;
  EXPECT_TRUE(policy.Evaluate(m).empty());  // at the bound: keep
  m.crossing_properties = 7;
  EXPECT_NE(policy.Evaluate(m).find("L_cross"), std::string::npos);
  m.crossing_properties = 4;
  m.tombstone_ratio = 0.3;
  EXPECT_NE(policy.Evaluate(m).find("tombstone"), std::string::npos);
}

TEST(RepartitionPolicyTest, NeverAndPeriodicKinds) {
  DriftMetrics m;
  m.crossing_properties = 1000;
  m.tombstone_ratio = 0.9;
  RepartitionPolicy never;
  never.kind = RepartitionPolicy::Kind::kNever;
  EXPECT_TRUE(never.Evaluate(m).empty());

  RepartitionPolicy periodic;
  periodic.kind = RepartitionPolicy::Kind::kPeriodic;
  periodic.period_batches = 3;
  m.batches_applied = 2;
  EXPECT_TRUE(periodic.Evaluate(m).empty());
  m.batches_applied = 3;
  EXPECT_FALSE(periodic.Evaluate(m).empty());
  m.batches_applied = 6;
  EXPECT_FALSE(periodic.Evaluate(m).empty());
}

// ---------------------------------------------------- IncrementalMaintainer

/// Two triangles on sites 0/1 joined by nothing; p is internal, q only at
/// site 0.
RdfGraph TwoIslandGraph() {
  return testutil::BuildGraph({{"a1", "p", "a2"},
                               {"a2", "p", "a3"},
                               {"a3", "p", "a1"},
                               {"b1", "p", "b2"},
                               {"b2", "p", "b3"},
                               {"b3", "p", "b1"},
                               {"a1", "q", "a2"}});
}

std::map<std::string, uint32_t> IslandSites() {
  return {{"a1", 0}, {"a2", 0}, {"a3", 0},
          {"b1", 1}, {"b2", 1}, {"b3", 1}};
}

MaintainerOptions NoRepartition() {
  MaintainerOptions options;
  options.policy.kind = RepartitionPolicy::Kind::kNever;
  return options;
}

/// Runs a text query on a snapshot of the maintainer's current state,
/// keeping just the bindings (these tests assert result sets, not stats).
Result<BindingTable> RunText(IncrementalMaintainer& m,
                             const std::string& text) {
  Result<exec::QueryResponse> response =
      serve::ServingState::Capture(m)->distributed().Execute(
          exec::QueryRequest::FromText(text));
  if (!response.ok()) return response.status();
  return std::move(response->bindings);
}

TEST(IncrementalMaintainerTest, InternalInsertKeepsLcrossEmpty) {
  RdfGraph graph = TwoIslandGraph();
  IncrementalMaintainer m(graph.Clone(), MakeByName(graph, 2, IslandSites()),
                          NoRepartition());
  EXPECT_EQ(m.partitioning().num_crossing_properties(), 0u);
  ASSERT_EQ(m.num_live_triples(), 7u);

  ApplyResult r = m.ApplyBatch(Batch({Ins("a1", "p", "a3")}));
  EXPECT_EQ(r.inserts, 1u);
  EXPECT_EQ(m.num_live_triples(), 8u);
  EXPECT_EQ(m.partitioning().num_crossing_properties(), 0u);
  EXPECT_EQ(m.partitioning().num_crossing_edges(), 0u);
  EXPECT_EQ(r.drift.tombstone_ratio, 0.0);
  EXPECT_EQ(r.drift.replication_ratio, 1.0);
}

TEST(IncrementalMaintainerTest, CrossingInsertPromotesProperty) {
  RdfGraph graph = TwoIslandGraph();
  IncrementalMaintainer m(graph.Clone(), MakeByName(graph, 2, IslandSites()),
                          NoRepartition());
  ApplyResult r = m.ApplyBatch(Batch({Ins("a1", "p", "b1")}));
  EXPECT_EQ(r.inserts, 1u);
  EXPECT_EQ(m.partitioning().num_crossing_edges(), 1u);
  EXPECT_EQ(m.partitioning().num_crossing_properties(), 1u);
  rdf::PropertyId p = m.graph().property_dict().Lookup(T("p"));
  EXPECT_TRUE(m.partitioning().IsCrossingProperty(p));
  // The replica is stored at both sites and extends V_i^e.
  EXPECT_EQ(m.partitioning().partition(0).crossing_edges.size(), 1u);
  EXPECT_EQ(m.partitioning().partition(1).crossing_edges.size(), 1u);
  EXPECT_GT(r.drift.replication_ratio, 1.0);
}

TEST(IncrementalMaintainerTest, DeletingLastCrossingEdgeRetiresProperty) {
  RdfGraph graph = TwoIslandGraph();
  IncrementalMaintainer m(graph.Clone(), MakeByName(graph, 2, IslandSites()),
                          NoRepartition());
  m.ApplyBatch(Batch({Ins("a1", "p", "b1")}));
  ASSERT_EQ(m.partitioning().num_crossing_properties(), 1u);

  ApplyResult r = m.ApplyBatch(Batch({Del("a1", "p", "b1")}));
  EXPECT_EQ(r.deletes, 1u);
  EXPECT_EQ(m.partitioning().num_crossing_properties(), 0u);
  EXPECT_EQ(m.partitioning().num_crossing_edges(), 0u);
  rdf::PropertyId p = m.graph().property_dict().Lookup(T("p"));
  EXPECT_FALSE(m.partitioning().IsCrossingProperty(p));
  EXPECT_EQ(m.num_live_triples(), 7u);
  EXPECT_GT(r.drift.tombstone_ratio, 0.0);  // replicas linger as garbage
}

TEST(IncrementalMaintainerTest, SetSemanticsNoops) {
  RdfGraph graph = TwoIslandGraph();
  IncrementalMaintainer m(graph.Clone(), MakeByName(graph, 2, IslandSites()),
                          NoRepartition());
  ApplyResult r = m.ApplyBatch(Batch({
      Ins("a1", "p", "a2"),       // already present
      Del("a1", "p", "a3"),       // never present
      Del("zz", "p", "a1"),       // unknown term
      Del("a1", "zz_prop", "a2"),  // unknown property
  }));
  EXPECT_EQ(r.inserts, 0u);
  EXPECT_EQ(r.deletes, 0u);
  EXPECT_EQ(r.noops, 4u);
  EXPECT_EQ(m.num_live_triples(), 7u);
}

TEST(IncrementalMaintainerTest, ResurrectionRestoresWithoutDuplicates) {
  RdfGraph graph = TwoIslandGraph();
  IncrementalMaintainer m(graph.Clone(), MakeByName(graph, 2, IslandSites()),
                          NoRepartition());
  Triple t(m.graph().vertex_dict().Lookup(T("a1")),
           m.graph().property_dict().Lookup(T("p")),
           m.graph().vertex_dict().Lookup(T("a2")));
  m.ApplyBatch(Batch({Del("a1", "p", "a2")}));
  EXPECT_FALSE(m.IsLive(t));
  EXPECT_EQ(m.num_live_triples(), 6u);

  ApplyResult r = m.ApplyBatch(Batch({Ins("a1", "p", "a2")}));
  EXPECT_EQ(r.inserts, 1u);
  EXPECT_TRUE(m.IsLive(t));
  EXPECT_EQ(m.num_live_triples(), 7u);
  EXPECT_EQ(r.drift.tombstone_ratio, 0.0);  // the slot was reclaimed

  // The compacted view holds the triple exactly once.
  partition::Partitioning compact = m.CompactPartitioning();
  size_t copies = 0;
  for (uint32_t i = 0; i < compact.k(); ++i) {
    for (const Triple& e : compact.partition(i).internal_edges) {
      if (e == t) ++copies;
    }
  }
  EXPECT_EQ(copies, 1u);
}

TEST(IncrementalMaintainerTest, NewVertexCoLocatesOnInternalProperty) {
  RdfGraph graph = TwoIslandGraph();
  IncrementalMaintainer m(graph.Clone(), MakeByName(graph, 2, IslandSites()),
                          NoRepartition());
  // "p" is internal; a new subject attached to b1 must land at b1's site
  // so the edge stays internal and |L_cross| stays 0.
  ApplyResult r = m.ApplyBatch(Batch({Ins("newv", "p", "b1")}));
  EXPECT_EQ(r.inserts, 1u);
  rdf::VertexId nv = m.graph().vertex_dict().Lookup(T("newv"));
  ASSERT_NE(nv, rdf::kInvalidVertex);
  rdf::VertexId b1 = m.graph().vertex_dict().Lookup(T("b1"));
  EXPECT_EQ(m.partitioning().assignment().part[nv],
            m.partitioning().assignment().part[b1]);
  EXPECT_EQ(m.partitioning().num_crossing_properties(), 0u);
}

TEST(IncrementalMaintainerTest, NewPropertyStartsInternal) {
  RdfGraph graph = TwoIslandGraph();
  IncrementalMaintainer m(graph.Clone(), MakeByName(graph, 2, IslandSites()),
                          NoRepartition());
  ApplyResult r = m.ApplyBatch(Batch({Ins("a1", "brand_new", "a2")}));
  EXPECT_EQ(r.inserts, 1u);
  rdf::PropertyId p = m.graph().property_dict().Lookup(T("brand_new"));
  ASSERT_NE(p, rdf::kInvalidProperty);
  EXPECT_FALSE(m.partitioning().IsCrossingProperty(p));
  EXPECT_EQ(m.partitioning().num_crossing_properties(), 0u);
}

TEST(IncrementalMaintainerTest, CompactViewAgreesWithMaintainedCounters) {
  Rng rng(31);
  RdfGraph graph = testutil::RandomGraph(rng, 40, 140, 4, 10);
  core::MpcOptions mpc;
  mpc.base.k = 3;
  mpc.base.epsilon = 0.3;
  IncrementalMaintainer m(graph.Clone(),
                          core::MpcPartitioner(mpc).Partition(graph),
                          NoRepartition());

  // A mixed stream: inserts between random existing vertices plus
  // deletes of random seed triples.
  std::vector<TripleUpdate> updates;
  for (int i = 0; i < 30; ++i) {
    const std::string s = "v" + std::to_string(rng.Below(40));
    const std::string o = "v" + std::to_string(rng.Below(40));
    const std::string p = "p" + std::to_string(rng.Below(4));
    updates.push_back(Ins(s, p, o));
  }
  for (int i = 0; i < 20; ++i) {
    const Triple& t = graph.triples()[rng.Below(graph.num_edges())];
    updates.push_back(TripleUpdate{UpdateKind::kDelete,
                                   std::string(graph.VertexName(t.subject)),
                                   std::string(graph.PropertyName(t.property)),
                                   std::string(graph.VertexName(t.object))});
  }
  m.ApplyBatch(Batch(std::move(updates)));

  partition::Partitioning compact = m.CompactPartitioning();
  EXPECT_EQ(compact.num_crossing_edges(),
            m.partitioning().num_crossing_edges());
  EXPECT_EQ(compact.num_crossing_properties(),
            m.partitioning().num_crossing_properties());
  EXPECT_EQ(compact.crossing_property_mask(),
            m.partitioning().crossing_property_mask());
  size_t live = 0;
  for (uint32_t i = 0; i < compact.k(); ++i) {
    live += compact.partition(i).internal_edges.size();
  }
  EXPECT_EQ(live + compact.num_crossing_edges(), m.num_live_triples());
}

TEST(IncrementalMaintainerTest, QueriesSeeUpdatesMidStream) {
  RdfGraph graph = TwoIslandGraph();
  IncrementalMaintainer m(graph.Clone(), MakeByName(graph, 2, IslandSites()),
                          NoRepartition());

  const std::string query = "SELECT * WHERE { ?x " + T("p") + " ?y . }";
  Result<BindingTable> before = RunText(m, query);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(before->num_rows(), 6u);

  // Insert a crossing p-edge and delete an internal one; the result set
  // must reflect both immediately.
  m.ApplyBatch(Batch({Ins("a1", "p", "b1"), Del("b2", "p", "b3")}));
  Result<BindingTable> after = RunText(m, query);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  std::set<std::vector<std::string>> rows = LexRows(*after, m.graph());
  EXPECT_EQ(rows.size(), 6u);
  EXPECT_TRUE(rows.count({T("a1"), T("b1")}));
  EXPECT_FALSE(rows.count({T("b2"), T("b3")}));
}

TEST(IncrementalMaintainerTest, RepartitionNowResetsDrift) {
  RdfGraph graph = TwoIslandGraph();
  IncrementalMaintainer m(graph.Clone(), MakeByName(graph, 2, IslandSites()),
                          NoRepartition());
  m.ApplyBatch(Batch({Ins("a1", "p", "b1"), Del("a2", "p", "a3"),
                      Del("b1", "p", "b2")}));
  ASSERT_GT(m.drift().tombstone_ratio, 0.0);

  m.RepartitionNow();
  EXPECT_EQ(m.repartition_count(), 1u);
  DriftMetrics d = m.drift();
  EXPECT_EQ(d.tombstone_ratio, 0.0);
  EXPECT_EQ(d.live_triples, m.num_live_triples());
  EXPECT_EQ(d.seed_crossing_properties, d.crossing_properties);
  EXPECT_EQ(d.repartitions, 1u);

  // Queries still answer correctly on the new state.
  Result<BindingTable> r =
      RunText(m, "SELECT * WHERE { ?x " + T("p") + " ?y . }");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 5u);  // 7 p-edges + 1 insert - 2 deletes
}

TEST(IncrementalMaintainerTest, ThresholdPolicyTriggersRepartition) {
  RdfGraph graph = TwoIslandGraph();
  MaintainerOptions options;
  options.policy.kind = RepartitionPolicy::Kind::kThreshold;
  options.policy.max_lcross_growth = 0.0;
  options.policy.min_lcross_slack = 1;  // bound = seed + 1
  IncrementalMaintainer m(graph.Clone(), MakeByName(graph, 2, IslandSites()),
                          options);
  ASSERT_EQ(m.drift().seed_crossing_properties, 0u);

  // Two crossing properties exceed the bound of 1.
  ApplyResult r = m.ApplyBatch(
      Batch({Ins("a1", "p", "b1"), Ins("a2", "q", "b2")}));
  EXPECT_TRUE(r.repartition_triggered) << r.trigger_reason;
  EXPECT_TRUE(r.repartitioned);
  EXPECT_EQ(m.repartition_count(), 1u);
  // Post-swap drift is re-seeded: current |L_cross| is the new baseline.
  EXPECT_EQ(r.drift.seed_crossing_properties, r.drift.crossing_properties);
  EXPECT_EQ(r.drift.tombstone_ratio, 0.0);
  EXPECT_EQ(m.num_live_triples(), 9u);
}

TEST(IncrementalMaintainerTest, PeriodicPolicyTriggersOnSchedule) {
  RdfGraph graph = TwoIslandGraph();
  MaintainerOptions options;
  options.policy.kind = RepartitionPolicy::Kind::kPeriodic;
  options.policy.period_batches = 2;
  IncrementalMaintainer m(graph.Clone(), MakeByName(graph, 2, IslandSites()),
                          options);
  EXPECT_FALSE(
      m.ApplyBatch(Batch({Ins("a1", "p", "a3")})).repartition_triggered);
  EXPECT_TRUE(
      m.ApplyBatch(Batch({Ins("a2", "p", "a1")})).repartition_triggered);
  EXPECT_EQ(m.repartition_count(), 1u);
}

TEST(IncrementalMaintainerTest, RepartitionReanchorsWeightedDriftBaseline) {
  RdfGraph graph = TwoIslandGraph();
  MaintainerOptions options;
  options.policy.kind = RepartitionPolicy::Kind::kThreshold;
  options.policy.max_lcross_growth = 0.0;
  options.policy.min_lcross_slack = 1;  // bound = seed + 1
  // Non-uniform weights: p (id 0) is hot. A stale weighted baseline is
  // then loud — post-swap weighted |L_cross| is ~10 against a stale
  // seed-of-0 bound of 1, so every later batch would re-fire.
  options.property_weights = {10.0, 1.0};
  IncrementalMaintainer m(graph.Clone(), MakeByName(graph, 2, IslandSites()),
                          options);
  ASSERT_EQ(m.drift().seed_weighted_crossing_properties, 0.0);

  ApplyResult r = m.ApplyBatch(
      Batch({Ins("a1", "p", "b1"), Ins("a2", "q", "b2")}));
  EXPECT_TRUE(r.repartition_triggered) << r.trigger_reason;
  ASSERT_TRUE(r.repartitioned);
  // Both the integer and the weighted baseline re-anchor at the swap.
  EXPECT_EQ(r.drift.seed_crossing_properties, r.drift.crossing_properties);
  EXPECT_EQ(r.drift.seed_weighted_crossing_properties,
            r.drift.weighted_crossing_properties);
  EXPECT_EQ(r.drift.weighted_lcross_growth, 0.0);

  // A quiet batch (a new vertex, no new crossing property) must not
  // re-trigger; it does when seed_lcross / the weighted seed is stale.
  ApplyResult quiet = m.ApplyBatch(Batch({Ins("a1", "p", "freshv")}));
  EXPECT_FALSE(quiet.repartition_triggered) << quiet.trigger_reason;
  EXPECT_EQ(m.repartition_count(), 1u);
}

TEST(IncrementalMaintainerTest, RepartitionRemapsWeightsWhenPropertyIdsShift) {
  // Properties: p = 0, q = 1, r = 2; r is the hot one.
  RdfGraph graph = testutil::BuildGraph({{"a1", "p", "a2"},
                                         {"a2", "p", "a3"},
                                         {"b1", "p", "b2"},
                                         {"a1", "q", "a2"},
                                         {"b1", "r", "b2"}});
  MaintainerOptions options = NoRepartition();
  options.property_weights = {1.0, 1.0, 10.0};
  IncrementalMaintainer m(
      graph.Clone(),
      MakeByName(graph, 2,
                 {{"a1", 0}, {"a2", 0}, {"a3", 0}, {"b1", 1}, {"b2", 1}}),
      options);

  // q's only edge dies; the repartition re-interns the live terms and q
  // drops out of the dense id space, shifting r from id 2 to id 1.
  m.ApplyBatch(Batch({Del("a1", "q", "a2")}));
  m.RepartitionNow();
  rdf::PropertyId r = m.graph().property_dict().Lookup(T("r"));
  ASSERT_NE(r, rdf::kInvalidProperty);
  ASSERT_LT(r, 2u);  // ids actually shifted — the regression precondition

  // Force r across the cut between two existing vertices on different
  // sites of the fresh assignment.
  const std::vector<uint32_t>& part = m.partitioning().assignment().part;
  std::string u, w;
  for (rdf::VertexId v = 1; v < m.graph().num_vertices(); ++v) {
    if (part[v] != part[0]) {
      u = std::string(m.graph().VertexName(0));
      w = std::string(m.graph().VertexName(v));
      break;
    }
  }
  ASSERT_FALSE(w.empty());
  UpdateBatch cross;
  cross.updates.push_back(
      TripleUpdate{UpdateKind::kInsert, u, std::string(T("r")), w});
  ApplyResult res = m.ApplyBatch(cross);

  // The weighted signal must charge each crossing property under its
  // name's weight (r = 10), not whatever property now sits at its old
  // id.
  double expected = 0.0;
  for (rdf::PropertyId p = 0; p < m.graph().num_properties(); ++p) {
    if (m.partitioning().IsCrossingProperty(p)) {
      expected += m.graph().PropertyName(p) == T("r") ? 10.0 : 1.0;
    }
  }
  EXPECT_TRUE(m.partitioning().IsCrossingProperty(r));
  EXPECT_DOUBLE_EQ(res.drift.weighted_crossing_properties, expected);
  EXPECT_GE(res.drift.weighted_crossing_properties, 10.0);
}

TEST(IncrementalMaintainerTest, DictionaryGrowthKeepsGraphAccessorsValid) {
  RdfGraph graph = TwoIslandGraph();
  IncrementalMaintainer m(graph.Clone(), MakeByName(graph, 2, IslandSites()),
                          NoRepartition());
  const size_t before_props = m.graph().num_properties();
  m.ApplyBatch(Batch({Ins("x1", "r1", "x2"), Ins("x2", "r2", "x3")}));
  EXPECT_EQ(m.graph().num_properties(), before_props + 2);
  // Grown properties expose empty edge runs in the snapshot arrays.
  for (rdf::PropertyId p = before_props; p < m.graph().num_properties();
       ++p) {
    EXPECT_EQ(m.graph().EdgesWithProperty(p).size(), 0u);
    EXPECT_EQ(m.graph().PropertyFrequency(p), 0u);
  }
  // But the triples are live and queryable.
  Result<BindingTable> r =
      RunText(m, "SELECT * WHERE { ?x " + T("r1") + " ?y . }");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 1u);
}

// ------------------------------------------------------------ UpdateJournal

std::string TempDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

void ExpectSameBatch(const UpdateBatch& a, const UpdateBatch& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.updates[i].kind, b.updates[i].kind);
    EXPECT_EQ(a.updates[i].subject, b.updates[i].subject);
    EXPECT_EQ(a.updates[i].property, b.updates[i].property);
    EXPECT_EQ(a.updates[i].object, b.updates[i].object);
  }
}

TEST(UpdateJournalTest, AppendReplayRoundTrip) {
  const std::string dir = TempDir("mpc_journal_rt");
  const uint64_t fp = 0xabcdef12u;
  UpdateBatch b1 = Batch({Ins("a", "p", "b"), Del("b", "p", "c")});
  UpdateBatch b2 = Batch({Ins("x", "q", "y")});
  {
    Result<UpdateJournal> journal = UpdateJournal::Open(dir, fp);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    ASSERT_TRUE(journal->Append(1, b1).ok());
    ASSERT_TRUE(journal->Append(2, b2).ok());
  }
  Result<std::vector<UpdateJournal::Entry>> entries =
      UpdateJournal::Replay(dir, fp, 0);
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  ASSERT_EQ(entries->size(), 2u);
  EXPECT_EQ((*entries)[0].seq, 1u);
  EXPECT_EQ((*entries)[1].seq, 2u);
  ExpectSameBatch((*entries)[0].batch, b1);
  ExpectSameBatch((*entries)[1].batch, b2);

  // after_seq filters already-applied frames.
  Result<std::vector<UpdateJournal::Entry>> tail =
      UpdateJournal::Replay(dir, fp, 1);
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail->size(), 1u);
  EXPECT_EQ((*tail)[0].seq, 2u);

  // Reopening appends after the existing frames.
  Result<UpdateJournal> again = UpdateJournal::Open(dir, fp);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ASSERT_TRUE(again->Append(3, Batch({Del("a", "p", "b")})).ok());
  entries = UpdateJournal::Replay(dir, fp, 0);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 3u);
}

TEST(UpdateJournalTest, MissingJournalReplaysEmpty) {
  Result<std::vector<UpdateJournal::Entry>> entries =
      UpdateJournal::Replay(TempDir("mpc_journal_none"), 1, 0);
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  EXPECT_TRUE(entries->empty());
}

TEST(UpdateJournalTest, TornTailDroppedAndHealedOnReopen) {
  const std::string dir = TempDir("mpc_journal_torn");
  const uint64_t fp = 7;
  {
    Result<UpdateJournal> journal = UpdateJournal::Open(dir, fp);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->Append(1, Batch({Ins("a", "p", "b")})).ok());
    ASSERT_TRUE(journal->Append(2, Batch({Ins("b", "p", "c")})).ok());
  }
  // Tear the second frame, as a crash mid-append would.
  const std::string path = UpdateJournal::JournalPath(dir);
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size - 5);

  Result<std::vector<UpdateJournal::Entry>> entries =
      UpdateJournal::Replay(dir, fp, 0);
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ((*entries)[0].seq, 1u);

  // Open() truncates the torn tail before appending, so the next frame
  // lands after frame 1, not after garbage.
  Result<UpdateJournal> journal = UpdateJournal::Open(dir, fp);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  ASSERT_TRUE(journal->Append(2, Batch({Ins("c", "p", "d")})).ok());
  entries = UpdateJournal::Replay(dir, fp, 0);
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  ASSERT_EQ(entries->size(), 2u);
  EXPECT_EQ((*entries)[1].batch.updates[0].subject, T("c"));
}

TEST(UpdateJournalTest, MidFileCorruptionFailsHard) {
  const std::string dir = TempDir("mpc_journal_corrupt");
  const uint64_t fp = 7;
  {
    Result<UpdateJournal> journal = UpdateJournal::Open(dir, fp);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->Append(1, Batch({Ins("aaaa", "p", "bbbb")})).ok());
    ASSERT_TRUE(journal->Append(2, Batch({Ins("c", "p", "d")})).ok());
  }
  // Flip a payload byte of the FIRST frame: the frame is complete (it is
  // followed by another), so this is corruption, not a torn tail.
  const std::string path = UpdateJournal::JournalPath(dir);
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = std::move(buffer).str();
  }
  const size_t at = bytes.find("aaaa");
  ASSERT_NE(at, std::string::npos);
  bytes[at] = 'z';
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  Result<std::vector<UpdateJournal::Entry>> entries =
      UpdateJournal::Replay(dir, fp, 0);
  ASSERT_FALSE(entries.ok());
  EXPECT_NE(entries.status().message().find("checksum"), std::string::npos)
      << entries.status().ToString();
}

TEST(UpdateJournalTest, FingerprintMismatchRejected) {
  const std::string dir = TempDir("mpc_journal_fp");
  {
    Result<UpdateJournal> journal = UpdateJournal::Open(dir, 111);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->Append(1, Batch({Ins("a", "p", "b")})).ok());
  }
  EXPECT_FALSE(UpdateJournal::Replay(dir, 222, 0).ok());
  EXPECT_FALSE(UpdateJournal::Open(dir, 222).ok());
  EXPECT_TRUE(UpdateJournal::Replay(dir, 111, 0).ok());
}

// -------------------------------------------------------------- Checkpoints

TEST(CheckpointTest, StateRoundTripsThroughCheckpoint) {
  RdfGraph graph = TwoIslandGraph();
  IncrementalMaintainer m(graph.Clone(), MakeByName(graph, 2, IslandSites()),
                          NoRepartition());
  // Grow the dictionaries, cross a property, tombstone a triple — every
  // piece of serialized state is non-trivial.
  m.ApplyBatch(Batch({Ins("a1", "p", "b1"), Ins("newv", "r", "a2")}));
  m.ApplyBatch(Batch({Del("a2", "p", "a3"), Ins("a1", "q", "b2")}));

  const MaintainerState state = m.ExportState();
  EXPECT_EQ(state.seq, 2u);
  const std::string dir = TempDir("mpc_ckpt_rt");
  ASSERT_TRUE(CheckpointIo::Write(state, 99, dir).ok());

  Result<MaintainerState> loaded = CheckpointIo::LoadLatest(dir, 99);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(*loaded == state);

  // A maintainer restored from the state is observably identical.
  IncrementalMaintainer r(*loaded, NoRepartition());
  EXPECT_TRUE(r.ExportState() == state);
  EXPECT_EQ(r.num_live_triples(), m.num_live_triples());
  EXPECT_EQ(r.partitioning().assignment().part,
            m.partitioning().assignment().part);
  EXPECT_EQ(r.partitioning().crossing_property_mask(),
            m.partitioning().crossing_property_mask());
  EXPECT_EQ(r.LiveTriples(), m.LiveTriples());

  // And diverges identically under further updates.
  ApplyResult ra = m.ApplyBatch(Batch({Ins("a3", "p", "b3")}));
  ApplyResult rb = r.ApplyBatch(Batch({Ins("a3", "p", "b3")}));
  EXPECT_EQ(ra.inserts, rb.inserts);
  EXPECT_TRUE(m.ExportState() == r.ExportState());
}

TEST(CheckpointTest, WrongFingerprintAndEmptyDir) {
  const std::string dir = TempDir("mpc_ckpt_fp");
  Result<MaintainerState> none = CheckpointIo::LoadLatest(dir, 5);
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kNotFound);

  RdfGraph graph = TwoIslandGraph();
  IncrementalMaintainer m(graph.Clone(), MakeByName(graph, 2, IslandSites()),
                          NoRepartition());
  ASSERT_TRUE(CheckpointIo::Write(m.ExportState(), 5, dir).ok());
  EXPECT_TRUE(CheckpointIo::LoadLatest(dir, 5).ok());
  EXPECT_FALSE(CheckpointIo::LoadLatest(dir, 6).ok());
}

TEST(CheckpointTest, KeepsTwoNewestAndLoadsLatest) {
  const std::string dir = TempDir("mpc_ckpt_gc");
  RdfGraph graph = TwoIslandGraph();
  IncrementalMaintainer m(graph.Clone(), MakeByName(graph, 2, IslandSites()),
                          NoRepartition());
  for (int b = 1; b <= 3; ++b) {
    m.ApplyBatch(Batch({Ins("n" + std::to_string(b), "p", "a1")}));
    ASSERT_TRUE(CheckpointIo::Write(m.ExportState(), 5, dir).ok());
  }
  EXPECT_FALSE(
      std::filesystem::exists(CheckpointIo::CheckpointPath(dir, 1)));
  EXPECT_TRUE(
      std::filesystem::exists(CheckpointIo::CheckpointPath(dir, 2)));
  EXPECT_TRUE(
      std::filesystem::exists(CheckpointIo::CheckpointPath(dir, 3)));
  Result<MaintainerState> latest = CheckpointIo::LoadLatest(dir, 5);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->seq, 3u);

  // A trashed newest checkpoint falls back to the previous one.
  {
    std::ofstream out(CheckpointIo::CheckpointPath(dir, 3),
                      std::ios::binary | std::ios::trunc);
    out << "mpc-checkpoint v1 garbage\n";
  }
  latest = CheckpointIo::LoadLatest(dir, 5);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest->seq, 2u);
}

TEST(IncrementalMaintainerTest, TriggeredRepartitionIsCheckpointedAtItsBatch) {
  // Only repartitions checkpoint here (no cadence), so a checkpoint at
  // batch 2 can only come from the repartition that batch fired — the
  // rule that keeps journal replay from ever re-running MPC.
  const std::string dir = TempDir("mpc_ckpt_repartition");
  const uint64_t fp = 7;
  RdfGraph graph = TwoIslandGraph();
  MaintainerOptions options;
  options.policy.kind = RepartitionPolicy::Kind::kPeriodic;
  options.policy.period_batches = 2;
  options.journal_dir = dir;
  options.checkpoint_every_batches = 0;
  Result<std::unique_ptr<IncrementalMaintainer>> m =
      IncrementalMaintainer::OpenDurable(
          graph.Clone(), MakeByName(graph, 2, IslandSites()), options, fp);
  ASSERT_TRUE(m.ok()) << m.status().ToString();

  ApplyResult first = (*m)->ApplyBatch(Batch({Ins("a1", "p", "a3")}));
  ASSERT_TRUE(first.durability.ok()) << first.durability.ToString();
  EXPECT_FALSE(first.repartition_triggered);
  EXPECT_EQ(CheckpointIo::LoadLatest(dir, fp).status().code(),
            StatusCode::kNotFound);

  ApplyResult second = (*m)->ApplyBatch(Batch({Ins("a2", "p", "a1")}));
  ASSERT_TRUE(second.durability.ok()) << second.durability.ToString();
  ASSERT_TRUE(second.repartitioned);
  Result<MaintainerState> checkpoint = CheckpointIo::LoadLatest(dir, fp);
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
  EXPECT_EQ(checkpoint->seq, 2u);
  EXPECT_TRUE(*checkpoint == (*m)->ExportState());
}

TEST(IncrementalMaintainerTest, DirectRepartitionNowIsCheckpointed) {
  // A repartition the caller asks for, not one a policy fired, must be
  // just as durable: recovery from the journal directory reproduces the
  // state including the swap.
  const std::string dir = TempDir("mpc_ckpt_direct_repartition");
  const uint64_t fp = 11;
  RdfGraph graph = TwoIslandGraph();
  MaintainerOptions options;
  options.policy.kind = RepartitionPolicy::Kind::kNever;
  options.journal_dir = dir;
  options.checkpoint_every_batches = 0;
  Result<std::unique_ptr<IncrementalMaintainer>> m =
      IncrementalMaintainer::OpenDurable(
          graph.Clone(), MakeByName(graph, 2, IslandSites()), options, fp);
  ASSERT_TRUE(m.ok()) << m.status().ToString();

  ApplyResult first = (*m)->ApplyBatch(Batch({Ins("a1", "p", "a3")}));
  ASSERT_TRUE(first.durability.ok()) << first.durability.ToString();
  Status repartitioned = (*m)->RepartitionNow();
  ASSERT_TRUE(repartitioned.ok()) << repartitioned.ToString();
  ApplyResult second = (*m)->ApplyBatch(Batch({Ins("a2", "p", "b1")}));
  ASSERT_TRUE(second.durability.ok()) << second.durability.ToString();
  EXPECT_FALSE(second.repartitioned);
  const MaintainerState before_crash = (*m)->ExportState();
  ASSERT_EQ(before_crash.tracker.repartitions, 1u);
  m->reset();

  Result<std::unique_ptr<IncrementalMaintainer>> recovered =
      IncrementalMaintainer::OpenDurable(
          graph.Clone(), MakeByName(graph, 2, IslandSites()), options, fp);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const MaintainerState after = (*recovered)->ExportState();
  EXPECT_EQ(after.tracker.repartitions, 1u);
  EXPECT_TRUE(after == before_crash);
}

// ----------------------------------------------------- Def. 4.2 budget

TEST(RepartitionPolicyTest, ComponentBudgetFiresOnlyWhenEnforced) {
  RepartitionPolicy policy;
  DriftMetrics m;
  m.max_internal_component = 10;
  m.internal_component_budget = 8;
  EXPECT_TRUE(policy.Evaluate(m).empty());  // off by default
  policy.enforce_component_budget = true;
  EXPECT_NE(policy.Evaluate(m).find("budget"), std::string::npos);
  m.max_internal_component = 8;
  EXPECT_TRUE(policy.Evaluate(m).empty());  // at the budget: keep
}

TEST(IncrementalMaintainerTest, ForestRebuildPreventsSpuriousRepartition) {
  // Path a1-a2-a3-a4 plus a5-a6 at site 0, path b1-b2-b3 at site 1.
  // |V| = 9, k = 2, eps = 0.1 => Def. 4.2 budget = floor(1.1*9/2) = 4.
  auto build = [] {
    return testutil::BuildGraph({{"a1", "p", "a2"},
                                 {"a2", "p", "a3"},
                                 {"a3", "p", "a4"},
                                 {"a5", "p", "a6"},
                                 {"b1", "p", "b2"},
                                 {"b2", "p", "b3"}});
  };
  const std::map<std::string, uint32_t> sites = {
      {"a1", 0}, {"a2", 0}, {"a3", 0}, {"a4", 0}, {"a5", 0},
      {"a6", 0}, {"b1", 1}, {"b2", 1}, {"b3", 1}};
  // The stream deletes the path's outer edges, bridges the two site-0
  // groups, then reinserts one deleted edge. True max component never
  // exceeds 3; the delete-blind forest believes 4+2=6 > 4 at the bridge.
  const std::vector<UpdateBatch> stream = {
      Batch({Del("a1", "p", "a2"), Del("a3", "p", "a4")}),
      Batch({Ins("a4", "p", "a5")}),
      Batch({Ins("a1", "p", "a2")}),
  };
  MaintainerOptions options;
  options.policy.kind = RepartitionPolicy::Kind::kThreshold;
  options.policy.enforce_component_budget = true;
  options.policy.max_tombstone_ratio = 1.0;  // isolate the budget trigger
  options.mpc.base.k = 2;
  options.mpc.base.epsilon = 0.1;

  // Without the rebuild, the over-approximated component fires the
  // budget trigger spuriously.
  {
    RdfGraph graph = build();
    MaintainerOptions no_rebuild = options;
    no_rebuild.forest_rebuild_tombstone_ratio = 0.0;
    IncrementalMaintainer m(graph.Clone(), MakeByName(graph, 2, sites),
                            no_rebuild);
    size_t fires = 0;
    for (const UpdateBatch& b : stream) {
      fires += m.ApplyBatch(b).repartition_triggered ? 1 : 0;
    }
    EXPECT_GE(fires, 1u);
  }

  // With the tombstone-triggered rebuild (2 dead of 6 slots = 0.33 >
  // 0.1 after batch 1), the forest re-converges to the live components
  // and the policy stays quiet through delete-then-reinsert.
  {
    RdfGraph graph = build();
    MaintainerOptions rebuild = options;
    rebuild.forest_rebuild_tombstone_ratio = 0.1;
    IncrementalMaintainer m(graph.Clone(), MakeByName(graph, 2, sites),
                            rebuild);
    for (const UpdateBatch& b : stream) {
      ApplyResult r = m.ApplyBatch(b);
      EXPECT_FALSE(r.repartition_triggered) << r.trigger_reason;
      EXPECT_LE(r.drift.max_internal_component,
                r.drift.internal_component_budget);
    }
    EXPECT_EQ(m.repartition_count(), 0u);
    EXPECT_EQ(m.num_live_triples(), 6u);  // 6 seed - 2 del + 2 ins - 0
  }
}

}  // namespace
}  // namespace mpc::dynamic
