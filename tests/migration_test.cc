// Hot-vertex migration: the escalation level between "keep maintaining"
// and "full MPC re-run". Covers the weighted drift trigger, the
// migration path avoiding a repartition, the balance-cap fallback,
// result equivalence against a from-scratch partition of the live graph
// (both plans, and the serving capture with segment bases), and
// checkpoint round-trips of the migration state.

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "dynamic/incremental_maintainer.h"
#include "exec/cluster.h"
#include "gtest/gtest.h"
#include "mpc/mpc_partitioner.h"
#include "serve/serving_state.h"
#include "storage/delta_overlay.h"
#include "test_util.h"

namespace mpc::dynamic {
namespace {

using rdf::RdfGraph;
using store::BindingTable;
using testutil::T;

TripleUpdate Ins(const std::string& s, const std::string& p,
                 const std::string& o) {
  return TripleUpdate{UpdateKind::kInsert, T(s), T(p), T(o)};
}

UpdateBatch Batch(std::vector<TripleUpdate> updates) {
  UpdateBatch b;
  b.updates = std::move(updates);
  return b;
}

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

Result<BindingTable> RunText(IncrementalMaintainer& m,
                             const std::string& text) {
  Result<exec::QueryResponse> response =
      serve::ServingState::Capture(m)->distributed().Execute(
          exec::QueryRequest::FromText(text));
  if (!response.ok()) return response.status();
  return std::move(response->bindings);
}

/// Two p-triangles on sites 0/1 plus a seed-internal "hot" edge at
/// site 1. Property ids: p = 0, hot = 1.
RdfGraph MigrationGraph() {
  return testutil::BuildGraph({{"a1", "p", "a2"},
                               {"a2", "p", "a3"},
                               {"a3", "p", "a1"},
                               {"b1", "p", "b2"},
                               {"b2", "p", "b3"},
                               {"b3", "p", "b1"},
                               {"b1", "hot", "b2"}});
}

std::map<std::string, uint32_t> IslandSites() {
  return {{"a1", 0}, {"a2", 0}, {"a3", 0},
          {"b1", 1}, {"b2", 1}, {"b3", 1}};
}

/// Threshold policy whose integer bound tolerates a few crossing
/// properties while the weighted bound fires as soon as "hot" (weight
/// 21) goes crossing: 21 > max(seed * 1, seed + 4) at seed 0.
MaintainerOptions WeightedThreshold() {
  MaintainerOptions options;
  options.policy.kind = RepartitionPolicy::Kind::kThreshold;
  options.policy.max_lcross_growth = 0.0;
  options.policy.min_lcross_slack = 4;
  options.property_weights = {1.0, 21.0};
  // Room for one vertex to change sides: (1+0.3)*7/2 = 4 per site.
  options.mpc.base.epsilon = 0.3;
  return options;
}

/// The stream all tests replay: an anchor edge placing the new vertex
/// "mig" at site 0 (anchor is a brand-new property, so it starts
/// internal and co-locates), then three hot edges from mig into the
/// site-1 island — the classic misplaced-vertex shape migration exists
/// for.
UpdateBatch AnchorBatch() { return Batch({Ins("mig", "anchor", "a1")}); }
UpdateBatch HotBatch() {
  return Batch({Ins("mig", "hot", "b1"), Ins("mig", "hot", "b2"),
                Ins("mig", "hot", "b3")});
}

TEST(BoundaryMigrationTest, WeightedThresholdFiresWhereIntegerDoesNot) {
  RdfGraph graph = MigrationGraph();
  IncrementalMaintainer m(graph.Clone(), MakeByName(graph, 2, IslandSites()),
                          WeightedThreshold());
  EXPECT_FALSE(m.ApplyBatch(AnchorBatch()).repartition_triggered);

  // One crossing property (1 <= seed + 4) keeps the integer check
  // quiet; its weight of 21 blows through the weighted bound of 4.
  ApplyResult r = m.ApplyBatch(HotBatch());
  EXPECT_TRUE(r.repartition_triggered) << r.trigger_reason;
  EXPECT_NE(r.trigger_reason.find("weighted"), std::string::npos)
      << r.trigger_reason;
  EXPECT_EQ(m.repartition_count(), 1u);
}

TEST(BoundaryMigrationTest, UnweightedPolicyIgnoresTheSameStream) {
  RdfGraph graph = MigrationGraph();
  MaintainerOptions options = WeightedThreshold();
  options.property_weights.clear();  // weighted tracking inert
  IncrementalMaintainer m(graph.Clone(), MakeByName(graph, 2, IslandSites()),
                          options);
  m.ApplyBatch(AnchorBatch());
  ApplyResult r = m.ApplyBatch(HotBatch());
  EXPECT_FALSE(r.repartition_triggered) << r.trigger_reason;
  EXPECT_EQ(r.drift.weighted_crossing_properties, 0.0);
  EXPECT_EQ(m.repartition_count(), 0u);
}

TEST(BoundaryMigrationTest, MigrationAvoidsFullRepartition) {
  RdfGraph graph = MigrationGraph();
  MaintainerOptions options = WeightedThreshold();
  options.migration.enabled = true;
  IncrementalMaintainer m(graph.Clone(), MakeByName(graph, 2, IslandSites()),
                          options);
  m.ApplyBatch(AnchorBatch());

  // The policy fires, the migrator moves mig to the hot side (retiring
  // hot's 21 for anchor's 1), and the re-evaluation passes: no MPC run.
  ApplyResult r = m.ApplyBatch(HotBatch());
  EXPECT_EQ(r.migrated, 1u);
  EXPECT_DOUBLE_EQ(r.migration_gain, 20.0);
  EXPECT_FALSE(r.repartition_triggered) << r.trigger_reason;
  EXPECT_FALSE(r.repartitioned);
  EXPECT_EQ(m.migration_count(), 1u);
  EXPECT_EQ(m.repartition_count(), 0u);

  // mig changed sides; hot retired from L_cross, anchor entered it.
  rdf::VertexId mig = m.graph().vertex_dict().Lookup(T("mig"));
  rdf::VertexId b1 = m.graph().vertex_dict().Lookup(T("b1"));
  ASSERT_NE(mig, rdf::kInvalidVertex);
  EXPECT_EQ(m.partitioning().assignment().part[mig],
            m.partitioning().assignment().part[b1]);
  rdf::PropertyId hot = m.graph().property_dict().Lookup(T("hot"));
  rdf::PropertyId anchor = m.graph().property_dict().Lookup(T("anchor"));
  EXPECT_FALSE(m.partitioning().IsCrossingProperty(hot));
  EXPECT_TRUE(m.partitioning().IsCrossingProperty(anchor));
  EXPECT_EQ(r.drift.crossing_properties, 1u);
  EXPECT_DOUBLE_EQ(r.drift.weighted_crossing_properties, 1.0);
  EXPECT_EQ(r.drift.migrations, 1u);

  // Queries see the post-migration state immediately.
  Result<BindingTable> hot_rows =
      RunText(m, "SELECT * WHERE { ?x " + T("hot") + " ?y . }");
  ASSERT_TRUE(hot_rows.ok()) << hot_rows.status().ToString();
  std::set<std::vector<std::string>> rows = LexRows(*hot_rows, m.graph());
  EXPECT_EQ(rows.size(), 4u);
  EXPECT_TRUE(rows.count({T("mig"), T("b3")}));
  Result<BindingTable> anchor_rows =
      RunText(m, "SELECT * WHERE { ?x " + T("anchor") + " ?y . }");
  ASSERT_TRUE(anchor_rows.ok());
  EXPECT_EQ(anchor_rows->num_rows(), 1u);
}

TEST(BoundaryMigrationTest, BalanceCapBlocksMoveAndFallsBackToRepartition) {
  RdfGraph graph = MigrationGraph();
  MaintainerOptions options = WeightedThreshold();
  options.migration.enabled = true;
  // (1+0)*7/2 = 3 per site: site 1 already owns b1..b3, so the mig move
  // would overfill it and every alternative move raises |L_cross|.
  options.mpc.base.epsilon = 0.0;
  IncrementalMaintainer m(graph.Clone(), MakeByName(graph, 2, IslandSites()),
                          options);
  m.ApplyBatch(AnchorBatch());

  ApplyResult r = m.ApplyBatch(HotBatch());
  EXPECT_EQ(r.migrated, 0u);
  EXPECT_TRUE(r.repartition_triggered) << r.trigger_reason;
  EXPECT_TRUE(r.repartitioned);
  EXPECT_EQ(m.migration_count(), 0u);
  EXPECT_EQ(m.repartition_count(), 1u);
  // The full re-run re-anchored both baselines.
  EXPECT_EQ(r.drift.seed_weighted_crossing_properties,
            r.drift.weighted_crossing_properties);
}

TEST(BoundaryMigrationTest, MigratedStateMatchesFromScratchPartition) {
  // Two misplaced vertices migrate in sequence; afterwards every query
  // must answer exactly as a from-scratch MPC partition of the same
  // live graph — under the default and the gStoreD plan, on the serving
  // capture with and without segment bases (whose overlay shortcut must
  // refuse to reuse pack-time bases once ownership moved without a
  // rewrite).
  RdfGraph graph = testutil::BuildGraph({{"a1", "p", "a2"},
                                         {"a2", "p", "a3"},
                                         {"a3", "p", "a1"},
                                         {"b1", "p", "b2"},
                                         {"b2", "p", "b3"},
                                         {"b3", "p", "b1"},
                                         {"b1", "hot1", "b2"},
                                         {"b2", "hot2", "b3"}});
  MaintainerOptions options;
  options.policy.kind = RepartitionPolicy::Kind::kThreshold;
  options.policy.max_lcross_growth = 0.0;
  options.policy.min_lcross_slack = 4;
  options.property_weights = {1.0, 21.0, 21.0};  // p, hot1, hot2
  options.mpc.base.epsilon = 0.5;  // room for both migrants at site 1
  options.migration.enabled = true;
  partition::Partitioning seed = MakeByName(graph, 2, IslandSites());
  exec::Cluster base_cluster = exec::Cluster::Build(seed);
  IncrementalMaintainer m(graph.Clone(), std::move(seed), options);

  m.ApplyBatch(Batch({Ins("mig1", "anchor1", "a1")}));
  ApplyResult r1 = m.ApplyBatch(Batch({Ins("mig1", "hot1", "b1"),
                                       Ins("mig1", "hot1", "b2"),
                                       Ins("mig1", "hot1", "b3")}));
  EXPECT_EQ(r1.migrated, 1u);
  m.ApplyBatch(Batch({Ins("mig2", "anchor2", "a2")}));
  ApplyResult r2 = m.ApplyBatch(Batch({Ins("mig2", "hot2", "b1"),
                                       Ins("mig2", "hot2", "b2"),
                                       Ins("mig2", "hot2", "b3")}));
  EXPECT_EQ(r2.migrated, 1u);
  ASSERT_EQ(m.migration_count(), 2u);
  ASSERT_EQ(m.repartition_count(), 0u);

  // From scratch: MPC over the materialized live graph.
  rdf::RdfGraph live = m.MaterializeGraph();
  core::MpcOptions mpc;
  mpc.base.k = 2;
  mpc.base.epsilon = 0.5;
  partition::Partitioning fresh = core::MpcPartitioner(mpc).Partition(live);
  std::shared_ptr<const serve::ServingState> fresh_state =
      serve::ServingState::Build(live.Clone(), std::move(fresh));

  std::shared_ptr<const serve::ServingState> migrated_state =
      serve::ServingState::Capture(m);
  serve::ServingStateOptions with_bases;
  with_bases.base_sources = base_cluster.sources();
  std::shared_ptr<const serve::ServingState> gated_state =
      serve::ServingState::Capture(m, with_bases);
  // The gate: bases describe pack-time ownership, migration changed it
  // without rewriting the site files, so Capture must have rebuilt.
  {
    const auto* cluster =
        dynamic_cast<const exec::Cluster*>(&gated_state->cluster());
    ASSERT_NE(cluster, nullptr);
    for (const auto& source : cluster->sources()) {
      EXPECT_EQ(dynamic_cast<const storage::DeltaOverlaySource*>(source.get()),
                nullptr);
    }
  }

  const std::string queries[] = {
      "SELECT * WHERE { ?x " + T("p") + " ?y . }",
      "SELECT * WHERE { ?x " + T("hot1") + " ?y . }",
      "SELECT * WHERE { ?x " + T("hot2") + " ?y . }",
      "SELECT * WHERE { ?x " + T("anchor1") + " ?y . }",
      "SELECT * WHERE { ?x " + T("hot1") + " ?y . ?y " + T("p") + " ?z . }",
  };
  for (const std::string& q : queries) {
    const exec::QueryRequest request = exec::QueryRequest::FromText(q);
    Result<exec::QueryResponse> want = fresh_state->distributed().Execute(request);
    ASSERT_TRUE(want.ok()) << q << ": " << want.status().ToString();
    const std::set<std::vector<std::string>> expected =
        LexRows(want->bindings, fresh_state->graph());

    const exec::QueryRequest gstored = exec::QueryRequest::FromText(
        q, {.strategy = exec::ExecStrategy::kGstored});
    for (const auto& state : {fresh_state, migrated_state, gated_state}) {
      for (const exec::QueryRequest* r : {&request, &gstored}) {
        Result<exec::QueryResponse> got = state->distributed().Execute(*r);
        ASSERT_TRUE(got.ok()) << q << ": " << got.status().ToString();
        EXPECT_EQ(LexRows(got->bindings, state->graph()), expected)
            << q << " (" << exec::ExecStrategyName(r->options.strategy)
            << ")";
      }
    }
  }
}

TEST(BoundaryMigrationTest, CheckpointRoundTripsMigrationState) {
  RdfGraph graph = MigrationGraph();
  MaintainerOptions options = WeightedThreshold();
  options.migration.enabled = true;
  IncrementalMaintainer m(graph.Clone(), MakeByName(graph, 2, IslandSites()),
                          options);
  m.ApplyBatch(AnchorBatch());
  ASSERT_EQ(m.ApplyBatch(HotBatch()).migrated, 1u);

  MaintainerState state = m.ExportState();
  EXPECT_EQ(state.migrations, 1u);
  IncrementalMaintainer restored(state, options);
  EXPECT_EQ(restored.migration_count(), 1u);
  EXPECT_EQ(restored.num_live_triples(), m.num_live_triples());

  // Drift — including the weighted signal and its seed — survives.
  DriftMetrics want = m.drift();
  DriftMetrics got = restored.drift();
  EXPECT_EQ(got.crossing_properties, want.crossing_properties);
  EXPECT_DOUBLE_EQ(got.weighted_crossing_properties,
                   want.weighted_crossing_properties);
  EXPECT_DOUBLE_EQ(got.seed_weighted_crossing_properties,
                   want.seed_weighted_crossing_properties);
  EXPECT_EQ(got.migrations, 1u);

  // The post-migration assignment survives (mig still owned by site 1).
  EXPECT_EQ(restored.partitioning().assignment().part,
            m.partitioning().assignment().part);

  // And the restored maintainer exports the same state bit-for-bit.
  EXPECT_TRUE(restored.ExportState() == state);

  const std::string query = "SELECT * WHERE { ?x " + T("hot") + " ?y . }";
  Result<BindingTable> a = RunText(m, query);
  Result<BindingTable> b = RunText(restored, query);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(LexRows(*a, m.graph()), LexRows(*b, restored.graph()));
}

}  // namespace
}  // namespace mpc::dynamic
