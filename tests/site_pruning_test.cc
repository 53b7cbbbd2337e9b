// Tests for site localization (executor option site_pruning, SelectSites):
// property presence and ownership. Soundness (identical bindings with
// pruning on and off, on every store backend) and effectiveness (fewer
// site evaluations; one site for a subquery anchored at a constant).

#include <stdlib.h>

#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "dynamic/incremental_maintainer.h"
#include "exec/cluster.h"
#include "exec/decomposer.h"
#include "exec/distributed_executor.h"
#include "gtest/gtest.h"
#include "mpc/mpc_partitioner.h"
#include "partition/partition_io.h"
#include "partition/subject_hash_partitioner.h"
#include "partition/vp_partitioner.h"
#include "serve/serving_state.h"
#include "test_util.h"
#include "workload/datasets.h"
#include "workload/query_log.h"

namespace mpc::exec {
namespace {

using rdf::RdfGraph;
using store::BindingTable;

/// MPC at k=8 with default options: the partitioning servebench's LUBM
/// workloads serve.
partition::Partitioning MpcPartition(const RdfGraph& graph, uint32_t k = 8) {
  core::MpcOptions options;
  options.base.k = k;
  return core::MpcPartitioner(options).Partition(graph);
}

std::vector<std::string> BenchmarkQueries(
    const workload::GeneratedDataset& dataset) {
  std::vector<std::string> queries;
  for (const workload::NamedQuery& nq : dataset.benchmark_queries) {
    queries.push_back(nq.sparql);
  }
  return queries;
}

/// Random-walk and star BGPs sampled from `graph`, most endpoints
/// constants, so many subqueries carry a constant to localize on.
std::vector<std::string> ConstantBearingLog(const RdfGraph& graph,
                                            uint64_t seed) {
  workload::QueryLogOptions options;
  options.num_queries = 60;
  options.seed = seed;
  options.star_fraction = 0.3;
  options.constant_fraction = 0.8;
  std::vector<std::string> queries;
  for (const workload::NamedQuery& nq :
       workload::GenerateQueryLog(graph, options)) {
    queries.push_back(nq.sparql);
  }
  return queries;
}

/// Every query gives bit-identical bindings with site pruning on and
/// off over `cluster`, and pruning never contacts more sites. Returns
/// how many queries pruning brought down to one site per subquery.
size_t ExpectPruningInvisible(const ClusterBackend& cluster,
                              const RdfGraph& graph,
                              const std::vector<std::string>& queries,
                              const std::string& label) {
  ExecutorOptions off;
  off.site_pruning = false;
  const DistributedExecutor pruned(cluster, graph);
  const DistributedExecutor full(cluster, graph, off);
  size_t one_site = 0;
  for (const std::string& text : queries) {
    const QueryRequest request =
        QueryRequest::FromQuery(testutil::ParseQueryOrDie(text));
    Result<QueryResponse> a = pruned.Execute(request);
    Result<QueryResponse> b = full.Execute(request);
    EXPECT_TRUE(a.ok() && b.ok()) << label << ": " << text;
    if (!a.ok() || !b.ok()) continue;
    EXPECT_EQ(a->bindings.var_ids, b->bindings.var_ids) << label << ": "
                                                        << text;
    EXPECT_EQ(a->bindings.rows, b->bindings.rows) << label << ": " << text;
    EXPECT_LE(a->stats.sites_evaluated, b->stats.sites_evaluated) << text;
    EXPECT_EQ(b->stats.sites_pruned, 0u);
    EXPECT_EQ(a->stats.sites_evaluated + a->stats.sites_pruned,
              b->stats.sites_evaluated);
    one_site += a->stats.sites_evaluated == a->stats.num_subqueries &&
                b->stats.sites_evaluated > a->stats.sites_evaluated;
  }
  return one_site;
}

/// A scratch directory removed with the object.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/mpc_spt_XXXXXX";
    if (::mkdtemp(tmpl) != nullptr) path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    if (!path.empty()) std::filesystem::remove_all(path, ec);
  }
};

/// `partitioning` saved and packed into `dir`, opened as segments.
Cluster SegmentCluster(const partition::Partitioning& partitioning,
                       const RdfGraph& graph, const std::string& dir) {
  EXPECT_TRUE(partition::PartitionIo::Save(graph, partitioning, dir).ok());
  EXPECT_TRUE(PackSegments(partitioning, dir).ok());
  Result<Cluster> segments = Cluster::BuildFromSegments(partitioning, dir);
  EXPECT_TRUE(segments.ok()) << segments.status().ToString();
  return segments.ok() ? std::move(*segments) : Cluster();
}

// --- Differential: localization is invisible in the answers. ---

TEST(SitePruningTest, LocalizationKeepsBindingsOnMemoryAndSegments) {
  struct Dataset {
    std::string name;
    RdfGraph graph;
    std::vector<std::string> queries;
  };
  std::vector<Dataset> datasets;
  {
    workload::GeneratedDataset lubm =
        workload::MakeDataset(workload::DatasetId::kLubm, 0.2, 1);
    std::vector<std::string> queries = BenchmarkQueries(lubm);
    for (std::string& q : ConstantBearingLog(lubm.graph, 5)) {
      queries.push_back(std::move(q));
    }
    datasets.push_back({"lubm", std::move(lubm.graph), std::move(queries)});
  }
  {
    workload::GeneratedDataset watdiv =
        workload::MakeDataset(workload::DatasetId::kWatdiv, 0.05, 1);
    std::vector<std::string> queries = ConstantBearingLog(watdiv.graph, 6);
    datasets.push_back(
        {"watdiv", std::move(watdiv.graph), std::move(queries)});
  }
  {
    // No edge escapes its community, so MPC can keep every property
    // internal: every constant-bearing subquery localizes.
    Rng rng(17);
    RdfGraph graph = testutil::RandomGraph(rng, 240, 900, 6,
                                           /*community=*/20, /*escape=*/0.0);
    std::vector<std::string> queries = ConstantBearingLog(graph, 7);
    datasets.push_back({"escape0", std::move(graph), std::move(queries)});
  }

  for (const Dataset& d : datasets) {
    const uint32_t k = d.name == "escape0" ? 4 : 8;
    partition::Partitioning partitioning = MpcPartition(d.graph, k);
    if (d.name == "escape0") {
      ASSERT_EQ(partitioning.num_crossing_properties(), 0u);
    }
    const Cluster memory = Cluster::Build(partitioning);
    const size_t localized =
        ExpectPruningInvisible(memory, d.graph, d.queries, d.name + "/memory");
    EXPECT_GT(localized, 0u) << d.name;

    TempDir dir;
    ASSERT_FALSE(dir.path.empty());
    const Cluster segments =
        SegmentCluster(partitioning, d.graph, dir.path + "/parts");
    ASSERT_EQ(segments.k(), k);
    EXPECT_EQ(ExpectPruningInvisible(segments, d.graph, d.queries,
                                     d.name + "/segment"),
              localized);
  }
}

// The dynamic path: segment bases plus a delta overlay, after an update
// batch that adds a vertex no partitioning saw at pack time. The
// maintainer assigns it an owner, and a query anchored on it is
// localized to that owner.
TEST(SitePruningTest, OverlayLocalizesOnAFreshVertex) {
  workload::GeneratedDataset lubm =
      workload::MakeDataset(workload::DatasetId::kLubm, 0.2, 1);
  partition::Partitioning partitioning = MpcPartition(lubm.graph);
  TempDir dir;
  ASSERT_FALSE(dir.path.empty());
  const Cluster segments =
      SegmentCluster(partitioning, lubm.graph, dir.path + "/parts");
  ASSERT_EQ(segments.k(), 8u);

  // LQ1 is { ?x takesCourse course0 . ?x type GraduateStudent }: borrow
  // its terms so the fresh vertex joins its answer.
  const sparql::QueryGraph lq1 =
      testutil::ParseQueryOrDie(lubm.benchmark_queries[0].sparql);
  const std::string takes_course = lq1.patterns()[0].predicate.text;
  const std::string course0 = lq1.patterns()[0].object.text;
  const std::string type = lq1.patterns()[1].predicate.text;
  const std::string grad_student = lq1.patterns()[1].object.text;
  const std::string fresh = "<http://example.org/lubm/FreshStudent0>";
  ASSERT_EQ(lubm.graph.vertex_dict().Lookup(fresh), rdf::kInvalidVertex);

  dynamic::MaintainerOptions maintainer_options;
  maintainer_options.policy.kind = dynamic::RepartitionPolicy::Kind::kNever;
  dynamic::IncrementalMaintainer maintainer(
      lubm.graph.Clone(), std::move(partitioning), maintainer_options);
  dynamic::UpdateBatch batch;
  batch.updates.push_back(
      {dynamic::UpdateKind::kInsert, fresh, takes_course, course0});
  batch.updates.push_back(
      {dynamic::UpdateKind::kInsert, fresh, type, grad_student});
  maintainer.ApplyBatch(batch);

  serve::ServingStateOptions state_options;
  state_options.base_sources = segments.sources();
  std::shared_ptr<const serve::ServingState> overlay =
      serve::ServingState::Capture(maintainer, state_options);
  const RdfGraph& graph = overlay->graph();
  const std::string fresh_query =
      "SELECT ?c WHERE { " + fresh + " " + takes_course + " ?c . }";
  std::vector<std::string> queries = BenchmarkQueries(lubm);
  queries.push_back(fresh_query);
  queries.push_back("SELECT ?t WHERE { " + fresh + " " + type + " ?t . " +
                    fresh + " " + takes_course + " " + course0 + " . }");
  EXPECT_GT(ExpectPruningInvisible(overlay->cluster(), graph, queries,
                                   "overlay"),
            0u);

  // The fresh vertex has an owner, and only that site is asked.
  const rdf::VertexId v = graph.vertex_dict().Lookup(fresh);
  ASSERT_LT(v, overlay->cluster().partitioning().assignment().part.size());
  const DistributedExecutor executor(overlay->cluster(), graph);
  Result<QueryResponse> response = executor.Execute(
      QueryRequest::FromQuery(testutil::ParseQueryOrDie(fresh_query)));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->stats.sites_evaluated, 1u);
  ASSERT_EQ(response->bindings.num_rows(), 1u);
  EXPECT_EQ(graph.VertexName(response->bindings.rows[0][0]), course0);

  // And the overlay answers as a cluster rebuilt from the maintained
  // state does, pruning off.
  const Cluster rebuilt = Cluster::Build(maintainer.CompactPartitioning());
  ExecutorOptions off;
  off.site_pruning = false;
  const DistributedExecutor reference(rebuilt, graph, off);
  for (const std::string& text : queries) {
    const QueryRequest request =
        QueryRequest::FromQuery(testutil::ParseQueryOrDie(text));
    Result<QueryResponse> a = executor.Execute(request);
    Result<QueryResponse> b = reference.Execute(request);
    ASSERT_TRUE(a.ok() && b.ok()) << text;
    EXPECT_EQ(a->bindings.rows, b->bindings.rows) << text;
  }
}

// --- Differential: constant stars. ---

/// A BGP anchored on the constant `c`: a star (every pattern has c as
/// subject or object) or a near-star (one pattern does not).
struct AnchoredQuery {
  std::string text;
  rdf::VertexId c = 0;
  bool star = true;
};

/// Random BGPs anchored on a vertex of `triples` (on `anchor`, if
/// given): 1-3 patterns, each from a triple incident to c with c kept
/// as its subject or object. So c is the subject of one pattern and the
/// object of another where it has edges both ways, and a self-loop
/// gives `c p c`. The other endpoint is a variable, now and then a
/// constant, and one predicate in four is a variable. One query in four
/// is a near-star: a pattern hanging off the first pattern's variable
/// endpoint ?x, away from c, which the star rule must not localize.
std::vector<AnchoredQuery> AnchoredQueries(
    const RdfGraph& graph, const std::vector<rdf::Triple>& triples,
    uint64_t seed, size_t count,
    std::optional<rdf::VertexId> anchor = std::nullopt) {
  Rng rng(seed);
  std::vector<std::vector<size_t>> incident(graph.num_vertices());
  for (size_t i = 0; i < triples.size(); ++i) {
    incident[triples[i].subject].push_back(i);
    if (triples[i].object != triples[i].subject) {
      incident[triples[i].object].push_back(i);
    }
  }
  std::vector<rdf::VertexId> anchors;
  if (anchor.has_value()) {
    anchors.push_back(*anchor);
  } else {
    for (size_t v = 0; v < incident.size(); ++v) {
      if (!incident[v].empty()) anchors.push_back(static_cast<uint32_t>(v));
    }
  }
  std::vector<AnchoredQuery> queries;
  for (size_t q = 0; q < count; ++q) {
    AnchoredQuery query;
    query.c = anchors[rng.Below(anchors.size())];
    const std::vector<size_t>& edges = incident[query.c];
    size_t next_var = 0;
    auto var = [&next_var] { return "?v" + std::to_string(next_var++); };
    // A near-star's first pattern binds ?x to a neighbour of c.
    std::vector<size_t> open;
    for (size_t e : edges) {
      if (triples[e].subject != triples[e].object) open.push_back(e);
    }
    query.star = open.empty() || !rng.Chance(0.25);
    std::string body;
    const size_t n = 1 + rng.Below(3);
    for (size_t i = 0; i < n; ++i) {
      const rdf::Triple& t = triples[!query.star && i == 0
                                         ? open[rng.Below(open.size())]
                                         : edges[rng.Below(edges.size())]];
      const bool first_of_near_star = !query.star && i == 0;
      auto term = [&](rdf::VertexId v) -> std::string {
        if (v == query.c) return graph.VertexName(v);
        if (first_of_near_star) return "?x";
        return rng.Chance(0.2) ? graph.VertexName(v) : var();
      };
      const std::string s = term(t.subject);
      const std::string p =
          rng.Chance(0.25) ? var() : graph.PropertyName(t.property);
      body += s + " " + p + " " + term(t.object) + " . ";
    }
    if (!query.star) {
      const rdf::Triple& t = triples[rng.Below(triples.size())];
      body += "?x " + graph.PropertyName(t.property) + " " + var() + " . ";
    }
    query.text = "SELECT * WHERE { " + body + "}";
    queries.push_back(std::move(query));
  }
  return queries;
}

/// The k = 1 oracle: the query over one store holding `triples`.
BindingTable Oracle(const std::vector<rdf::Triple>& triples,
                    const RdfGraph& graph, const sparql::QueryGraph& query) {
  const store::TripleStore single(triples);
  BindingTable table = store::BgpMatcher::EvaluateAll(
      single, store::ResolveQuery(query, graph));
  table.Deduplicate();
  return table;
}

/// Every query answers as the oracle does, bit-identically with pruning
/// on and off at 1 and 8 threads; and with owner(c) down under
/// kBestEffort, pruning on answers as the broadcast does. Returns how
/// many stars reached one site, and in `served`, how many of the
/// owner-down broadcasts still had rows (the failover's work).
size_t ExpectAnchoredQueriesExact(const ClusterBackend& cluster,
                                  const RdfGraph& graph,
                                  const std::vector<rdf::Triple>& triples,
                                  const std::vector<AnchoredQuery>& queries,
                                  const std::string& label,
                                  size_t* served) {
  const std::vector<uint32_t>& part = cluster.partitioning().assignment().part;
  size_t localized = 0;
  *served = 0;
  for (const int threads : {1, 8}) {
    ExecutorOptions on;
    on.num_threads = threads;
    ExecutorOptions off = on;
    off.site_pruning = false;
    const DistributedExecutor pruned(cluster, graph, on);
    const DistributedExecutor full(cluster, graph, off);
    for (const AnchoredQuery& q : queries) {
      const std::string where = label + " at " + std::to_string(threads) +
                                " threads: " + q.text;
      const sparql::QueryGraph query = testutil::ParseQueryOrDie(q.text);
      const QueryRequest request = QueryRequest::FromQuery(query);
      Result<QueryResponse> a = pruned.Execute(request);
      Result<QueryResponse> b = full.Execute(request);
      EXPECT_TRUE(a.ok() && b.ok()) << where;
      if (!a.ok() || !b.ok()) continue;
      EXPECT_EQ(a->bindings.var_ids, b->bindings.var_ids) << where;
      EXPECT_EQ(a->bindings.rows, b->bindings.rows) << where;
      // A joined answer keeps the join's row order, so the oracle is
      // compared as a set of the same size (no repeated row).
      const BindingTable oracle = Oracle(triples, graph, query);
      EXPECT_EQ(a->bindings.var_ids, oracle.var_ids) << where;
      EXPECT_EQ(a->bindings.num_rows(), oracle.num_rows()) << where;
      EXPECT_EQ(testutil::RowSet(a->bindings), testutil::RowSet(oracle))
          << where;
      if (!q.star) continue;
      localized += threads == 1 && a->stats.sites_evaluated == 1 &&
                   b->stats.sites_evaluated > 1;
      // The owner's loss: what a broadcast still answers from replicas.
      EXPECT_LT(q.c, part.size()) << where;
      if (q.c >= part.size()) continue;
      ExecutorOptions down_on = on;
      down_on.faults.fail_sites = {part[q.c]};
      down_on.partial_results = PartialResultPolicy::kBestEffort;
      ExecutorOptions down_off = down_on;
      down_off.site_pruning = false;
      Result<QueryResponse> c =
          DistributedExecutor(cluster, graph, down_on).Execute(request);
      Result<QueryResponse> d =
          DistributedExecutor(cluster, graph, down_off).Execute(request);
      EXPECT_TRUE(c.ok() && d.ok()) << where;
      if (!c.ok() || !d.ok()) continue;
      EXPECT_EQ(c->bindings.var_ids, d->bindings.var_ids) << where;
      EXPECT_EQ(c->bindings.rows, d->bindings.rows) << where;
      *served += threads == 1 && d->bindings.num_rows() > 0;
    }
  }
  return localized;
}

TEST(SitePruningTest, ConstantStarsAnswerAsTheBroadcastAndTheOracle) {
  Rng rng(31);
  const RdfGraph graph = testutil::RandomGraph(rng, 150, 700, 6,
                                               /*community=*/15,
                                               /*escape=*/0.15);
  partition::Partitioning partitioning = MpcPartition(graph, 4);
  ASSERT_GT(partitioning.num_crossing_properties(), 0u);
  ASSERT_LT(partitioning.num_crossing_properties(), graph.num_properties());
  const std::vector<AnchoredQuery> queries =
      AnchoredQueries(graph, graph.triples(), 9, 80);
  size_t near_stars = 0;
  for (const AnchoredQuery& q : queries) near_stars += !q.star;
  ASSERT_GT(near_stars, 0u);

  size_t served = 0;
  const Cluster memory = Cluster::Build(partitioning);
  const size_t localized = ExpectAnchoredQueriesExact(
      memory, graph, graph.triples(), queries, "memory", &served);
  EXPECT_GT(localized, 0u);
  EXPECT_GT(served, 0u);

  TempDir dir;
  ASSERT_FALSE(dir.path.empty());
  const Cluster segments =
      SegmentCluster(partitioning, graph, dir.path + "/parts");
  ASSERT_EQ(segments.k(), 4u);
  EXPECT_EQ(ExpectAnchoredQueriesExact(segments, graph, graph.triples(),
                                       queries, "segment", &served),
            localized);

  // The overlay, after a batch that adds a vertex the pack never saw:
  // stars anchored on it, and on the rest of the updated graph.
  dynamic::MaintainerOptions maintainer_options;
  maintainer_options.policy.kind = dynamic::RepartitionPolicy::Kind::kNever;
  dynamic::IncrementalMaintainer maintainer(graph.Clone(),
                                            std::move(partitioning),
                                            maintainer_options);
  const std::string fresh = "<t:fresh>";
  dynamic::UpdateBatch batch;
  for (int i = 0; i < 6; ++i) {
    const rdf::Triple& t = graph.triples()[rng.Below(graph.num_edges())];
    const std::string p = graph.PropertyName(t.property);
    batch.updates.push_back({dynamic::UpdateKind::kInsert, fresh, p,
                             graph.VertexName(t.object)});
    batch.updates.push_back({dynamic::UpdateKind::kInsert,
                             graph.VertexName(t.subject), p, fresh});
  }
  batch.updates.push_back(
      {dynamic::UpdateKind::kInsert, fresh, "<t:p0>", fresh});
  maintainer.ApplyBatch(batch);
  serve::ServingStateOptions state_options;
  state_options.base_sources = segments.sources();
  const std::shared_ptr<const serve::ServingState> overlay =
      serve::ServingState::Capture(maintainer, state_options);
  const RdfGraph& updated = overlay->graph();
  const std::vector<rdf::Triple> live = maintainer.LiveTriples();
  const rdf::VertexId v = updated.vertex_dict().Lookup(fresh);
  ASSERT_NE(v, rdf::kInvalidVertex);
  std::vector<AnchoredQuery> overlay_queries =
      AnchoredQueries(updated, live, 10, 40);
  for (AnchoredQuery& q : AnchoredQueries(updated, live, 11, 20, v)) {
    overlay_queries.push_back(std::move(q));
  }
  EXPECT_GT(ExpectAnchoredQueriesExact(overlay->cluster(), updated, live,
                                       overlay_queries, "overlay", &served),
            0u);
}

// --- Effectiveness: which LUBM queries reach one site. ---

TEST(SitePruningTest, ElevenLubmQueriesContactOnlyTheOwnerSite) {
  workload::GeneratedDataset lubm =
      workload::MakeDataset(workload::DatasetId::kLubm, 0.2, 1);
  const Cluster cluster = Cluster::Build(MpcPartition(lubm.graph));
  const DistributedExecutor executor(cluster, lubm.graph);
  const std::set<std::string> localized = {
      "LQ1", "LQ3",  "LQ4",  "LQ5",  "LQ7", "LQ8",
      "LQ10", "LQ11", "LQ12", "LQ13", "LQ14"};
  for (const workload::NamedQuery& nq : lubm.benchmark_queries) {
    Result<QueryResponse> response = executor.Execute(
        QueryRequest::FromQuery(testutil::ParseQueryOrDie(nq.sparql)));
    ASSERT_TRUE(response.ok()) << nq.name;
    if (localized.count(nq.name) > 0) {
      EXPECT_EQ(response->stats.sites_evaluated, 1u) << nq.name;
      EXPECT_EQ(response->stats.sites_pruned, 7u) << nq.name;
    } else {
      EXPECT_GT(response->stats.sites_evaluated, 1u) << nq.name;
    }
  }
}

// A constant on a crossing edge of a query that is not a star on it says
// nothing about where the subquery's core lives: a Type-II satellite
// (rdf:type's class) is not localized.
TEST(SitePruningTest, SatelliteConstantOutsideAStarIsNotLocalized) {
  workload::GeneratedDataset lubm =
      workload::MakeDataset(workload::DatasetId::kLubm, 0.2, 1);
  const Cluster cluster = Cluster::Build(MpcPartition(lubm.graph));
  const RdfGraph& graph = lubm.graph;
  const sparql::QueryGraph lq1 =
      testutil::ParseQueryOrDie(lubm.benchmark_queries[0].sparql);
  const std::string takes_course = lq1.patterns()[0].predicate.text;
  const std::string type = lq1.patterns()[1].predicate.text;
  const std::string grad_student = lq1.patterns()[1].object.text;
  const std::string satellite = "SELECT ?x ?c WHERE { ?x " + takes_course +
                                " ?c . ?x " + type + " " + grad_student +
                                " . }";
  const sparql::QueryGraph query = testutil::ParseQueryOrDie(satellite);
  const QueryPlan plan = PlanQuery(query, cluster.partitioning(), graph);
  // The constant sits on a crossing pattern: the precondition of the
  // exclusion.
  ASSERT_GT(plan.classification.num_crossing_patterns, 0u);
  const store::ResolvedQuery resolved = store::ResolveQuery(query, graph);
  for (const std::vector<size_t>& sub : plan.decomposition.subqueries) {
    const SiteSelection selection = SelectSites(
        cluster, resolved, plan.classification.crossing_pattern, sub);
    EXPECT_FALSE(selection.owner_constant.has_value());
    EXPECT_GT(selection.sites.size(), 1u);
  }
}

// A constant on every pattern, crossing ones included, is a star: each
// triple incident to it is stored at its owner, so LQ13's university
// and LQ14's class send their query there alone, with the other sites
// property presence keeps as the failover.
TEST(SitePruningTest, CrossingStarIsLocalizedToItsOwner) {
  workload::GeneratedDataset lubm =
      workload::MakeDataset(workload::DatasetId::kLubm, 0.2, 1);
  const Cluster cluster = Cluster::Build(MpcPartition(lubm.graph));
  const RdfGraph& graph = lubm.graph;
  const std::vector<uint32_t>& part =
      cluster.partitioning().assignment().part;
  for (size_t q : {12, 13}) {
    const sparql::QueryGraph query =
        testutil::ParseQueryOrDie(lubm.benchmark_queries[q].sparql);
    const QueryPlan plan = PlanQuery(query, cluster.partitioning(), graph);
    ASSERT_EQ(plan.classification.num_crossing_patterns, 1u) << q;
    ASSERT_EQ(plan.decomposition.num_subqueries(), 1u) << q;
    const store::ResolvedQuery resolved = store::ResolveQuery(query, graph);
    const SiteSelection selection =
        SelectSites(cluster, resolved, plan.classification.crossing_pattern,
                    plan.decomposition.subqueries[0]);
    ASSERT_TRUE(selection.owner_constant.has_value()) << q;
    EXPECT_TRUE(selection.star) << q;
    EXPECT_EQ(*selection.owner_constant, resolved.patterns[0].o) << q;
    EXPECT_EQ(selection.owner, part[*selection.owner_constant]) << q;
    EXPECT_EQ(selection.sites, std::vector<uint32_t>{selection.owner}) << q;
    // The owner stores every match; the other sites holding the
    // property hold replicas of some of its rows.
    std::vector<uint32_t> replicas;
    for (uint32_t site = 0; site < cluster.k(); ++site) {
      if (site != selection.owner &&
          cluster.SiteHasProperty(site, resolved.patterns[0].p)) {
        replicas.push_back(site);
      }
    }
    EXPECT_FALSE(replicas.empty()) << q;
    EXPECT_EQ(selection.failover, replicas) << q;
  }
}

TEST(SitePruningTest, ResultsIdenticalWithAndWithoutPruning) {
  Rng rng(3);
  for (int round = 0; round < 6; ++round) {
    RdfGraph graph = testutil::RandomGraph(rng, 60, 200, 5, 12, 0.15);
    core::MpcOptions mpc_options;
    mpc_options.base.k = 4;
    mpc_options.base.epsilon = 0.3;
    const Cluster clusters[] = {
        Cluster::Build(core::MpcPartitioner(mpc_options).Partition(graph)),
        Cluster::Build(
            partition::VpPartitioner(mpc_options.base).Partition(graph))};

    DistributedExecutor::Options with, without;
    with.site_pruning = true;
    without.site_pruning = false;
    for (const Cluster& cluster : clusters) {
      DistributedExecutor pruned(cluster, graph, with);
      DistributedExecutor full(cluster, graph, without);

      for (const std::string& text :
           {std::string("SELECT * WHERE { ?x <t:p0> ?y . ?y <t:p1> ?z . }"),
            std::string("SELECT * WHERE { ?a <t:p0> ?b . ?b <t:p2> ?c . ?c "
                        "<t:p3> ?d . }"),
            std::string("SELECT * WHERE { ?x ?p ?y . }")}) {
        sparql::QueryGraph query = testutil::ParseQueryOrDie(text);
        Result<QueryResponse> a =
            pruned.Execute(QueryRequest::FromQuery(query));
        Result<QueryResponse> b = full.Execute(QueryRequest::FromQuery(query));
        ASSERT_TRUE(a.ok() && b.ok());
        EXPECT_EQ(testutil::RowSet(a->bindings),
                  testutil::RowSet(b->bindings))
            << text;
        EXPECT_EQ(testutil::RowSet(a->bindings),
                  testutil::RowSet(testutil::GroundTruth(graph, query)));
        EXPECT_EQ(b->stats.sites_pruned, 0u);
        EXPECT_LE(a->stats.sites_evaluated, b->stats.sites_evaluated);
      }
    }
  }
}

TEST(SitePruningTest, AccountingAddsUp) {
  Rng rng(5);
  RdfGraph graph = testutil::RandomGraph(rng, 60, 180, 4, 12);
  partition::PartitionerOptions options{.k = 4, .epsilon = 0.2, .seed = 2};
  const Cluster clusters[] = {
      Cluster::Build(
          partition::SubjectHashPartitioner(options).Partition(graph)),
      Cluster::Build(partition::VpPartitioner(options).Partition(graph))};
  sparql::QueryGraph query = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?a <t:p0> ?b . ?b <t:p1> ?c . ?c <t:p2> ?d . }");
  for (const Cluster& cluster : clusters) {
    DistributedExecutor executor(cluster, graph);
    Result<QueryResponse> response =
        executor.Execute(QueryRequest::FromQuery(query));
    ASSERT_TRUE(response.ok());
    const ExecutionStats& stats = response->stats;
    EXPECT_EQ(stats.sites_evaluated + stats.sites_pruned,
              static_cast<size_t>(cluster.k()) * stats.num_subqueries);
  }
}

// A pattern naming a property absent from the data, or a constant absent
// from the dictionary, matches nowhere: its sub-BGP contacts no site, on
// a vertex-disjoint and on an edge-disjoint partitioning alike.
TEST(SitePruningTest, ImpossiblePatternContactsNoSite) {
  Rng rng(7);
  RdfGraph graph = testutil::RandomGraph(rng, 60, 200, 5, 12, 0.15);
  partition::PartitionerOptions base{.k = 4, .epsilon = 0.3, .seed = 2};
  core::MpcOptions mpc_options;
  mpc_options.base = base;
  const Cluster clusters[] = {
      Cluster::Build(core::MpcPartitioner(mpc_options).Partition(graph)),
      Cluster::Build(partition::VpPartitioner(base).Partition(graph))};
  for (const Cluster& cluster : clusters) {
    DistributedExecutor executor(cluster, graph);
    for (const std::string text :
         {"SELECT * WHERE { ?x <t:ghost> ?y . }",
          "SELECT * WHERE { ?x <t:p0> <t:nowhere> . }"}) {
      const sparql::QueryGraph query = testutil::ParseQueryOrDie(text);
      Result<QueryResponse> response =
          executor.Execute(QueryRequest::FromQuery(query));
      ASSERT_TRUE(response.ok()) << text;
      const ExecutionStats& stats = response->stats;
      ASSERT_EQ(stats.num_subqueries, 1u) << text;
      EXPECT_EQ(stats.sites_evaluated, 0u) << text;
      EXPECT_EQ(stats.sites_pruned, cluster.k()) << text;
      const store::ResolvedQuery resolved = store::ResolveQuery(query, graph);
      const std::vector<size_t> all = {0};
      EXPECT_EQ(response->bindings.var_ids,
                SchemaTable(resolved, all).var_ids)
          << text;
      EXPECT_EQ(response->bindings.num_rows(), 0u) << text;
    }
  }
}

TEST(SitePruningTest, ConcentratedPropertySkipsMostSites) {
  // Property "rare" exists only inside one small community; after MPC
  // partitioning its edges live on one site, so a query over it must
  // prune (k - 1) sites.
  rdf::GraphBuilder builder;
  // 8 communities of 12 vertices, chained internally by "common".
  for (int c = 0; c < 8; ++c) {
    for (int i = 0; i + 1 < 12; ++i) {
      builder.Add("<t:c" + std::to_string(c) + "v" + std::to_string(i) + ">",
                  "<t:common>",
                  "<t:c" + std::to_string(c) + "v" +
                      std::to_string(i + 1) + ">");
    }
  }
  // "rare" edges only within community 0.
  builder.Add("<t:c0v0>", "<t:rare>", "<t:c0v5>");
  builder.Add("<t:c0v1>", "<t:rare>", "<t:c0v6>");
  rdf::RdfGraph graph = builder.Build();

  core::MpcOptions options;
  options.base.k = 4;
  options.base.epsilon = 0.5;
  Cluster cluster =
      Cluster::Build(core::MpcPartitioner(options).Partition(graph));

  sparql::QueryGraph query =
      testutil::ParseQueryOrDie("SELECT * WHERE { ?x <t:rare> ?y . }");
  DistributedExecutor executor(cluster, graph);
  Result<QueryResponse> response =
      executor.Execute(QueryRequest::FromQuery(query));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->bindings.num_rows(), 2u);
  EXPECT_GE(response->stats.sites_pruned, 1u);
  EXPECT_LT(response->stats.sites_evaluated, cluster.k());
}

TEST(SitePruningTest, AllSitesPrunedStillReturnsSchema) {
  // A property present in the dictionary but partitioned away from every
  // site cannot happen (every triple lives somewhere), so exercise the
  // adjacent case: a subquery whose property exists but whose sites are
  // pruned for the *other* required property.
  rdf::GraphBuilder builder;
  builder.Add("<t:a>", "<t:p>", "<t:b>");
  builder.Add("<t:c>", "<t:q>", "<t:d>");
  rdf::RdfGraph graph = builder.Build();
  partition::VertexAssignment assignment;
  assignment.k = 2;
  assignment.part.resize(graph.num_vertices());
  // {a,b} on site 0; {c,d} on site 1: p only on site 0, q only on 1.
  for (size_t v = 0; v < graph.num_vertices(); ++v) {
    const std::string& name = graph.VertexName(static_cast<uint32_t>(v));
    assignment.part[v] = (name == "<t:a>" || name == "<t:b>") ? 0 : 1;
  }
  Cluster cluster =
      Cluster::Build(partition::Partitioning::MaterializeVertexDisjoint(
          graph, std::move(assignment)));
  DistributedExecutor executor(cluster, graph);
  // Both patterns share ?x, one subquery needs both p and q -> no site
  // has both -> all sites pruned -> empty result with correct schema.
  sparql::QueryGraph query = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?x <t:p> ?y . ?x <t:q> ?z . }");
  Result<QueryResponse> response =
      executor.Execute(QueryRequest::FromQuery(query));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->bindings.num_rows(), 0u);
  EXPECT_EQ(response->bindings.var_ids.size(), 3u);
}

}  // namespace
}  // namespace mpc::exec
