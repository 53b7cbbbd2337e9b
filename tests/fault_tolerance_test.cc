#include <algorithm>
#include <bit>
#include <iostream>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "exec/distributed_executor.h"
#include "exec/fault_model.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "mpc/mpc_partitioner.h"
#include "partition/subject_hash_partitioner.h"
#include "partition/vp_partitioner.h"
#include "test_util.h"
#include "workload/datasets.h"

namespace mpc::exec {
namespace {

using rdf::RdfGraph;
using store::BindingTable;

RdfGraph TestGraph(uint64_t seed = 5) {
  Rng rng(seed);
  return testutil::RandomGraph(rng, 60, 240, 5, /*community=*/12,
                               /*escape=*/0.2);
}

Cluster MpcCluster(const RdfGraph& graph, uint32_t k, uint64_t seed = 3) {
  core::MpcOptions options;
  options.base.k = k;
  options.base.epsilon = 0.3;
  options.base.seed = seed;
  return Cluster::Build(core::MpcPartitioner(options).Partition(graph));
}

/// Ground truth for a degraded cluster under union semantics (Def 3.7):
/// each live site evaluates the full BGP on its own fragment (internal +
/// crossing replicas, which include the down sites' crossing edges) and
/// the row sets are unioned. Evaluating on a single merged store would be
/// wrong — it could join triples held by two *different* live sites,
/// which no per-site evaluation ever does.
BindingTable LiveUnionTruth(const Cluster& cluster,
                            const RdfGraph& graph,
                            const sparql::QueryGraph& query,
                            const std::vector<uint32_t>& down) {
  store::ResolvedQuery resolved = store::ResolveQuery(query, graph);
  BindingTable merged;
  bool first = true;
  for (uint32_t site = 0; site < cluster.k(); ++site) {
    if (std::find(down.begin(), down.end(), site) != down.end()) continue;
    store::TripleStore store(
        SiteTriples(cluster.partitioning().partition(site)));
    BindingTable table = store::BgpMatcher::EvaluateAll(store, resolved);
    if (first) {
      merged = std::move(table);
      first = false;
    } else {
      merged.rows.insert(merged.rows.end(), table.rows.begin(),
                         table.rows.end());
    }
  }
  merged.Deduplicate();
  return merged;
}

// --- FaultModel unit behavior. ---

TEST(FaultModelTest, DisabledInjectsNothing) {
  FaultModel model{FaultOptions{}};
  EXPECT_FALSE(model.enabled());
  for (uint32_t site = 0; site < 8; ++site) {
    for (size_t step = 0; step < 4; ++step) {
      EXPECT_EQ(model.Sample(site, step, 0), FaultKind::kNone);
      EXPECT_FALSE(model.DownBefore(site, step));
    }
  }
}

TEST(FaultModelTest, FailSitesCrashImmediatelyAndStayDown) {
  FaultOptions options;
  options.fail_sites = {2, 5};
  FaultModel model(options);
  EXPECT_EQ(model.Sample(2, 0, 0), FaultKind::kCrash);
  EXPECT_EQ(model.Sample(5, 3, 0), FaultKind::kCrash);
  EXPECT_TRUE(model.DownBefore(2, 0));
  EXPECT_FALSE(model.DownBefore(1, 3));
  EXPECT_EQ(model.Sample(1, 0, 0), FaultKind::kNone);
}

TEST(FaultModelTest, SamplingIsDeterministicAndSeedSensitive) {
  FaultOptions options;
  options.seed = 42;
  options.crash_rate = 0.2;
  options.transient_rate = 0.3;
  options.slowdown_rate = 0.2;
  FaultModel a(options);
  FaultModel b(options);
  options.seed = 43;
  FaultModel c(options);
  size_t differs = 0;
  for (uint32_t site = 0; site < 8; ++site) {
    for (size_t step = 0; step < 8; ++step) {
      for (int attempt = 0; attempt < 3; ++attempt) {
        EXPECT_EQ(a.Sample(site, step, attempt),
                  b.Sample(site, step, attempt));
        differs +=
            a.Sample(site, step, attempt) != c.Sample(site, step, attempt);
      }
    }
  }
  EXPECT_GT(differs, 0u);
}

TEST(FaultModelTest, RetriesNeverCrash) {
  FaultOptions options;
  options.crash_rate = 1.0;
  FaultModel model(options);
  EXPECT_EQ(model.Sample(0, 0, 0), FaultKind::kCrash);
  for (int attempt = 1; attempt < 4; ++attempt) {
    EXPECT_NE(model.Sample(0, 0, attempt), FaultKind::kCrash);
  }
}

// --- Best-effort recovery: the replica failover data-path. ---

TEST(FaultToleranceTest, BestEffortCrashServesReplicasFromLiveSites) {
  RdfGraph graph = TestGraph();
  Cluster cluster = MpcCluster(graph, 4);
  DistributedExecutor::Options options;
  options.faults.fail_sites = {0};
  options.partial_results = PartialResultPolicy::kBestEffort;
  DistributedExecutor executor(cluster, graph, options);

  // IEQ star queries: union-only execution, so the live sites' answer is
  // exactly what their stores (incl. site 0's crossing-edge replicas)
  // hold.
  for (const std::string& text :
       {std::string("SELECT * WHERE { ?x <t:p0> ?y . }"),
        std::string("SELECT * WHERE { ?x <t:p0> ?y . ?x <t:p1> ?z . }")}) {
    sparql::QueryGraph query = testutil::ParseQueryOrDie(text);
    Result<QueryResponse> response =
        executor.Execute(QueryRequest::FromQuery(query));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    const ExecutionStats& stats = response->stats;
    BindingTable& result = response->bindings;
    EXPECT_TRUE(stats.independent);

    BindingTable expected = LiveUnionTruth(cluster, graph, query, {0});
    EXPECT_EQ(testutil::RowSet(result), testutil::RowSet(expected))
        << "best-effort must equal the live-union ground truth: " << text;

    BindingTable full = testutil::GroundTruth(graph, query);
    // Degraded answers are sound: a subset of the full result.
    for (const auto& row : result.rows) {
      EXPECT_TRUE(testutil::RowSet(full).count(row));
    }
    EXPECT_FALSE(stats.complete);
    EXPECT_GT(stats.sites_failed, 0u);
    EXPECT_GT(stats.failed_site_vertices, 0u);
    EXPECT_LE(stats.replicated_failed_vertices, stats.failed_site_vertices);
    EXPECT_GT(stats.completeness_bound, 0.0);
    EXPECT_LT(stats.completeness_bound, 1.0);
  }
}

TEST(FaultToleranceTest, GstoredBestEffortAnswersFromLiveSites) {
  RdfGraph graph = TestGraph();
  Cluster cluster = MpcCluster(graph, 4);
  DistributedExecutor::Options options;
  options.faults.fail_sites = {0};
  options.partial_results = PartialResultPolicy::kBestEffort;
  DistributedExecutor executor(cluster, graph, options);
  for (const std::string& text :
       {std::string("SELECT * WHERE { ?x <t:p0> ?y . ?x <t:p1> ?z . }"),
        std::string("SELECT * WHERE { ?a <t:p0> ?b . ?b <t:p1> ?c . }")}) {
    sparql::QueryGraph query = testutil::ParseQueryOrDie(text);
    Result<QueryResponse> response = executor.Execute(
        QueryRequest::FromQuery(query, {.strategy = ExecStrategy::kGstored}));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_FALSE(response->stats.complete) << text;
    EXPECT_GT(response->stats.sites_failed, 0u) << text;
    // Degraded answers are sound: a subset of the full result.
    const auto full = testutil::RowSet(testutil::GroundTruth(graph, query));
    for (const auto& row : response->bindings.rows) {
      EXPECT_TRUE(full.count(row)) << text;
    }
  }
}

TEST(FaultToleranceTest, FailoverHitsCountReplicaServedRows) {
  RdfGraph graph = TestGraph(6);
  Cluster cluster = MpcCluster(graph, 4);
  DistributedExecutor::Options options;
  options.faults.fail_sites = {1};
  options.partial_results = PartialResultPolicy::kBestEffort;
  DistributedExecutor executor(cluster, graph, options);

  sparql::QueryGraph query =
      testutil::ParseQueryOrDie("SELECT * WHERE { ?x <t:p0> ?y . }");
  Result<QueryResponse> response =
      executor.Execute(QueryRequest::FromQuery(query));
  ASSERT_TRUE(response.ok());
  const ExecutionStats& stats = response->stats;

  // Recount independently: rows binding a vertex owned by site 1.
  const auto& part = cluster.partitioning().assignment().part;
  size_t expected_hits = 0;
  for (const auto& row : response->bindings.rows) {
    bool hit = false;
    for (uint32_t v : row) hit |= (v < part.size() && part[v] == 1);
    expected_hits += hit;
  }
  EXPECT_EQ(stats.failover_hits, expected_hits);
  if (expected_hits > 0) {
    EXPECT_FALSE(stats.complete);
  }
}

TEST(FaultToleranceTest, TransientFaultsRecoverWithRetries) {
  RdfGraph graph = TestGraph(7);
  Cluster cluster = MpcCluster(graph, 4);
  DistributedExecutor::Options options;
  options.faults.seed = 11;
  options.faults.transient_rate = 0.4;
  options.network.max_retries = 8;  // 0.4^9: retries always win
  options.partial_results = PartialResultPolicy::kFail;
  DistributedExecutor executor(cluster, graph, options);

  sparql::QueryGraph query = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?a <t:p0> ?b . ?b <t:p1> ?c . }");
  Result<QueryResponse> response =
      executor.Execute(QueryRequest::FromQuery(query));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  const ExecutionStats& stats = response->stats;
  EXPECT_EQ(testutil::RowSet(response->bindings),
            testutil::RowSet(testutil::GroundTruth(graph, query)));
  EXPECT_TRUE(stats.complete);
  EXPECT_EQ(stats.sites_failed, 0u);
  EXPECT_GT(stats.retries, 0u);
  EXPECT_GT(stats.fault_wait_millis, 0.0);
}

// --- kFail policy: errors with the right codes. ---

TEST(FaultToleranceTest, FailPolicyReturnsUnavailableOnCrash) {
  RdfGraph graph = TestGraph(8);
  Cluster cluster = MpcCluster(graph, 4);
  DistributedExecutor::Options options;
  options.faults.fail_sites = {2};
  options.partial_results = PartialResultPolicy::kFail;
  DistributedExecutor executor(cluster, graph, options);
  Result<QueryResponse> response = executor.Execute(
      QueryRequest::FromText("SELECT * WHERE { ?x <t:p0> ?y . }"));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kUnavailable);
  // The executor-level error also names the query it failed on.
  EXPECT_NE(response.status().message().find("<t:p0>"), std::string::npos)
      << response.status().ToString();
}

TEST(FaultToleranceTest, FailPolicyReturnsUnavailableAfterRetries) {
  RdfGraph graph = TestGraph(9);
  Cluster cluster = MpcCluster(graph, 4);
  DistributedExecutor::Options options;
  options.faults.transient_rate = 1.0;  // every attempt fails
  options.network.max_retries = 3;
  DistributedExecutor executor(cluster, graph, options);
  const uint64_t retries_before =
      obs::MetricsRegistry::Default().CounterRef("exec.retries").value();
  Result<QueryResponse> response = executor.Execute(
      QueryRequest::FromText("SELECT * WHERE { ?x <t:p0> ?y . }"));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kUnavailable);
  // The first failing site burned exactly max_retries retries (stats are
  // not returned on error, but the exec.retries counter still is).
  EXPECT_EQ(obs::MetricsRegistry::Default().CounterRef("exec.retries").value(),
            retries_before + 3u);
}

TEST(FaultToleranceTest, DeadlineExceededWhenSlowdownsMissTimeout) {
  RdfGraph graph = TestGraph(10);
  Cluster cluster = MpcCluster(graph, 4);
  DistributedExecutor::Options options;
  options.faults.slowdown_rate = 1.0;
  options.network.site_timeout_ms = 50.0;
  options.network.max_retries = 2;
  DistributedExecutor executor(cluster, graph, options);
  Result<QueryResponse> response = executor.Execute(
      QueryRequest::FromText("SELECT * WHERE { ?x <t:p0> ?y . }"));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(FaultToleranceTest, SlowdownWithoutDeadlineOnlyCostsTime) {
  RdfGraph graph = TestGraph(11);
  Cluster cluster = MpcCluster(graph, 4);
  DistributedExecutor::Options options;
  options.faults.slowdown_rate = 1.0;  // every site slow, no deadline
  DistributedExecutor executor(cluster, graph, options);
  sparql::QueryGraph query =
      testutil::ParseQueryOrDie("SELECT * WHERE { ?x <t:p0> ?y . }");
  Result<QueryResponse> response =
      executor.Execute(QueryRequest::FromQuery(query));
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->stats.complete);
  EXPECT_EQ(testutil::RowSet(response->bindings),
            testutil::RowSet(testutil::GroundTruth(graph, query)));
}

// --- Stats invariants and determinism. ---

/// The deterministic (non-timing) slice of ExecutionStats.
auto StatKey(const ExecutionStats& stats) {
  return std::make_tuple(stats.cls, stats.independent, stats.num_subqueries,
                         stats.num_results, stats.shipped_bytes,
                         stats.sites_evaluated, stats.sites_pruned,
                         stats.sites_failed, stats.retries,
                         stats.failover_hits, stats.complete,
                         stats.failed_site_vertices,
                         stats.replicated_failed_vertices,
                         stats.completeness_bound, stats.local_rows,
                         stats.fault_wait_millis);
}

TEST(FaultToleranceTest, SameSeedSameStatsAtAnyThreadCount) {
  RdfGraph graph = TestGraph(12);
  for (bool vp : {false, true}) {
    partition::Partitioning partitioning;
    if (vp) {
      partition::PartitionerOptions base{.k = 8, .epsilon = 0.3, .seed = 3};
      partitioning = partition::VpPartitioner(base).Partition(graph);
    } else {
      core::MpcOptions options;
      options.base.k = 8;
      options.base.epsilon = 0.3;
      options.base.seed = 3;
      partitioning = core::MpcPartitioner(options).Partition(graph);
    }
    Cluster cluster = Cluster::Build(std::move(partitioning));
    for (const std::string& text :
         {std::string("SELECT * WHERE { ?x <t:p0> ?y . ?x <t:p1> ?z . }"),
          std::string(
              "SELECT * WHERE { ?a <t:p0> ?b . ?b <t:p1> ?c . ?c <t:p2> "
              "?d . }")}) {
      sparql::QueryGraph query = testutil::ParseQueryOrDie(text);
      std::vector<std::vector<std::vector<uint32_t>>> row_sets;
      std::vector<decltype(StatKey(ExecutionStats{}))> keys;
      for (int threads : {1, 8}) {
        DistributedExecutor::Options options;
        options.num_threads = threads;
        options.faults.seed = 99;
        options.faults.crash_rate = 0.15;
        options.faults.transient_rate = 0.2;
        options.faults.slowdown_rate = 0.1;
        options.network.site_timeout_ms = 25.0;
        options.partial_results = PartialResultPolicy::kBestEffort;
        DistributedExecutor executor(cluster, graph, options);
        Result<QueryResponse> response =
            executor.Execute(QueryRequest::FromQuery(query));
        ASSERT_TRUE(response.ok()) << response.status().ToString();
        response->bindings.Deduplicate();  // canonical row order
        row_sets.push_back(response->bindings.rows);
        keys.push_back(StatKey(response->stats));
      }
      EXPECT_EQ(row_sets[0], row_sets[1]) << text;
      EXPECT_EQ(keys[0], keys[1]) << text;
    }
  }
}

TEST(FaultToleranceTest, SiteSlotInvariantHoldsUnderFaults) {
  RdfGraph graph = TestGraph(13);
  for (uint64_t fault_seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    for (bool hash : {false, true}) {
      Cluster cluster =
          hash ? Cluster::Build(
                     partition::SubjectHashPartitioner(
                         partition::PartitionerOptions{
                             .k = 4, .epsilon = 0.3, .seed = 7})
                         .Partition(graph))
               : MpcCluster(graph, 4);
      DistributedExecutor::Options options;
      options.faults.seed = fault_seed;
      options.faults.crash_rate = 0.2;
      options.faults.transient_rate = 0.2;
      options.faults.slowdown_rate = 0.1;
      options.network.site_timeout_ms = 10.0;
      options.partial_results = PartialResultPolicy::kBestEffort;
      DistributedExecutor executor(cluster, graph, options);
      for (const std::string& text :
           {std::string("SELECT * WHERE { ?x <t:p0> ?y . }"),
            std::string("SELECT * WHERE { ?a <t:p0> ?b . ?b <t:p1> ?c . "
                        "?c <t:p2> ?d . }"),
            std::string("SELECT * WHERE { ?x ?p ?y . ?x <t:p4> ?z . }")}) {
        sparql::QueryGraph query = testutil::ParseQueryOrDie(text);
        Result<QueryResponse> response =
            executor.Execute(QueryRequest::FromQuery(query));
        ASSERT_TRUE(response.ok());
        const ExecutionStats& stats = response->stats;
        EXPECT_EQ(
            stats.sites_evaluated + stats.sites_pruned + stats.sites_failed,
            cluster.k() * stats.num_subqueries)
            << text << " seed " << fault_seed;
      }
    }
  }
}

TEST(FaultToleranceTest, VpInvariantAndIncompletenessUnderCrash) {
  RdfGraph graph = TestGraph(14);
  partition::PartitionerOptions base{.k = 4, .epsilon = 0.3, .seed = 5};
  Cluster cluster =
      Cluster::Build(partition::VpPartitioner(base).Partition(graph));
  DistributedExecutor::Options options;
  options.faults.fail_sites = {0, 1};
  options.partial_results = PartialResultPolicy::kBestEffort;
  DistributedExecutor executor(cluster, graph, options);
  for (const std::string& text :
       {std::string("SELECT * WHERE { ?x <t:p0> ?y . }"),
        std::string(
            "SELECT * WHERE { ?a <t:p0> ?b . ?b <t:p1> ?c . }")}) {
    sparql::QueryGraph query = testutil::ParseQueryOrDie(text);
    Result<QueryResponse> response =
        executor.Execute(QueryRequest::FromQuery(query));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    const ExecutionStats& stats = response->stats;
    EXPECT_EQ(stats.sites_evaluated + stats.sites_pruned + stats.sites_failed,
              cluster.k() * stats.num_subqueries)
        << text;
    // VP keeps no replicas: nothing is recoverable from the dead sites.
    EXPECT_EQ(stats.failover_hits, 0u);
    if (stats.sites_failed > 0) {
      EXPECT_FALSE(stats.complete);
      EXPECT_LT(stats.completeness_bound, 1.0);
    }
  }
}

// --- Golden pin: bindings and every non-timing stat, per plan. ---

/// One line per query: the status code, the bindings (columns in order,
/// rows in order) and every non-timing ExecutionStats field, doubles as
/// exact bit patterns. Timing fields (decomposition/local/join/total
/// millis) are wall-clock measurements and left out.
std::string GoldenLine(const Result<QueryResponse>& response) {
  std::string out = StatusCodeName(response.status().code());
  if (!response.ok()) return out + "\n";
  auto add = [&out](uint64_t v) { out += " " + std::to_string(v); };
  auto add_double = [&add](double v) { add(std::bit_cast<uint64_t>(v)); };
  const BindingTable& table = response->bindings;
  add(table.var_ids.size());
  for (uint32_t v : table.var_ids) add(v);
  add(table.rows.size());
  for (const auto& row : table.rows) {
    for (uint32_t v : row) add(v);
  }
  const ExecutionStats& s = response->stats;
  add(static_cast<uint64_t>(s.cls));
  add(s.independent);
  add(s.num_subqueries);
  add_double(s.network_millis);
  add(s.num_results);
  add(s.shipped_bytes);
  add(s.sites_evaluated);
  add(s.sites_pruned);
  add(s.bloom_dropped_rows);
  add(s.local_rows);
  add(s.sites_failed);
  add(s.retries);
  add(s.failover_hits);
  add(s.complete);
  add(s.failed_site_vertices);
  add(s.replicated_failed_vertices);
  add_double(s.completeness_bound);
  add_double(s.fault_wait_millis);
  add(s.plan_cache_hit);
  add(s.result_cache_hit);
  add(s.trace_id);
  return out + "\n";
}

/// The status and bindings of GoldenLine, without the stats.
std::string BindingsLine(const Result<QueryResponse>& response) {
  std::string out = StatusCodeName(response.status().code());
  if (!response.ok()) return out + "\n";
  auto add = [&out](uint64_t v) { out += " " + std::to_string(v); };
  const BindingTable& table = response->bindings;
  add(table.var_ids.size());
  for (uint32_t v : table.var_ids) add(v);
  add(table.rows.size());
  for (const auto& row : table.rows) {
    for (uint32_t v : row) add(v);
  }
  return out + "\n";
}

/// The status and bindings of GoldenLine in row order-insensitive form
/// (testutil::RowSet): what the vp rows must keep when only the order of
/// their rows moves.
std::string RowSetLine(const Result<QueryResponse>& response) {
  std::string out = StatusCodeName(response.status().code());
  if (!response.ok()) return out + "\n";
  auto add = [&out](uint64_t v) { out += " " + std::to_string(v); };
  const BindingTable& table = response->bindings;
  add(table.var_ids.size());
  for (uint32_t v : table.var_ids) add(v);
  add(table.rows.size());
  for (const std::vector<uint32_t>& row : testutil::RowSet(table)) {
    for (uint32_t v : row) add(v);
  }
  return out + "\n";
}

/// The gStoreD rows pin the bindings and the stats the standalone gStoreD
/// runtime reported before it became a plan of DistributedExecutor; the
/// dispatch counters, which it never filled in, are left out.
std::string GstoredGoldenLine(const Result<QueryResponse>& response) {
  std::string out = StatusCodeName(response.status().code());
  if (!response.ok()) return out + "\n";
  auto add = [&out](uint64_t v) { out += " " + std::to_string(v); };
  const BindingTable& table = response->bindings;
  add(table.var_ids.size());
  for (uint32_t v : table.var_ids) add(v);
  add(table.rows.size());
  for (const auto& row : table.rows) {
    for (uint32_t v : row) add(v);
  }
  const ExecutionStats& s = response->stats;
  add(static_cast<uint64_t>(s.cls));
  add(s.independent);
  add(s.num_subqueries);
  add(s.num_results);
  add(s.shipped_bytes);
  add(s.local_rows);
  return out + "\n";
}

/// Recorded from the executor before its per-site loops were merged into
/// one scatter/gather step; any change to an answer or to a non-timing
/// stat on any plan shows up here. Rows: {LUBM LQ1-LQ14, fault-test
/// queries} x {MPC, MPC + Bloom reduction, VP} x {faults off, seeded
/// faults under kFail, seeded faults under kBestEffort}, plus the
/// gStoreD plan on MPC without faults, with site pruning on and off.
/// The six lubm/{mpc,bloom} rows were re-pinned when ownership
/// localization joined site pruning: it contacts fewer sites, which
/// moves the site counters and modeled network time and, under faults,
/// the failures a pruned site would have drawn. Without faults and
/// under kBestEffort their pruning-off runs must give the pruning-on
/// bindings. The vp rows were re-pinned when VP became a plan of
/// PlanQuery: modeled network_millis now charges one transfer per site
/// evaluation instead of one per pattern, which differs where a pattern
/// reached all k sites (a variable predicate) or a site failed.
TEST(FaultToleranceTest, GoldenBindingsAndStatsOnEveryPlan) {
  struct Workload {
    std::string name;
    RdfGraph graph;
    std::vector<std::string> queries;
  };
  std::vector<Workload> workloads;
  {
    workload::GeneratedDataset d =
        workload::MakeDataset(workload::DatasetId::kLubm, 0.2, 1);
    Workload w{"lubm", std::move(d.graph), {}};
    for (const workload::NamedQuery& nq : d.benchmark_queries) {
      w.queries.push_back(nq.sparql);
    }
    workloads.push_back(std::move(w));
  }
  workloads.push_back(
      {"fault",
       TestGraph(12),
       {"SELECT * WHERE { ?x <t:p0> ?y . }",
        "SELECT * WHERE { ?x <t:p0> ?y . ?x <t:p1> ?z . }",
        "SELECT * WHERE { ?a <t:p0> ?b . ?b <t:p1> ?c . }",
        "SELECT * WHERE { ?a <t:p0> ?b . ?b <t:p1> ?c . ?c <t:p2> ?d . }",
        "SELECT * WHERE { ?x ?p ?y . ?x <t:p4> ?z . }"}});

  const std::map<std::string, uint64_t> golden = {
      {"lubm/mpc/off", 11907806145854925993u},
      {"lubm/mpc/fail", 6328370296082031929u},
      {"lubm/mpc/best_effort", 10550380959982599443u},
      {"lubm/bloom/off", 11907806145854925993u},
      {"lubm/bloom/fail", 6328370296082031929u},
      {"lubm/bloom/best_effort", 10550380959982599443u},
      {"lubm/vp/off", 11363413662897742062u},
      {"lubm/vp/fail", 12388032214214729580u},
      {"lubm/vp/best_effort", 11027657180067751848u},
      {"fault/mpc/off", 8168546654996974357u},
      {"fault/mpc/fail", 16411557214553012096u},
      {"fault/mpc/best_effort", 3188955596020314146u},
      {"fault/bloom/off", 17209307654308413146u},
      {"fault/bloom/fail", 16411557214553012096u},
      {"fault/bloom/best_effort", 9518069967698880264u},
      {"fault/vp/off", 13800760332370403211u},
      {"fault/vp/fail", 6480209862890273024u},
      {"fault/vp/best_effort", 10873516967916518543u},
      {"lubm/gstored/off", 245089009904552873u},
      {"fault/gstored/off", 2038728540008664489u},
  };
  // The vp rows' bindings as row sets, recorded before VP became a plan
  // of PlanQuery; the re-pins above may move row order, never these.
  const std::map<std::string, uint64_t> vp_row_sets = {
      {"lubm/vp/off", 2778010522303414487u},
      {"lubm/vp/fail", 9954896520839147101u},
      {"lubm/vp/best_effort", 11575289529043622129u},
      {"fault/vp/off", 6011370282902267477u},
      {"fault/vp/fail", 2619710438598733417u},
      {"fault/vp/best_effort", 16488206104803530234u},
  };

  std::string recorded;
  for (const Workload& w : workloads) {
    partition::PartitionerOptions base{.k = 8, .epsilon = 0.3, .seed = 3};
    core::MpcOptions mpc_options;
    mpc_options.base = base;
    const Cluster mpc_cluster =
        Cluster::Build(core::MpcPartitioner(mpc_options).Partition(w.graph));
    const Cluster vp_cluster =
        Cluster::Build(partition::VpPartitioner(base).Partition(w.graph));
    for (const std::string strategy : {"mpc", "bloom", "vp", "gstored"}) {
      const bool gstored = strategy == "gstored";
      for (const std::string faults : {"off", "fail", "best_effort"}) {
        if (gstored && faults != "off") continue;
        const std::string name = w.name + "/" + strategy + "/" + faults;
        // The fault schedule depends on (seed, site, step) only, so
        // several seeds are needed to reach crashes, exhausted retries
        // and blown deadlines on different sites and steps.
        const std::vector<uint64_t> seeds =
            faults == "off" ? std::vector<uint64_t>{0}
                            : std::vector<uint64_t>{1, 2, 3, 4, 5, 6, 7, 8};
        // {threads, site_pruning}; every run must hash the same. Pruning
        // changes the MPC plans' site counters, so their pruning-off
        // runs are held to the bindings only — and not under kFail,
        // where a site pruning skips can fail the query once contacted.
        std::vector<std::pair<int, bool>> runs = {{1, true}, {8, true}};
        if (strategy != "vp" && faults != "fail") {
          runs.insert(runs.end(), {{1, false}, {8, false}});
        }
        std::vector<uint64_t> hashes;
        std::vector<uint64_t> bindings_hashes;
        std::string row_sets;
        for (const auto& [threads, pruning] : runs) {
          std::string lines;
          std::string bindings;
          row_sets.clear();
          for (uint64_t seed : seeds) {
            DistributedExecutor::Options options;
            options.num_threads = threads;
            options.site_pruning = pruning;
            options.bloom_reduction = strategy == "bloom";
            if (faults != "off") {
              options.faults.seed = seed;
              options.faults.crash_rate = 0.05;
              options.faults.transient_rate = 0.25;
              options.faults.slowdown_rate = 0.1;
              options.network.site_timeout_ms = 25.0;
              options.network.max_retries = 1;
            }
            options.partial_results = faults == "best_effort"
                                          ? PartialResultPolicy::kBestEffort
                                          : PartialResultPolicy::kFail;
            DistributedExecutor executor(
                strategy == "vp" ? vp_cluster : mpc_cluster, w.graph,
                options);
            for (const std::string& text : w.queries) {
              const Result<QueryResponse> response =
                  executor.Execute(QueryRequest::FromQuery(
                      testutil::ParseQueryOrDie(text),
                      {.strategy = gstored ? ExecStrategy::kGstored
                                           : ExecStrategy::kAuto}));
              lines += gstored ? GstoredGoldenLine(response)
                               : GoldenLine(response);
              bindings += BindingsLine(response);
              row_sets += RowSetLine(response);
            }
          }
          hashes.push_back(HashString(lines));
          bindings_hashes.push_back(HashString(bindings));
        }
        for (size_t r = 1; r < runs.size(); ++r) {
          const bool stats_pinned = gstored || runs[r].second;
          EXPECT_EQ(stats_pinned ? hashes[0] : bindings_hashes[0],
                    stats_pinned ? hashes[r] : bindings_hashes[r])
              << name << ": " << runs[r].first << " threads, site pruning "
              << (runs[r].second ? "on" : "off");
        }
        EXPECT_EQ(hashes[0], golden.at(name)) << name;
        recorded += "{\"" + name + "\", " + std::to_string(hashes[0]) +
                    "u},\n";
        if (strategy == "vp") {
          EXPECT_EQ(HashString(row_sets), vp_row_sets.at(name)) << name;
          recorded += "row set {\"" + name + "\", " +
                      std::to_string(HashString(row_sets)) + "u},\n";
        }
      }
    }
  }
  // Printed on any mismatch so a deliberate change can re-pin in one go.
  if (HasFailure()) std::cerr << recorded;
}

// --- Cluster replica lookup. ---

TEST(ClusterReplicaTest, CoverageCountsDownSiteData) {
  RdfGraph graph = TestGraph(15);
  Cluster cluster = MpcCluster(graph, 4);
  SiteAvailability avail = cluster.AllUp();
  EXPECT_EQ(cluster.ComputeReplicaCoverage(avail).failed_owned_vertices, 0u);

  avail.MarkDown(0);
  ReplicaCoverage coverage = cluster.ComputeReplicaCoverage(avail);
  EXPECT_EQ(coverage.failed_owned_vertices, cluster.OwnedVertexCount(0));
  EXPECT_LE(coverage.replicated_on_live, coverage.failed_owned_vertices);
  // Internal edges of the down site are always unrecoverable.
  EXPECT_GE(coverage.lost_triples,
            cluster.partitioning().partition(0).internal_edges.size());

  // More failures never shrink the loss.
  avail.MarkDown(1);
  ReplicaCoverage coverage2 = cluster.ComputeReplicaCoverage(avail);
  EXPECT_GE(coverage2.lost_triples, coverage.lost_triples);
  EXPECT_GE(coverage2.failed_owned_vertices, coverage.failed_owned_vertices);
}

}  // namespace
}  // namespace mpc::exec
