#include "exec/distributed_executor.h"

#include <memory>
#include <ostream>
#include <utility>

#include "common/random.h"
#include "gtest/gtest.h"
#include "mpc/mpc_partitioner.h"
#include "partition/edge_cut_partitioner.h"
#include "partition/subject_hash_partitioner.h"
#include "partition/vp_partitioner.h"
#include "test_util.h"

namespace mpc::exec {
namespace {

using rdf::RdfGraph;
using store::BindingTable;

/// Queries spanning every IEQ class over graphs with 5 properties
/// p0..p4 (as produced by testutil::RandomGraph).
std::vector<std::string> TestQueries() {
  return {
      // star, 1 edge
      "SELECT * WHERE { ?x <t:p0> ?y . }",
      // star, 2 out-edges
      "SELECT * WHERE { ?x <t:p0> ?y . ?x <t:p1> ?z . }",
      // in/out star
      "SELECT * WHERE { ?a <t:p2> ?x . ?x <t:p3> ?b . }",
      // path of 3
      "SELECT * WHERE { ?a <t:p0> ?b . ?b <t:p1> ?c . ?c <t:p2> ?d . }",
      // triangle
      "SELECT * WHERE { ?a <t:p0> ?b . ?b <t:p1> ?c . ?a <t:p2> ?c . }",
      // variable predicate in the middle of a path
      "SELECT * WHERE { ?a <t:p0> ?b . ?b ?p ?c . ?c <t:p1> ?d . }",
      // star with variable predicate
      "SELECT * WHERE { ?x ?p ?y . ?x <t:p4> ?z . }",
      // 4-edge snowflake
      "SELECT * WHERE { ?x <t:p0> ?a . ?x <t:p1> ?b . ?b <t:p2> ?c . ?b "
      "<t:p3> ?d . }",
      // disconnected: the two edges may match at different sites
      "SELECT * WHERE { ?a <t:p0> ?b . ?c <t:p1> ?d . }",
  };
}

enum class Strategy { kMpc, kHash, kMetis, kVp };

partition::Partitioning MakePartitioning(Strategy strategy,
                                         const RdfGraph& graph, uint32_t k,
                                         uint64_t seed) {
  partition::PartitionerOptions base{.k = k, .epsilon = 0.3, .seed = seed};
  switch (strategy) {
    case Strategy::kMpc: {
      core::MpcOptions options;
      options.base.k = k;
      options.base.epsilon = 0.3;
      options.base.seed = seed;
      return core::MpcPartitioner(options).Partition(graph);
    }
    case Strategy::kHash:
      return partition::SubjectHashPartitioner(base).Partition(graph);
    case Strategy::kMetis:
      return partition::EdgeCutPartitioner(base).Partition(graph);
    case Strategy::kVp:
      return partition::VpPartitioner(base).Partition(graph);
  }
  return partition::Partitioning{};
}

struct ExecCase {
  Strategy strategy;
  uint32_t k;
  uint64_t seed;
  /// Share of edges leaving their community. At 0 every community of 12
  /// fits one site under MPC's cap, so MPC keeps every property internal
  /// and crossing-free queries (the disconnected one included) reach the
  /// classifier's no-crossing branch.
  double escape = 0.15;
};

/// Readable case name, e.g. Mpc_k4_seed102 or Mpc_k2_seed112_escape0:
/// the test name and the printed parameter.
std::string CaseName(const ExecCase& c) {
  const char* strategy = "Mpc";
  switch (c.strategy) {
    case Strategy::kMpc: break;
    case Strategy::kHash: strategy = "Hash"; break;
    case Strategy::kMetis: strategy = "Metis"; break;
    case Strategy::kVp: strategy = "Vp"; break;
  }
  std::string name = std::string(strategy) + "_k" + std::to_string(c.k) +
                     "_seed" + std::to_string(c.seed);
  if (c.escape == 0.0) name += "_escape0";
  return name;
}
void PrintTo(const ExecCase& c, std::ostream* os) { *os << CaseName(c); }

class ExecutorCorrectnessTest : public ::testing::TestWithParam<ExecCase> {};

// THE core soundness property of the whole system: for every strategy and
// every query class, the distributed result equals the single-store
// ground truth (Definition 3.7 when independent; decompose+join
// otherwise) — under the default plan and, on vertex-disjoint
// partitionings, under gStoreD's partial-evaluation plan too.
TEST_P(ExecutorCorrectnessTest, MatchesGroundTruth) {
  const auto [strategy, k, seed, escape] = GetParam();
  Rng rng(seed);
  RdfGraph graph = testutil::RandomGraph(rng, 60, 220, 5, /*community=*/12,
                                         escape);
  partition::Partitioning partitioning =
      MakePartitioning(strategy, graph, k, seed);
  if (escape == 0.0) {
    // These cases exist to keep properties internal.
    ASSERT_EQ(partitioning.num_crossing_properties(), 0u);
  }
  Cluster cluster = Cluster::Build(std::move(partitioning));
  DistributedExecutor executor(cluster, graph);
  std::vector<ExecStrategy> plans = {ExecStrategy::kAuto};
  if (strategy != Strategy::kVp) plans.push_back(ExecStrategy::kGstored);

  for (const std::string& text : TestQueries()) {
    sparql::QueryGraph query = testutil::ParseQueryOrDie(text);
    BindingTable truth = testutil::GroundTruth(graph, query);
    for (ExecStrategy plan : plans) {
      Result<QueryResponse> response = executor.Execute(
          QueryRequest::FromQuery(query, {.strategy = plan}));
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      EXPECT_EQ(testutil::RowSet(response->bindings),
                testutil::RowSet(truth))
          << "query: " << text << "\nplan: " << ExecStrategyName(plan)
          << "\nclass: " << IeqClassName(response->stats.cls)
          << " rows: " << response->bindings.num_rows() << " vs "
          << truth.num_rows();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExecutorCorrectnessTest,
    ::testing::Values(ExecCase{Strategy::kMpc, 2, 101},
                      ExecCase{Strategy::kMpc, 4, 102},
                      ExecCase{Strategy::kMpc, 8, 103},
                      ExecCase{Strategy::kHash, 2, 104},
                      ExecCase{Strategy::kHash, 4, 105},
                      ExecCase{Strategy::kHash, 8, 106},
                      ExecCase{Strategy::kMetis, 4, 107},
                      ExecCase{Strategy::kMetis, 8, 108},
                      ExecCase{Strategy::kVp, 2, 109},
                      ExecCase{Strategy::kVp, 4, 110},
                      ExecCase{Strategy::kVp, 8, 111},
                      ExecCase{Strategy::kMpc, 2, 112, 0.0},
                      ExecCase{Strategy::kMpc, 4, 113, 0.0}),
    [](const auto& info) { return CaseName(info.param); });

TEST(ExecutorStatsTest, IeqHasZeroJoinTimeAndOneSubquery) {
  Rng rng(7);
  RdfGraph graph = testutil::RandomGraph(rng, 40, 120, 4, 10);
  core::MpcOptions options;
  options.base.k = 4;
  options.base.epsilon = 0.3;
  Cluster cluster =
      Cluster::Build(core::MpcPartitioner(options).Partition(graph));
  DistributedExecutor executor(cluster, graph);

  sparql::QueryGraph star = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?x <t:p0> ?a . ?x <t:p1> ?b . }");
  Result<QueryResponse> response =
      executor.Execute(QueryRequest::FromQuery(star));
  ASSERT_TRUE(response.ok());
  const ExecutionStats& stats = response->stats;
  EXPECT_TRUE(stats.independent);
  EXPECT_EQ(stats.num_subqueries, 1u);
  EXPECT_EQ(stats.join_millis, 0.0);
  EXPECT_GT(stats.total_millis, 0.0);
}

TEST(ExecutorStatsTest, NonIeqReportsSubqueries) {
  Rng rng(8);
  RdfGraph graph = testutil::RandomGraph(rng, 40, 120, 4, 10);
  // Subject hash: almost everything crossing -> path query decomposes.
  partition::PartitionerOptions options{.k = 4, .epsilon = 0.3, .seed = 9};
  Cluster cluster = Cluster::Build(
      partition::SubjectHashPartitioner(options).Partition(graph));
  DistributedExecutor executor(cluster, graph);
  sparql::QueryGraph path = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?a <t:p0> ?b . ?b <t:p1> ?c . ?c <t:p2> ?d . }");
  Result<QueryResponse> response =
      executor.Execute(QueryRequest::FromQuery(path));
  ASSERT_TRUE(response.ok());
  if (!response->stats.independent) {
    EXPECT_GE(response->stats.num_subqueries, 2u);
  }
}

TEST(ExecutorTest, ExecuteTextParsesAndRuns) {
  Rng rng(9);
  RdfGraph graph = testutil::RandomGraph(rng, 30, 90, 3);
  partition::PartitionerOptions options{.k = 2, .epsilon = 0.3, .seed = 1};
  Cluster cluster = Cluster::Build(
      partition::SubjectHashPartitioner(options).Partition(graph));
  DistributedExecutor executor(cluster, graph);
  EXPECT_TRUE(
      executor
          .Execute(QueryRequest::FromText("SELECT * WHERE { ?x <t:p0> ?y . }"))
          .ok());
  Result<QueryResponse> bad =
      executor.Execute(QueryRequest::FromText("NOT SPARQL"));
  ASSERT_FALSE(bad.ok());
  // Regression: a failed parse must name the offending query, so a bad
  // line in a thousand-query replay log can be found again.
  EXPECT_NE(bad.status().message().find("NOT SPARQL"), std::string::npos)
      << bad.status().ToString();
}

TEST(ExecutorTest, LimitClauseTruncatesResults) {
  Rng rng(15);
  RdfGraph graph = testutil::RandomGraph(rng, 30, 200, 2);
  partition::PartitionerOptions options{.k = 2, .epsilon = 0.3, .seed = 1};
  Cluster cluster = Cluster::Build(
      partition::SubjectHashPartitioner(options).Partition(graph));
  DistributedExecutor executor(cluster, graph);
  sparql::QueryGraph q = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?x <t:p0> ?y . } LIMIT 3");
  Result<QueryResponse> response = executor.Execute(QueryRequest::FromQuery(q));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->bindings.num_rows(), 3u);
}

TEST(ExecutorTest, MaxRowsCapsResults) {
  Rng rng(10);
  RdfGraph graph = testutil::RandomGraph(rng, 30, 200, 2);
  partition::PartitionerOptions options{.k = 2, .epsilon = 0.3, .seed = 1};
  Cluster cluster = Cluster::Build(
      partition::SubjectHashPartitioner(options).Partition(graph));
  DistributedExecutor::Options exec_options;
  exec_options.max_rows = 5;
  DistributedExecutor executor(cluster, graph, exec_options);
  sparql::QueryGraph q =
      testutil::ParseQueryOrDie("SELECT * WHERE { ?x <t:p0> ?y . }");
  Result<QueryResponse> response = executor.Execute(QueryRequest::FromQuery(q));
  ASSERT_TRUE(response.ok());
  // Per-site cap of 5 over 2 sites: at most 10 before dedup.
  EXPECT_LE(response->bindings.num_rows(), 10u);
}

// The dbpedia_log query shape `<r> p1 <r> . <r> p2 ?v1 . ?v1 p3 ?v2`
// with p2 crossing decomposes into a subquery without variables,
// `<r> p1 <r>`, and one holding the rest. The variable-free subquery
// answers "true" as one row with no columns and must join as a filter,
// not as an empty table. Vertices r, x, y live at site 0 and a, b at
// site 1, so r p2 a is the one crossing edge.
RdfGraph ZeroVariableGraph() {
  return testutil::BuildGraph({
      {"r", "p1", "r"},
      {"r", "p2", "a"},
      {"r", "p2", "x"},
      {"a", "p3", "b"},
      {"x", "p3", "y"},
  });
}

constexpr const char* kZeroVariableQuery =
    "SELECT * WHERE { <t:r> <t:p1> <t:r> . <t:r> <t:p2> ?v1 . "
    "?v1 <t:p3> ?v2 . }";

TEST(ExecutorTest, VariableFreeSubqueryJoinsAsFilterOnVertexDisjointPlan) {
  RdfGraph graph = ZeroVariableGraph();
  partition::VertexAssignment assignment;
  assignment.k = 2;
  assignment.part.resize(graph.num_vertices());
  for (uint32_t v = 0; v < graph.num_vertices(); ++v) {
    const std::string& name = graph.VertexName(v);
    assignment.part[v] = (name == "<t:a>" || name == "<t:b>") ? 1 : 0;
  }
  Cluster cluster = Cluster::Build(
      partition::Partitioning::MaterializeVertexDisjoint(
          graph, std::move(assignment)));
  DistributedExecutor executor(cluster, graph);
  sparql::QueryGraph query = testutil::ParseQueryOrDie(kZeroVariableQuery);
  Result<QueryResponse> response =
      executor.Execute(QueryRequest::FromQuery(query));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->stats.cls, IeqClass::kNonIeq);
  EXPECT_EQ(response->stats.num_subqueries, 2u);
  EXPECT_EQ(response->bindings.num_rows(), 2u);
  EXPECT_EQ(testutil::RowSet(response->bindings),
            testutil::RowSet(testutil::GroundTruth(graph, query)));
}

TEST(ExecutorTest, VariableFreeSubqueryJoinsAsFilterOnVpPerPatternPlan) {
  RdfGraph graph = ZeroVariableGraph();
  // p1 and p3 at site 0, p2 at site 1: the query spans two sites, so it
  // runs pattern by pattern and `<r> p1 <r>` is scanned on its own.
  std::vector<uint32_t> triple_part;
  for (const rdf::Triple& t : graph.triples()) {
    triple_part.push_back(graph.PropertyName(t.property) == "<t:p2>" ? 1 : 0);
  }
  Cluster cluster = Cluster::Build(
      partition::Partitioning::MaterializeEdgeDisjoint(graph, 2, triple_part));
  DistributedExecutor executor(cluster, graph);
  sparql::QueryGraph query = testutil::ParseQueryOrDie(kZeroVariableQuery);
  Result<QueryResponse> response =
      executor.Execute(QueryRequest::FromQuery(query));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->stats.independent);
  EXPECT_EQ(response->stats.num_subqueries, 3u);
  EXPECT_EQ(response->bindings.num_rows(), 2u);
  EXPECT_EQ(testutil::RowSet(response->bindings),
            testutil::RowSet(testutil::GroundTruth(graph, query)));
}

// Two disjoint chains a-b-c-d, one per site, so p and q stay internal.
// The query's two edges share no variable: a p-edge of one site pairs
// with a q-edge of the other, which no single site can match.
TEST(ExecutorTest, DisconnectedQueryCrossJoinsSites) {
  RdfGraph graph = testutil::BuildGraph({
      {"a1", "p", "b1"}, {"b1", "q", "c1"}, {"c1", "p", "d1"},
      {"a2", "p", "b2"}, {"b2", "q", "c2"}, {"c2", "p", "d2"},
  });
  partition::VertexAssignment assignment;
  assignment.k = 2;
  assignment.part.resize(graph.num_vertices());
  for (uint32_t v = 0; v < graph.num_vertices(); ++v) {
    const std::string& name = graph.VertexName(v);  // "<t:a1>"
    assignment.part[v] = name[name.size() - 2] == '2' ? 1 : 0;
  }
  Cluster cluster = Cluster::Build(
      partition::Partitioning::MaterializeVertexDisjoint(
          graph, std::move(assignment)));
  ASSERT_EQ(cluster.partitioning().num_crossing_properties(), 0u);
  DistributedExecutor executor(cluster, graph);
  sparql::QueryGraph query = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?a <t:p> ?b . ?c <t:q> ?d . }");
  for (ExecStrategy plan : {ExecStrategy::kAuto, ExecStrategy::kGstored}) {
    Result<QueryResponse> response =
        executor.Execute(QueryRequest::FromQuery(query, {.strategy = plan}));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->stats.cls, IeqClass::kNonIeq);
    EXPECT_EQ(response->bindings.num_rows(), 8u) << ExecStrategyName(plan);
    EXPECT_EQ(testutil::RowSet(response->bindings),
              testutil::RowSet(testutil::GroundTruth(graph, query)));
  }
}

TEST(GStoredExecutorTest, RejectsEdgeDisjointPartitioning) {
  Rng rng(12);
  RdfGraph graph = testutil::RandomGraph(rng, 20, 60, 3);
  Cluster cluster =
      Cluster::Build(MakePartitioning(Strategy::kVp, graph, 2, 1));
  DistributedExecutor executor(cluster, graph);
  sparql::QueryGraph q =
      testutil::ParseQueryOrDie("SELECT * WHERE { ?x <t:p0> ?y . }");
  Result<QueryResponse> response = executor.Execute(
      QueryRequest::FromQuery(q, {.strategy = ExecStrategy::kGstored}));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
}

TEST(GStoredExecutorTest, LimitClauseTruncatesResults) {
  Rng rng(16);
  RdfGraph graph = testutil::RandomGraph(rng, 30, 200, 3);
  Cluster cluster =
      Cluster::Build(MakePartitioning(Strategy::kHash, graph, 2, 1));
  DistributedExecutor executor(cluster, graph);
  // A path: gStoreD cuts it into fragments and joins them, and the join
  // yields many rows before the LIMIT applies.
  sparql::QueryGraph q = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?a <t:p0> ?b . ?b <t:p1> ?c . } LIMIT 1");
  const BindingTable truth = testutil::GroundTruth(graph, q);
  ASSERT_GT(truth.num_rows(), 1u);
  Result<QueryResponse> response = executor.Execute(
      QueryRequest::FromQuery(q, {.strategy = ExecStrategy::kGstored}));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_LE(response->bindings.num_rows(), 1u);
  EXPECT_EQ(response->stats.num_results, response->bindings.num_rows());
  for (const auto& row : response->bindings.rows) {
    EXPECT_TRUE(testutil::RowSet(truth).count(row));
  }
}

TEST(GStoredExecutorTest, FewerCrossingPropertiesMeansFewerPartialRows) {
  // Fig. 11's mechanism: under MPC the fragment granularity is coarser,
  // so the total number of local partial matches is no larger than under
  // subject hashing.
  Rng rng(13);
  RdfGraph graph = testutil::RandomGraph(rng, 200, 700, 8, /*community=*/20,
                                         /*escape=*/0.05);
  Cluster mpc_cluster =
      Cluster::Build(MakePartitioning(Strategy::kMpc, graph, 4, 31));
  Cluster hash_cluster =
      Cluster::Build(MakePartitioning(Strategy::kHash, graph, 4, 31));
  sparql::QueryGraph q = testutil::ParseQueryOrDie(
      "SELECT * WHERE { ?a <t:p0> ?b . ?b <t:p1> ?c . ?c <t:p2> ?d . }");
  const QueryRequest request =
      QueryRequest::FromQuery(q, {.strategy = ExecStrategy::kGstored});
  Result<QueryResponse> mpc_response =
      DistributedExecutor(mpc_cluster, graph).Execute(request);
  Result<QueryResponse> hash_response =
      DistributedExecutor(hash_cluster, graph).Execute(request);
  ASSERT_TRUE(mpc_response.ok());
  ASSERT_TRUE(hash_response.ok());
  EXPECT_LE(mpc_response->stats.local_rows, hash_response->stats.local_rows);
  EXPECT_LE(mpc_response->stats.num_subqueries,
            hash_response->stats.num_subqueries);
}

TEST(ClusterTest, BuildsKSitesAndReportsLoading) {
  Rng rng(14);
  RdfGraph graph = testutil::RandomGraph(rng, 50, 150, 4);
  Cluster cluster =
      Cluster::Build(MakePartitioning(Strategy::kHash, graph, 3, 5));
  EXPECT_EQ(cluster.k(), 3u);
  EXPECT_GE(cluster.loading_millis(), 0.0);
  size_t total = 0;
  for (uint32_t i = 0; i < cluster.k(); ++i) {
    total += cluster.site(i).num_triples();
  }
  // Internal edges once + crossing replicas twice.
  EXPECT_GE(total, graph.num_edges());
  EXPECT_GT(cluster.MemoryUsage(), 0u);
}

/// Wraps a Cluster and drops the last column of every reply from one
/// site: a worker that disagrees with the coordinator about a
/// subquery's schema.
class DroppedColumnCluster final : public ClusterBackend {
 public:
  DroppedColumnCluster(const Cluster& inner, uint32_t bad_site)
      : ClusterBackend(inner), inner_(inner), bad_site_(bad_site) {}

  size_t MemoryUsage() const override { return inner_.MemoryUsage(); }

  Status EvaluateOnSite(uint32_t site, const store::ResolvedQuery& resolved,
                        const SiteEvalRequest& request,
                        const SiteCallPolicy& policy,
                        SiteEvalReply* reply) const override {
    MPC_RETURN_IF_ERROR(
        inner_.EvaluateOnSite(site, resolved, request, policy, reply));
    if (site == bad_site_) {
      reply->table.var_ids.pop_back();
      for (std::vector<uint32_t>& row : reply->table.rows) row.pop_back();
    }
    return Status::Ok();
  }

 private:
  const Cluster& inner_;
  uint32_t bad_site_;
};

TEST(ExecutorTest, ReplyWithWrongColumnsFailsThatSite) {
  Rng rng(15);
  RdfGraph graph = testutil::RandomGraph(rng, 60, 220, 5, 12);
  Cluster cluster =
      Cluster::Build(MakePartitioning(Strategy::kMpc, graph, 4, 15));
  constexpr uint32_t kBadSite = 2;
  DroppedColumnCluster faulty(cluster, kBadSite);
  const std::string text = "SELECT * WHERE { ?x <t:p0> ?y . }";
  DistributedExecutor::Options options;
  options.site_pruning = false;  // every site answers, kBadSite too

  {
    DistributedExecutor executor(faulty, graph, options);
    Result<QueryResponse> response =
        executor.Execute(QueryRequest::FromText(text));
    ASSERT_FALSE(response.ok());
    EXPECT_EQ(response.status().code(), StatusCode::kInternal);
    const std::string& message = response.status().message();
    EXPECT_NE(message.find("site 2 replied with columns [0], expected [0, 1]"),
              std::string::npos)
        << message;
  }

  // Best effort answers from the other sites: the same rows as when
  // kBadSite is down.
  options.partial_results = PartialResultPolicy::kBestEffort;
  DistributedExecutor executor(faulty, graph, options);
  Result<QueryResponse> response =
      executor.Execute(QueryRequest::FromText(text));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->stats.sites_failed, 1u);
  EXPECT_EQ(response->stats.sites_evaluated, cluster.k() - 1);
  EXPECT_FALSE(response->stats.complete);
  EXPECT_EQ(response->bindings.var_ids, (std::vector<uint32_t>{0, 1}));

  options.faults.fail_sites = {kBadSite};
  DistributedExecutor crashed(cluster, graph, options);
  Result<QueryResponse> without_site =
      crashed.Execute(QueryRequest::FromText(text));
  ASSERT_TRUE(without_site.ok()) << without_site.status().ToString();
  EXPECT_GT(without_site->bindings.num_rows(), 0u);
  EXPECT_EQ(response->bindings.rows, without_site->bindings.rows);
}

/// Wraps a Cluster and breaks the row order of one site's replies: the
/// first two rows swapped, or the first row repeated. A worker whose
/// rows the coordinator's merge cannot take.
class DisorderedReplyCluster final : public ClusterBackend {
 public:
  enum class Fault { kSwapped, kRepeated };

  DisorderedReplyCluster(const Cluster& inner, uint32_t bad_site, Fault fault)
      : ClusterBackend(inner),
        inner_(inner),
        bad_site_(bad_site),
        fault_(fault) {}

  size_t MemoryUsage() const override { return inner_.MemoryUsage(); }

  Status EvaluateOnSite(uint32_t site, const store::ResolvedQuery& resolved,
                        const SiteEvalRequest& request,
                        const SiteCallPolicy& policy,
                        SiteEvalReply* reply) const override {
    MPC_RETURN_IF_ERROR(
        inner_.EvaluateOnSite(site, resolved, request, policy, reply));
    std::vector<std::vector<uint32_t>>& rows = reply->table.rows;
    if (site == bad_site_ && !rows.empty()) {
      if (fault_ == Fault::kRepeated) {
        rows.insert(rows.begin(), rows.front());
      } else if (rows.size() > 1) {
        std::swap(rows[0], rows[1]);
      }
    }
    return Status::Ok();
  }

 private:
  const Cluster& inner_;
  uint32_t bad_site_;
  Fault fault_;
};

TEST(ExecutorTest, ReplyNotSortedAndDistinctFailsThatSite) {
  Rng rng(15);
  RdfGraph graph = testutil::RandomGraph(rng, 60, 220, 5, 12);
  Cluster cluster =
      Cluster::Build(MakePartitioning(Strategy::kMpc, graph, 4, 15));
  constexpr uint32_t kBadSite = 2;
  const std::string text = "SELECT * WHERE { ?x <t:p0> ?y . }";
  DistributedExecutor::Options options;
  options.site_pruning = false;  // every site answers, kBadSite too
  options.faults.fail_sites = {kBadSite};
  options.partial_results = PartialResultPolicy::kBestEffort;
  // What the other sites answer: kBadSite down.
  Result<QueryResponse> without_site =
      DistributedExecutor(cluster, graph, options)
          .Execute(QueryRequest::FromText(text));
  ASSERT_TRUE(without_site.ok()) << without_site.status().ToString();
  options.faults.fail_sites.clear();
  for (const auto fault : {DisorderedReplyCluster::Fault::kSwapped,
                           DisorderedReplyCluster::Fault::kRepeated}) {
    DisorderedReplyCluster faulty(cluster, kBadSite, fault);
    SiteEvalReply bad;
    ASSERT_TRUE(faulty
                    .EvaluateOnSite(kBadSite,
                                    store::ResolveQuery(
                                        testutil::ParseQueryOrDie(text),
                                        graph),
                                    {.pattern_indices = std::vector<size_t>{0}},
                                    SiteCallPolicy(), &bad)
                    .ok());
    ASSERT_GT(bad.table.num_rows(), 1u);
    ASSERT_FALSE(bad.table.StrictlyAscending());

    options.partial_results = PartialResultPolicy::kFail;
    Result<QueryResponse> failed = DistributedExecutor(faulty, graph, options)
                                       .Execute(QueryRequest::FromText(text));
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
    EXPECT_NE(failed.status().message().find(
                  "site 2 replied with rows that are not sorted and distinct"),
              std::string::npos)
        << failed.status().message();

    // Best effort keeps the other sites' rows.
    options.partial_results = PartialResultPolicy::kBestEffort;
    Result<QueryResponse> response =
        DistributedExecutor(faulty, graph, options)
            .Execute(QueryRequest::FromText(text));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->stats.sites_failed, 1u);
    EXPECT_EQ(response->stats.sites_evaluated, cluster.k() - 1);
    EXPECT_FALSE(response->stats.complete);
    EXPECT_GT(response->bindings.num_rows(), 0u);
    EXPECT_EQ(response->bindings.rows, without_site->bindings.rows);
  }
}

}  // namespace
}  // namespace mpc::exec
