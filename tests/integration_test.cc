// Miniature reproductions of the paper's headline experimental claims at
// test-friendly scales. The bench/ binaries regenerate the full tables;
// these tests pin the *shape* so regressions are caught in CI.

#include <map>

#include "exec/cluster.h"
#include "exec/decomposer.h"
#include "exec/distributed_executor.h"
#include "gtest/gtest.h"
#include "mpc/mpc_partitioner.h"
#include "partition/edge_cut_partitioner.h"
#include "partition/subject_hash_partitioner.h"
#include "partition/vp_partitioner.h"
#include "sparql/parser.h"
#include "test_util.h"
#include "workload/datasets.h"

namespace mpc {
namespace {

using partition::Partitioning;
using workload::DatasetId;
using workload::GeneratedDataset;
using workload::NamedQuery;

constexpr uint32_t kSites = 8;
constexpr double kEpsilon = 0.1;

Partitioning Mpc(const rdf::RdfGraph& g) {
  core::MpcOptions options;
  options.base.k = kSites;
  options.base.epsilon = kEpsilon;
  return core::MpcPartitioner(options).Partition(g);
}
Partitioning Hash(const rdf::RdfGraph& g) {
  partition::PartitionerOptions options{
      .k = kSites, .epsilon = kEpsilon, .seed = 1};
  return partition::SubjectHashPartitioner(options).Partition(g);
}
Partitioning Metis(const rdf::RdfGraph& g) {
  partition::PartitionerOptions options{
      .k = kSites, .epsilon = kEpsilon, .seed = 1};
  return partition::EdgeCutPartitioner(options).Partition(g);
}
Partitioning Vp(const rdf::RdfGraph& g) {
  partition::PartitionerOptions options{
      .k = kSites, .epsilon = kEpsilon, .seed = 1};
  return partition::VpPartitioner(options).Partition(g);
}

double IeqPercent(const std::vector<NamedQuery>& queries,
                  const Partitioning& p, const rdf::RdfGraph& g) {
  size_t ieq = 0;
  for (const NamedQuery& nq : queries) {
    sparql::QueryGraph q = testutil::ParseQueryOrDie(nq.sparql);
    ieq += exec::PlanQuery(q, p, g).union_only;
  }
  return 100.0 * static_cast<double>(ieq) /
         static_cast<double>(queries.size());
}

// --- Table II shape: MPC cuts far fewer properties; METIS cuts fewer
// edges than MPC and Subject_Hash cuts the most. ---
TEST(TableIIShape, LubmCrossingProperties) {
  GeneratedDataset d = workload::MakeDataset(DatasetId::kLubm, 0.6, 1);
  Partitioning mpc = Mpc(d.graph);
  Partitioning hash = Hash(d.graph);
  Partitioning metis = Metis(d.graph);
  EXPECT_EQ(mpc.num_crossing_properties(), 5u);
  EXPECT_LT(mpc.num_crossing_properties(),
            metis.num_crossing_properties());
  EXPECT_LE(metis.num_crossing_properties(),
            hash.num_crossing_properties());
  // The tradeoff: METIS's objective targets raw edge cuts, so it stays in
  // MPC's ballpark there (within 25% at this scale) while both cut far
  // fewer edges than hashing.
  EXPECT_LE(metis.num_crossing_edges(),
            mpc.num_crossing_edges() * 5 / 4);
  EXPECT_LT(metis.num_crossing_edges(), hash.num_crossing_edges());
  EXPECT_LT(mpc.num_crossing_edges(), hash.num_crossing_edges());
  // Both balanced partitionings respect the vertex-count cap.
  EXPECT_LE(mpc.BalanceRatio(), 1.0 + kEpsilon + 1e-9);
}

TEST(TableIIShape, PropertyRichGraphsAmplifyTheGap) {
  // DBpedia/LGD regime: thousands of properties, MPC crossing set tiny.
  GeneratedDataset d = workload::MakeDataset(DatasetId::kLgd, 0.15, 1);
  Partitioning mpc = Mpc(d.graph);
  Partitioning hash = Hash(d.graph);
  EXPECT_LT(mpc.num_crossing_properties(), 20u);
  EXPECT_GT(hash.num_crossing_properties(),
            10 * mpc.num_crossing_properties());
}

// --- Table III shape: IEQ percentages. ---
TEST(TableIIIShape, LubmPercentages) {
  GeneratedDataset d = workload::MakeDataset(DatasetId::kLubm, 0.4, 1);
  EXPECT_DOUBLE_EQ(IeqPercent(d.benchmark_queries, Mpc(d.graph), d.graph),
                   100.0);
  double hash_pct =
      IeqPercent(d.benchmark_queries, Hash(d.graph), d.graph);
  EXPECT_NEAR(hash_pct, 71.43, 0.1);  // 10/14 star queries
}

TEST(TableIIIShape, Yago2Percentages) {
  GeneratedDataset d = workload::MakeDataset(DatasetId::kYago2, 0.4, 1);
  EXPECT_DOUBLE_EQ(IeqPercent(d.benchmark_queries, Mpc(d.graph), d.graph),
                   100.0);
  EXPECT_DOUBLE_EQ(IeqPercent(d.benchmark_queries, Hash(d.graph), d.graph),
                   0.0);
  EXPECT_DOUBLE_EQ(IeqPercent(d.benchmark_queries, Vp(d.graph), d.graph),
                   0.0);
}

TEST(TableIIIShape, Bio2RdfPercentages) {
  GeneratedDataset d = workload::MakeDataset(DatasetId::kBio2rdf, 0.2, 1);
  EXPECT_DOUBLE_EQ(IeqPercent(d.benchmark_queries, Mpc(d.graph), d.graph),
                   100.0);
  EXPECT_NEAR(IeqPercent(d.benchmark_queries, Hash(d.graph), d.graph),
              80.0, 0.1);  // 4/5 stars
}

TEST(TableIIIShape, QueryLogOrdering) {
  // On log-driven datasets: MPC% >= star-based baselines, VP lowest or
  // near-lowest (the paper's consistent ordering).
  GeneratedDataset d = workload::MakeDataset(DatasetId::kWatdiv, 0.2, 1);
  auto log = workload::MakeQueryLog(DatasetId::kWatdiv, d.graph, 150, 7);
  double mpc_pct = IeqPercent(log, Mpc(d.graph), d.graph);
  double hash_pct = IeqPercent(log, Hash(d.graph), d.graph);
  double vp_pct = IeqPercent(log, Vp(d.graph), d.graph);
  EXPECT_GE(mpc_pct, hash_pct);
  EXPECT_LT(vp_pct, mpc_pct);
}

// --- Fig. 7 / Table IV shape: on MPC every LUBM/YAGO2/Bio2RDF benchmark
// query runs join-free. ---
TEST(Fig7Shape, AllBenchmarkQueriesJoinFreeUnderMpc) {
  for (DatasetId id :
       {DatasetId::kLubm, DatasetId::kYago2, DatasetId::kBio2rdf}) {
    GeneratedDataset d = workload::MakeDataset(id, 0.2, 1);
    exec::Cluster cluster = exec::Cluster::Build(Mpc(d.graph));
    exec::DistributedExecutor executor(cluster, d.graph);
    for (const NamedQuery& nq : d.benchmark_queries) {
      sparql::QueryGraph q = testutil::ParseQueryOrDie(nq.sparql);
      Result<exec::QueryResponse> response =
          executor.Execute(exec::QueryRequest::FromQuery(q));
      ASSERT_TRUE(response.ok());
      EXPECT_TRUE(response->stats.independent)
          << workload::DatasetName(id) << "/" << nq.name;
      EXPECT_EQ(response->stats.join_millis, 0.0);
    }
  }
}

// --- Correctness across strategies on real benchmark queries. ---
TEST(EndToEnd, BenchmarkQueryResultsAgreeAcrossStrategies) {
  GeneratedDataset d = workload::MakeDataset(DatasetId::kLubm, 0.2, 1);
  std::vector<Partitioning> partitionings;
  partitionings.push_back(Mpc(d.graph));
  partitionings.push_back(Hash(d.graph));
  partitionings.push_back(Metis(d.graph));
  partitionings.push_back(Vp(d.graph));
  std::vector<exec::Cluster> clusters;
  for (Partitioning& p : partitionings) {
    clusters.push_back(exec::Cluster::Build(std::move(p)));
  }
  for (const NamedQuery& nq : d.benchmark_queries) {
    sparql::QueryGraph q = testutil::ParseQueryOrDie(nq.sparql);
    store::BindingTable truth = testutil::GroundTruth(d.graph, q);
    for (exec::Cluster& cluster : clusters) {
      exec::DistributedExecutor executor(cluster, d.graph);
      Result<exec::QueryResponse> response =
          executor.Execute(exec::QueryRequest::FromQuery(q));
      ASSERT_TRUE(response.ok());
      EXPECT_EQ(testutil::RowSet(response->bindings), testutil::RowSet(truth))
          << nq.name;
    }
  }
}

// --- Table VII shape: the greedy selection is near-optimal on LUBM. ---
TEST(TableVIIShape, GreedyWithinOneOfExactOnLubm) {
  GeneratedDataset d = workload::MakeDataset(DatasetId::kLubm, 0.2, 1);
  core::SelectorOptions options{.base = {.k = kSites, .epsilon = kEpsilon}};
  core::SelectionResult greedy =
      core::GreedySelector(options).Select(d.graph);
  core::SelectionResult exact =
      core::ExactSelector(options).Select(d.graph);
  ASSERT_TRUE(exact.optimal);
  EXPECT_GE(greedy.num_internal + 1, exact.num_internal);
}

}  // namespace
}  // namespace mpc
