// The parallel substrate's contract: every parallel code path produces
// output bit-identical to the serial path at any thread count. These
// tests pin that for the partitioning pipeline, the chunked N-Triples
// parse and the concurrent per-site executor on real generated datasets.

#include <ostream>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exec/cluster.h"
#include "exec/distributed_executor.h"
#include "gtest/gtest.h"
#include "mpc/mpc_partitioner.h"
#include "partition/edge_cut_partitioner.h"
#include "partition/subject_hash_partitioner.h"
#include "partition/vp_partitioner.h"
#include "common/random.h"
#include "rdf/ntriples.h"
#include "test_util.h"
#include "workload/datasets.h"

namespace mpc::workload {

/// Parameters print as their dataset's name (gtest's default prints the
/// enum's raw bytes). Found by argument-dependent lookup, so it lives in
/// DatasetId's namespace.
void PrintTo(DatasetId id, std::ostream* os) { *os << DatasetName(id); }

}  // namespace mpc::workload

namespace mpc {
namespace {

using partition::Partitioning;
using workload::DatasetId;
using workload::GeneratedDataset;

const int kThreadCounts[] = {1, 2, 8};

/// Field-by-field equality of two materialized partitionings.
void ExpectSamePartitioning(const Partitioning& a, const Partitioning& b,
                            const std::string& label) {
  ASSERT_EQ(a.k(), b.k()) << label;
  ASSERT_EQ(a.kind(), b.kind()) << label;
  EXPECT_EQ(a.assignment().part, b.assignment().part) << label;
  EXPECT_EQ(a.crossing_property_mask(), b.crossing_property_mask()) << label;
  EXPECT_EQ(a.num_crossing_properties(), b.num_crossing_properties())
      << label;
  EXPECT_EQ(a.num_crossing_edges(), b.num_crossing_edges()) << label;
  for (uint32_t i = 0; i < a.k(); ++i) {
    const partition::Partition& pa = a.partition(i);
    const partition::Partition& pb = b.partition(i);
    EXPECT_EQ(pa.internal_edges, pb.internal_edges)
        << label << " site " << i;
    EXPECT_EQ(pa.crossing_edges, pb.crossing_edges)
        << label << " site " << i;
    EXPECT_EQ(pa.extended_vertices, pb.extended_vertices)
        << label << " site " << i;
    EXPECT_EQ(pa.num_owned_vertices, pb.num_owned_vertices)
        << label << " site " << i;
  }
}

Partitioning RunMpc(const rdf::RdfGraph& g, int num_threads,
                    core::SelectionStrategy strategy) {
  core::MpcOptions options;
  options.base.k = 8;
  options.base.epsilon = 0.1;
  options.base.num_threads = num_threads;
  options.strategy = strategy;
  return core::MpcPartitioner(options).Partition(g);
}

class PartitionDeterminismTest
    : public ::testing::TestWithParam<DatasetId> {};

TEST_P(PartitionDeterminismTest, MpcBitIdenticalAcrossThreadCounts) {
  GeneratedDataset d = workload::MakeDataset(GetParam(), 0.3, 1);
  Partitioning serial =
      RunMpc(d.graph, 1, core::SelectionStrategy::kAuto);
  for (int threads : kThreadCounts) {
    Partitioning parallel =
        RunMpc(d.graph, threads, core::SelectionStrategy::kAuto);
    ExpectSamePartitioning(serial, parallel,
                           d.name + " threads=" + std::to_string(threads));
  }
}

TEST_P(PartitionDeterminismTest, BackwardSelectorBitIdentical) {
  // The backward heuristic has the most intricate parallel section
  // (snapshotted DSF roots + per-candidate trial merges); pin it
  // explicitly on property-rich data.
  GeneratedDataset d = workload::MakeDataset(GetParam(), 0.2, 1);
  Partitioning serial =
      RunMpc(d.graph, 1, core::SelectionStrategy::kBackward);
  for (int threads : kThreadCounts) {
    ExpectSamePartitioning(
        serial, RunMpc(d.graph, threads, core::SelectionStrategy::kBackward),
        d.name + " backward threads=" + std::to_string(threads));
  }
}

TEST_P(PartitionDeterminismTest, BaselinesBitIdenticalAcrossThreadCounts) {
  GeneratedDataset d = workload::MakeDataset(GetParam(), 0.2, 1);
  auto run_all = [&](int threads) {
    partition::PartitionerOptions options{
        .k = 8, .epsilon = 0.1, .seed = 1, .num_threads = threads};
    std::vector<Partitioning> out;
    out.push_back(partition::SubjectHashPartitioner(options)
                      .Partition(d.graph));
    out.push_back(partition::EdgeCutPartitioner(options).Partition(d.graph));
    out.push_back(partition::VpPartitioner(options).Partition(d.graph));
    return out;
  };
  std::vector<Partitioning> serial = run_all(1);
  for (int threads : kThreadCounts) {
    std::vector<Partitioning> parallel = run_all(threads);
    for (size_t s = 0; s < serial.size(); ++s) {
      ExpectSamePartitioning(serial[s], parallel[s],
                             d.name + " baseline " + std::to_string(s) +
                                 " threads=" + std::to_string(threads));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(LubmAndWatdiv, PartitionDeterminismTest,
                         ::testing::Values(DatasetId::kLubm,
                                           DatasetId::kWatdiv),
                         [](const auto& info) {
                           return std::string(
                               workload::DatasetName(info.param));
                         });

/// Dictionary + triple-id equality: the chunked parse must replay the
/// serial intern sequence exactly, not just produce an isomorphic graph.
void ExpectSameGraph(const rdf::RdfGraph& a, const rdf::RdfGraph& b,
                     const std::string& label) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices()) << label;
  ASSERT_EQ(a.num_properties(), b.num_properties()) << label;
  EXPECT_EQ(a.triples(), b.triples()) << label;
  for (size_t v = 0; v < a.num_vertices(); ++v) {
    ASSERT_EQ(a.VertexName(static_cast<rdf::VertexId>(v)),
              b.VertexName(static_cast<rdf::VertexId>(v)))
        << label << " vertex " << v;
  }
  for (size_t p = 0; p < a.num_properties(); ++p) {
    ASSERT_EQ(a.PropertyName(static_cast<rdf::PropertyId>(p)),
              b.PropertyName(static_cast<rdf::PropertyId>(p)))
        << label << " property " << p;
  }
}

class ParseDeterminismTest : public ::testing::TestWithParam<DatasetId> {};

TEST_P(ParseDeterminismTest, ParseDocumentBitIdenticalAcrossThreadCounts) {
  GeneratedDataset d = workload::MakeDataset(GetParam(), 0.2, 1);
  const std::string text = rdf::SerializeNTriples(d.graph);
  rdf::GraphBuilder serial_builder;
  ASSERT_TRUE(
      rdf::NTriplesParser::ParseDocument(text, &serial_builder, 1).ok());
  rdf::RdfGraph serial = serial_builder.Build();
  for (int threads : kThreadCounts) {
    rdf::GraphBuilder builder;
    ASSERT_TRUE(
        rdf::NTriplesParser::ParseDocument(text, &builder, threads).ok());
    rdf::RdfGraph parallel = builder.Build();
    ExpectSameGraph(serial, parallel,
                    d.name + " threads=" + std::to_string(threads));
  }
}

INSTANTIATE_TEST_SUITE_P(LubmAndWatdiv, ParseDeterminismTest,
                         ::testing::Values(DatasetId::kLubm,
                                           DatasetId::kWatdiv),
                         [](const auto& info) {
                           return std::string(
                               workload::DatasetName(info.param));
                         });

class ParseBuilderDeterminismTest
    : public ::testing::TestWithParam<DatasetId> {};

TEST_P(ParseBuilderDeterminismTest, BuilderStateIdenticalAcrossThreadCounts) {
  GeneratedDataset d = workload::MakeDataset(GetParam(), 0.2, 1);
  // Serialized graphs are sorted by property, so most vertices recur in
  // every chunk; a shuffled copy spreads first occurrences differently.
  const std::string sorted = rdf::SerializeNTriples(d.graph);
  ASSERT_FALSE(sorted.empty());
  testutil::ExpectParseIdenticalAcrossThreadCounts(sorted, d.name + " sorted");

  std::vector<std::string_view> lines;
  for (size_t start = 0; start < sorted.size();) {
    const size_t end = sorted.find('\n', start);
    lines.push_back(std::string_view(sorted).substr(start, end + 1 - start));
    start = end + 1;
  }
  Rng rng(7);
  for (size_t i = lines.size(); i > 1; --i) {
    std::swap(lines[i - 1], lines[rng.Below(i)]);
  }
  std::string shuffled;
  for (std::string_view line : lines) shuffled += line;
  testutil::ExpectParseIdenticalAcrossThreadCounts(shuffled,
                                                   d.name + " shuffled");

  // A malformed line three quarters in: every earlier term was already
  // seen, in earlier chunks, by the time the parse stops.
  std::string broken = shuffled;
  broken.insert(broken.find('\n', broken.size() * 3 / 4) + 1,
                "<s> <p> malformed .\n");
  testutil::ExpectParseIdenticalAcrossThreadCounts(broken,
                                                   d.name + " malformed");
}

INSTANTIATE_TEST_SUITE_P(AllSix, ParseBuilderDeterminismTest,
                         ::testing::Values(DatasetId::kLubm,
                                           DatasetId::kWatdiv,
                                           DatasetId::kYago2,
                                           DatasetId::kBio2rdf,
                                           DatasetId::kDbpedia,
                                           DatasetId::kLgd),
                         [](const auto& info) {
                           return std::string(
                               workload::DatasetName(info.param));
                         });

TEST(ParseDeterminismTest, ErrorLineIdenticalAcrossThreadCounts) {
  // Build a document big enough to be chunked, with one malformed line;
  // every thread count must report the same global line number and leave
  // the same partial builder state.
  std::string text;
  const size_t kBad = 977;
  for (size_t i = 0; i < 2000; ++i) {
    if (i == kBad) {
      text += "<s> malformed-line .\n";
    } else {
      text += "<s" + std::to_string(i) + "> <p" + std::to_string(i % 7) +
              "> <o" + std::to_string(i) + "> .\n";
    }
  }
  rdf::GraphBuilder serial_builder;
  Status serial_status =
      rdf::NTriplesParser::ParseDocument(text, &serial_builder, 1);
  ASSERT_FALSE(serial_status.ok());
  rdf::RdfGraph serial = serial_builder.Build();
  for (int threads : kThreadCounts) {
    rdf::GraphBuilder builder;
    Status status =
        rdf::NTriplesParser::ParseDocument(text, &builder, threads);
    ASSERT_FALSE(status.ok()) << "threads=" << threads;
    EXPECT_EQ(status.ToString(), serial_status.ToString())
        << "threads=" << threads;
    ExpectSameGraph(serial, builder.Build(),
                    "partial threads=" + std::to_string(threads));
  }
}

TEST(ExecutorDeterminismTest, QueryResultsIdenticalAcrossThreadCounts) {
  GeneratedDataset d = workload::MakeDataset(DatasetId::kLubm, 0.2, 1);
  Partitioning p = RunMpc(d.graph, 1, core::SelectionStrategy::kAuto);
  exec::Cluster cluster = exec::Cluster::Build(std::move(p), 8);
  for (const workload::NamedQuery& nq : d.benchmark_queries) {
    sparql::QueryGraph q = testutil::ParseQueryOrDie(nq.sparql);
    std::vector<std::set<std::vector<uint32_t>>> row_sets;
    for (int threads : kThreadCounts) {
      exec::ExecutorOptions options;
      options.num_threads = threads;
      exec::DistributedExecutor executor(cluster, d.graph, options);
      Result<exec::QueryResponse> response =
          executor.Execute(exec::QueryRequest::FromQuery(q));
      ASSERT_TRUE(response.ok()) << nq.name << " threads=" << threads;
      row_sets.push_back(testutil::RowSet(response->bindings));
    }
    for (size_t i = 1; i < row_sets.size(); ++i) {
      EXPECT_EQ(row_sets[i], row_sets[0]) << nq.name;
    }
  }
}

}  // namespace
}  // namespace mpc
