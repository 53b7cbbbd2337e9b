#include "mpc/mpc_partitioner.h"

#include "common/random.h"
#include "gtest/gtest.h"
#include "mpc/selector.h"
#include "partition/edge_cut_partitioner.h"
#include "partition/subject_hash_partitioner.h"
#include "test_util.h"

namespace mpc::core {
namespace {

using partition::Partitioning;
using rdf::RdfGraph;

struct MpcCase {
  uint32_t k;
  double epsilon;
  SelectionStrategy strategy;
  uint64_t seed;
};

/// Readable case name, e.g. k4_eps10pct_Greedy_seed2: the test name and
/// the printed parameter (gtest's default prints the raw bytes,
/// struct padding included).
std::string CaseName(const MpcCase& c) {
  const char* strategy = "Auto";
  switch (c.strategy) {
    case SelectionStrategy::kGreedy: strategy = "Greedy"; break;
    case SelectionStrategy::kBackward: strategy = "Backward"; break;
    case SelectionStrategy::kExact: strategy = "Exact"; break;
    case SelectionStrategy::kWeighted: strategy = "Weighted"; break;
    case SelectionStrategy::kAuto: break;
  }
  return "k" + std::to_string(c.k) + "_eps" +
         std::to_string(static_cast<int>(c.epsilon * 100 + 0.5)) + "pct_" +
         strategy + "_seed" + std::to_string(c.seed);
}
void PrintTo(const MpcCase& c, std::ostream* os) { *os << CaseName(c); }

class MpcPartitionerTest : public ::testing::TestWithParam<MpcCase> {};

TEST_P(MpcPartitionerTest, InvariantsHold) {
  const MpcCase param = GetParam();
  Rng rng(param.seed);
  RdfGraph g = testutil::RandomGraph(rng, 400, 1200, 10, /*community=*/25,
                                     /*escape=*/0.05);

  MpcOptions options;
  options.base.k = param.k;
  options.base.epsilon = param.epsilon;
  options.base.seed = param.seed;
  options.strategy = param.strategy;
  MpcPartitioner partitioner(options);
  MpcRunStats stats;
  Partitioning p = partitioner.Partition(g, &stats);

  // Valid vertex-disjoint assignment.
  ASSERT_TRUE(p.assignment().Valid(g.num_vertices()));

  // Theorem 2: no internal-property edge crosses partitions.
  const auto& part = p.assignment().part;
  for (size_t prop = 0; prop < g.num_properties(); ++prop) {
    if (!stats.selection.internal[prop]) continue;
    for (const rdf::Triple& t :
         g.EdgesWithProperty(static_cast<rdf::PropertyId>(prop))) {
      ASSERT_EQ(part[t.subject], part[t.object])
          << "internal property edge crossed: " << g.PropertyName(
                 static_cast<rdf::PropertyId>(prop));
    }
    // And therefore the property is not crossing.
    EXPECT_FALSE(p.IsCrossingProperty(static_cast<rdf::PropertyId>(prop)));
  }

  // |L_cross| <= |L| - |L_in|.
  EXPECT_LE(p.num_crossing_properties(),
            g.num_properties() - stats.selection.num_internal);

  // Selection respected the cap.
  EXPECT_LE(stats.selection.final_cost,
            BalanceCap(g, param.k, param.epsilon));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MpcPartitionerTest,
    ::testing::Values(
        MpcCase{2, 0.1, SelectionStrategy::kGreedy, 1},
        MpcCase{4, 0.1, SelectionStrategy::kGreedy, 2},
        MpcCase{8, 0.1, SelectionStrategy::kGreedy, 3},
        MpcCase{8, 0.5, SelectionStrategy::kGreedy, 4},
        MpcCase{4, 0.1, SelectionStrategy::kBackward, 5},
        MpcCase{4, 0.1, SelectionStrategy::kAuto, 6},
        MpcCase{3, 0.2, SelectionStrategy::kExact, 7}),
    [](const auto& info) { return CaseName(info.param); });

TEST(MpcPartitionerTest, FewerCrossingPropertiesThanBaselines) {
  // Community graph: the regime where the paper's Table II shape holds.
  Rng rng(11);
  RdfGraph g = testutil::RandomGraph(rng, 1000, 3000, 12, /*community=*/40,
                                     /*escape=*/0.08);
  MpcOptions mpc_options;
  mpc_options.base.k = 8;
  mpc_options.base.epsilon = 0.1;
  Partitioning mpc = MpcPartitioner(mpc_options).Partition(g);

  partition::PartitionerOptions base{.k = 8, .epsilon = 0.1, .seed = 1};
  Partitioning hash =
      partition::SubjectHashPartitioner(base).Partition(g);
  Partitioning metis = partition::EdgeCutPartitioner(base).Partition(g);

  EXPECT_LE(mpc.num_crossing_properties(), metis.num_crossing_properties());
  EXPECT_LT(mpc.num_crossing_properties(), hash.num_crossing_properties());
}

TEST(MpcPartitionerTest, StatsArePopulated) {
  Rng rng(13);
  RdfGraph g = testutil::RandomGraph(rng, 200, 600, 8, /*community=*/20);
  MpcOptions options;
  options.base.k = 4;
  MpcPartitioner partitioner(options);
  MpcRunStats stats;
  partitioner.Partition(g, &stats);
  EXPECT_GT(stats.num_supervertices, 0u);
  EXPECT_LE(stats.num_supervertices, g.num_vertices());
  EXPECT_GE(stats.StageMillis("selection"), 0.0);
  EXPECT_EQ(stats.stages.size(), 4u);
  EXPECT_GE(stats.threads_used, 1);
}

TEST(MpcPartitionerTest, NameReflectsStrategy) {
  MpcOptions options;
  EXPECT_EQ(MpcPartitioner(options).name(), "MPC");
  options.strategy = SelectionStrategy::kExact;
  EXPECT_EQ(MpcPartitioner(options).name(), "MPC-Exact");
}

TEST(MpcPartitionerTest, SingletonK) {
  Rng rng(17);
  RdfGraph g = testutil::RandomGraph(rng, 50, 150, 5);
  MpcOptions options;
  options.base.k = 1;
  Partitioning p = MpcPartitioner(options).Partition(g);
  EXPECT_EQ(p.num_crossing_edges(), 0u);
  EXPECT_EQ(p.num_crossing_properties(), 0u);
}

}  // namespace
}  // namespace mpc::core
