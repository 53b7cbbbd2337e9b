#include "metis/partitioner.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/random.h"
#include "gtest/gtest.h"
#include "metis/coarsen.h"
#include "metis/csr_graph.h"
#include "metis/initial_partition.h"
#include "metis/refine.h"

namespace mpc::metis {
namespace {

CsrGraph Ring(size_t n) {
  std::vector<WeightedEdge> edges;
  for (uint32_t i = 0; i < n; ++i) {
    edges.push_back({i, static_cast<uint32_t>((i + 1) % n), 1});
  }
  return CsrGraph::FromEdges(n, edges);
}

/// Two dense cliques joined by a single bridge edge.
CsrGraph TwoCliques(size_t clique) {
  std::vector<WeightedEdge> edges;
  auto add_clique = [&](uint32_t base) {
    for (uint32_t i = 0; i < clique; ++i) {
      for (uint32_t j = i + 1; j < clique; ++j) {
        edges.push_back({base + i, base + j, 1});
      }
    }
  };
  add_clique(0);
  add_clique(static_cast<uint32_t>(clique));
  edges.push_back({0, static_cast<uint32_t>(clique), 1});
  return CsrGraph::FromEdges(clique * 2, edges);
}

TEST(CsrGraphTest, CombinesParallelEdges) {
  std::vector<WeightedEdge> edges = {{0, 1, 1}, {1, 0, 2}, {0, 1, 3}};
  CsrGraph g = CsrGraph::FromEdges(2, edges);
  ASSERT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Neighbors(0)[0].neighbor, 1u);
  EXPECT_EQ(g.Neighbors(0)[0].weight, 6u);
  EXPECT_EQ(g.Neighbors(1)[0].weight, 6u);
}

// FromEdges radix-sorts its half-edges; the CSR must equal one built
// from a std::sort of them, parallel edges summed and saturated.
TEST(CsrGraphTest, FromEdgesMatchesSortReference) {
  Rng rng(77);
  for (size_t n : {1, 6, 300, 70000}) {
    for (size_t m : {0, 40, 1000, 30000}) {
      std::vector<WeightedEdge> edges;
      for (size_t i = 0; i < m; ++i) {
        const uint32_t u = static_cast<uint32_t>(rng.Below(n));
        // Self-loops, parallel edges (a small endpoint range) and
        // weights whose sums pass UINT32_MAX.
        uint32_t v = static_cast<uint32_t>(
            rng.Below(rng.Chance(0.5) ? std::min<size_t>(n, 4) : n));
        if (rng.Chance(0.05)) v = u;
        uint32_t w = static_cast<uint32_t>(rng.Below(100) + 1);
        if (rng.Chance(0.1)) {
          w = UINT32_MAX - static_cast<uint32_t>(rng.Below(3));
        }
        edges.push_back({u, v, w});
      }
      struct Half {
        uint32_t from, to, weight;
      };
      std::vector<Half> half;
      for (const WeightedEdge& e : edges) {
        if (e.u == e.v) continue;
        half.push_back({e.u, e.v, e.weight});
        half.push_back({e.v, e.u, e.weight});
      }
      std::sort(half.begin(), half.end(), [](const Half& a, const Half& b) {
        return std::pair(a.from, a.to) < std::pair(b.from, b.to);
      });
      std::vector<std::vector<std::pair<uint32_t, uint32_t>>> expected(n);
      for (size_t i = 0; i < half.size();) {
        uint64_t w = 0;
        size_t j = i;
        for (; j < half.size() && half[j].from == half[i].from &&
               half[j].to == half[i].to;
             ++j) {
          w += half[j].weight;
        }
        expected[half[i].from].emplace_back(
            half[i].to, static_cast<uint32_t>(
                            std::min<uint64_t>(w, UINT32_MAX)));
        i = j;
      }

      CsrGraph g = CsrGraph::FromEdges(n, edges);
      ASSERT_EQ(g.num_vertices(), n);
      for (uint32_t v = 0; v < n; ++v) {
        std::vector<std::pair<uint32_t, uint32_t>> got;
        for (const Adjacency& a : g.Neighbors(v)) {
          got.emplace_back(a.neighbor, a.weight);
        }
        ASSERT_EQ(got, expected[v]) << "n " << n << " m " << m << " v " << v;
      }
    }
  }
}

TEST(CsrGraphTest, DropsSelfLoops) {
  std::vector<WeightedEdge> edges = {{0, 0, 5}, {0, 1, 1}};
  CsrGraph g = CsrGraph::FromEdges(2, edges);
  EXPECT_EQ(g.Degree(0), 1u);
}

TEST(CsrGraphTest, DefaultVertexWeightsAreOne) {
  CsrGraph g = Ring(4);
  EXPECT_EQ(g.total_vertex_weight(), 4u);
  EXPECT_EQ(g.VertexWeight(2), 1u);
}

TEST(CsrGraphTest, CustomVertexWeights) {
  std::vector<WeightedEdge> edges = {{0, 1, 1}};
  CsrGraph g = CsrGraph::FromEdges(2, edges, {10, 20});
  EXPECT_EQ(g.total_vertex_weight(), 30u);
  EXPECT_EQ(g.VertexWeight(1), 20u);
}

TEST(CsrGraphTest, FromTriplesSymmetrizes) {
  std::vector<rdf::Triple> triples = {rdf::Triple(0, 7, 1),
                                      rdf::Triple(1, 3, 0)};
  CsrGraph g = CsrGraph::FromTriples(2, triples);
  // Two directed labeled edges collapse into one undirected weight-2 edge.
  ASSERT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Neighbors(0)[0].weight, 2u);
}

TEST(CsrGraphTest, EdgeCutAndBalance) {
  CsrGraph g = Ring(4);
  std::vector<uint32_t> part = {0, 0, 1, 1};
  EXPECT_EQ(EdgeCut(g, part), 2u);  // ring cut twice
  EXPECT_DOUBLE_EQ(BalanceRatio(g, part, 2), 1.0);
  std::vector<uint32_t> skewed = {0, 0, 0, 1};
  EXPECT_DOUBLE_EQ(BalanceRatio(g, skewed, 2), 1.5);
}

TEST(CoarsenTest, MatchingIsSymmetricAndValid) {
  CsrGraph g = TwoCliques(8);
  Rng rng(1);
  auto match = HeavyEdgeMatching(g, rng);
  ASSERT_EQ(match.size(), g.num_vertices());
  for (uint32_t v = 0; v < match.size(); ++v) {
    EXPECT_EQ(match[match[v]], v) << "matching not symmetric at " << v;
  }
}

TEST(CoarsenTest, ContractionPreservesTotalWeight) {
  CsrGraph g = TwoCliques(8);
  Rng rng(2);
  auto match = HeavyEdgeMatching(g, rng);
  CoarseLevel level = ContractMatching(g, match);
  EXPECT_EQ(level.graph.total_vertex_weight(), g.total_vertex_weight());
  EXPECT_LT(level.graph.num_vertices(), g.num_vertices());
  for (uint32_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_LT(level.fine_to_coarse[v], level.graph.num_vertices());
  }
}

TEST(CoarsenTest, ContractionPreservesCutStructure) {
  // Contracting a matching never increases the weight of any cut that
  // respects the supervertices; sanity check that bridge weight survives.
  CsrGraph g = TwoCliques(6);
  Rng rng(3);
  auto hierarchy = CoarsenToSize(g, 4, rng);
  ASSERT_FALSE(hierarchy.empty());
  const CsrGraph& coarsest = hierarchy.back().graph;
  EXPECT_LE(coarsest.num_vertices(), g.num_vertices());
  EXPECT_EQ(coarsest.total_vertex_weight(), g.total_vertex_weight());
}

TEST(InitialPartitionTest, CoversAllVerticesWithinK) {
  CsrGraph g = Ring(37);
  Rng rng(4);
  for (uint32_t k : {2u, 3u, 8u}) {
    auto part = GreedyGrowPartition(g, k, rng);
    ASSERT_EQ(part.size(), 37u);
    for (uint32_t p : part) EXPECT_LT(p, k);
  }
}

TEST(InitialPartitionTest, HandlesDisconnectedGraph) {
  // Three disjoint edges, k=2.
  std::vector<WeightedEdge> edges = {{0, 1, 1}, {2, 3, 1}, {4, 5, 1}};
  CsrGraph g = CsrGraph::FromEdges(6, edges);
  Rng rng(5);
  auto part = GreedyGrowPartition(g, 2, rng);
  for (uint32_t p : part) EXPECT_LT(p, 2u);
}

TEST(InitialPartitionTest, KGreaterThanN) {
  CsrGraph g = Ring(3);
  Rng rng(6);
  auto part = GreedyGrowPartition(g, 8, rng);
  for (uint32_t p : part) EXPECT_LT(p, 8u);
}

TEST(RefineTest, ImprovesOrKeepsCut) {
  CsrGraph g = TwoCliques(10);
  Rng rng(7);
  auto part = RandomPartition(g, 2, rng);
  uint64_t before = EdgeCut(g, part);
  RefineOptions options{.k = 2, .epsilon = 0.1, .max_passes = 8};
  RefinePartition(g, options, &part);
  EXPECT_LE(EdgeCut(g, part), before);
}

TEST(RefineTest, FindsTheBridgeCut) {
  CsrGraph g = TwoCliques(12);
  Rng rng(8);
  auto part = RandomPartition(g, 2, rng);
  RefineOptions options{.k = 2, .epsilon = 0.1, .max_passes = 20};
  RefinePartition(g, options, &part);
  EnforceBalance(g, options, &part);
  // The optimal 2-cut of two cliques joined by one edge is 1.
  EXPECT_LE(EdgeCut(g, part), 3u);
}

TEST(RefineTest, EnforceBalanceRespectsCap) {
  CsrGraph g = Ring(40);
  std::vector<uint32_t> part(40, 0);  // grossly imbalanced
  RefineOptions options{.k = 4, .epsilon = 0.1, .max_passes = 4};
  EnforceBalance(g, options, &part);
  std::vector<uint64_t> weight(4, 0);
  for (uint32_t v = 0; v < 40; ++v) weight[part[v]] += 1;
  uint64_t cap = static_cast<uint64_t>(1.1 * 40 / 4);
  for (uint64_t w : weight) EXPECT_LE(w, cap);
}

struct MlpCase {
  uint32_t k;
  uint64_t seed;
};

/// Readable case name, e.g. k8_seed3: the test name and the printed
/// parameter (gtest's default prints the raw bytes, padding included).
std::string CaseName(const MlpCase& c) {
  return "k" + std::to_string(c.k) + "_seed" + std::to_string(c.seed);
}
void PrintTo(const MlpCase& c, std::ostream* os) { *os << CaseName(c); }

class MultilevelPartitionerTest : public ::testing::TestWithParam<MlpCase> {};

TEST_P(MultilevelPartitionerTest, ValidBalancedAndBeatsRandom) {
  const auto [k, seed] = GetParam();
  // Community graph: 16 communities of 25, sparse cross links.
  Rng rng(seed);
  std::vector<WeightedEdge> edges;
  const size_t communities = 16, size = 25;
  const size_t n = communities * size;
  for (uint32_t c = 0; c < communities; ++c) {
    uint32_t base = c * size;
    for (uint32_t i = 0; i < size * 3; ++i) {
      edges.push_back({base + static_cast<uint32_t>(rng.Below(size)),
                       base + static_cast<uint32_t>(rng.Below(size)), 1});
    }
  }
  for (uint32_t i = 0; i < 60; ++i) {
    edges.push_back({static_cast<uint32_t>(rng.Below(n)),
                     static_cast<uint32_t>(rng.Below(n)), 1});
  }
  CsrGraph g = CsrGraph::FromEdges(n, edges);

  MlpOptions options;
  options.k = k;
  options.epsilon = 0.1;
  options.seed = seed;
  MultilevelPartitioner partitioner(options);
  auto part = partitioner.Partition(g);

  ASSERT_EQ(part.size(), n);
  for (uint32_t p : part) ASSERT_LT(p, k);
  EXPECT_LE(BalanceRatio(g, part, k), 1.1 + 1e-9);

  Rng rng2(seed + 1);
  auto random_part = RandomPartition(g, k, rng2);
  EXPECT_LT(EdgeCut(g, part), EdgeCut(g, random_part))
      << "multilevel should beat random for k=" << k;
}

INSTANTIATE_TEST_SUITE_P(Sweep, MultilevelPartitionerTest,
                         ::testing::Values(MlpCase{2, 1}, MlpCase{4, 2},
                                           MlpCase{8, 3}, MlpCase{8, 99},
                                           MlpCase{16, 4}),
                         [](const auto& info) { return CaseName(info.param); });

TEST(MultilevelPartitionerTest, KEqualsOne) {
  CsrGraph g = Ring(10);
  MlpOptions options;
  options.k = 1;
  auto part = MultilevelPartitioner(options).Partition(g);
  for (uint32_t p : part) EXPECT_EQ(p, 0u);
}

TEST(MultilevelPartitionerTest, EmptyGraph) {
  CsrGraph g;
  MlpOptions options;
  options.k = 4;
  EXPECT_TRUE(MultilevelPartitioner(options).Partition(g).empty());
}

TEST(MultilevelPartitionerTest, WeightedSupervertices) {
  // MPC's coarsened graphs have weighted vertices; the balance constraint
  // must apply to weights, not counts.
  std::vector<WeightedEdge> edges = {{0, 1, 1}, {1, 2, 1}, {2, 3, 1},
                                     {3, 0, 1}};
  CsrGraph g = CsrGraph::FromEdges(4, edges, {100, 1, 1, 100});
  MlpOptions options;
  options.k = 2;
  options.epsilon = 0.2;
  auto part = MultilevelPartitioner(options).Partition(g);
  // The two heavy vertices must not share a partition.
  EXPECT_NE(part[0], part[3]);
}

}  // namespace
}  // namespace mpc::metis
