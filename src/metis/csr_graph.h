#ifndef MPC_METIS_CSR_GRAPH_H_
#define MPC_METIS_CSR_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "rdf/types.h"

namespace mpc::metis {

/// One endpoint of an adjacency: the neighbor vertex and the (combined)
/// weight of the edges to it.
struct Adjacency {
  uint32_t neighbor;
  uint32_t weight;
};

/// An undirected edge with multiplicity/weight, the input unit for
/// CsrGraph construction.
struct WeightedEdge {
  uint32_t u;
  uint32_t v;
  uint32_t weight = 1;
};

/// Undirected, vertex- and edge-weighted graph in compressed sparse row
/// form — the input format of the multilevel partitioner, mirroring the
/// METIS API the paper calls into. Parallel edges are combined (weights
/// summed) and self-loops dropped during construction.
class CsrGraph {
 public:
  CsrGraph() = default;

  /// Builds from an edge list over vertices [0, n). `vertex_weights` may
  /// be empty (all weights 1) or have exactly n entries.
  static CsrGraph FromEdges(size_t n, std::span<const WeightedEdge> edges,
                            std::vector<uint64_t> vertex_weights = {});

  /// Builds the undirected structure graph of an RDF triple set:
  /// each directed labeled edge contributes weight 1 between its
  /// endpoints (direction and label dropped, as min edge-cut ignores
  /// both).
  static CsrGraph FromTriples(size_t n, std::span<const rdf::Triple> triples);

  size_t num_vertices() const {
    return xadj_.empty() ? 0 : xadj_.size() - 1;
  }
  size_t num_adjacencies() const { return adj_.size(); }

  std::span<const Adjacency> Neighbors(uint32_t v) const {
    return std::span<const Adjacency>(adj_.data() + xadj_[v],
                                      xadj_[v + 1] - xadj_[v]);
  }
  size_t Degree(uint32_t v) const { return xadj_[v + 1] - xadj_[v]; }

  uint64_t VertexWeight(uint32_t v) const { return vwgt_[v]; }
  uint64_t total_vertex_weight() const { return total_vwgt_; }

 private:
  /// Symmetric directed half-edge used during construction.
  struct HalfEdge {
    uint32_t from;
    uint32_t to;
    uint32_t weight;
  };

  static CsrGraph FromHalfEdges(size_t n, std::vector<HalfEdge> half,
                                std::vector<uint64_t> vertex_weights);

  std::vector<uint64_t> xadj_;  // size n+1
  std::vector<Adjacency> adj_;
  std::vector<uint64_t> vwgt_;  // size n
  uint64_t total_vwgt_ = 0;
};

/// Sum of weights of edges whose endpoints land in different partitions.
uint64_t EdgeCut(const CsrGraph& graph, std::span<const uint32_t> part);

/// Maximum partition vertex-weight divided by the perfectly balanced
/// weight (total/k). 1.0 means perfectly balanced.
double BalanceRatio(const CsrGraph& graph, std::span<const uint32_t> part,
                    uint32_t k);

}  // namespace mpc::metis

#endif  // MPC_METIS_CSR_GRAPH_H_
