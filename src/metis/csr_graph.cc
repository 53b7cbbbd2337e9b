#include "metis/csr_graph.h"

#include <algorithm>
#include <cassert>

#include "common/radix_sort.h"

namespace mpc::metis {

CsrGraph CsrGraph::FromEdges(size_t n, std::span<const WeightedEdge> edges,
                             std::vector<uint64_t> vertex_weights) {
  std::vector<HalfEdge> half;
  half.reserve(edges.size() * 2);
  for (const WeightedEdge& e : edges) {
    assert(e.u < n && e.v < n);
    if (e.u == e.v) continue;  // self-loops never contribute to a cut
    half.push_back({e.u, e.v, e.weight});
    half.push_back({e.v, e.u, e.weight});
  }
  return FromHalfEdges(n, std::move(half), std::move(vertex_weights));
}

CsrGraph CsrGraph::FromTriples(size_t n,
                               std::span<const rdf::Triple> triples) {
  std::vector<HalfEdge> half;
  half.reserve(triples.size() * 2);
  for (const rdf::Triple& t : triples) {
    if (t.subject == t.object) continue;
    half.push_back({t.subject, t.object, 1});
    half.push_back({t.object, t.subject, 1});
  }
  return FromHalfEdges(n, std::move(half), {});
}

CsrGraph CsrGraph::FromHalfEdges(size_t n, std::vector<HalfEdge> half,
                                 std::vector<uint64_t> vertex_weights) {
  // By `to`, then stably by `from`: the (from, to) order, with each
  // vertex's adjacencies ascending.
  std::vector<HalfEdge> buffer;
  RadixSortBy(&half, &buffer, [](const HalfEdge& e) { return e.to; });
  RadixSortBy(&half, &buffer, [](const HalfEdge& e) { return e.from; });

  CsrGraph g;
  g.xadj_.assign(n + 1, 0);
  g.adj_.reserve(half.size());
  // Combine parallel edges: consecutive equal (from, to) pairs sum their
  // weights into one adjacency.
  size_t i = 0;
  while (i < half.size()) {
    size_t j = i;
    uint64_t w = 0;
    while (j < half.size() && half[j].from == half[i].from &&
           half[j].to == half[i].to) {
      w += half[j].weight;
      ++j;
    }
    g.adj_.push_back({half[i].to, static_cast<uint32_t>(
                                      std::min<uint64_t>(w, UINT32_MAX))});
    ++g.xadj_[half[i].from + 1];
    i = j;
  }
  for (size_t v = 0; v < n; ++v) g.xadj_[v + 1] += g.xadj_[v];

  if (vertex_weights.empty()) {
    g.vwgt_.assign(n, 1);
    g.total_vwgt_ = n;
  } else {
    assert(vertex_weights.size() == n);
    g.vwgt_ = std::move(vertex_weights);
    g.total_vwgt_ = 0;
    for (uint64_t w : g.vwgt_) g.total_vwgt_ += w;
  }
  return g;
}

uint64_t EdgeCut(const CsrGraph& graph, std::span<const uint32_t> part) {
  uint64_t cut2 = 0;  // each cut edge counted from both endpoints
  for (uint32_t v = 0; v < graph.num_vertices(); ++v) {
    for (const Adjacency& a : graph.Neighbors(v)) {
      if (part[v] != part[a.neighbor]) cut2 += a.weight;
    }
  }
  return cut2 / 2;
}

double BalanceRatio(const CsrGraph& graph, std::span<const uint32_t> part,
                    uint32_t k) {
  std::vector<uint64_t> weight(k, 0);
  for (uint32_t v = 0; v < graph.num_vertices(); ++v) {
    weight[part[v]] += graph.VertexWeight(v);
  }
  uint64_t max_w = *std::max_element(weight.begin(), weight.end());
  double ideal =
      static_cast<double>(graph.total_vertex_weight()) / static_cast<double>(k);
  return ideal == 0 ? 1.0 : static_cast<double>(max_w) / ideal;
}

}  // namespace mpc::metis
