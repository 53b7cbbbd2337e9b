#ifndef MPC_SPARQL_SHAPE_H_
#define MPC_SPARQL_SHAPE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sparql/query_graph.h"

namespace mpc::sparql {

/// True if the query is a star: one central query vertex incident to
/// every edge (the only class existing vertex-disjoint approaches can
/// execute independently, per Section I-A). Single-pattern queries are
/// stars. Self-loop-only queries count (the single vertex is central).
bool IsStarQuery(const QueryGraph& query);

/// True if the query graph (all patterns as undirected edges over query
/// vertices) is weakly connected. The paper assumes connected queries;
/// the generators check theirs with this, and the classifier sends a
/// disconnected one to decomposition (one subquery per WCC, cross-joined).
bool IsWeaklyConnected(const QueryGraph& query);

/// Weakly-connected-component decomposition of the query *after removing*
/// the patterns flagged in `removed` (size num_patterns). Returns, for
/// each query vertex, its component id in [0, num_components); vertices
/// isolated by the removal form their own singleton components.
struct QueryComponents {
  std::vector<uint32_t> vertex_component;  // size num_vertices
  uint32_t num_components = 0;
  /// Vertices per component.
  std::vector<uint32_t> component_size;
};

QueryComponents DecomposeAfterRemoval(const QueryGraph& query,
                                      const std::vector<bool>& removed);

/// A canonical key for the query's *shape*: variables are renamed by
/// first occurrence (in pattern order, S-P-O within a pattern), constants
/// kept verbatim, plus the projection/DISTINCT/LIMIT modifiers. Two
/// queries with equal keys classify and decompose identically against any
/// fixed partitioning — classification depends only on the multiset of
/// constant predicates / variable-predicate positions and decomposition
/// only on the vertex structure, both of which the key fixes. This is the
/// QueryService plan-cache key.
std::string CanonicalShapeKey(const QueryGraph& query);

}  // namespace mpc::sparql

#endif  // MPC_SPARQL_SHAPE_H_
