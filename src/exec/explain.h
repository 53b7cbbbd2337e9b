#ifndef MPC_EXEC_EXPLAIN_H_
#define MPC_EXEC_EXPLAIN_H_

#include <string>

#include "exec/cluster.h"
#include "exec/query_classifier.h"
#include "rdf/graph.h"
#include "sparql/query_graph.h"

namespace mpc::exec {

/// Human-readable execution plan for a query over a vertex-disjoint
/// partitioning: its IEQ class, the crossing patterns, and — when a join
/// is needed — the Algorithm 2 decomposition with each subquery's own
/// IEQ class (always internal/Type-I/Type-II, the Algorithm 2 guarantee)
/// and, if a cluster is supplied, the sites each subquery actually
/// contacts (SelectSites) and, for an owner-localized subquery, the
/// constant and its owner site.
std::string ExplainQuery(const sparql::QueryGraph& query,
                         const partition::Partitioning& partitioning,
                         const rdf::RdfGraph& graph,
                         const Cluster* cluster = nullptr);

}  // namespace mpc::exec

#endif  // MPC_EXEC_EXPLAIN_H_
