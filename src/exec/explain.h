#ifndef MPC_EXEC_EXPLAIN_H_
#define MPC_EXEC_EXPLAIN_H_

#include <string>

#include "exec/cluster.h"
#include "exec/query_classifier.h"
#include "rdf/graph.h"
#include "sparql/query_graph.h"

namespace mpc::exec {

/// Human-readable execution plan (PlanQuery) for a query over any
/// partitioning: its IEQ class, the crossing patterns, and — when a join
/// is needed — the decomposition with each subquery's own class (on a
/// vertex-disjoint partitioning always internal/Type-I/Type-II, the
/// Algorithm 2 guarantee; on VP one subquery per pattern) and, if a
/// cluster is supplied, the sites each subquery actually contacts
/// (SelectSites) and, for an owner-localized subquery, the constant and
/// its owner site. The single-site-loss table is vertex-disjoint only.
std::string ExplainQuery(const sparql::QueryGraph& query,
                         const partition::Partitioning& partitioning,
                         const rdf::RdfGraph& graph,
                         const Cluster* cluster = nullptr);

}  // namespace mpc::exec

#endif  // MPC_EXEC_EXPLAIN_H_
