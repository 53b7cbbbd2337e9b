#ifndef MPC_EXEC_GSTORED_EXECUTOR_H_
#define MPC_EXEC_GSTORED_EXECUTOR_H_

#include "common/status.h"
#include "exec/cluster.h"
#include "exec/distributed_executor.h"
#include "rdf/graph.h"
#include "sparql/query_graph.h"

namespace mpc::exec {

/// Partial-evaluation-and-assembly runtime in the style of gStoreD
/// [28][29], used for the partitioning-agnostic experiment (Fig. 11).
///
/// Unlike DistributedExecutor, it never takes the IEQ shortcut for
/// crossing-property edges: the query is cut at every crossing-property /
/// variable-predicate edge, each internal fragment AND each crossing edge
/// is evaluated at every site ("local partial matches"), and the
/// fragments are assembled (joined) at the coordinator. Its cost is
/// dominated by the number of local partial matches — which shrinks as
/// the partitioning's crossing-property set shrinks, reproducing why MPC
/// wins Fig. 11 regardless of the runtime being partitioning-agnostic.
class GStoredExecutor {
 public:
  /// `cluster` is any ClusterBackend: every fragment is evaluated
  /// through EvaluateOnSite, in-process or over RPC alike.
  GStoredExecutor(const ClusterBackend& cluster, const rdf::RdfGraph& graph,
                  DistributedExecutor::Options options = DistributedExecutor::Options())
      : cluster_(cluster), graph_(graph), options_(options) {}

  /// Unified entry point (same contract as DistributedExecutor); the
  /// request's strategy is not consulted.
  Result<QueryResponse> Execute(const QueryRequest& request) const;

 private:
  Result<store::BindingTable> ExecuteParsed(const sparql::QueryGraph& query,
                                            ExecutionStats* stats) const;
  const ClusterBackend& cluster_;
  const rdf::RdfGraph& graph_;
  DistributedExecutor::Options options_;
};

}  // namespace mpc::exec

#endif  // MPC_EXEC_GSTORED_EXECUTOR_H_
