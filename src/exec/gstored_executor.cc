#include "exec/gstored_executor.h"

#include <algorithm>

#include "common/timer.h"
#include "exec/join.h"
#include "exec/query_classifier.h"
#include "sparql/shape.h"

namespace mpc::exec {

using store::BindingTable;

Result<QueryResponse> GStoredExecutor::Execute(
    const QueryRequest& request) const {
  Result<sparql::QueryGraph> query = ResolveRequestQuery(request);
  if (!query.ok()) return query.status();

  QueryResponse response;
  response.generation = options_.generation;
  Result<BindingTable> result = ExecuteParsed(*query, &response.stats);
  if (!result.ok()) return AttachQueryText(result.status(), request.text);
  response.bindings = std::move(*result);
  return response;
}

Result<BindingTable> GStoredExecutor::ExecuteParsed(
    const sparql::QueryGraph& query, ExecutionStats* stats) const {
  *stats = ExecutionStats{};
  if (cluster_.partitioning().kind() !=
      partition::PartitioningKind::kVertexDisjoint) {
    return Status::InvalidArgument(
        "gStoreD-style execution requires a vertex-disjoint partitioning");
  }

  Timer timer;
  Classification cls =
      ClassifyQuery(query, cluster_.partitioning(), graph_);
  stats->cls = cls.cls;

  // Fragments: the WCCs left after cutting every crossing edge (each
  // with >= 1 pattern), plus one single-edge fragment per crossing edge.
  // This is the partial-match granularity of partial evaluation: every
  // crossing edge's bindings are materialized and assembled.
  sparql::QueryComponents components =
      sparql::DecomposeAfterRemoval(query, cls.crossing_pattern);
  std::vector<std::vector<size_t>> fragments(components.num_components);
  for (size_t i = 0; i < query.num_patterns(); ++i) {
    if (cls.crossing_pattern[i]) continue;
    fragments[components.vertex_component[query.SubjectVertex(i)]]
        .push_back(i);
  }
  fragments.erase(std::remove_if(fragments.begin(), fragments.end(),
                                 [](const auto& f) { return f.empty(); }),
                  fragments.end());
  for (size_t i = 0; i < query.num_patterns(); ++i) {
    if (cls.crossing_pattern[i]) fragments.push_back({i});
  }
  stats->num_subqueries = fragments.size();
  stats->independent = fragments.size() == 1;

  store::ResolvedQuery resolved = store::ResolveQuery(query, graph_);
  stats->decomposition_millis =
      timer.ElapsedMillis() + options_.network.DispatchMillis(cluster_.k());

  SiteEvalRequest request;
  request.max_rows = options_.max_rows;
  const SiteCallPolicy policy =
      SiteCallPolicy::FromNetwork(options_.network);

  std::vector<BindingTable> fragment_tables;
  fragment_tables.reserve(fragments.size());
  for (const std::vector<size_t>& fragment : fragments) {
    request.pattern_indices = fragment;
    double slowest = 0.0;
    BindingTable merged = SchemaTable(resolved, fragment);
    for (uint32_t site = 0; site < cluster_.k(); ++site) {
      SiteEvalReply reply;
      MPC_RETURN_IF_ERROR(
          cluster_.EvaluateOnSite(site, resolved, request, policy, &reply));
      slowest = std::max(slowest, reply.eval_millis + reply.wait_millis);
      stats->local_rows += reply.table.num_rows();
      stats->shipped_bytes += reply.table.ByteSize();
      for (auto& row : reply.table.rows) merged.rows.push_back(std::move(row));
    }
    stats->local_eval_millis += slowest;
    merged.Deduplicate();
    fragment_tables.push_back(std::move(merged));
  }
  stats->network_millis = options_.network.TransferMillis(
      stats->shipped_bytes, cluster_.k() * fragments.size());

  timer.Reset();
  BindingTable final_table = JoinAll(std::move(fragment_tables));
  final_table.Deduplicate();
  stats->join_millis = timer.ElapsedMillis();

  final_table.SortColumnsAscending();
  stats->num_results = final_table.num_rows();
  stats->total_millis = stats->decomposition_millis +
                        stats->local_eval_millis + stats->join_millis +
                        stats->network_millis;
  return final_table;
}

}  // namespace mpc::exec
