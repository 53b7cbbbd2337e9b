#include "exec/decomposer.h"

#include "sparql/shape.h"

namespace mpc::exec {

namespace {

/// Removes the crossing edges and seeds one subquery per remaining WCC
/// with its internal patterns (Algorithm 2 line 2); a WCC without any
/// stays empty.
std::vector<std::vector<size_t>> SeedSubqueries(
    const sparql::QueryGraph& query, const std::vector<bool>& crossing_pattern,
    sparql::QueryComponents* components) {
  *components = sparql::DecomposeAfterRemoval(query, crossing_pattern);
  std::vector<std::vector<size_t>> per_component(components->num_components);
  for (size_t i = 0; i < query.num_patterns(); ++i) {
    if (crossing_pattern[i]) continue;
    uint32_t c = components->vertex_component[query.SubjectVertex(i)];
    per_component[c].push_back(i);
  }
  return per_component;
}

/// gStoreD's partial-match granularity: the non-empty seeded WCCs, then
/// every crossing edge as a subquery of its own, so each crossing edge's
/// bindings are materialized and assembled at the coordinator.
Decomposition CutAtCrossingEdges(const sparql::QueryGraph& query,
                                 const std::vector<bool>& crossing_pattern) {
  sparql::QueryComponents components;
  Decomposition result;
  for (std::vector<size_t>& sub :
       SeedSubqueries(query, crossing_pattern, &components)) {
    if (!sub.empty()) result.subqueries.push_back(std::move(sub));
  }
  for (size_t i = 0; i < query.num_patterns(); ++i) {
    if (crossing_pattern[i]) result.subqueries.push_back({i});
  }
  return result;
}

}  // namespace

Decomposition DecomposeQuery(const sparql::QueryGraph& query,
                             const std::vector<bool>& crossing_pattern) {
  sparql::QueryComponents components;
  std::vector<std::vector<size_t>> per_component =
      SeedSubqueries(query, crossing_pattern, &components);

  // Reattach crossing edges one by one (lines 3-12).
  for (size_t i = 0; i < query.num_patterns(); ++i) {
    if (!crossing_pattern[i]) continue;
    uint32_t cs = components.vertex_component[query.SubjectVertex(i)];
    uint32_t co = components.vertex_component[query.ObjectVertex(i)];
    if (cs == co) {
      per_component[cs].push_back(i);  // becomes Type-I extended
    } else if (components.component_size[cs] <=
               components.component_size[co]) {
      per_component[co].push_back(i);  // becomes Type-II extended
    } else {
      per_component[cs].push_back(i);
    }
  }

  // Keep subqueries that own at least one pattern (lines 13-15: a
  // single-vertex WCC with no edges is dropped; its bindings are covered
  // by whichever subquery took its incident edges).
  Decomposition result;
  for (std::vector<size_t>& sub : per_component) {
    if (!sub.empty()) result.subqueries.push_back(std::move(sub));
  }
  return result;
}

QueryPlan PlanQuery(const sparql::QueryGraph& query,
                    const partition::Partitioning& partitioning,
                    const rdf::RdfGraph& graph, ExecStrategy strategy) {
  QueryPlan plan;
  plan.classification = ClassifyQuery(query, partitioning, graph);
  const std::vector<bool>& crossing = plan.classification.crossing_pattern;
  if (strategy == ExecStrategy::kGstored) {
    plan.decomposition = CutAtCrossingEdges(query, crossing);
    plan.union_only = plan.decomposition.num_subqueries() == 1;
  } else if (plan.classification.independently_executable()) {
    // One subquery holding every pattern; union-only execution.
    plan.decomposition.subqueries.emplace_back();
    for (size_t i = 0; i < query.num_patterns(); ++i) {
      plan.decomposition.subqueries.back().push_back(i);
    }
    plan.union_only = true;
  } else {
    plan.decomposition = DecomposeQuery(query, crossing);
  }
  return plan;
}

}  // namespace mpc::exec
