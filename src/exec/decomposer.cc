#include "exec/decomposer.h"

#include <string>

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

/// One subquery holding every pattern.
Decomposition WholeQuery(const sparql::QueryGraph& query) {
  Decomposition result;
  result.subqueries.emplace_back(query.num_patterns());
  for (size_t i = 0; i < query.num_patterns(); ++i) {
    result.subqueries.back()[i] = i;
  }
  return result;
}

/// VP locality: a query is the union of its per-site matches iff it is
/// one pattern, or it has no variable predicate and every constant
/// predicate present in the data has the same home site. Every triple
/// is stored at one site only, so a single pattern's matches are exactly
/// the union over the sites storing its property (all k for a variable
/// predicate). A property absent from the data matches nowhere, so it
/// never splits the query.
bool IsVpLocal(const sparql::QueryGraph& query,
               const partition::Partitioning& partitioning,
               const rdf::RdfGraph& graph) {
  if (query.num_patterns() == 1) return true;
  if (query.has_variable_predicate()) return false;
  uint32_t home = UINT32_MAX;
  for (const std::string& pred : query.ConstantPredicates()) {
    rdf::PropertyId p = graph.property_dict().Lookup(pred);
    if (p == rdf::kInvalidVertex) continue;
    uint32_t site = partitioning.PropertyHome(p);
    if (home == UINT32_MAX) {
      home = site;
    } else if (home != site) {
      return false;
    }
  }
  return true;
}

/// The VP plans of Section II (see PlanQuery). In the cloud-style one,
/// property presence sends each pattern to its property's home site.
QueryPlan PlanVp(const sparql::QueryGraph& query,
                 const partition::Partitioning& partitioning,
                 const rdf::RdfGraph& graph) {
  QueryPlan plan;
  plan.classification.crossing_pattern.assign(query.num_patterns(), false);
  if (IsVpLocal(query, partitioning, graph)) {
    plan.classification.cls = IeqClass::kInternal;
    plan.decomposition = WholeQuery(query);
    plan.union_only = true;
  } else {
    plan.classification.cls = IeqClass::kNonIeq;
    for (size_t i = 0; i < query.num_patterns(); ++i) {
      plan.decomposition.subqueries.push_back({i});
    }
  }
  return plan;
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
  if (partitioning.kind() == partition::PartitioningKind::kEdgeDisjoint) {
    return PlanVp(query, partitioning, graph);
  }
  QueryPlan plan;
  plan.classification = ClassifyQuery(query, partitioning, graph);
  const std::vector<bool>& crossing = plan.classification.crossing_pattern;
  if (strategy == ExecStrategy::kGstored) {
    plan.decomposition = CutAtCrossingEdges(query, crossing);
    plan.union_only = plan.decomposition.num_subqueries() == 1;
  } else if (plan.classification.independently_executable()) {
    plan.decomposition = WholeQuery(query);
    plan.union_only = true;
  } else {
    plan.decomposition = DecomposeQuery(query, crossing);
  }
  return plan;
}

}  // namespace mpc::exec
