#ifndef MPC_EXEC_DECOMPOSER_H_
#define MPC_EXEC_DECOMPOSER_H_

#include <cstddef>
#include <vector>

#include "exec/query_api.h"
#include "exec/query_classifier.h"
#include "sparql/query_graph.h"

namespace mpc::exec {

/// A decomposition of a non-IEQ into independently executable subqueries
/// (Algorithm 2). Each subquery is a list of pattern indices into the
/// original query; every original pattern appears in exactly one
/// subquery.
struct Decomposition {
  std::vector<std::vector<size_t>> subqueries;

  size_t num_subqueries() const { return subqueries.size(); }
};

/// Algorithm 2: removes crossing-property / variable-predicate edges,
/// takes the WCCs as seed subqueries, then reattaches each removed edge —
/// to its WCC when both endpoints agree (making it Type-I extended), or
/// to the endpoint's larger WCC otherwise (making it Type-II extended).
/// Single-vertex WCCs that receive no edges are dropped (their matches
/// are subsumed, cf. the q'_3 discussion of Fig. 6).
///
/// `crossing_pattern` comes from ClassifyQuery. Also correct (and used)
/// for IEQs, where it returns a single subquery with every pattern.
Decomposition DecomposeQuery(const sparql::QueryGraph& query,
                             const std::vector<bool>& crossing_pattern);

/// The reusable per-query plan: the classification against the
/// partitioning plus the subqueries the executor ships to the sites. A
/// plan is valid for every query with the same canonical shape
/// (sparql::CanonicalShapeKey) against the same partitioning and
/// strategy — the QueryService's plan cache keys on exactly that, with
/// the maintainer generation standing in for the partitioning.
struct QueryPlan {
  Classification classification;
  Decomposition decomposition;
  /// The per-site answers need only a union, no coordinator join.
  bool union_only = false;
};

/// Builds the plan the executor would otherwise compute inline.
///  - kAuto: Section V-B2 — one all-pattern subquery for an IEQ
///    (union-only), the Algorithm 2 decomposition otherwise.
///  - kGstored: partial evaluation in the style of gStoreD [28][29], the
///    runtime of the partitioning-agnostic experiment (Fig. 11). The
///    query is cut at every crossing-property / variable-predicate edge:
///    each non-empty WCC left is one subquery, and so is each crossing
///    edge on its own, whatever the IEQ class. Union-only iff that leaves
///    a single subquery.
///  - An edge-disjoint (VP) partitioning, either strategy (the executor
///    rejects kGstored there): the plans of Section II. When the query
///    has no variable predicate and every constant predicate present in
///    the data has one home site, one all-pattern subquery, union-only,
///    class internal; otherwise one subquery per pattern in pattern
///    order, class non-IEQ. No pattern is crossing.
QueryPlan PlanQuery(const sparql::QueryGraph& query,
                    const partition::Partitioning& partitioning,
                    const rdf::RdfGraph& graph,
                    ExecStrategy strategy = ExecStrategy::kAuto);

}  // namespace mpc::exec

#endif  // MPC_EXEC_DECOMPOSER_H_
