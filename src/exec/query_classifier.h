#ifndef MPC_EXEC_QUERY_CLASSIFIER_H_
#define MPC_EXEC_QUERY_CLASSIFIER_H_

#include <vector>

#include "partition/partitioning.h"
#include "rdf/graph.h"
#include "sparql/query_graph.h"

namespace mpc::exec {

/// The independently-executable-query taxonomy of Section V-A.
enum class IeqClass {
  /// Definition 5.1: no crossing-property edges at all (and weakly
  /// connected, as the paper assumes of every query).
  kInternal,
  /// Definition 5.2: still weakly connected after removing crossing
  /// property edges.
  kExtendedTypeI,
  /// Definition 5.3: one multi-vertex core plus satellite single-vertex
  /// WCCs, all crossing edges touching the core.
  kExtendedTypeII,
  /// Requires decomposition and inter-partition joins.
  kNonIeq,
};

const char* IeqClassName(IeqClass cls);

struct Classification {
  IeqClass cls = IeqClass::kNonIeq;
  /// Per pattern: true if the edge is a crossing-property edge or has a
  /// variable predicate (footnote 1: variable-predicate edges are treated
  /// as crossing).
  std::vector<bool> crossing_pattern;
  size_t num_crossing_patterns = 0;

  /// True iff the query can be evaluated with per-partition union only
  /// (Theorems 3 and 4).
  bool independently_executable() const { return cls != IeqClass::kNonIeq; }
};

/// Classifies a query against a vertex-disjoint partitioning's crossing
/// property set. `graph` supplies the property dictionary: a query
/// property absent from the data cannot label any edge, crossing or not,
/// so it never blocks independence.
Classification ClassifyQuery(const sparql::QueryGraph& query,
                             const partition::Partitioning& partitioning,
                             const rdf::RdfGraph& graph);

/// VP-side locality test: an edge-disjoint (VP) partitioning can run a
/// query at a single site iff every (constant) predicate of the query is
/// stored at the same site and the query has no variable predicates.
/// Queries whose predicates are absent from the data are trivially local
/// (empty result everywhere).
bool IsVpLocalQuery(const sparql::QueryGraph& query,
                    const partition::Partitioning& partitioning,
                    const rdf::RdfGraph& graph);

}  // namespace mpc::exec

#endif  // MPC_EXEC_QUERY_CLASSIFIER_H_
