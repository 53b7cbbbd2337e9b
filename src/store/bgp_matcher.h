#ifndef MPC_STORE_BGP_MATCHER_H_
#define MPC_STORE_BGP_MATCHER_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "rdf/graph.h"
#include "sparql/query_graph.h"
#include "store/triple_source.h"

namespace mpc::store {

/// A triple pattern with its terms resolved against the global
/// dictionaries: constants become ids, variables keep their per-query
/// var ids.
struct ResolvedPattern {
  bool s_is_var = false;
  bool p_is_var = false;
  bool o_is_var = false;
  /// Variable id when *_is_var, otherwise the dictionary-encoded
  /// constant (vertex id for s/o, property id for p).
  uint32_t s = 0;
  uint32_t p = 0;
  uint32_t o = 0;
  /// True when a constant term does not exist in the dictionary — the
  /// pattern (and so the query) can have no matches anywhere.
  bool impossible = false;
};

/// A query resolved against one RDF graph's dictionaries. Resolution is
/// done once at the coordinator; every site shares the global encoding.
struct ResolvedQuery {
  std::vector<ResolvedPattern> patterns;
  size_t num_vars = 0;
  std::vector<std::string> var_names;
  /// Projection var ids; empty = all variables.
  std::vector<uint32_t> projection;
};

/// Resolves `query` against `graph`'s dictionaries.
ResolvedQuery ResolveQuery(const sparql::QueryGraph& query,
                           const rdf::RdfGraph& graph);

/// A set of solution mappings: one column per variable in `var_ids`
/// order, one row per match. Unbound never occurs (BGP binds every
/// variable of its patterns).
struct BindingTable {
  std::vector<uint32_t> var_ids;
  std::vector<std::vector<uint32_t>> rows;

  size_t num_rows() const { return rows.size(); }
  /// Column position of `var_id`, or SIZE_MAX.
  size_t ColumnOf(uint32_t var_id) const;
  /// True iff every row is lexicographically below the next: the rows
  /// are sorted and distinct.
  bool StrictlyAscending() const;
  /// Sorts rows and removes duplicates (set semantics for the
  /// cross-partition union of Definition 3.7). Rows already strictly
  /// ascending, as a single-pattern index scan yields them, are left
  /// untouched after one O(n) check.
  void Deduplicate();
  /// Reorders columns ascending by var id (joins append columns in join
  /// order; this restores the canonical layout the matcher produces).
  void SortColumnsAscending();
  /// Rough wire size in bytes if shipped to the coordinator.
  size_t ByteSize() const {
    return rows.size() * var_ids.size() * sizeof(uint32_t);
  }
};

/// Projects `table` onto `projection` (var ids, output column order) and
/// deduplicates, implementing SELECT's projection with set semantics.
/// An empty projection returns the table unchanged (SELECT *). Var ids
/// missing from the table are ignored.
BindingTable ApplyProjection(const BindingTable& table,
                             const std::vector<uint32_t>& projection);

/// Backtracking subgraph-homomorphism matcher over one TripleSource
/// (in-memory TripleStore or mmap'ed SegmentStore alike) — the "local
/// evaluation" engine of Section V-B2. Pattern order is chosen
/// greedily by estimated cardinality with join-connectivity preference
/// (bound-first), the standard strategy in RDF engines.
struct MatcherOptions {
  /// Stop after this many rows (safety valve; SIZE_MAX = exhaustive).
  size_t max_results = SIZE_MAX;
};

class BgpMatcher {
 public:
  using Options = MatcherOptions;

  /// Evaluates the sub-BGP formed by `pattern_indices` (indices into
  /// query.patterns). The result table's columns are exactly the
  /// variables used by those patterns, ascending by var id.
  static BindingTable Evaluate(const TripleSource& store,
                               const ResolvedQuery& query,
                               std::span<const size_t> pattern_indices,
                               const Options& options = Options());

  /// Evaluates the whole query.
  static BindingTable EvaluateAll(const TripleSource& store,
                                  const ResolvedQuery& query,
                                  const Options& options = Options());
};

}  // namespace mpc::store

#endif  // MPC_STORE_BGP_MATCHER_H_
