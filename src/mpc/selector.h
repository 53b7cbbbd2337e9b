#ifndef MPC_MPC_SELECTOR_H_
#define MPC_MPC_SELECTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "partition/partitioner.h"
#include "rdf/graph.h"

namespace mpc::core {

/// The balance cap of Definition 4.1: (1 + epsilon) * |V| / k. A property
/// set L' is feasible as internal iff Cost(L') (the largest WCC of
/// G[L'], Definition 4.2) stays at or below this bound.
size_t BalanceCap(const rdf::RdfGraph& graph, uint32_t k, double epsilon);

/// Cost({p}) of every property p (Algorithm 1 lines 2-4), evaluated in
/// parallel on `num_threads` threads; the result is thread-count
/// independent.
std::vector<size_t> SingletonCosts(const rdf::RdfGraph& graph,
                                   int num_threads);

/// Output of internal property selection (Algorithm 1 and variants).
struct SelectionResult {
  /// internal[p] is true iff property p was chosen for L_in.
  std::vector<bool> internal;
  size_t num_internal = 0;
  /// Cost(L_in): largest WCC in G[L_in] after selection.
  size_t final_cost = 0;
  /// Greedy iterations / exact search nodes, for the analysis benches.
  size_t iterations = 0;
  /// Properties discarded up front because Cost({p}) alone already
  /// exceeds the cap (the rdf:type pruning heuristic of Section IV-E).
  size_t pruned_properties = 0;
  /// True when the selector proved optimality (ExactSelector within its
  /// node budget); false for heuristics.
  bool optimal = false;
};

struct SelectorOptions {
  /// k, epsilon, seed and num_threads, shared with every partitioner.
  /// Selection parallelizes the per-property cost evaluations; the result
  /// is bit-identical at any thread count.
  partition::PartitionerOptions base;
  /// BackwardSelector: how many highest-impact candidate properties are
  /// exactly evaluated per removal step.
  int backward_candidates = 16;
  /// ExactSelector: search-node budget before falling back to the best
  /// found so far (result.optimal reports whether the budget sufficed).
  size_t exact_node_budget = 4'000'000;
};

/// Strategy interface for choosing L_in, the set of internal properties
/// that MPC maximizes (Section IV-C).
class InternalPropertySelector {
 public:
  virtual ~InternalPropertySelector() = default;
  virtual std::string name() const = 0;
  virtual SelectionResult Select(const rdf::RdfGraph& graph) const = 0;
};

/// Algorithm 1 with the Section IV-D disjoint-set-forest optimization and
/// the Section IV-E pruning heuristic, plus lazy re-evaluation: because
/// Cost(L_in ∪ {p}) is non-decreasing as L_in grows, stale candidate
/// costs are lower bounds, so a priority queue with recompute-on-pop
/// returns exactly the argmin of Algorithm 1's inner loop without
/// scanning every property each iteration.
class GreedySelector : public InternalPropertySelector {
 public:
  explicit GreedySelector(SelectorOptions options) : options_(options) {}
  std::string name() const override { return "greedy"; }
  SelectionResult Select(const rdf::RdfGraph& graph) const override;

 private:
  SelectorOptions options_;
};

/// The second Section IV-E heuristic for property-rich graphs (DBpedia,
/// LGD): start from L_in = L and greedily remove the property whose
/// removal most reduces Cost(L_in) until the cap is met. Candidate
/// evaluation is restricted to properties inside the current largest WCC
/// (removing any other property cannot reduce the cost).
class BackwardSelector : public InternalPropertySelector {
 public:
  explicit BackwardSelector(SelectorOptions options) : options_(options) {}
  std::string name() const override { return "backward"; }
  SelectionResult Select(const rdf::RdfGraph& graph) const override;

 private:
  SelectorOptions options_;
};

/// MPC-Exact (Section VI-D4): branch-and-bound over property subsets,
/// maximizing |L_in| subject to Cost(L_in) <= cap. Monotonicity of the
/// cost function makes infeasible-prefix pruning sound; the greedy result
/// seeds the incumbent. Exponential worst case — intended for graphs with
/// few properties (the paper only runs it on LUBM's 18).
class ExactSelector : public InternalPropertySelector {
 public:
  explicit ExactSelector(SelectorOptions options) : options_(options) {}
  std::string name() const override { return "exact"; }
  SelectionResult Select(const rdf::RdfGraph& graph) const override;

 private:
  SelectorOptions options_;
};

/// Picks GreedySelector for graphs with at most `auto_threshold`
/// properties and BackwardSelector above it, mirroring how the paper
/// switches heuristics between LUBM-like and DBpedia-like datasets.
class AutoSelector : public InternalPropertySelector {
 public:
  AutoSelector(SelectorOptions options, size_t auto_threshold = 512)
      : options_(options), auto_threshold_(auto_threshold) {}
  std::string name() const override { return "auto"; }
  SelectionResult Select(const rdf::RdfGraph& graph) const override;

 private:
  SelectorOptions options_;
  size_t auto_threshold_;
};

}  // namespace mpc::core

#endif  // MPC_MPC_SELECTOR_H_
