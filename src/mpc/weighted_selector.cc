#include "mpc/weighted_selector.h"

#include <algorithm>
#include <unordered_set>

#include "dsf/disjoint_set_forest.h"

namespace mpc::core {

SelectionResult WeightedGreedySelector::Select(
    const rdf::RdfGraph& graph) const {
  const size_t num_props = graph.num_properties();
  const size_t cap = BalanceCap(graph, options_.base.k, options_.base.epsilon);

  SelectionResult result;
  result.internal.assign(num_props, false);

  auto weight_of = [&](size_t p) {
    return p < weights_.size() ? weights_[p] : default_weight_;
  };

  // Feasibility prefilter, as in Algorithm 1 lines 2-4. Per-property
  // costs evaluate in parallel; the filter stays serial in property
  // order.
  const std::vector<size_t> single_cost =
      SingletonCosts(graph, options_.base.num_threads);
  std::vector<rdf::PropertyId> remaining;
  for (size_t p = 0; p < num_props; ++p) {
    if (single_cost[p] > cap) {
      ++result.pruned_properties;
    } else {
      remaining.push_back(static_cast<rdf::PropertyId>(p));
    }
  }
  // Highest weight first; ties by id for determinism. Re-scanned each
  // round because feasibility changes as the forest grows.
  std::sort(remaining.begin(), remaining.end(),
            [&](rdf::PropertyId a, rdf::PropertyId b) {
              double wa = weight_of(a), wb = weight_of(b);
              if (wa != wb) return wa > wb;
              return a < b;
            });

  dsf::DisjointSetForest base(graph.num_vertices());
  bool progress = true;
  while (progress) {
    progress = false;
    // One commit per round: the first feasible property fixes the weight
    // tier (the list is sorted weight-descending), then the rest of that
    // tier competes on (trial cost, id) — the documented tie-break. Lower
    // trial cost first keeps the budget roomy for later rounds.
    size_t best = remaining.size();
    size_t best_trial = 0;
    for (size_t i = 0; i < remaining.size(); ++i) {
      rdf::PropertyId p = remaining[i];
      if (best != remaining.size() &&
          weight_of(p) != weight_of(remaining[best])) {
        break;  // left the winning weight tier
      }
      ++result.iterations;
      const size_t trial =
          dsf::TrialMergeMaxComponent(base, graph.EdgesWithProperty(p));
      if (trial > cap) continue;
      // Ids ascend within a tier, so strictly-smaller trial is the only
      // way a later candidate wins.
      if (best == remaining.size() || trial < best_trial) {
        best = i;
        best_trial = trial;
      }
    }
    if (best != remaining.size()) {
      rdf::PropertyId p = remaining[best];
      base.AddEdges(graph.EdgesWithProperty(p));
      result.internal[p] = true;
      ++result.num_internal;
      remaining.erase(remaining.begin() + best);
      progress = true;
    }
  }
  result.final_cost =
      result.num_internal == 0 ? 0 : base.max_component_size();
  return result;
}

std::vector<double> ComputeWorkloadPropertyWeights(
    const std::vector<sparql::QueryGraph>& queries,
    const rdf::RdfGraph& graph) {
  std::vector<double> weights(graph.num_properties(), 0.0);
  for (const sparql::QueryGraph& query : queries) {
    std::unordered_set<rdf::PropertyId> seen;
    for (const sparql::TriplePattern& pattern : query.patterns()) {
      if (pattern.predicate.is_variable()) continue;
      rdf::PropertyId p =
          graph.property_dict().Lookup(pattern.predicate.text);
      if (p == rdf::kInvalidVertex) continue;
      if (seen.insert(p).second) weights[p] += 1.0;
    }
  }
  return weights;
}

}  // namespace mpc::core
