#include "mpc/selector.h"

#include <algorithm>
#include <cassert>
#include <queue>
#include <span>

#include "common/thread_pool.h"
#include "dsf/disjoint_set_forest.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mpc::core {

size_t BalanceCap(const rdf::RdfGraph& graph, uint32_t k, double epsilon) {
  if (k == 0) return graph.num_vertices();
  double cap = (1.0 + epsilon) * static_cast<double>(graph.num_vertices()) /
               static_cast<double>(k);
  return static_cast<size_t>(cap);
}

namespace {

/// ParallelFor grain for loops over vertices.
constexpr size_t kVertexGrain = 4096;

/// ParallelFor grain for loops over properties, which do work in
/// proportion to their edges: chunks of about 4,096 edges on average, so
/// property-rich graphs do not pay one pool hand-off per tiny property.
size_t PropertyGrain(const rdf::RdfGraph& graph) {
  constexpr size_t kEdgesPerChunk = 4096;
  if (graph.num_edges() == 0) return graph.num_properties();
  return std::max<size_t>(
      1, graph.num_properties() * kEdgesPerChunk / graph.num_edges());
}

SelectionResult MakeEmptyResult(size_t num_properties) {
  SelectionResult result;
  result.internal.assign(num_properties, false);
  return result;
}

/// One registry update per Select() call (the registry lookup takes a
/// mutex, so hot loops accumulate locally and flush here).
void FlushSelectorMetrics(const SelectionResult& result, size_t num_props,
                          uint64_t dsf_trial_merges, uint64_t dsf_union_edges) {
  auto& metrics = obs::MetricsRegistry::Default();
  metrics.CounterRef("mpc.selector.iterations").Inc(result.iterations);
  metrics.CounterRef("mpc.selector.pruned_properties")
      .Inc(result.pruned_properties);
  metrics.CounterRef("mpc.dsf.trial_merges").Inc(dsf_trial_merges);
  metrics.CounterRef("mpc.dsf.union_edges").Inc(dsf_union_edges);
  metrics.GaugeRef("mpc.selector.internal_properties")
      .Set(static_cast<double>(result.num_internal));
  metrics.GaugeRef("mpc.selector.crossing_properties")
      .Set(static_cast<double>(num_props - result.num_internal));
  metrics.GaugeRef("mpc.selector.final_cost")
      .Set(static_cast<double>(result.final_cost));
}

}  // namespace

std::vector<size_t> SingletonCosts(const rdf::RdfGraph& graph,
                                   int num_threads) {
  std::vector<size_t> cost(graph.num_properties());
  ParallelFor(0, cost.size(), PropertyGrain(graph), num_threads,
              [&](size_t p) {
                cost[p] = dsf::MaxWccOfEdges(graph.EdgesWithProperty(
                    static_cast<rdf::PropertyId>(p)));
              });
  return cost;
}

SelectionResult GreedySelector::Select(const rdf::RdfGraph& graph) const {
  const size_t num_props = graph.num_properties();
  const size_t cap = BalanceCap(graph, options_.base.k, options_.base.epsilon);
  const int threads = ResolveNumThreads(options_.base.num_threads);
  SelectionResult result = MakeEmptyResult(num_props);
  obs::TraceSpan select_span("mpc.select.greedy");
  select_span.Attr("properties", static_cast<uint64_t>(num_props))
      .Attr("cap", static_cast<uint64_t>(cap));
  uint64_t dsf_trial_merges = 0;
  uint64_t dsf_union_edges = 0;

  // Lines 2-4 of Algorithm 1: per-property WCC cost; prune properties
  // that alone exceed the cap (Section IV-E heuristic 1). The costs
  // evaluate in parallel; pruning and heap construction stay serial in
  // property order so the heap contents are thread-count independent.
  const std::vector<size_t> single_cost = SingletonCosts(graph, threads);

  struct Candidate {
    size_t cached_cost;  // lower bound on Cost(L_in ∪ {p})
    size_t frequency;
    rdf::PropertyId property;
    // Min-heap by cost; ties prefer more frequent (more edges become
    // internal), then lower id for determinism.
    bool operator>(const Candidate& o) const {
      if (cached_cost != o.cached_cost) return cached_cost > o.cached_cost;
      if (frequency != o.frequency) return frequency < o.frequency;
      return property > o.property;
    }
  };
  std::priority_queue<Candidate, std::vector<Candidate>,
                      std::greater<Candidate>>
      heap;
  for (size_t p = 0; p < num_props; ++p) {
    if (single_cost[p] > cap) {
      ++result.pruned_properties;
      continue;
    }
    heap.push({std::max<size_t>(single_cost[p], 1),
               graph.PropertyFrequency(static_cast<rdf::PropertyId>(p)),
               static_cast<rdf::PropertyId>(p)});
  }

  // Lines 5-16: repeatedly select the property minimizing
  // Cost(L_in ∪ {p}). Lazy evaluation: cached costs only become stale
  // upward (monotone), so if a recomputed top is still no worse than the
  // next cached entry it is the exact argmin.
  dsf::DisjointSetForest base(graph.num_vertices());
  while (!heap.empty()) {
    obs::TraceSpan iter_span("mpc.select.iteration");
    Candidate top = heap.top();
    heap.pop();
    auto edges = graph.EdgesWithProperty(top.property);
    size_t fresh_cost = dsf::TrialMergeMaxComponent(base, edges);
    ++dsf_trial_merges;
    ++result.iterations;
    iter_span.Attr("property", static_cast<uint64_t>(top.property))
        .Attr("cost", static_cast<uint64_t>(fresh_cost))
        .Attr("lcross", static_cast<uint64_t>(num_props - result.num_internal));
    if (fresh_cost > cap) continue;  // infeasible now; forever infeasible
    if (!heap.empty()) {
      Candidate next = heap.top();
      if (Candidate{fresh_cost, top.frequency, top.property} > next) {
        // Stale: push back with refreshed bound and re-examine.
        heap.push({fresh_cost, top.frequency, top.property});
        continue;
      }
    }
    // Commit p_opt (lines 15-16).
    base.AddEdges(edges);
    dsf_union_edges += edges.size();
    result.internal[top.property] = true;
    ++result.num_internal;
    result.final_cost = std::max(result.final_cost,
                                 base.max_component_size());
  }
  if (result.num_internal == 0) result.final_cost = 0;
  select_span.Attr("iterations", static_cast<uint64_t>(result.iterations))
      .Attr("internal", static_cast<uint64_t>(result.num_internal))
      .Attr("final_cost", static_cast<uint64_t>(result.final_cost));
  FlushSelectorMetrics(result, num_props, dsf_trial_merges, dsf_union_edges);
  return result;
}

SelectionResult BackwardSelector::Select(const rdf::RdfGraph& graph) const {
  const size_t num_props = graph.num_properties();
  const size_t num_vertices = graph.num_vertices();
  const size_t cap = BalanceCap(graph, options_.base.k, options_.base.epsilon);
  const int threads = ResolveNumThreads(options_.base.num_threads);
  SelectionResult result = MakeEmptyResult(num_props);
  obs::TraceSpan select_span("mpc.select.backward");
  select_span.Attr("properties", static_cast<uint64_t>(num_props))
      .Attr("cap", static_cast<uint64_t>(cap));
  uint64_t dsf_trial_merges = 0;
  uint64_t dsf_union_edges = 0;
  const size_t grain = PropertyGrain(graph);
  const size_t max_candidates =
      static_cast<size_t>(std::max(options_.backward_candidates, 1));

  // Start with every property internal (Section IV-E heuristic 2).
  std::vector<bool> selected(num_props, true);
  size_t num_selected = num_props;

  // Each step's candidates are evaluated against `rest`, the forest over
  // every selected property outside the set `held_out`. held_out is a
  // guess made one step ahead (twice as many properties as there are
  // candidates, the most frequent ones at first), so the forest over all
  // selected properties is `rest` plus the held-out edges. A step whose
  // candidates escape the guess adds them to it and rebuilds `rest`.
  std::vector<uint8_t> held_out(num_props, 0);
  {
    std::vector<rdf::PropertyId> by_frequency(num_props);
    for (size_t p = 0; p < num_props; ++p) {
      by_frequency[p] = static_cast<rdf::PropertyId>(p);
    }
    const size_t guess = std::min(num_props, 2 * max_candidates);
    std::partial_sort(by_frequency.begin(), by_frequency.begin() + guess,
                      by_frequency.end(),
                      [&](rdf::PropertyId a, rdf::PropertyId b) {
                        const size_t fa = graph.PropertyFrequency(a);
                        const size_t fb = graph.PropertyFrequency(b);
                        return fa != fb ? fa > fb : a < b;
                      });
    for (size_t i = 0; i < guess; ++i) held_out[by_frequency[i]] = 1;
  }
  auto union_selected = [&](dsf::DisjointSetForest* forest, bool held) {
    for (size_t p = 0; p < num_props; ++p) {
      if (!selected[p] || (held_out[p] != 0) != held) continue;
      auto edges = graph.EdgesWithProperty(static_cast<rdf::PropertyId>(p));
      forest->AddEdges(edges);
      dsf_union_edges += edges.size();
    }
  };

  while (true) {
    obs::TraceSpan iter_span("mpc.select.iteration");
    iter_span.Attr("lcross", static_cast<uint64_t>(num_props - num_selected));
    ++result.iterations;
    // The forest over the currently selected properties.
    dsf::DisjointSetForest rest(num_vertices);
    union_selected(&rest, /*held=*/false);
    dsf::DisjointSetForest forest = rest;
    union_selected(&forest, /*held=*/true);
    const size_t cost = forest.max_component_size();
    iter_span.Attr("cost", static_cast<uint64_t>(cost));
    if (cost <= cap || num_selected == 0) {
      result.final_cost = num_selected == 0 ? 0 : cost;
      break;
    }

    // Identify the largest component's root and the second-largest
    // component size (the floor any removal can reach this step). Roots
    // are looked up in parallel (read-only), then visited in order of
    // their first vertex, so ties between equal components resolve the
    // same way every time.
    std::vector<uint32_t> root_of(num_vertices);
    ParallelFor(0, num_vertices, kVertexGrain, threads, [&](size_t v) {
      root_of[v] = forest.FindNoCompress(static_cast<uint32_t>(v));
    });
    uint32_t giant_root = 0;
    size_t second_max = 0;
    {
      std::vector<uint8_t> seen_root(num_vertices, 0);
      size_t best = 0;
      for (uint32_t root : root_of) {
        if (seen_root[root]) continue;
        seen_root[root] = 1;
        const size_t size = forest.SizeOfRoot(root);
        if (size > best) {
          second_max = best;
          best = size;
          giant_root = root;
        } else if (size > second_max) {
          second_max = size;
        }
      }
    }

    // Candidates: properties with edges inside the giant component,
    // ranked by their edge count there (removing a heavy property is the
    // likeliest to shatter it). An edge of a selected property touching
    // the giant WCC lies entirely inside it.
    std::vector<size_t> giant_edges(num_props, 0);
    ParallelFor(0, num_props, grain, threads, [&](size_t p) {
      if (!selected[p]) return;
      size_t count = 0;
      for (const rdf::Triple& t :
           graph.EdgesWithProperty(static_cast<rdf::PropertyId>(p))) {
        if (root_of[t.subject] == giant_root) ++count;
      }
      giant_edges[p] = count;
    });
    std::vector<std::pair<size_t, rdf::PropertyId>> ranked;
    for (size_t p = 0; p < num_props; ++p) {
      if (giant_edges[p] > 0) {
        ranked.emplace_back(giant_edges[p], static_cast<rdf::PropertyId>(p));
      }
    }
    assert(!ranked.empty());
    const size_t num_candidates = std::min(ranked.size(), max_candidates);
    // Only the first ranks are read; (count, id) is a total order, so
    // they come out as a full sort would put them. The next step's guess
    // is this step's top 2 * max_candidates.
    const size_t num_ranked = std::min(ranked.size(), 2 * max_candidates);
    std::partial_sort(ranked.begin(), ranked.begin() + num_ranked,
                      ranked.end(), [](const auto& a, const auto& b) {
                        if (a.first != b.first) return a.first > b.first;
                        return a.second < b.second;
                      });
    bool escaped = false;
    for (size_t c = 0; c < num_candidates; ++c) {
      uint8_t& held = held_out[ranked[c].second];
      escaped = escaped || held == 0;
      held = 1;
    }
    if (escaped) {
      rest = dsf::DisjointSetForest(num_vertices);
      union_selected(&rest, /*held=*/false);
    }

    // The giant's edges of the held-out properties, grouped by property:
    // property p's edges occupy [offset[p], offset[p] + giant_edges[p]).
    std::vector<size_t> offset(num_props + 1, 0);
    for (size_t p = 0; p < num_props; ++p) {
      offset[p + 1] = offset[p] + (held_out[p] != 0 ? giant_edges[p] : 0);
    }
    std::vector<rdf::Triple> held_edges(offset[num_props]);
    for (size_t p = 0; p < num_props; ++p) {
      if (held_out[p] == 0 || giant_edges[p] == 0) continue;
      size_t out = offset[p];
      for (const rdf::Triple& t :
           graph.EdgesWithProperty(static_cast<rdf::PropertyId>(p))) {
        if (root_of[t.subject] == giant_root) held_edges[out++] = t;
      }
    }

    // Exact evaluation of each candidate, restricted to the giant
    // component: removing p can only split the giant; everything else is
    // unchanged, so new_cost = max(second_max, maxWCC(giant minus p)).
    // Each candidate trial-merges every held-out giant edge but its own
    // onto `rest` (Section IV-D); components outside the giant stay at
    // most second_max. Candidates evaluate in parallel; the argmin over
    // candidate rank order stays serial for determinism.
    const std::span<const rdf::Triple> all_held(held_edges);
    std::vector<size_t> candidate_cost(num_candidates);
    ParallelFor(0, num_candidates, 1, threads, [&](size_t c) {
      const size_t lo = offset[ranked[c].second];
      const size_t hi = offset[ranked[c].second + 1];
      // A singleton counts as 1, which is correct: giant vertices
      // isolated by the removal become singleton WCCs.
      candidate_cost[c] = std::max(
          second_max,
          dsf::TrialMergeMaxComponent(
              rest, {all_held.subspan(0, lo), all_held.subspan(hi)}));
    });
    dsf_trial_merges += num_candidates;
    rdf::PropertyId best_property = ranked[0].second;
    size_t best_new_cost = SIZE_MAX;
    for (size_t c = 0; c < num_candidates; ++c) {
      if (candidate_cost[c] < best_new_cost) {
        best_new_cost = candidate_cost[c];
        best_property = ranked[c].second;
      }
    }
    selected[best_property] = false;
    --num_selected;
    std::fill(held_out.begin(), held_out.end(), 0);
    for (size_t r = 0; r < num_ranked; ++r) held_out[ranked[r].second] = 1;
  }

  result.internal = std::move(selected);
  result.num_internal = num_selected;
  select_span.Attr("iterations", static_cast<uint64_t>(result.iterations))
      .Attr("internal", static_cast<uint64_t>(result.num_internal))
      .Attr("final_cost", static_cast<uint64_t>(result.final_cost));
  FlushSelectorMetrics(result, num_props, dsf_trial_merges, dsf_union_edges);
  return result;
}

SelectionResult ExactSelector::Select(const rdf::RdfGraph& graph) const {
  const size_t num_props = graph.num_properties();
  const size_t cap = BalanceCap(graph, options_.base.k, options_.base.epsilon);
  const int threads = ResolveNumThreads(options_.base.num_threads);
  obs::TraceSpan select_span("mpc.select.exact");
  select_span.Attr("properties", static_cast<uint64_t>(num_props))
      .Attr("cap", static_cast<uint64_t>(cap));

  // Seed the incumbent with the greedy solution: strong bound, and the
  // fallback answer if the node budget runs out.
  GreedySelector greedy(options_);
  SelectionResult best = greedy.Select(graph);
  best.optimal = false;

  // Feasible properties only; a property infeasible alone is infeasible
  // in any superset (monotonicity). Costs evaluate in parallel; the
  // filter runs serially in property order.
  struct Prop {
    rdf::PropertyId id;
    size_t single_cost;
  };
  const std::vector<size_t> single_cost = SingletonCosts(graph, threads);
  std::vector<Prop> props;
  for (size_t p = 0; p < num_props; ++p) {
    if (single_cost[p] <= cap) {
      props.push_back({static_cast<rdf::PropertyId>(p), single_cost[p]});
    }
  }
  // Decide high-conflict (expensive) properties first: failures prune
  // whole subtrees early.
  std::sort(props.begin(), props.end(), [](const Prop& a, const Prop& b) {
    return a.single_cost > b.single_cost;
  });

  size_t nodes = 0;
  bool budget_exhausted = false;
  std::vector<bool> current(num_props, false);

  // DFS with an explicit copy of the forest per include-branch. The
  // include branch is explored first so good incumbents arrive early.
  auto dfs = [&](auto&& self, size_t index, size_t count,
                 const dsf::DisjointSetForest& forest) -> void {
    if (budget_exhausted) return;
    if (++nodes > options_.exact_node_budget) {
      budget_exhausted = true;
      return;
    }
    if (count + (props.size() - index) <= best.num_internal) return;
    if (index == props.size()) {
      // count > best.num_internal is guaranteed by the bound above.
      best.internal = current;
      best.num_internal = count;
      best.final_cost = forest.max_component_size();
      return;
    }
    const Prop& prop = props[index];
    auto edges = graph.EdgesWithProperty(prop.id);
    if (dsf::TrialMergeMaxComponent(forest, edges) <= cap) {
      dsf::DisjointSetForest extended = forest;  // copy, then commit
      extended.AddEdges(edges);
      current[prop.id] = true;
      self(self, index + 1, count + 1, extended);
      current[prop.id] = false;
    }
    self(self, index + 1, count, forest);
  };

  dsf::DisjointSetForest root(graph.num_vertices());
  dfs(dfs, 0, 0, root);

  best.iterations = nodes;
  best.optimal = !budget_exhausted;
  select_span.Attr("nodes", static_cast<uint64_t>(nodes))
      .Attr("optimal", static_cast<uint64_t>(best.optimal ? 1 : 0));
  obs::MetricsRegistry::Default()
      .CounterRef("mpc.selector.exact_nodes")
      .Inc(nodes);
  // final_cost of the greedy seed may be stale if exact found nothing
  // better; recompute for consistency.
  if (best.num_internal > 0) {
    dsf::DisjointSetForest check(graph.num_vertices());
    for (size_t p = 0; p < num_props; ++p) {
      if (best.internal[p]) {
        check.AddEdges(graph.EdgesWithProperty(static_cast<rdf::PropertyId>(p)));
      }
    }
    best.final_cost = check.max_component_size();
  } else {
    best.final_cost = 0;
  }
  return best;
}

SelectionResult AutoSelector::Select(const rdf::RdfGraph& graph) const {
  if (graph.num_properties() <= auto_threshold_) {
    return GreedySelector(options_).Select(graph);
  }
  return BackwardSelector(options_).Select(graph);
}

}  // namespace mpc::core
