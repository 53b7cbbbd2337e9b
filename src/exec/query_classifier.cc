#include "exec/query_classifier.h"

#include "sparql/shape.h"

namespace mpc::exec {

const char* IeqClassName(IeqClass cls) {
  switch (cls) {
    case IeqClass::kInternal:
      return "internal";
    case IeqClass::kExtendedTypeI:
      return "extended-type-I";
    case IeqClass::kExtendedTypeII:
      return "extended-type-II";
    case IeqClass::kNonIeq:
      return "non-IEQ";
  }
  return "?";
}

Classification ClassifyQuery(const sparql::QueryGraph& query,
                             const partition::Partitioning& partitioning,
                             const rdf::RdfGraph& graph) {
  Classification result;
  result.crossing_pattern.assign(query.num_patterns(), false);

  const auto& patterns = query.patterns();
  for (size_t i = 0; i < patterns.size(); ++i) {
    const sparql::QueryTerm& pred = patterns[i].predicate;
    bool crossing;
    if (pred.is_variable()) {
      // Footnote 1: a variable predicate can match any property,
      // including crossing ones; treat conservatively as crossing.
      crossing = true;
    } else {
      rdf::PropertyId p = graph.property_dict().Lookup(pred.text);
      crossing =
          (p != rdf::kInvalidVertex) && partitioning.IsCrossingProperty(p);
    }
    if (crossing) {
      result.crossing_pattern[i] = true;
      ++result.num_crossing_patterns;
    }
  }

  if (result.num_crossing_patterns == 0) {
    // A disconnected BGP is no IEQ even without crossing edges: its WCCs
    // may match at different sites, so they are evaluated apart and
    // cross-joined. (The classes below all imply a connected query.)
    result.cls = sparql::IsWeaklyConnected(query) ? IeqClass::kInternal
                                                  : IeqClass::kNonIeq;
    return result;
  }

  sparql::QueryComponents components =
      sparql::DecomposeAfterRemoval(query, result.crossing_pattern);

  if (components.num_components == 1) {
    result.cls = IeqClass::kExtendedTypeI;
    return result;
  }

  // Count WCCs that keep an internal edge; Type-II allows at most one
  // (the core q_i). Satellites are edge-less vertices — a singleton with
  // an internal self-loop is not one: its loop lives only at its owner.
  std::vector<uint8_t> has_edge(components.num_components, 0);
  for (size_t i = 0; i < patterns.size(); ++i) {
    if (!result.crossing_pattern[i]) {
      has_edge[components.vertex_component[query.SubjectVertex(i)]] = 1;
    }
  }
  uint32_t core = UINT32_MAX;
  size_t num_cores = 0;
  for (uint32_t c = 0; c < components.num_components; ++c) {
    if (has_edge[c]) {
      core = c;
      ++num_cores;
    }
  }
  if (num_cores > 1) {
    result.cls = IeqClass::kNonIeq;
    return result;
  }

  if (num_cores == 1) {
    // Every crossing edge must touch the core (condition 2 of
    // Definition 5.3: no crossing edges between two satellites).
    for (size_t i = 0; i < patterns.size(); ++i) {
      if (!result.crossing_pattern[i]) continue;
      uint32_t cs = components.vertex_component[query.SubjectVertex(i)];
      uint32_t co = components.vertex_component[query.ObjectVertex(i)];
      if (cs != core && co != core) {
        result.cls = IeqClass::kNonIeq;
        return result;
      }
    }
    result.cls = IeqClass::kExtendedTypeII;
    return result;
  }

  // No WCC keeps an edge: every pattern is crossing. Type-II holds iff
  // some vertex (the chosen core) touches every edge — i.e. the query is
  // a star of crossing edges.
  for (uint32_t candidate :
       {query.SubjectVertex(0), query.ObjectVertex(0)}) {
    bool covers_all = true;
    for (size_t i = 0; i < patterns.size(); ++i) {
      if (query.SubjectVertex(i) != candidate &&
          query.ObjectVertex(i) != candidate) {
        covers_all = false;
        break;
      }
    }
    if (covers_all) {
      result.cls = IeqClass::kExtendedTypeII;
      return result;
    }
  }
  result.cls = IeqClass::kNonIeq;
  return result;
}

}  // namespace mpc::exec
