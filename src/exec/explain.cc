#include "exec/explain.h"

#include <sstream>

#include "exec/decomposer.h"
#include "sparql/shape.h"

namespace mpc::exec {

namespace {

std::string TermText(const sparql::QueryTerm& term) {
  return term.is_variable() ? "?" + term.text : term.text;
}

std::string PatternText(const sparql::TriplePattern& pattern) {
  return TermText(pattern.subject) + " " + TermText(pattern.predicate) +
         " " + TermText(pattern.object) + " .";
}

}  // namespace

std::string ExplainQuery(const sparql::QueryGraph& query,
                         const partition::Partitioning& partitioning,
                         const rdf::RdfGraph& graph,
                         const Cluster* cluster) {
  std::ostringstream out;
  const QueryPlan plan = PlanQuery(query, partitioning, graph);
  const Classification& cls = plan.classification;
  const Decomposition& decomposition = plan.decomposition;
  const store::ResolvedQuery resolved = store::ResolveQuery(query, graph);

  out << "query: " << query.num_patterns() << " patterns, "
      << query.num_variables() << " variables, "
      << (sparql::IsStarQuery(query) ? "star" : "non-star") << "\n";
  out << "class: " << IeqClassName(cls.cls) << " -> "
      << (plan.union_only
              ? "independent execution (per-site union, no join)"
              : "decompose + inter-partition join")
      << "\n";
  if (cls.num_crossing_patterns > 0) {
    out << "crossing patterns (" << cls.num_crossing_patterns << "):\n";
    for (size_t i = 0; i < query.num_patterns(); ++i) {
      if (cls.crossing_pattern[i]) {
        out << "  [" << i << "] " << PatternText(query.patterns()[i])
            << "\n";
      }
    }
  }

  if (!plan.union_only) {
    out << "decomposition: " << decomposition.num_subqueries()
        << " subqueries\n";
  }

  for (size_t s = 0; s < decomposition.num_subqueries(); ++s) {
    const std::vector<size_t>& sub = decomposition.subqueries[s];
    sparql::QueryGraph extracted = sparql::ExtractSubquery(query, sub);
    const IeqClass sub_cls =
        PlanQuery(extracted, partitioning, graph).classification.cls;
    out << "subquery " << s << " (" << IeqClassName(sub_cls) << "):\n";
    for (size_t idx : sub) {
      out << "  [" << idx << "] " << PatternText(query.patterns()[idx])
          << "\n";
    }
    if (cluster != nullptr) {
      // The sites the executor contacts with site pruning on.
      const SiteSelection selection =
          SelectSites(*cluster, resolved, cls.crossing_pattern, sub);
      out << "  sites:";
      for (uint32_t site : selection.sites) out << " " << site;
      out << "\n";
      if (selection.owner_constant.has_value()) {
        out << "  owner-localized: "
            << graph.VertexName(*selection.owner_constant)
            << " is owned by site " << selection.owner
            << (selection.star ? " (every pattern touches it)" : "") << "\n";
      }
    }
  }
  if (cluster != nullptr &&
      partitioning.kind() == partition::PartitioningKind::kVertexDisjoint) {
    // Blast-radius report: what a single-site loss would cost, from the
    // 1-hop crossing-edge replication (Def. 3.3-3.4). IEQ independence
    // means a lost site only removes its own contribution; this shows
    // how much of that contribution survives on live replicas.
    out << "fault tolerance (single-site loss, 1-hop replicas):\n";
    for (uint32_t site = 0; site < cluster->k(); ++site) {
      SiteAvailability avail = cluster->AllUp();
      avail.MarkDown(site);
      ReplicaCoverage coverage = cluster->ComputeReplicaCoverage(avail);
      out << "  site " << site << " down: " << coverage.replicated_on_live
          << "/" << coverage.failed_owned_vertices
          << " owned vertices replicated on live sites, "
          << coverage.lost_triples << " triples unrecoverable\n";
    }
  }
  return out.str();
}

}  // namespace mpc::exec
