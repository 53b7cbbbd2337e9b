#ifndef MPC_RDF_GRAPH_H_
#define MPC_RDF_GRAPH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/types.h"

namespace mpc::rdf {

/// An immutable, dictionary-encoded RDF graph G = (V, E, L, f) per
/// Definition 3.1. The edge array is sorted by (property, subject, object)
/// so that every property-induced subgraph G[{p}] (Definition 3.2) is one
/// contiguous run — the access pattern Algorithm 1's internal-property
/// selection iterates over.
///
/// Build instances with GraphBuilder or the N-Triples parser.
class RdfGraph {
 public:
  RdfGraph() = default;
  RdfGraph(RdfGraph&&) = default;
  RdfGraph& operator=(RdfGraph&&) = default;
  RdfGraph(const RdfGraph&) = delete;
  RdfGraph& operator=(const RdfGraph&) = delete;

  /// Explicit deep copy (the implicit copy is deleted so sharing stays
  /// deliberate; dictionaries are rebuilt with identical ids).
  RdfGraph Clone() const;

  /// |V|: number of distinct subjects/objects ("entities" in Table I).
  size_t num_vertices() const { return vertex_dict_.size(); }

  /// |E|: number of distinct triples.
  size_t num_edges() const { return triples_.size(); }

  /// |L|: number of distinct properties.
  size_t num_properties() const { return property_dict_.size(); }

  /// All triples, sorted by (property, subject, object).
  const std::vector<Triple>& triples() const { return triples_; }

  /// Edges of the property-induced subgraph G[{p}].
  std::span<const Triple> EdgesWithProperty(PropertyId p) const {
    return std::span<const Triple>(triples_.data() + property_offsets_[p],
                                   property_offsets_[p + 1] -
                                       property_offsets_[p]);
  }

  /// Number of edges labeled `p`.
  size_t PropertyFrequency(PropertyId p) const {
    return property_offsets_[p + 1] - property_offsets_[p];
  }

  /// All property ids, 0..|L|-1.
  std::vector<PropertyId> AllProperties() const;

  const Dictionary& vertex_dict() const { return vertex_dict_; }
  const Dictionary& property_dict() const { return property_dict_; }

  /// Incremental-ingest support (dynamic::IncrementalMaintainer): interns
  /// a possibly-new vertex term, growing the dictionary. The frozen triple
  /// array is untouched — a grown vertex simply extends the id space, so
  /// num_vertices() grows while triples() stays the original snapshot.
  VertexId InternVertex(std::string_view term) {
    return vertex_dict_.Intern(term);
  }

  /// Interns a possibly-new property term. A grown property gets an empty
  /// edge run: property_offsets_ is extended so EdgesWithProperty() and
  /// PropertyFrequency() stay valid (and return empty/0) for it.
  PropertyId InternProperty(std::string_view term);

  /// Lexical form helpers.
  const std::string& VertexName(VertexId v) const {
    return vertex_dict_.Lexical(v);
  }
  const std::string& PropertyName(PropertyId p) const {
    return property_dict_.Lexical(p);
  }

  /// Approximate heap footprint in bytes.
  size_t MemoryUsage() const;

 private:
  friend class GraphBuilder;

  std::vector<Triple> triples_;
  /// CSR offsets over the sorted edge array: edges of property p live in
  /// [property_offsets_[p], property_offsets_[p+1]).
  std::vector<uint64_t> property_offsets_;
  Dictionary vertex_dict_;
  Dictionary property_dict_;
};

/// Accumulates triples (by lexical form or pre-interned ids) and produces
/// an RdfGraph. Duplicate triples are removed at Build(), since an RDF
/// graph is a set of triples.
class GraphBuilder {
 public:
  GraphBuilder() = default;

  /// Interns the three terms and records the triple.
  void Add(std::string_view subject, std::string_view property,
           std::string_view object);

  /// Records a triple of already-interned ids (from this builder's
  /// dictionaries). Ids must have come from InternVertex/InternProperty.
  void Add(VertexId s, PropertyId p, VertexId o) {
    triples_.emplace_back(s, p, o);
  }

  VertexId InternVertex(std::string_view term) {
    return vertex_dict_.Intern(term);
  }
  PropertyId InternProperty(std::string_view term) {
    return property_dict_.Intern(term);
  }

  size_t num_triples() const { return triples_.size(); }

  /// The state Build() freezes: triples in the order they were added, and
  /// the two dictionaries (ids in first-seen order).
  const std::vector<Triple>& triples() const { return triples_; }
  const Dictionary& vertex_dict() const { return vertex_dict_; }
  const Dictionary& property_dict() const { return property_dict_; }

  /// Sorts, deduplicates and freezes into an immutable graph. The builder
  /// is left empty.
  RdfGraph Build();

 private:
  std::vector<Triple> triples_;
  Dictionary vertex_dict_;
  Dictionary property_dict_;
};

}  // namespace mpc::rdf

#endif  // MPC_RDF_GRAPH_H_
