#include "rdf/graph.h"

#include <algorithm>
#include <cassert>

namespace mpc::rdf {

RdfGraph RdfGraph::Clone() const {
  RdfGraph copy;
  copy.triples_ = triples_;
  copy.property_offsets_ = property_offsets_;
  copy.vertex_dict_ = vertex_dict_.Clone();
  copy.property_dict_ = property_dict_.Clone();
  return copy;
}

PropertyId RdfGraph::InternProperty(std::string_view term) {
  const size_t before = property_dict_.size();
  PropertyId p = property_dict_.Intern(term);
  if (property_offsets_.empty()) property_offsets_.push_back(0);
  if (property_dict_.size() > before) {
    // New property: no snapshot edges carry it, so its run is empty and
    // starts (and ends) at the end of the frozen edge array.
    property_offsets_.push_back(triples_.size());
  }
  return p;
}

std::vector<PropertyId> RdfGraph::AllProperties() const {
  std::vector<PropertyId> props(num_properties());
  for (size_t i = 0; i < props.size(); ++i) {
    props[i] = static_cast<PropertyId>(i);
  }
  return props;
}

size_t RdfGraph::MemoryUsage() const {
  return triples_.capacity() * sizeof(Triple) +
         property_offsets_.capacity() * sizeof(uint64_t) +
         vertex_dict_.MemoryUsage() + property_dict_.MemoryUsage();
}

void GraphBuilder::Add(std::string_view subject, std::string_view property,
                       std::string_view object) {
  VertexId s = vertex_dict_.Intern(subject);
  PropertyId p = property_dict_.Intern(property);
  VertexId o = vertex_dict_.Intern(object);
  triples_.emplace_back(s, p, o);
}

RdfGraph GraphBuilder::Build() {
  std::sort(triples_.begin(), triples_.end());
  triples_.erase(std::unique(triples_.begin(), triples_.end()),
                 triples_.end());
  triples_.shrink_to_fit();

  RdfGraph graph;
  graph.triples_ = std::move(triples_);
  graph.vertex_dict_ = std::move(vertex_dict_);
  graph.property_dict_ = std::move(property_dict_);
  triples_.clear();
  vertex_dict_ = Dictionary();
  property_dict_ = Dictionary();

  const size_t num_props = graph.property_dict_.size();
  graph.property_offsets_.assign(num_props + 1, 0);
  for (const Triple& t : graph.triples_) {
    assert(t.property < num_props);
    ++graph.property_offsets_[t.property + 1];
  }
  for (size_t p = 0; p < num_props; ++p) {
    graph.property_offsets_[p + 1] += graph.property_offsets_[p];
  }
  return graph;
}

}  // namespace mpc::rdf
