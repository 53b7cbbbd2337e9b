#include "workload/query_log.h"

#include <algorithm>
#include <string>

#include "common/random.h"

namespace mpc::workload {

namespace {

/// Incidence index: for each vertex, the triples it appears in (as
/// subject or object), used to sample stars and walks from the data.
class Incidence {
 public:
  explicit Incidence(const rdf::RdfGraph& graph) : graph_(graph) {
    offsets_.assign(graph.num_vertices() + 1, 0);
    const auto& triples = graph.triples();
    for (const rdf::Triple& t : triples) {
      ++offsets_[t.subject + 1];
      if (t.object != t.subject) ++offsets_[t.object + 1];
    }
    for (size_t v = 0; v < graph.num_vertices(); ++v) {
      offsets_[v + 1] += offsets_[v];
    }
    incident_.resize(offsets_.back());
    std::vector<uint64_t> cursor(offsets_.begin(), offsets_.end() - 1);
    for (size_t i = 0; i < triples.size(); ++i) {
      incident_[cursor[triples[i].subject]++] = i;
      if (triples[i].object != triples[i].subject) {
        incident_[cursor[triples[i].object]++] = i;
      }
    }
  }

  size_t Degree(rdf::VertexId v) const {
    return offsets_[v + 1] - offsets_[v];
  }
  /// The i-th incident triple index of v.
  size_t TripleAt(rdf::VertexId v, size_t i) const {
    return incident_[offsets_[v] + i];
  }

 private:
  const rdf::RdfGraph& graph_;
  std::vector<uint64_t> offsets_;
  std::vector<size_t> incident_;
};

class LogBuilder {
 public:
  LogBuilder(const rdf::RdfGraph& graph, const QueryLogOptions& options)
      : graph_(graph),
        options_(options),
        incidence_(graph),
        rng_(options.seed),
        type_property_(graph.property_dict().Lookup(
            "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>")) {}

  std::vector<NamedQuery> Generate() {
    std::vector<NamedQuery> log;
    log.reserve(options_.num_queries);
    while (log.size() < options_.num_queries) {
      // The shape is drawn once per query and retried on sampling
      // failure; re-rolling the shape would bias the log toward the
      // easiest-to-sample shape (stars) and skew the Table III mix.
      double roll = rng_.NextDouble();
      NamedQuery q;
      bool ok = false;
      for (int attempt = 0; attempt < 50 && !ok; ++attempt) {
        if (roll < options_.single_pattern_fraction) {
          ok = SampleSingle(&q);
        } else if (roll < options_.single_pattern_fraction +
                              options_.star_fraction) {
          ok = SampleStar(&q);
        } else {
          ok = SamplePath(&q);
        }
      }
      if (!ok) {
        // Pathological graph for this shape; fall back to a single
        // pattern so generation always terminates.
        SampleSingle(&q);
      }
      q.name = 'Q' + std::to_string(log.size() + 1);
      log.push_back(std::move(q));
    }
    return log;
  }

 private:
  const rdf::Triple& RandomTriple() {
    return graph_.triples()[rng_.Below(graph_.num_edges())];
  }

  std::string VertexText(rdf::VertexId v) { return graph_.VertexName(v); }
  std::string PropText(rdf::PropertyId p) { return graph_.PropertyName(p); }

  /// One triple pattern around a sampled triple: "?x <p> <o>" /
  /// "?x <p> ?y" / "<s> <p> ?y" variants.
  bool SampleSingle(NamedQuery* q) {
    const rdf::Triple& t = RandomTriple();
    std::string s = rng_.Chance(options_.constant_fraction)
                        ? VertexText(t.subject)
                        : "?x";
    std::string o = rng_.Chance(options_.constant_fraction)
                        ? VertexText(t.object)
                        : "?y";
    if (s[0] != '?' && o[0] != '?') o = "?y";  // keep >=1 variable
    std::string p = rng_.Chance(options_.var_predicate_fraction)
                        ? "?p"
                        : PropText(t.property);
    q->sparql = "SELECT * WHERE { " + s + " " + p + " " + o + " . }";
    q->is_star = true;
    return true;
  }

  bool SampleStar(NamedQuery* q) {
    // Center: subject of a random triple (subjects always have >=1
    // outgoing edge; stars mix incident directions).
    const rdf::Triple& seed = RandomTriple();
    rdf::VertexId center = seed.subject;
    size_t degree = incidence_.Degree(center);
    if (degree < 2) return false;
    uint32_t want = static_cast<uint32_t>(rng_.Between(
        options_.min_star_edges, options_.max_star_edges));
    // Sample distinct incident triples.
    std::vector<size_t> chosen;
    for (uint32_t tries = 0; tries < want * 4 && chosen.size() < want;
         ++tries) {
      size_t ti = incidence_.TripleAt(center, rng_.Below(degree));
      if (std::find(chosen.begin(), chosen.end(), ti) == chosen.end()) {
        chosen.push_back(ti);
      }
    }
    if (chosen.size() < 2) return false;

    bool used_var_pred = false;
    std::string body;
    int leaf = 0;
    for (size_t ti : chosen) {
      const rdf::Triple& t = graph_.triples()[ti];
      std::string pred = PropText(t.property);
      if (!used_var_pred && rng_.Chance(options_.var_predicate_fraction)) {
        pred = "?p";
        used_var_pred = true;
      }
      const bool outgoing = (t.subject == center);
      rdf::VertexId other = outgoing ? t.object : t.subject;
      std::string other_text = rng_.Chance(options_.constant_fraction)
                                   ? VertexText(other)
                                   : "?v" + std::to_string(leaf);
      ++leaf;
      if (outgoing) {
        body += " ?x " + pred + " " + other_text + " .";
      } else {
        body += " " + other_text + " " + pred + " ?x .";
      }
    }
    q->sparql = "SELECT * WHERE {" + body + " }";
    q->is_star = true;
    return true;
  }

  bool SamplePath(NamedQuery* q) {
    const uint32_t want = static_cast<uint32_t>(rng_.Between(
        options_.min_path_edges, options_.max_path_edges));
    const rdf::Triple& seed = RandomTriple();
    // Walk: v0 -t0- v1 -t1- v2 ... following incident edges.
    std::vector<size_t> walk{
        static_cast<size_t>(&seed - graph_.triples().data())};
    rdf::VertexId frontier =
        rng_.Chance(0.5) ? seed.object : seed.subject;
    rdf::VertexId tail = (frontier == seed.object) ? seed.subject
                                                   : seed.object;
    while (walk.size() < want) {
      size_t degree = incidence_.Degree(frontier);
      if (degree == 0) break;
      // Real path queries constrain with rdf:type but do not chain
      // through it (class IRIs are hub vertices); skip type edges when
      // extending, with a bounded number of redraws.
      size_t ti = SIZE_MAX;
      for (int redraw = 0; redraw < 6; ++redraw) {
        size_t candidate = incidence_.TripleAt(frontier, rng_.Below(degree));
        if (graph_.triples()[candidate].property == type_property_) {
          continue;
        }
        if (std::find(walk.begin(), walk.end(), candidate) != walk.end()) {
          continue;
        }
        ti = candidate;
        break;
      }
      if (ti == SIZE_MAX) break;
      const rdf::Triple& t = graph_.triples()[ti];
      walk.push_back(ti);
      frontier = (t.subject == frontier) ? t.object : t.subject;
    }
    // A walk that stalled below the requested minimum is rejected (a
    // 2-edge walk is star-shaped, which would skew the profile's
    // star/non-star mix).
    if (walk.size() < std::max<uint32_t>(2, options_.min_path_edges)) {
      return false;
    }

    // Variable names per data vertex along the walk.
    std::vector<std::pair<rdf::VertexId, std::string>> names;
    auto name_of = [&](rdf::VertexId v) -> std::string {
      for (auto& [vertex, name] : names) {
        if (vertex == v) return name;
      }
      names.emplace_back(v, "?v" + std::to_string(names.size()));
      return names.back().second;
    };
    bool used_var_pred = false;
    std::string body;
    for (size_t ti : walk) {
      const rdf::Triple& t = graph_.triples()[ti];
      std::string pred = PropText(t.property);
      if (!used_var_pred && rng_.Chance(options_.var_predicate_fraction)) {
        pred = "?p";
        used_var_pred = true;
      }
      // Object first: the order GCC evaluated the `+` chain this line
      // used to be, kept so a seed still yields the same log.
      const std::string object = name_of(t.object);
      const std::string subject = name_of(t.subject);
      body += " " + subject + " " + pred + " " + object + " .";
    }
    // Optionally anchor one endpoint with its data constant.
    if (rng_.Chance(options_.constant_fraction)) {
      std::string tail_name = name_of(tail);
      size_t pos = body.find(tail_name);
      // Replace every occurrence of the tail variable with the constant.
      std::string constant = VertexText(tail);
      while (pos != std::string::npos) {
        body.replace(pos, tail_name.size(), constant);
        pos = body.find(tail_name, pos + constant.size());
      }
    }
    if (body.find('?') == std::string::npos) return false;
    q->sparql = "SELECT * WHERE {" + body + " }";
    // A 2-edge walk sharing its middle vertex is star-shaped iff both
    // edges are incident to one vertex — true for length-2 paths.
    q->is_star = walk.size() <= 2;
    return true;
  }

  const rdf::RdfGraph& graph_;
  QueryLogOptions options_;
  Incidence incidence_;
  Rng rng_;
  /// rdf:type's id in this graph, or kInvalidVertex when absent.
  rdf::PropertyId type_property_;
};

}  // namespace

std::vector<NamedQuery> GenerateQueryLog(const rdf::RdfGraph& graph,
                                         const QueryLogOptions& options) {
  LogBuilder builder(graph, options);
  return builder.Generate();
}

}  // namespace mpc::workload
