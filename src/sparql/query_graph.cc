#include "sparql/query_graph.h"

#include <algorithm>
#include <unordered_map>

namespace mpc::sparql {

std::vector<std::string> QueryGraph::ConstantPredicates() const {
  std::vector<std::string> result;
  for (const TriplePattern& p : patterns_) {
    if (!p.predicate.is_variable()) result.push_back(p.predicate.text);
  }
  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  return result;
}

std::string QueryGraph::ToString() const {
  std::string out = "SELECT";
  if (distinct_) out += " DISTINCT";
  if (projection_.empty()) {
    out += " *";
  } else {
    for (uint32_t v : projection_) {
      out += " ?";
      out += variables_[v];
    }
  }
  out += " WHERE {";
  auto term = [&](const QueryTerm& t) {
    return t.is_variable() ? "?" + t.text : t.text;
  };
  for (const TriplePattern& p : patterns_) {
    out += ' ' + term(p.subject) + ' ' + term(p.predicate) + ' ' +
           term(p.object) + " .";
  }
  out += " }";
  if (limit_ != SIZE_MAX) out += " LIMIT " + std::to_string(limit_);
  return out;
}

QueryTerm ParseTermShorthand(const std::string& text) {
  if (!text.empty() && (text[0] == '?' || text[0] == '$')) {
    return QueryTerm::Variable(text.substr(1));
  }
  return QueryTerm::Constant(text);
}

QueryGraphBuilder& QueryGraphBuilder::Add(QueryTerm subject,
                                          QueryTerm predicate,
                                          QueryTerm object) {
  patterns_.push_back({std::move(subject), std::move(predicate),
                       std::move(object)});
  return *this;
}

QueryGraphBuilder& QueryGraphBuilder::AddPattern(const std::string& subject,
                                                 const std::string& predicate,
                                                 const std::string& object) {
  return Add(ParseTermShorthand(subject), ParseTermShorthand(predicate),
             ParseTermShorthand(object));
}

QueryGraphBuilder& QueryGraphBuilder::Select(const std::string& var_name) {
  selected_.push_back(var_name);
  return *this;
}

QueryGraphBuilder& QueryGraphBuilder::Distinct(bool distinct) {
  distinct_ = distinct;
  return *this;
}

QueryGraphBuilder& QueryGraphBuilder::Limit(size_t limit) {
  limit_ = limit;
  return *this;
}

Result<QueryGraph> QueryGraphBuilder::Build() {
  if (patterns_.empty()) {
    return Status::InvalidArgument("query has no triple patterns");
  }

  QueryGraph query;
  query.patterns_ = std::move(patterns_);
  query.distinct_ = distinct_;
  query.limit_ = limit_;
  patterns_.clear();

  // Assign variable ids; track which positions each variable occupies.
  std::unordered_map<std::string, uint32_t> var_ids;
  std::unordered_map<std::string, bool> var_in_predicate;
  std::unordered_map<std::string, bool> var_in_vertex;
  auto intern_var = [&](QueryTerm& term, bool predicate_position) {
    auto [it, inserted] =
        var_ids.emplace(term.text, static_cast<uint32_t>(var_ids.size()));
    if (inserted) query.variables_.push_back(term.text);
    term.var_id = it->second;
    (predicate_position ? var_in_predicate : var_in_vertex)[term.text] = true;
  };

  // Assign query-vertex ids: variables by name, constants by lexical form.
  std::unordered_map<std::string, uint32_t> vertex_ids;
  auto vertex_id = [&](const QueryTerm& term) {
    // Prefix disambiguates a variable named "x" from a constant "x".
    std::string key =
        (term.is_variable() ? "?" : "=") + term.text;
    auto [it, inserted] =
        vertex_ids.emplace(std::move(key),
                           static_cast<uint32_t>(vertex_ids.size()));
    return it->second;
  };

  for (TriplePattern& p : query.patterns_) {
    if (p.subject.is_variable()) intern_var(p.subject, false);
    if (p.predicate.is_variable()) {
      intern_var(p.predicate, true);
      query.has_variable_predicate_ = true;
    }
    if (p.object.is_variable()) intern_var(p.object, false);
    query.subject_vertex_.push_back(vertex_id(p.subject));
    query.object_vertex_.push_back(vertex_id(p.object));
  }
  query.num_vertices_ = vertex_ids.size();

  for (const auto& [name, in_pred] : var_in_predicate) {
    if (in_pred && var_in_vertex.count(name) && var_in_vertex.at(name)) {
      return Status::Unsupported(
          "variable ?" + name +
          " used in both predicate and subject/object position");
    }
  }

  for (const std::string& name : selected_) {
    auto it = var_ids.find(name);
    if (it == var_ids.end()) {
      return Status::InvalidArgument("SELECT of unknown variable ?" + name);
    }
    query.projection_.push_back(it->second);
  }
  selected_.clear();
  return query;
}

QueryGraph ExtractSubquery(const QueryGraph& query,
                           const std::vector<size_t>& pattern_indices) {
  QueryGraphBuilder builder;
  for (size_t idx : pattern_indices) {
    const TriplePattern& p = query.patterns()[idx];
    builder.Add(p.subject, p.predicate, p.object);
  }
  Result<QueryGraph> result = builder.Build();
  // A subset of a valid query is always valid (no new variables, and a
  // predicate/vertex variable clash would already exist in the parent).
  return result.ok() ? std::move(result).value() : QueryGraph{};
}

}  // namespace mpc::sparql
