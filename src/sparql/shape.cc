#include "sparql/shape.h"

#include <numeric>

namespace mpc::sparql {

namespace {

/// Minimal union-find over query vertices (queries are tiny; no rank
/// needed).
class TinyForest {
 public:
  explicit TinyForest(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  uint32_t Find(uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(uint32_t a, uint32_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<uint32_t> parent_;
};

}  // namespace

bool IsStarQuery(const QueryGraph& query) {
  if (query.num_patterns() == 0) return false;
  // Candidate centers: both endpoints of the first pattern.
  for (uint32_t center : {query.SubjectVertex(0), query.ObjectVertex(0)}) {
    bool ok = true;
    for (size_t i = 0; i < query.num_patterns(); ++i) {
      if (query.SubjectVertex(i) != center &&
          query.ObjectVertex(i) != center) {
        ok = false;
        break;
      }
    }
    if (ok) return true;
  }
  return false;
}

bool IsWeaklyConnected(const QueryGraph& query) {
  std::vector<bool> removed(query.num_patterns(), false);
  return DecomposeAfterRemoval(query, removed).num_components == 1;
}

QueryComponents DecomposeAfterRemoval(const QueryGraph& query,
                                      const std::vector<bool>& removed) {
  TinyForest forest(query.num_vertices());
  for (size_t i = 0; i < query.num_patterns(); ++i) {
    if (removed[i]) continue;
    forest.Union(query.SubjectVertex(i), query.ObjectVertex(i));
  }
  QueryComponents result;
  result.vertex_component.assign(query.num_vertices(), UINT32_MAX);
  std::vector<uint32_t> root_label(query.num_vertices(), UINT32_MAX);
  for (uint32_t v = 0; v < query.num_vertices(); ++v) {
    uint32_t root = forest.Find(v);
    if (root_label[root] == UINT32_MAX) {
      root_label[root] = result.num_components++;
      result.component_size.push_back(0);
    }
    result.vertex_component[v] = root_label[root];
    ++result.component_size[root_label[root]];
  }
  return result;
}

std::string CanonicalShapeKey(const QueryGraph& query) {
  // Variables renamed to _0, _1, ... by first occurrence in S-P-O order.
  std::vector<uint32_t> rename(query.num_variables(), UINT32_MAX);
  uint32_t next = 0;
  auto term_key = [&](const QueryTerm& term) -> std::string {
    if (!term.is_variable()) return "c:" + term.text;
    if (rename[term.var_id] == UINT32_MAX) rename[term.var_id] = next++;
    return '_' + std::to_string(rename[term.var_id]);
  };
  std::string key;
  key.reserve(64 * query.num_patterns());
  for (const TriplePattern& p : query.patterns()) {
    key += term_key(p.subject);
    key += ' ';
    key += term_key(p.predicate);
    key += ' ';
    key += term_key(p.object);
    key += '\n';
  }
  // Modifiers change the answer (not the plan), but keying them keeps
  // one cache usable for both plan and result lookups.
  key += "select:";
  if (query.projection().empty()) {
    key += '*';
  } else {
    for (uint32_t var : query.projection()) {
      if (rename[var] == UINT32_MAX) rename[var] = next++;
      key += " _" + std::to_string(rename[var]);
    }
  }
  if (query.distinct()) key += " distinct";
  if (query.limit() != SIZE_MAX) {
    key += " limit " + std::to_string(query.limit());
  }
  return key;
}

}  // namespace mpc::sparql
