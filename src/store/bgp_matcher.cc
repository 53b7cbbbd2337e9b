#include "store/bgp_matcher.h"

#include <algorithm>
#include <cassert>

#include "common/radix_sort.h"

namespace mpc::store {

namespace {

using rdf::kInvalidProperty;
using rdf::kInvalidVertex;

constexpr uint32_t kUnbound = UINT32_MAX;

}  // namespace

ResolvedQuery ResolveQuery(const sparql::QueryGraph& query,
                           const rdf::RdfGraph& graph) {
  ResolvedQuery resolved;
  resolved.num_vars = query.num_variables();
  resolved.var_names = query.variables();
  resolved.projection = query.projection();
  resolved.patterns.reserve(query.num_patterns());

  for (const sparql::TriplePattern& p : query.patterns()) {
    ResolvedPattern r;
    if (p.subject.is_variable()) {
      r.s_is_var = true;
      r.s = p.subject.var_id;
    } else {
      r.s = graph.vertex_dict().Lookup(p.subject.text);
      if (r.s == kInvalidVertex) r.impossible = true;
    }
    if (p.predicate.is_variable()) {
      r.p_is_var = true;
      r.p = p.predicate.var_id;
    } else {
      r.p = graph.property_dict().Lookup(p.predicate.text);
      if (r.p == kInvalidVertex) r.impossible = true;
    }
    if (p.object.is_variable()) {
      r.o_is_var = true;
      r.o = p.object.var_id;
    } else {
      r.o = graph.vertex_dict().Lookup(p.object.text);
      if (r.o == kInvalidVertex) r.impossible = true;
    }
    resolved.patterns.push_back(r);
  }
  return resolved;
}

size_t BindingTable::ColumnOf(uint32_t var_id) const {
  for (size_t i = 0; i < var_ids.size(); ++i) {
    if (var_ids[i] == var_id) return i;
  }
  return SIZE_MAX;
}

bool BindingTable::StrictlyAscending() const {
  return std::adjacent_find(rows.begin(), rows.end(),
                            [](const std::vector<uint32_t>& a,
                               const std::vector<uint32_t>& b) {
                              return !(a < b);
                            }) == rows.end();
}

void BindingTable::Deduplicate() {
  if (StrictlyAscending()) return;
  const size_t n = rows.size();
  const size_t width = n == 0 ? 0 : rows[0].size();
  const bool uniform =
      std::all_of(rows.begin(), rows.end(),
                  [&](const std::vector<uint32_t>& r) {
                    return r.size() == width;
                  });
  if (n < kRadixSortCutoff || n > UINT32_MAX || !uniform) {
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    return;
  }
  // Sort a row permutation one column at a time, last column first: the
  // sort is stable, so the result is the rows' lexicographic order, the
  // order std::sort gives. Each pass reads its column from a
  // column-major copy of the cells.
  std::vector<uint32_t> cells(n * width);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < width; ++c) cells[c * n + r] = rows[r][c];
  }
  struct Entry {
    uint32_t key;
    uint32_t row;
  };
  std::vector<Entry> order(n);
  std::vector<Entry> buffer;
  for (size_t r = 0; r < n; ++r) order[r].row = static_cast<uint32_t>(r);
  for (size_t c = width; c-- > 0;) {
    const uint32_t* column = cells.data() + c * n;
    for (Entry& e : order) e.key = column[e.row];
    RadixSortBy(&order, &buffer, [](const Entry& e) { return e.key; });
  }
  // Equal rows are adjacent now; `key` holds the first column, so only
  // rows that tie on it are compared in full.
  std::vector<std::vector<uint32_t>> distinct;
  distinct.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<uint32_t>& row = rows[order[i].row];
    if (i > 0 && order[i].key == order[i - 1].key && row == distinct.back()) {
      continue;
    }
    distinct.push_back(std::move(row));
  }
  rows = std::move(distinct);
}

void BindingTable::SortColumnsAscending() {
  const size_t n = var_ids.size();
  std::vector<size_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  std::sort(perm.begin(), perm.end(),
            [&](size_t a, size_t b) { return var_ids[a] < var_ids[b]; });
  bool sorted = true;
  for (size_t i = 0; i < n; ++i) sorted &= (perm[i] == i);
  if (sorted) return;
  std::vector<uint32_t> new_vars(n);
  for (size_t i = 0; i < n; ++i) new_vars[i] = var_ids[perm[i]];
  var_ids = std::move(new_vars);
  for (auto& row : rows) {
    std::vector<uint32_t> new_row(n);
    for (size_t i = 0; i < n; ++i) new_row[i] = row[perm[i]];
    row = std::move(new_row);
  }
}

BindingTable ApplyProjection(const BindingTable& table,
                             const std::vector<uint32_t>& projection) {
  if (projection.empty()) return table;
  BindingTable out;
  std::vector<size_t> columns;
  for (uint32_t var : projection) {
    size_t col = table.ColumnOf(var);
    if (col == SIZE_MAX) continue;
    out.var_ids.push_back(var);
    columns.push_back(col);
  }
  out.rows.reserve(table.rows.size());
  for (const auto& row : table.rows) {
    std::vector<uint32_t> projected(columns.size());
    for (size_t i = 0; i < columns.size(); ++i) {
      projected[i] = row[columns[i]];
    }
    out.rows.push_back(std::move(projected));
  }
  out.Deduplicate();
  return out;
}

namespace {

/// Recursive backtracking engine. Bindings live in one array indexed by
/// var id; kUnbound marks free variables.
class SearchState {
 public:
  SearchState(const TripleSource& store, const ResolvedQuery& query,
              std::vector<size_t> order, std::vector<uint32_t> columns,
              size_t max_results)
      : store_(store),
        query_(query),
        order_(std::move(order)),
        columns_(std::move(columns)),
        max_results_(max_results),
        bindings_(query.num_vars, kUnbound) {
    table_.var_ids = columns_;
  }

  BindingTable Run() {
    Recurse(0);
    return std::move(table_);
  }

 private:
  void Recurse(size_t depth) {
    if (table_.rows.size() >= max_results_) return;
    if (depth == order_.size()) {
      std::vector<uint32_t> row(columns_.size());
      for (size_t i = 0; i < columns_.size(); ++i) {
        row[i] = bindings_[columns_[i]];
      }
      table_.rows.push_back(std::move(row));
      return;
    }

    const ResolvedPattern& pat = query_.patterns[order_[depth]];
    // Current lookup keys: constants, bound variables, or wildcard.
    auto key = [&](bool is_var, uint32_t value, uint32_t wildcard) {
      if (!is_var) return value;
      return bindings_[value] == kUnbound ? wildcard : bindings_[value];
    };
    const uint32_t ks = key(pat.s_is_var, pat.s, kInvalidVertex);
    const uint32_t kp = key(pat.p_is_var, pat.p, kInvalidProperty);
    const uint32_t ko = key(pat.o_is_var, pat.o, kInvalidVertex);

    store_.Scan(ks, kp, ko, [&](const rdf::Triple& t) {
      // Bind free variables; check repeated-variable consistency inside
      // the pattern (e.g. ?x p ?x must bind subject == object).
      uint32_t bound_here[3];
      int num_bound = 0;
      auto bind = [&](bool is_var, uint32_t var, uint32_t value) {
        if (!is_var) return true;
        if (bindings_[var] == kUnbound) {
          bindings_[var] = value;
          bound_here[num_bound++] = var;
          return true;
        }
        return bindings_[var] == value;
      };
      bool ok = bind(pat.s_is_var, pat.s, t.subject) &&
                bind(pat.p_is_var, pat.p, t.property) &&
                bind(pat.o_is_var, pat.o, t.object);
      if (ok) Recurse(depth + 1);
      for (int i = 0; i < num_bound; ++i) bindings_[bound_here[i]] = kUnbound;
      return table_.rows.size() < max_results_;
    });
  }

  const TripleSource& store_;
  const ResolvedQuery& query_;
  std::vector<size_t> order_;
  std::vector<uint32_t> columns_;
  size_t max_results_;
  std::vector<uint32_t> bindings_;
  BindingTable table_;
};

/// Greedy pattern ordering: repeatedly choose the cheapest pattern,
/// strongly preferring patterns that share a variable with those already
/// placed (so the search stays join-connected and each step is a lookup,
/// not a cross product).
std::vector<size_t> OrderPatterns(const TripleSource& store,
                                  const ResolvedQuery& query,
                                  std::span<const size_t> pattern_indices) {
  std::vector<size_t> remaining(pattern_indices.begin(),
                                pattern_indices.end());
  std::vector<size_t> order;
  std::vector<bool> var_bound(query.num_vars, false);

  // The constant-only cardinality estimate of each remaining pattern,
  // computed once: bound variables enter the cost only through shrink.
  std::vector<size_t> estimates;
  estimates.reserve(remaining.size());
  for (size_t idx : remaining) {
    const ResolvedPattern& p = query.patterns[idx];
    estimates.push_back(store.EstimateCardinality(
        p.s_is_var ? kInvalidVertex : p.s,
        p.p_is_var ? kInvalidProperty : p.p,
        p.o_is_var ? kInvalidVertex : p.o));
  }

  auto static_cost = [&](const ResolvedPattern& p, size_t est) -> size_t {
    // The constant-only estimate with already-bound vars treated as
    // bound (value unknown, so divided by a nominal factor per bound
    // var).
    auto shrink = [&](bool is_var, uint32_t var) {
      if (is_var && var_bound[var]) est = est / 8 + 1;
    };
    shrink(p.s_is_var, p.s);
    shrink(p.p_is_var, p.p);
    shrink(p.o_is_var, p.o);
    return est;
  };
  auto connected = [&](const ResolvedPattern& p) {
    return (p.s_is_var && var_bound[p.s]) ||
           (p.p_is_var && var_bound[p.p]) ||
           (p.o_is_var && var_bound[p.o]);
  };

  while (!remaining.empty()) {
    size_t best_pos = 0;
    size_t best_cost = SIZE_MAX;
    bool best_connected = false;
    for (size_t i = 0; i < remaining.size(); ++i) {
      const ResolvedPattern& p = query.patterns[remaining[i]];
      bool conn = order.empty() || connected(p);
      size_t cost = static_cost(p, estimates[i]);
      // Connected patterns always beat disconnected ones.
      if (std::make_tuple(!conn, cost) <
          std::make_tuple(!best_connected, best_cost)) {
        best_pos = i;
        best_cost = cost;
        best_connected = conn;
      }
    }
    size_t chosen = remaining[best_pos];
    remaining.erase(remaining.begin() + best_pos);
    estimates.erase(estimates.begin() + best_pos);
    order.push_back(chosen);
    const ResolvedPattern& p = query.patterns[chosen];
    if (p.s_is_var) var_bound[p.s] = true;
    if (p.p_is_var) var_bound[p.p] = true;
    if (p.o_is_var) var_bound[p.o] = true;
  }
  return order;
}

}  // namespace

BindingTable BgpMatcher::Evaluate(const TripleSource& store,
                                  const ResolvedQuery& query,
                                  std::span<const size_t> pattern_indices,
                                  const Options& options) {
  // Columns: the variables used by the selected patterns, ascending.
  std::vector<uint32_t> columns;
  bool impossible = false;
  for (size_t idx : pattern_indices) {
    const ResolvedPattern& p = query.patterns[idx];
    if (p.impossible) impossible = true;
    if (p.s_is_var) columns.push_back(p.s);
    if (p.p_is_var) columns.push_back(p.p);
    if (p.o_is_var) columns.push_back(p.o);
  }
  std::sort(columns.begin(), columns.end());
  columns.erase(std::unique(columns.begin(), columns.end()), columns.end());

  if (impossible || pattern_indices.empty()) {
    BindingTable empty;
    empty.var_ids = std::move(columns);
    return empty;
  }

  std::vector<size_t> order = OrderPatterns(store, query, pattern_indices);
  SearchState state(store, query, std::move(order), std::move(columns),
                    options.max_results);
  return state.Run();
}

BindingTable BgpMatcher::EvaluateAll(const TripleSource& store,
                                     const ResolvedQuery& query,
                                     const Options& options) {
  std::vector<size_t> all(query.patterns.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  return Evaluate(store, query, all, options);
}

}  // namespace mpc::store
