#include "exec/distributed_executor.h"

#include <algorithm>
#include <iterator>
#include <string>

#include "common/timer.h"
#include "exec/bloom_filter.h"
#include "exec/join.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mpc::exec {

using store::BindingTable;
using store::ResolvedQuery;

namespace {

/// Rows binding at least one vertex owned by a down site: those matches
/// were served from 1-hop crossing-edge replicas held by live sites.
size_t CountReplicaServedRows(const BindingTable& table,
                              const ResolvedQuery& resolved,
                              const partition::Partitioning& partitioning,
                              const SiteAvailability& avail) {
  // Only columns bound to graph vertices count; a variable predicate
  // binds a property id from a different id space.
  std::vector<uint8_t> vertex_var(resolved.num_vars, 0);
  for (const store::ResolvedPattern& p : resolved.patterns) {
    if (p.s_is_var) vertex_var[p.s] = 1;
    if (p.o_is_var) vertex_var[p.o] = 1;
  }
  const std::vector<uint32_t>& part = partitioning.assignment().part;
  size_t hits = 0;
  for (const std::vector<uint32_t>& row : table.rows) {
    for (size_t c = 0; c < table.var_ids.size(); ++c) {
      if (!vertex_var[table.var_ids[c]]) continue;
      const uint32_t v = row[c];
      if (v < part.size() && !avail.IsUp(part[v])) {
        ++hits;
        break;
      }
    }
  }
  return hits;
}

/// "[0, 2, 5]": a column list for error messages.
std::string FormatColumns(const std::vector<uint32_t>& var_ids) {
  std::string out = "[";
  for (size_t i = 0; i < var_ids.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(var_ids[i]);
  }
  return out + "]";
}

using Rows = std::vector<std::vector<uint32_t>>;

/// The first row of [first, last) not below `bound`, by galloping from
/// `first`: O(log d) comparisons for a block of d rows below `bound`.
Rows::iterator GallopLowerBound(Rows::iterator first, Rows::iterator last,
                                const std::vector<uint32_t>& bound) {
  const ptrdiff_t n = last - first;
  ptrdiff_t lo = 0;
  ptrdiff_t probe = 1;
  while (probe <= n && first[probe - 1] < bound) {
    lo = probe;
    probe *= 2;
  }
  return std::lower_bound(first + lo, first + std::min(probe, n), bound);
}

/// Unions strictly ascending runs into one strictly ascending table:
/// the rows sort + unique would give. Each round takes the run with the
/// smallest head, moves its whole block below every other run's head
/// in one galloping search, and drops its next row if another run holds
/// it too. `rows` is the runs' total.
Rows MergeDistinctRuns(std::vector<Rows> runs, size_t rows) {
  struct Cursor {
    Rows::iterator pos;
    Rows::iterator end;
  };
  std::vector<Cursor> live;
  for (Rows& run : runs) {
    if (!run.empty()) live.push_back({run.begin(), run.end()});
  }
  if (live.size() == 1) {
    for (Rows& run : runs) {
      if (!run.empty()) return std::move(run);
    }
  }
  Rows merged;
  merged.reserve(rows);
  while (live.size() > 1) {
    size_t a = 0;
    for (size_t i = 1; i < live.size(); ++i) {
      if (*live[i].pos < *live[a].pos) a = i;
    }
    const std::vector<uint32_t>* bound = nullptr;
    for (size_t i = 0; i < live.size(); ++i) {
      if (i != a && (bound == nullptr || *live[i].pos < *bound)) {
        bound = &*live[i].pos;
      }
    }
    Cursor& cursor = live[a];
    const Rows::iterator block_end =
        GallopLowerBound(cursor.pos, cursor.end, *bound);
    merged.insert(merged.end(), std::make_move_iterator(cursor.pos),
                  std::make_move_iterator(block_end));
    cursor.pos = block_end;
    if (cursor.pos != cursor.end && *cursor.pos == *bound) ++cursor.pos;
    if (cursor.pos == cursor.end) live.erase(live.begin() + a);
  }
  if (!live.empty()) {
    merged.insert(merged.end(), std::make_move_iterator(live[0].pos),
                  std::make_move_iterator(live[0].end));
  }
  return merged;
}

/// One registry update per query so ParallelFor site scans never touch
/// the registry mutex; the counters mirror ExecutionStats exactly (the
/// obs regression test in tests/obs_metrics_test.cc relies on this).
void FlushExecutionMetrics(const ExecutionStats& stats) {
  auto& metrics = obs::MetricsRegistry::Default();
  metrics.CounterRef("exec.queries").Inc();
  metrics.CounterRef("exec.retries").Inc(stats.retries);
  metrics.CounterRef("exec.sites_failed").Inc(stats.sites_failed);
  metrics.CounterRef("exec.sites_evaluated").Inc(stats.sites_evaluated);
  metrics.CounterRef("exec.sites_pruned").Inc(stats.sites_pruned);
  metrics.CounterRef("exec.failover_hits").Inc(stats.failover_hits);
  metrics.CounterRef("exec.rows_returned").Inc(stats.num_results);
  metrics.HistogramRef("exec.total_ms").Observe(stats.total_millis);
}

/// Coordinator-side join of the per-subquery tables, under set
/// semantics.
BindingTable JoinAtCoordinator(std::vector<BindingTable> tables,
                               ExecutionStats* stats) {
  obs::TraceSpan span("exec.join");
  Timer timer;
  BindingTable joined = JoinAll(std::move(tables));
  joined.Deduplicate();
  stats->join_millis = timer.ElapsedMillis();
  span.Attr("rows", static_cast<uint64_t>(joined.num_rows()));
  return joined;
}

}  // namespace

DistributedExecutor::DistributedExecutor(const ClusterBackend& cluster,
                                         const rdf::RdfGraph& graph,
                                         Options options)
    : cluster_(cluster),
      graph_(graph),
      options_(options),
      fault_model_(options_.faults) {}

Result<QueryResponse> DistributedExecutor::Execute(
    const QueryRequest& request) const {
  return Execute(request, /*plan=*/nullptr);
}

Result<QueryResponse> DistributedExecutor::Execute(
    const QueryRequest& request, const QueryPlan* plan) const {
  Result<sparql::QueryGraph> query = ResolveRequestQuery(request);
  if (!query.ok()) return query.status();
  const ExecStrategy strategy = request.options.strategy;
  const bool vp = cluster_.partitioning().kind() ==
                  partition::PartitioningKind::kEdgeDisjoint;
  if (vp && strategy == ExecStrategy::kGstored) {
    return AttachQueryText(
        Status::InvalidArgument(
            "gStoreD-style execution requires a vertex-disjoint "
            "partitioning"),
        request.text);
  }

  QueryResponse response;
  response.generation = options_.generation;
  ExecutionStats* stats = &response.stats;
  QueryRun run;
  run.partial_results =
      request.options.partial_results.value_or(options_.partial_results);
  run.avail = cluster_.AllUp();
  run.contacted.assign(cluster_.k(), 0);
  run.stats = stats;
  obs::TraceSpan span("exec.query");
  span.Attr("kind", vp ? "vp" : "vertex_disjoint")
      .Attr("patterns", static_cast<uint64_t>(query->num_patterns()));
  if (!request.options.trace_tag.empty()) {
    span.Attr("tag", request.options.trace_tag);
  }
  // With the span open this is the query's trace id (inherited from a
  // serving-layer span, or freshly rooted here); 0 when tracing is off.
  stats->trace_id = obs::CurrentTraceContext().trace_id;
  Result<BindingTable> result = ExecutePlan(*query, strategy, plan, &run);
  span.Attr("subqueries", static_cast<uint64_t>(stats->num_subqueries))
      .Attr("sites_evaluated", static_cast<uint64_t>(stats->sites_evaluated))
      .Attr("sites_pruned", static_cast<uint64_t>(stats->sites_pruned))
      .Attr("sites_failed", static_cast<uint64_t>(stats->sites_failed))
      .Attr("retries", static_cast<uint64_t>(stats->retries))
      .Attr("rows", static_cast<uint64_t>(stats->num_results))
      .Attr("sim_total_ms", stats->total_millis)
      .Attr("ok", result.ok() ? 1 : 0);
  FlushExecutionMetrics(*stats);
  if (!result.ok()) return AttachQueryText(result.status(), request.text);
  response.bindings = std::move(*result);
  return response;
}

Result<BindingTable> DistributedExecutor::ExecutePlan(
    const sparql::QueryGraph& query, ExecStrategy strategy,
    const QueryPlan* plan, QueryRun* run) const {
  ExecutionStats* stats = run->stats;
  // --- QDT: classify + decompose (or reuse the caller's cached plan),
  // resolve, dispatch. ---
  Timer timer;
  QueryPlan local_plan;
  {
    obs::TraceSpan qdt_span("exec.decompose");
    if (plan == nullptr) {
      local_plan = PlanQuery(query, cluster_.partitioning(), graph_, strategy);
      plan = &local_plan;
    } else {
      stats->plan_cache_hit = true;
    }
    stats->cls = plan->classification.cls;
    stats->independent = plan->union_only;
    stats->num_subqueries = plan->decomposition.num_subqueries();

    run->resolved = store::ResolveQuery(query, graph_);
    qdt_span.Attr("subqueries",
                  static_cast<uint64_t>(plan->decomposition.num_subqueries()))
        .Attr("cached", stats->plan_cache_hit ? 1 : 0);
  }
  const Decomposition& decomposition = plan->decomposition;
  const ResolvedQuery& resolved = run->resolved;
  const double classify_millis = timer.ElapsedMillis();

  // Bloom-join reduction state: per query variable, a filter over the
  // values already bound by earlier subqueries.
  VarFilters var_filters(resolved.num_vars);
  const bool use_bloom =
      options_.bloom_reduction && !stats->independent &&
      decomposition.num_subqueries() > 1;

  // Evaluation order: most selective subquery first, so its (small)
  // bindings can reduce the rest. Selectivity estimate: the minimum
  // per-pattern candidate count, using global property frequencies and a
  // strong bonus for constant subjects/objects.
  std::vector<size_t> order(decomposition.num_subqueries());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (use_bloom) {
    auto estimate = [&](const std::vector<size_t>& sub) -> uint64_t {
      uint64_t best = UINT64_MAX;
      for (size_t idx : sub) {
        const store::ResolvedPattern& p = resolved.patterns[idx];
        uint64_t e = p.p_is_var ? graph_.num_edges()
                                : graph_.PropertyFrequency(p.p);
        if (!p.s_is_var || !p.o_is_var) e = e / 64 + 1;
        best = std::min(best, e);
      }
      return best;
    };
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return estimate(decomposition.subqueries[a]) <
             estimate(decomposition.subqueries[b]);
    });
  }
  // Variables shared with later subqueries (only those are worth
  // filtering): remaining_uses[v] = number of not-yet-evaluated
  // subqueries using variable v.
  std::vector<uint32_t> remaining_uses(resolved.num_vars, 0);
  auto subquery_vars = [&](const std::vector<size_t>& sub) {
    std::vector<uint32_t> vars;
    for (size_t idx : sub) {
      const store::ResolvedPattern& p = resolved.patterns[idx];
      if (p.s_is_var) vars.push_back(p.s);
      if (p.p_is_var) vars.push_back(p.p);
      if (p.o_is_var) vars.push_back(p.o);
    }
    std::sort(vars.begin(), vars.end());
    vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
    return vars;
  };
  if (use_bloom) {
    for (const std::vector<size_t>& sub : decomposition.subqueries) {
      for (uint32_t v : subquery_vars(sub)) ++remaining_uses[v];
    }
  }

  // --- LET: per subquery, localize, scatter, merge, publish filters. ---
  std::vector<BindingTable> subquery_results(decomposition.num_subqueries());
  SiteSelection selection;
  for (size_t step = 0; step < order.size(); ++step) {
    const size_t subquery_index = order[step];
    obs::TraceSpan subquery_span("exec.subquery");
    subquery_span.Attr("subquery", static_cast<uint64_t>(subquery_index));
    const std::vector<size_t>& sub =
        decomposition.subqueries[subquery_index];
    if (use_bloom) {
      for (uint32_t v : subquery_vars(sub)) --remaining_uses[v];
    }
    // Localization: sites that cannot hold a match of the subquery are
    // not contacted.
    if (options_.site_pruning) {
      selection = SelectSites(cluster_, resolved,
                              plan->classification.crossing_pattern, sub);
    } else {
      selection.sites.resize(cluster_.k());
      for (uint32_t site = 0; site < cluster_.k(); ++site) {
        selection.sites[site] = site;
      }
    }
    // The sorted, distinct union of Definition 3.7: replicas may
    // produce the same match at two sites.
    Result<BindingTable> merged = ScatterGather(
        run, sub, selection, step, use_bloom ? &var_filters : nullptr);
    if (!merged.ok()) return merged.status();
    if (use_bloom) {
      // Publish filters for join variables still needed by later
      // subqueries, sized by distinct values (filters are broadcast to
      // the k sites, which the byte accounting charges). Very large key
      // sets are not worth shipping.
      constexpr size_t kMaxFilterKeys = 65536;
      for (size_t col = 0; col < merged->var_ids.size(); ++col) {
        uint32_t var = merged->var_ids[col];
        if (remaining_uses[var] == 0 || var_filters[var] != nullptr) {
          continue;
        }
        std::vector<uint32_t> keys;
        keys.reserve(merged->num_rows());
        for (const auto& row : merged->rows) keys.push_back(row[col]);
        std::sort(keys.begin(), keys.end());
        keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
        if (keys.size() > kMaxFilterKeys) continue;
        auto filter = std::make_unique<BloomFilter>(keys.size());
        for (uint32_t key : keys) filter->Insert(key);
        stats->shipped_bytes += filter->ByteSize() * cluster_.k();
        var_filters[var] = std::move(filter);
      }
    }
    subquery_results[subquery_index] = std::move(*merged);
  }

  // --- JT: coordinator-side join (none for union-only plans). ---
  BindingTable final_table =
      stats->independent
          ? std::move(subquery_results.front())
          : JoinAtCoordinator(std::move(subquery_results), stats);

  // --- Modeled network: one query dispatch per site contacted, one
  // transfer per site evaluation. ---
  size_t contacted = 0;
  for (uint8_t c : run->contacted) contacted += c;
  stats->decomposition_millis =
      classify_millis + options_.network.DispatchMillis(contacted);
  stats->network_millis = options_.network.TransferMillis(
      stats->shipped_bytes, stats->sites_evaluated);

  // --- Partial-result accounting (best-effort only; kFail returned
  // earlier). Lost contributions make the answer a subset of the true
  // result; the replication analysis bounds what survived (VP keeps no
  // replicas: its bound only reflects how much data survived at all). ---
  if (stats->sites_failed > 0) {
    stats->complete = false;
    const ReplicaCoverage coverage =
        cluster_.ComputeReplicaCoverage(run->avail);
    stats->failed_site_vertices = coverage.failed_owned_vertices;
    stats->replicated_failed_vertices = coverage.replicated_on_live;
    stats->completeness_bound =
        graph_.num_edges() == 0
            ? 1.0
            : 1.0 - static_cast<double>(coverage.lost_triples) /
                        static_cast<double>(graph_.num_edges());
    if (run->avail.num_down() > 0) {
      stats->failover_hits = CountReplicaServedRows(
          final_table, run->resolved, cluster_.partitioning(), run->avail);
    }
  }

  final_table.SortColumnsAscending();
  if (query.limit() != SIZE_MAX && final_table.rows.size() > query.limit()) {
    final_table.rows.resize(query.limit());
  }
  stats->num_results = final_table.num_rows();
  stats->total_millis = stats->decomposition_millis +
                        stats->local_eval_millis + stats->join_millis +
                        stats->network_millis;
  return final_table;
}

Result<BindingTable> DistributedExecutor::ScatterGather(
    QueryRun* run, std::span<const size_t> patterns,
    const SiteSelection& selection, size_t step,
    const VarFilters* filters) const {
  ExecutionStats* stats = run->stats;
  SiteEvalRequest request;
  request.pattern_indices = patterns;
  request.max_rows = options_.max_rows;
  request.var_filters = filters;
  BindingTable merged = SchemaTable(run->resolved, patterns);
  Gathered gathered;
  size_t asked = selection.sites.size();
  Status status =
      CallSites(run, request, selection.sites, step, merged.var_ids,
                &gathered);
  if (status.ok() && gathered.failed > 0 && !selection.failover.empty()) {
    // The star's owner failed: the replicas of its crossing triples
    // answer, as they would have had every site been asked this step
    // (the fault schedule is a pure function of site, step and attempt).
    asked += selection.failover.size();
    status = CallSites(run, request, selection.failover, step,
                       merged.var_ids, &gathered);
  }
  stats->sites_pruned += cluster_.k() - asked;
  stats->local_eval_millis += gathered.millis;
  if (!status.ok()) return status;
  // With no site answering (all pruned or failed, or k = 0) `merged`
  // stays the empty table with the right columns, so downstream joins
  // see the schema.
  obs::TraceSpan span("exec.gather");
  const size_t runs = gathered.runs.size();
  merged.rows = MergeDistinctRuns(std::move(gathered.runs), gathered.rows);
  span.Attr("rows_in", static_cast<uint64_t>(gathered.rows))
      .Attr("rows_out", static_cast<uint64_t>(merged.num_rows()))
      .Attr("runs", static_cast<uint64_t>(runs));
  return merged;
}

Status DistributedExecutor::CallSites(QueryRun* run,
                                      const SiteEvalRequest& request,
                                      std::span<const uint32_t> sites,
                                      size_t step,
                                      const std::vector<uint32_t>& columns,
                                      Gathered* out) const {
  ExecutionStats* stats = run->stats;
  // Scatter: one batch call for every site not known down since an
  // earlier step — in-process threads standing in for (or real RPCs
  // actually reaching) the sites matching in parallel, each reply
  // landing in its site's slot.
  std::vector<uint32_t> live;
  for (uint32_t site : sites) {
    if (run->avail.IsUp(site)) live.push_back(site);
  }
  std::vector<SiteEvalReply> replies(live.size());
  std::vector<Status> statuses(live.size());
  fault_model_.EvaluateOnSites(cluster_, options_.network, step, live,
                               run->resolved, request, options_.num_threads,
                               replies, statuses);

  // Gather, serially in site order. A batch costs its slowest site; a
  // failed site still blocks it for as long as the coordinator waited
  // on it (timeouts, backoff, failure detection).
  const SiteEvalReply no_reply;
  double slowest = 0.0;
  size_t next_live = 0;
  for (const uint32_t site : sites) {
    // `live` keeps `sites`' order, so a site was called iff it is the
    // next live one.
    const bool called = next_live < live.size() && live[next_live] == site;
    const size_t slot = next_live;
    const SiteEvalReply& reply = called ? replies[slot] : no_reply;
    Status status = called ? std::move(statuses[slot])
                           : Status::Unavailable("site " +
                                                 std::to_string(site) +
                                                 " is down");
    next_live += called;
    // Every later step indexes each row by the subquery's columns, and
    // the merge needs each reply sorted and distinct, so a reply that
    // breaks either is that site failing.
    if (status.ok() && reply.table.var_ids != columns) {
      status = Status::Internal(
          "site " + std::to_string(site) + " replied with columns " +
          FormatColumns(reply.table.var_ids) + ", expected " +
          FormatColumns(columns));
    } else if (status.ok() && !reply.table.StrictlyAscending()) {
      status = Status::Internal("site " + std::to_string(site) +
                                " replied with rows that are not sorted "
                                "and distinct");
    }
    run->contacted[site] |= called;
    stats->retries += static_cast<size_t>(reply.retries);
    stats->fault_wait_millis += reply.wait_millis;
    slowest = std::max(slowest, reply.eval_millis + reply.wait_millis);
    if (!status.ok()) {
      // Unavailable is fail-stop — a simulated crash or a dead worker
      // alike: the site is down for the rest of the query. A blown
      // deadline or exhausted transient retries leave it up.
      if (status.code() == StatusCode::kUnavailable && !reply.transient) {
        run->avail.MarkDown(site);
      }
      ++stats->sites_failed;
      ++out->failed;
      if (run->partial_results == PartialResultPolicy::kFail) return status;
      continue;
    }
    ++stats->sites_evaluated;
    stats->bloom_dropped_rows += reply.bloom_dropped;
    stats->local_rows += reply.table.num_rows();
    stats->shipped_bytes += reply.table.ByteSize();
    out->rows += reply.table.num_rows();
    out->runs.push_back(std::move(replies[slot].table.rows));
  }
  out->millis += slowest;
  return Status::Ok();
}

}  // namespace mpc::exec
