#ifndef MPC_EXEC_QUERY_API_H_
#define MPC_EXEC_QUERY_API_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "common/status.h"
#include "exec/query_classifier.h"
#include "sparql/query_graph.h"
#include "store/bgp_matcher.h"

namespace mpc::exec {

/// Per-query timing and provenance, matching the stage breakdown the
/// paper reports in Tables IV-V: QDT (query decomposition time), LET
/// (local evaluation time), JT (join time). Network components are
/// simulated (NetworkModel) and reported separately but included in
/// total_millis.
struct ExecutionStats {
  IeqClass cls = IeqClass::kNonIeq;
  bool independent = false;
  size_t num_subqueries = 0;
  /// QDT: classification + decomposition + dispatch.
  double decomposition_millis = 0.0;
  /// LET: per subquery, the slowest site (sites evaluate in parallel);
  /// subqueries of one query run back-to-back at each site.
  double local_eval_millis = 0.0;
  /// JT: coordinator-side hash joins (0 for IEQs).
  double join_millis = 0.0;
  /// Simulated shipping of subquery/result tables to the coordinator.
  double network_millis = 0.0;
  double total_millis = 0.0;
  size_t num_results = 0;
  size_t shipped_bytes = 0;
  /// Site-subquery evaluations actually performed vs skipped by the
  /// property-presence localization.
  size_t sites_evaluated = 0;
  size_t sites_pruned = 0;
  /// Rows dropped at sites by the Bloom-join reduction (0 unless the
  /// bloom_reduction option is on and the query decomposed).
  size_t bloom_dropped_rows = 0;
  /// Total rows produced by local evaluation across sites and subqueries
  /// (the "local partial matches" count used in the gStoreD experiment).
  size_t local_rows = 0;

  // --- Fault handling (all zero / true on a fault-free run). The
  // invariant sites_evaluated + sites_pruned + sites_failed ==
  // k * num_subqueries holds on every path. ---

  /// Site-subquery slots that produced no table because the site was
  /// down, kept timing out, or exhausted its transient retries.
  size_t sites_failed = 0;
  /// Simulated retry attempts across all sites and subqueries.
  size_t retries = 0;
  /// Result rows that bind at least one vertex owned by a failed site:
  /// matches served from 1-hop crossing-edge replicas on live sites —
  /// the failover data-path at work.
  size_t failover_hits = 0;
  /// False iff some site-subquery contribution was lost (best-effort
  /// runs only; kFail returns an error instead).
  bool complete = true;
  /// Vertices owned by failed sites, and how many of them a live site
  /// still replicates (Cluster::ComputeReplicaCoverage).
  size_t failed_site_vertices = 0;
  size_t replicated_failed_vertices = 0;
  /// Lower-bound proxy on result completeness: the fraction of the data
  /// that is still reachable at some live site (1.0 when complete). For
  /// vertex-disjoint partitionings this is driven by the replication
  /// analysis; VP has no replicas, so every lost triple is gone.
  double completeness_bound = 1.0;
  /// Total simulated waiting on faults across sites (backoff + timeouts
  /// + failure detection). Per-site waits are already charged into
  /// local_eval_millis via the slowest-site rule; this aggregate is
  /// observability only and is NOT added to total_millis again.
  double fault_wait_millis = 0.0;

  // --- Serving-layer fields (zero / false when a query is executed
  // directly against an executor rather than through a QueryService). ---

  /// Wall-clock time the query spent in the admission queue.
  double queue_wait_millis = 0.0;
  /// The classification/decomposition was reused from the plan cache.
  bool plan_cache_hit = false;
  /// The whole answer was served from the result cache (bindings are a
  /// copy of the cached table; the remaining timing fields describe the
  /// execution that populated the cache).
  bool result_cache_hit = false;
  /// Distributed-trace id this execution's spans were recorded under
  /// (0 when tracing is disabled). Keyed by the slow-query log to
  /// retain exactly the offending query's merged trace.
  uint64_t trace_id = 0;
};

/// What to do when a site stays down after retries.
enum class PartialResultPolicy {
  /// Propagate Unavailable/DeadlineExceeded: correctness over coverage.
  kFail,
  /// Answer from the surviving sites (plus whatever 1-hop replicas
  /// recover), reporting complete=false and the completeness bound.
  kBestEffort,
};

/// Which plan the DistributedExecutor runs (see PlanQuery).
enum class ExecStrategy {
  /// The partitioning-aware default: the IEQ shortcut for vertex-disjoint
  /// partitionings, the cloud-style plan for VP.
  kAuto,
  /// gStoreD-style partial evaluation and assembly, the Fig. 11
  /// baseline; vertex-disjoint partitionings only.
  kGstored,
};

const char* ExecStrategyName(ExecStrategy strategy);

/// Per-query execution options carried by a QueryRequest. Executor-wide
/// policy (fault model, network, thread budget) stays in ExecutorOptions;
/// these are the knobs that legitimately vary query-to-query.
struct ExecOptions {
  ExecStrategy strategy = ExecStrategy::kAuto;
  /// Wall-clock budget in ms from submission, 0 = none. Enforced by the
  /// QueryService admission queue (a query whose deadline expires while
  /// queued is failed with DeadlineExceeded without executing); direct
  /// executor calls treat it as advisory metadata.
  double deadline_ms = 0.0;
  /// Per-query override of ExecutorOptions::partial_results; nullopt
  /// inherits the executor default.
  std::optional<PartialResultPolicy> partial_results = std::nullopt;
  /// Free-form tag attached to the exec.query trace span ("tenant-7",
  /// "replay:LQ2", ...) so per-caller latency can be sliced out of one
  /// trace.
  std::string trace_tag = "";
};

/// One query, parsed or text, plus its options — the single argument of
/// the redesigned execution entry point. The original text is carried
/// even alongside the parsed form so error messages (and the serving
/// layer's cache keys and logs) can always show the offending query.
struct QueryRequest {
  /// Parsed form; preferred when present (text is not re-parsed).
  std::optional<sparql::QueryGraph> query;
  /// SPARQL text; parsed on demand when `query` is absent.
  std::string text;
  ExecOptions options;

  static QueryRequest FromText(std::string text, ExecOptions options = {}) {
    QueryRequest request;
    request.text = std::move(text);
    request.options = std::move(options);
    return request;
  }

  static QueryRequest FromQuery(sparql::QueryGraph query,
                                ExecOptions options = {}) {
    QueryRequest request;
    request.query = std::move(query);
    request.options = std::move(options);
    return request;
  }
};

/// What every execution path returns: the bindings, the per-query stats,
/// and the generation of the serving state that answered (0 for a static
/// cluster; the IncrementalMaintainer's generation counter for live
/// ones — the result-cache invalidation token).
struct QueryResponse {
  store::BindingTable bindings;
  ExecutionStats stats;
  uint64_t generation = 0;
};

/// Resolves a request to its parsed query: returns the parsed form when
/// present, otherwise parses `text`. Parse failures come back as
/// ParseError with the offending query text appended (truncated), so a
/// failed query in a thousand-query replay log can be found again.
Result<sparql::QueryGraph> ResolveRequestQuery(const QueryRequest& request);

/// Appends the (truncated) query text to a status message; used wherever
/// a query-scoped error would otherwise lose track of which query failed.
Status AttachQueryText(const Status& status, const std::string& text);

}  // namespace mpc::exec

#endif  // MPC_EXEC_QUERY_API_H_
