#ifndef MPC_EXEC_DISTRIBUTED_EXECUTOR_H_
#define MPC_EXEC_DISTRIBUTED_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/bloom_filter.h"
#include "exec/cluster.h"
#include "exec/decomposer.h"
#include "exec/fault_model.h"
#include "exec/network_model.h"
#include "exec/query_api.h"
#include "exec/query_classifier.h"
#include "rdf/graph.h"
#include "sparql/query_graph.h"
#include "store/bgp_matcher.h"

namespace mpc::exec {

/// Executes SPARQL BGP queries over a Cluster, exactly following
/// Section V-B2:
///  - IEQs (internal, Type-I, Type-II): ship Q to every site, evaluate
///    locally, union with set semantics. No join.
///  - non-IEQs: decompose with Algorithm 2, evaluate every subquery on
///    every site, union per subquery, hash-join at the coordinator.
///  - ExecStrategy::kGstored: the same loop over gStoreD's partial-
///    evaluation fragments instead (PlanQuery), the Fig. 11 baseline.
///  - VP clusters: the same loop over PlanQuery's VP plans — a query
///    local to one site runs there; otherwise each pattern is scanned at
///    its property's home site and everything is joined at the
///    coordinator (the cloud-style plan of Section II).
/// "Every site" is every site SelectSites keeps when site_pruning is on.
struct ExecutorOptions {
  NetworkModel network;
  /// Per-subquery per-site row cap (SIZE_MAX = exhaustive).
  size_t max_rows = SIZE_MAX;
  /// Localization (SelectSites): skip sites that lack a property some
  /// pattern of the subquery requires, and send a subquery with a
  /// constant on a non-crossing pattern, or with one constant on every
  /// pattern, to that constant's owner site only. Sound — skipped sites
  /// cannot contribute matches. The query localization the paper leaves
  /// as future work (Section V-B2).
  bool site_pruning = true;
  /// WORQ-style [24] Bloom-join reduction for decomposed (non-IEQ)
  /// queries: join-key Bloom filters from earlier subqueries are shipped
  /// to sites, which drop definitely-non-joining rows before shipping
  /// their tables back. Sound (false positives are removed by the exact
  /// coordinator join); off by default to keep the baseline execution
  /// model identical to the paper's.
  bool bloom_reduction = false;
  /// Worker threads for concurrent per-site BGP matching (the sites of a
  /// real deployment evaluate concurrently anyway; this makes the
  /// simulation do the same). 0 = hardware_concurrency. Defaults to 1 so
  /// the simulated LET timing model stays serial unless asked otherwise;
  /// result tables are bit-identical at any value (per-site results land
  /// in per-site slots and merge in site order). A RemoteCluster needs
  /// no threads: it writes every site's request before reading a reply.
  int num_threads = 1;
  /// Injected failures (off by default). Deterministic in faults.seed:
  /// the schedule of crashes/transients/slowdowns — and therefore every
  /// non-timing stat — is identical at any thread count. Deadlines,
  /// retry counts and backoff live in `network` (site_timeout_ms,
  /// max_retries, retry_backoff_ms).
  FaultOptions faults;
  /// Degrade to surviving sites or fail the query when a site stays
  /// down after retries.
  PartialResultPolicy partial_results = PartialResultPolicy::kFail;
  /// Stamped into every QueryResponse: the generation of the serving
  /// state this executor answers for (0 for a static cluster). Set by
  /// the IncrementalMaintainer / ServingState when they (re)build their
  /// cached executor; it is the token the result cache validates against.
  uint64_t generation = 0;
};

class DistributedExecutor {
 public:
  using Options = ExecutorOptions;

  /// `cluster` is any ClusterBackend — the in-process simulator or a
  /// RemoteCluster of worker processes; the execution logic is identical
  /// over both. `graph` is the global graph whose dictionaries encode
  /// the cluster's triples; both must outlive the executor.
  DistributedExecutor(const ClusterBackend& cluster,
                      const rdf::RdfGraph& graph,
                      Options options = Options());

  /// The single execution entry point: resolves the request (parsing
  /// `text` when no parsed query is attached — parse errors carry the
  /// offending text), honours the per-request options, and returns the
  /// bindings together with the per-query stats and the executor's
  /// generation. ExecStrategy::kGstored on an edge-disjoint (VP)
  /// partitioning is rejected with InvalidArgument.
  Result<QueryResponse> Execute(const QueryRequest& request) const;

  /// Same, but reuses a precomputed plan (classification +
  /// decomposition) instead of planning inline — the plan-cache fast
  /// path. `plan` may be null (plans inline); when non-null it must
  /// have been built by PlanQuery, with the request's strategy, for a
  /// query of the same canonical shape against this executor's
  /// partitioning.
  Result<QueryResponse> Execute(const QueryRequest& request,
                                const QueryPlan* plan) const;

 private:
  /// What every step of one execution shares.
  struct QueryRun {
    store::ResolvedQuery resolved;
    PartialResultPolicy partial_results = PartialResultPolicy::kFail;
    /// Sites known down so far (fail-stop for the rest of the query).
    SiteAvailability avail;
    /// Sites called at least once (the modeled dispatch count).
    std::vector<uint8_t> contacted;
    ExecutionStats* stats = nullptr;
  };
  using VarFilters = std::vector<std::unique_ptr<BloomFilter>>;

  /// Plans the query (or takes `plan`), runs ScatterGather per
  /// subquery, joins the tables at the coordinator unless the plan is
  /// union-only, then charges the modeled network, accounts for partial
  /// results, orders the columns and applies LIMIT.
  Result<store::BindingTable> ExecutePlan(const sparql::QueryGraph& query,
                                          ExecStrategy strategy,
                                          const QueryPlan* plan,
                                          QueryRun* run) const;

  /// The execution primitive of Section V-B2: ships the sub-BGP
  /// `patterns` to every site of `selection.sites` in one batch call
  /// (FaultModel::EvaluateOnSites), then merges the replies, so the
  /// table and every stat are identical at any thread count. `step`
  /// numbers the call for the fault schedule; `filters` are the optional
  /// Bloom filters. Every site failure — simulated or real — is handled
  /// here: under kFail the first one in site order is returned; under
  /// kBestEffort the site is skipped (and marked down when the failure
  /// is fail-stop), and a failed star owner is replaced by
  /// `selection.failover` in a second batch of the same step. A reply
  /// whose columns are not the sub-BGP's (SchemaTable), or whose rows
  /// are not strictly ascending, is such a failure, an Internal error
  /// naming the site. Returns the sorted, distinct union (Def. 3.7), or
  /// the sub-BGP's empty schema when no site answered.
  Result<store::BindingTable> ScatterGather(QueryRun* run,
                                            std::span<const size_t> patterns,
                                            const SiteSelection& selection,
                                            size_t step,
                                            const VarFilters* filters) const;

  /// What the batches of one ScatterGather step gathered.
  struct Gathered {
    /// The answering sites' rows, one strictly ascending run each.
    std::vector<std::vector<std::vector<uint32_t>>> runs;
    size_t rows = 0;
    size_t failed = 0;
    /// Modeled step time: the batches run one after another, each as
    /// long as its slowest site.
    double millis = 0.0;
  };

  /// One batch call of ScatterGather over `sites`, checking each reply
  /// against `columns` and accounting it into `run` and `out`. Returns
  /// the first failure under kFail, Ok otherwise.
  Status CallSites(QueryRun* run, const SiteEvalRequest& request,
                   std::span<const uint32_t> sites, size_t step,
                   const std::vector<uint32_t>& columns,
                   Gathered* out) const;

  const ClusterBackend& cluster_;
  const rdf::RdfGraph& graph_;
  Options options_;
  /// Pure (stateless after construction): shared by concurrent queries.
  FaultModel fault_model_;
};

}  // namespace mpc::exec

#endif  // MPC_EXEC_DISTRIBUTED_EXECUTOR_H_
