#ifndef SERVEBENCH_LAYERS_H_
#define SERVEBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/cluster.h"
#include "exec/remote_cluster.h"
#include "obs/trace.h"
#include "serve/serving_state.h"
#include "workloads.h"

namespace servebench {

/// The benchmark's own spans are named "bench.<layer>.<call>"; the
/// program's internal spans (exec.query, rdf.parse, ...) share the trace
/// but are not attributed to layers here.
inline constexpr const char* kSpanPrefix = "bench.";

/// Benchmark-side spans of a traced region, indexed by name.
class SpanTable {
 public:
  /// Keeps the events named kSpanPrefix*.
  void Add(const std::vector<mpc::obs::TraceEvent>& events);

  const std::vector<mpc::obs::TraceEvent>& events() const { return events_; }
  /// Durations in ms of every span called `name` (without the prefix).
  std::vector<double> DurationsMs(const std::string& name) const;
  double SumMs(const std::string& name) const;

  /// Self time per layer in ms: each span's duration minus the part of
  /// it that its benchmark child spans cover, summed by layer. Spans
  /// named in `skip` are left out (and so are not children either).
  std::map<std::string, double> SelfMsByLayer(
      const std::vector<std::string>& skip) const;
  /// Summed self time of the spans called `name`.
  double SelfMsOf(const std::string& name) const;

 private:
  /// Self time of each event (0 for skipped ones).
  std::vector<double> SelfMs(const std::vector<std::string>& skip) const;

  std::vector<mpc::obs::TraceEvent> events_;
};

/// What the per-query replay needs: the serving snapshot, and for a
/// remote backend the in-process Cluster over the same partitioning.
struct ReplayTarget {
  const mpc::serve::ServingState* state = nullptr;
  const mpc::exec::RemoteCluster* remote = nullptr;
  const mpc::exec::Cluster* reference = nullptr;
};

struct ReplayOutcome {
  uint64_t queries = 0;
  /// Replayed answers that differ from DistributedExecutor::Execute's,
  /// plus remote site replies that differ from the in-process ones.
  uint64_t mismatches = 0;
};

/// Replays the queries through the executor's public calls under bench
/// spans (tracing must be on). Every round parses each query
/// (SparqlParser::Parse) and calls DistributedExecutor::Execute directly;
/// the first round also replays the executor's steps one by one inside a
/// "bench.exec.replay" span — PlanQuery, one EvaluateOnSite per unpruned
/// site and subquery, the coordinator merge/dedupe (the replay span's
/// self time) and JoinAll — and checks the result against Execute's. On
/// a remote backend each site call is also evaluated by the in-process
/// Cluster and its reply encoded and decoded, to split the round trip
/// into evaluation, codec and transport. Appends the replay's count
/// metrics (per replay, i.e. per pass over the queries).
mpc::Result<ReplayOutcome> ReplayQueries(
    const ReplayTarget& target, const std::vector<std::string>& queries,
    size_t rounds, std::vector<Metric>* metrics);

/// Per-layer metrics read off the traced run's benchmark spans: sums of
/// one-off calls and of the single step-by-step replay, percentiles of
/// per-query calls, and each layer's self time. A layer the workload
/// never calls reports 0.
mpc::Status AddSpanMetrics(const SpanTable& spans,
                           std::vector<Metric>* metrics);

}  // namespace servebench

#endif  // SERVEBENCH_LAYERS_H_
