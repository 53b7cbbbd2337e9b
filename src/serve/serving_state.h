#ifndef MPC_SERVE_SERVING_STATE_H_
#define MPC_SERVE_SERVING_STATE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "dynamic/incremental_maintainer.h"
#include "exec/cluster.h"
#include "exec/distributed_executor.h"
#include "partition/partitioning.h"
#include "rdf/graph.h"

namespace mpc::serve {

struct ServingStateOptions {
  /// Per-query executor policy (network model, pruning, faults, ...).
  /// `generation` is overwritten with the snapshot's generation, and
  /// num_threads should stay at its default of 1 when the state serves a
  /// QueryService pool: with N serving workers, N concurrent queries
  /// already saturate N cores, so serial intra-query evaluation is what
  /// makes the two levels share the machine instead of multiplying on it.
  exec::ExecutorOptions executor;
  /// Worker threads for the one-off Cluster::Build (site index
  /// construction), not for query evaluation. 0 = hardware_concurrency.
  int build_threads = 0;
  /// Immutable per-site base sources (opened `mpc pack` segments, one
  /// per site). When set, Capture composes each site as
  /// base + delta overlay from the maintainer's add/tombstone sets
  /// instead of rebuilding in-memory indexes — the out-of-core dynamic
  /// path. Falls back to the full rebuild whenever the bases no longer
  /// describe the maintained partitioning (a repartition happened, or k
  /// differs). Build/WrapBackend ignore it.
  std::vector<std::shared_ptr<const store::TripleSource>> base_sources;
};

/// An immutable, self-contained snapshot of everything needed to answer
/// queries: a private copy of the graph (dictionaries), the compacted
/// partitioning materialized into a Cluster, and the executor, all
/// stamped with the generation they were captured at.
///
/// This is the bridge between the single-writer IncrementalMaintainer
/// and a many-reader QueryService: the update thread captures a state
/// after applying updates and Publishes it; queries in flight keep the
/// previous snapshot alive through their shared_ptr, so the writer never
/// blocks on readers and readers never observe a half-applied batch.
class ServingState {
 public:
  /// Snapshots a live maintainer (single-writer contract: call from the
  /// maintainer's update thread only — this reads LiveTriples through
  /// CompactPartitioning and clones the graph).
  static std::shared_ptr<const ServingState> Capture(
      dynamic::IncrementalMaintainer& maintainer,
      const ServingStateOptions& options = ServingStateOptions());

  /// Builds a state from explicit parts — the static-cluster entry point
  /// (generation 0 unless the caller says otherwise). Materializes the
  /// partitioning into an in-process Cluster.
  static std::shared_ptr<const ServingState> Build(
      rdf::RdfGraph graph, partition::Partitioning partitioning,
      uint64_t generation = 0,
      const ServingStateOptions& options = ServingStateOptions());

  /// Wraps an already-started backend (typically a RemoteCluster over
  /// `mpc site` worker processes) instead of building an in-process
  /// simulator.
  static std::shared_ptr<const ServingState> WrapBackend(
      rdf::RdfGraph graph, std::unique_ptr<exec::ClusterBackend> backend,
      uint64_t generation = 0,
      const ServingStateOptions& options = ServingStateOptions());

  ServingState(const ServingState&) = delete;
  ServingState& operator=(const ServingState&) = delete;

  uint64_t generation() const { return generation_; }
  const rdf::RdfGraph& graph() const { return graph_; }
  const exec::ClusterBackend& cluster() const { return *cluster_; }
  /// Runs every plan, gStoreD's included (ExecOptions::strategy).
  const exec::DistributedExecutor& distributed() const {
    return *distributed_;
  }

 private:
  ServingState(rdf::RdfGraph graph, std::unique_ptr<exec::ClusterBackend> backend,
               uint64_t generation, const ServingStateOptions& options);

  rdf::RdfGraph graph_;
  /// Heap-held: RemoteCluster is neither copyable nor movable (it owns
  /// live sockets and a supervisor), and executors hold references.
  std::unique_ptr<exec::ClusterBackend> cluster_;
  uint64_t generation_;
  /// A unique_ptr because the executor holds references into graph_ /
  /// *cluster_, which are stable only once this object is in place (it is
  /// always heap-allocated via the factories).
  std::unique_ptr<exec::DistributedExecutor> distributed_;
};

}  // namespace mpc::serve

#endif  // MPC_SERVE_SERVING_STATE_H_
