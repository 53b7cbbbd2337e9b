#include "serve/serving_state.h"

#include <utility>

namespace mpc::serve {

ServingState::ServingState(rdf::RdfGraph graph,
                           std::unique_ptr<exec::ClusterBackend> backend,
                           uint64_t generation,
                           const ServingStateOptions& options)
    : graph_(std::move(graph)),
      cluster_(std::move(backend)),
      generation_(generation) {
  exec::ExecutorOptions exec_options = options.executor;
  exec_options.generation = generation_;
  distributed_ = std::make_unique<exec::DistributedExecutor>(*cluster_, graph_,
                                                             exec_options);
}

std::shared_ptr<const ServingState> ServingState::Capture(
    dynamic::IncrementalMaintainer& maintainer,
    const ServingStateOptions& options) {
  // Out-of-core path: compose the pack-time bases with the maintainer's
  // delta instead of rebuilding indexes. Only sound while ownership is
  // exactly what the segments were packed for — any repartition (which
  // re-baselines the delta sets too) or hot-vertex migration (which
  // moves ownership without rewriting the site files) forces the
  // rebuild below.
  const partition::Partitioning& maintained = maintainer.partitioning();
  if (!options.base_sources.empty() && maintainer.repartition_count() == 0 &&
      maintainer.migration_count() == 0 &&
      maintained.kind() == partition::PartitioningKind::kVertexDisjoint &&
      options.base_sources.size() == maintained.k()) {
    const auto& added_set = maintainer.added_triples();
    const auto& deleted_set = maintainer.deleted_triples();
    std::vector<rdf::Triple> added(added_set.begin(), added_set.end());
    std::vector<rdf::Triple> deleted(deleted_set.begin(), deleted_set.end());
    auto cluster = std::make_unique<exec::Cluster>(exec::Cluster::BuildOverlay(
        maintained, options.base_sources, added, deleted));
    return std::shared_ptr<const ServingState>(
        new ServingState(maintainer.graph().Clone(), std::move(cluster),
                         maintainer.generation(), options));
  }
  return Build(maintainer.graph().Clone(), maintainer.CompactPartitioning(),
               maintainer.generation(), options);
}

std::shared_ptr<const ServingState> ServingState::Build(
    rdf::RdfGraph graph, partition::Partitioning partitioning,
    uint64_t generation, const ServingStateOptions& options) {
  auto cluster = std::make_unique<exec::Cluster>(exec::Cluster::Build(
      std::move(partitioning), options.build_threads));
  // make_shared needs a public constructor; the factories are the only
  // creation paths, so plain new keeps the constructor private.
  return std::shared_ptr<const ServingState>(new ServingState(
      std::move(graph), std::move(cluster), generation, options));
}

std::shared_ptr<const ServingState> ServingState::WrapBackend(
    rdf::RdfGraph graph, std::unique_ptr<exec::ClusterBackend> backend,
    uint64_t generation, const ServingStateOptions& options) {
  return std::shared_ptr<const ServingState>(new ServingState(
      std::move(graph), std::move(backend), generation, options));
}

}  // namespace mpc::serve
