#ifndef MPC_PARTITION_PARTITIONING_H_
#define MPC_PARTITION_PARTITIONING_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "rdf/graph.h"
#include "rdf/types.h"

namespace mpc::partition {

/// A vertex-disjoint assignment of every vertex to one of k partitions.
struct VertexAssignment {
  uint32_t k = 0;
  std::vector<uint32_t> part;  // part[v] in [0, k), size |V|

  bool Valid(size_t num_vertices) const;
};

/// How triples are distributed across sites.
enum class PartitioningKind {
  /// Definition 3.3: vertices are disjoint; crossing edges replicated at
  /// both endpoint partitions (1-hop replication). MPC, Subject_Hash and
  /// METIS are all of this kind.
  kVertexDisjoint,
  /// VP / vertical partitioning: each triple assigned to exactly one
  /// partition by its property; vertices may appear at many sites.
  kEdgeDisjoint,
};

/// One materialized partition F_i = (V_i ∪ V_i^e, E_i ∪ E_i^c, L_i, f_i).
struct Partition {
  /// E_i: triples with both endpoints owned by this partition. For
  /// edge-disjoint partitionings this holds all triples assigned here.
  std::vector<rdf::Triple> internal_edges;
  /// E_i^c: replicas of crossing edges incident to this partition
  /// (empty for edge-disjoint partitionings).
  std::vector<rdf::Triple> crossing_edges;
  /// V_i^e: vertices owned elsewhere that appear as crossing-edge
  /// endpoints here, sorted ascending.
  std::vector<rdf::VertexId> extended_vertices;
  /// |V_i|: number of owned vertices.
  size_t num_owned_vertices = 0;

  size_t num_triples() const {
    return internal_edges.size() + crossing_edges.size();
  }
};

/// A complete partitioning F = {F_1, ..., F_k} over an RDF graph,
/// together with the crossing-property bookkeeping (Definition 3.4) the
/// query classifier consumes.
class Partitioning {
 public:
  /// Materializes a vertex-disjoint partitioning from an assignment:
  /// splits edges into internal/crossing, replicates crossing edges at
  /// both endpoint partitions, collects V_i^e and computes the crossing
  /// property set L_cross. With num_threads != 1 the k sites are
  /// materialized concurrently (each site scans the edge array
  /// independently); the result is bit-identical to the serial path.
  static Partitioning MaterializeVertexDisjoint(const rdf::RdfGraph& graph,
                                                VertexAssignment assignment,
                                                int num_threads = 1);

  /// Graph-free variant: materializes from an explicit edge array (must
  /// be sorted by (property, subject, object)) over a vertex universe of
  /// `num_vertices` and a property universe of `num_properties`. The
  /// graph overload delegates here; the incremental maintainer uses this
  /// directly to compact a drifted partitioning (live triples only)
  /// without materializing a fresh RdfGraph.
  static Partitioning MaterializeVertexDisjoint(
      std::span<const rdf::Triple> sorted_triples, size_t num_vertices,
      size_t num_properties, VertexAssignment assignment,
      int num_threads = 1);

  /// Materializes an edge-disjoint (VP-style) partitioning from a triple
  /// assignment: triple_part[i] gives the partition of graph.triples()[i].
  /// Also records each property's home partition (used by PlanQuery to
  /// decide whether a VP query touches one site only).
  /// num_threads parallelizes the per-site vertex dedup, deterministically.
  static Partitioning MaterializeEdgeDisjoint(
      const rdf::RdfGraph& graph, uint32_t k,
      const std::vector<uint32_t>& triple_part, int num_threads = 1);

  PartitioningKind kind() const { return kind_; }
  uint32_t k() const { return k_; }
  const std::vector<Partition>& partitions() const { return partitions_; }
  const Partition& partition(uint32_t i) const { return partitions_[i]; }

  /// Owner partition of each vertex (vertex-disjoint only).
  const VertexAssignment& assignment() const { return assignment_; }

  /// crossing_property_mask()[p] is true iff p ∈ L_cross.
  const std::vector<bool>& crossing_property_mask() const {
    return crossing_property_mask_;
  }
  bool IsCrossingProperty(rdf::PropertyId p) const {
    return crossing_property_mask_[p];
  }

  /// L_cross as an explicit sorted list.
  std::vector<rdf::PropertyId> CrossingProperties() const;

  /// |L_cross| — the quantity MPC minimizes (Table II).
  size_t num_crossing_properties() const { return num_crossing_properties_; }

  /// |E^c|: number of distinct crossing edges (each counted once even
  /// though replicated twice) — the min edge-cut objective (Table II).
  size_t num_crossing_edges() const { return num_crossing_edges_; }

  /// For edge-disjoint partitionings: partition holding property p.
  uint32_t PropertyHome(rdf::PropertyId p) const {
    return property_home_[p];
  }

  /// max_i |V_i| / (|V|/k); 1.0 is perfect balance (vertex-disjoint), or
  /// the triple-count analogue for edge-disjoint partitionings.
  double BalanceRatio() const;

  // --- Incremental-maintenance mutators (dynamic::IncrementalMaintainer).
  // A maintained partitioning keeps its aggregate counters exact while
  // the per-partition triple vectors may lag behind (lazy tombstones);
  // see DESIGN.md "Dynamic maintenance". ---

  /// Write access to one site's edge/vertex lists.
  Partition& mutable_partition(uint32_t i) { return partitions_[i]; }

  /// Write access to the vertex->owner map (vertex-disjoint only); the
  /// maintainer appends entries as the vertex universe grows.
  VertexAssignment& mutable_assignment() { return assignment_; }

  /// Extends the property universe to `num_properties` (never-seen
  /// properties start non-crossing); no-op when already that large.
  void GrowPropertyUniverse(size_t num_properties);

  /// Adds/removes p from L_cross, keeping num_crossing_properties() in
  /// step. No-op when the membership already matches.
  void SetCrossingProperty(rdf::PropertyId p, bool crossing);

  /// Adjusts the distinct crossing-edge count by `delta` (one per live
  /// crossing edge, replicas not double-counted).
  void BumpCrossingEdges(std::ptrdiff_t delta) {
    num_crossing_edges_ = static_cast<size_t>(
        static_cast<std::ptrdiff_t>(num_crossing_edges_) + delta);
  }

  /// Total stored triples across partitions divided by |E| (>= 1;
  /// measures the replication overhead of 1-hop crossing-edge copies).
  double ReplicationRatio(const rdf::RdfGraph& graph) const;

 private:
  PartitioningKind kind_ = PartitioningKind::kVertexDisjoint;
  uint32_t k_ = 0;
  std::vector<Partition> partitions_;
  VertexAssignment assignment_;
  std::vector<bool> crossing_property_mask_;
  size_t num_crossing_properties_ = 0;
  size_t num_crossing_edges_ = 0;
  std::vector<uint32_t> property_home_;  // edge-disjoint only
};

/// Summary row for Table II and the offline experiments.
struct PartitionMetrics {
  std::string strategy;
  size_t num_crossing_properties = 0;
  size_t num_crossing_edges = 0;
  double balance_ratio = 0.0;
  double replication_ratio = 0.0;
  double partitioning_millis = 0.0;
};

PartitionMetrics ComputeMetrics(const std::string& strategy,
                                const rdf::RdfGraph& graph,
                                const Partitioning& partitioning);

}  // namespace mpc::partition

#endif  // MPC_PARTITION_PARTITIONING_H_
