#ifndef MPC_DYNAMIC_INCREMENTAL_MAINTAINER_H_
#define MPC_DYNAMIC_INCREMENTAL_MAINTAINER_H_

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "dsf/disjoint_set_forest.h"
#include "dynamic/boundary_migrator.h"
#include "dynamic/drift_tracker.h"
#include "dynamic/update_journal.h"
#include "dynamic/update_log.h"
#include "mpc/mpc_partitioner.h"
#include "partition/partitioning.h"
#include "rdf/graph.h"

namespace mpc::dynamic {

struct MaintainerOptions {
  /// When to abandon incremental maintenance for a full MPC re-run.
  RepartitionPolicy policy;
  /// Options for those re-runs; base.k is forced to the attached
  /// partitioning's k (the cluster does not resize mid-stream).
  core::MpcOptions mpc;
  /// Worker threads for compaction, cluster builds and repartition runs
  /// (0 = hardware_concurrency). Update application itself is serial, so
  /// all maintained state is bit-identical at any value.
  int num_threads = 1;

  /// Durability (only active through OpenDurable; the plain constructor
  /// ignores these): directory holding the write-ahead journal and the
  /// checkpoints, kept next to the PartitionIo directory.
  std::string journal_dir;
  /// Checkpoint every N applied batches (0 = only after repartitions;
  /// a checkpoint is always written right after a repartition completes,
  /// so journal replay never has to re-run MPC).
  uint32_t checkpoint_every_batches = 0;

  /// Rebuild the online DSF forest from the live triples when
  /// tombstone_ratio exceeds this and internal deletes made the forest
  /// stale — the forest cannot split, so after delete-heavy streams its
  /// max component over-approximates the Def. 4.2 cost and would
  /// over-fire a budget-enforcing RepartitionPolicy (0 disables).
  double forest_rebuild_tombstone_ratio = 0.5;

  /// Per-property query weights driving the *weighted* drift signal:
  /// weighted |L_cross| = sum of W(p) over p in L_cross, with
  /// W(p) = property_weights[p] when p is inside the vector and 1.0 for
  /// properties beyond it (a never-queried property still counts like an
  /// unweighted one). Empty (the default) disables weighted tracking —
  /// the weighted metrics stay 0 and the weighted threshold is inert.
  /// Derived from a query log via workload::ComputeWorkloadPropertyWeights
  /// (the CLI maps count c to weight 1 + c) or fed live through
  /// SetPropertyWeights().
  std::vector<double> property_weights;

  /// Hot-vertex migration: the escalation level below a full repartition
  /// (see BoundaryMigrator). Off by default.
  MigrationOptions migration;
};

/// Outcome of applying one batch.
struct ApplyResult {
  /// Updates that changed the live set (dead->live / live->dead).
  size_t inserts = 0;
  size_t deletes = 0;
  /// Duplicate inserts and deletes of absent triples (RDF set semantics).
  size_t noops = 0;
  /// The policy fired after this batch.
  bool repartition_triggered = false;
  std::string trigger_reason;
  /// Hot-vertex moves the migration escalation applied on this batch
  /// (before any full repartition; when migration brought the drift back
  /// under the policy bound, repartition_triggered stays false).
  size_t migrated = 0;
  /// Weighted |L_cross| reduction those moves achieved.
  double migration_gain = 0.0;
  /// A full repartition completed and was swapped in. Triggered
  /// repartitions run inside ApplyBatch, so this always equals
  /// repartition_triggered.
  bool repartitioned = false;
  /// Drift after the batch (and after the swap, if one happened).
  DriftMetrics drift;
  /// Outcome of the batch's durability work (journal append, checkpoint
  /// write). Always OK for a non-durable maintainer. A failed journal
  /// append aborts the batch: nothing was applied and the stream must
  /// stop (applying unjournaled batches would break recovery).
  Status durability;
};

/// Maintains an MPC partitioning under a stream of triple inserts and
/// deletes without full repartitioning (the PHD-Store-style adaptive
/// layer; see DESIGN.md "Dynamic maintenance").
///
/// Mechanics:
///  - Inserts dictionary-encode their terms, growing the graph's
///    dictionaries; never-seen vertices are placed at the other
///    endpoint's site when that keeps an internal property internal,
///    otherwise at the least-loaded site.
///  - An insert whose endpoints share a site extends E_i; one that
///    crosses sites extends both sites' replica lists per Def. 3.3-3.4
///    and bumps the property's crossing count — a formerly-internal
///    property entering L_cross is immediately visible to query
///    classification.
///  - Deletes are lazy: the triple is tombstoned (site vectors keep the
///    entry; compaction and store rebuilds filter it) and the
///    per-property crossing count is decremented — a property whose last
///    crossing edge dies leaves L_cross.
///  - Internal-property edges union into an online disjoint-set forest
///    (Section IV-D), tracking the WCC(G[L_in]) budget of Def. 4.2.
///  - A DriftTracker measures |L_cross| growth, balance, tombstone and
///    replication ratios; the RepartitionPolicy decides at batch
///    boundaries when to trigger a full MPC re-run, which runs inside
///    ApplyBatch and is swapped in before the batch returns.
///
/// Thread contract: single writer. All public methods must be called
/// from one thread, and no maintainer work outlives the call that
/// started it. Queries run on a snapshot taken on that thread
/// (serve::ServingState::Capture), so a repartition never blocks them.
class IncrementalMaintainer {
 public:
  /// Takes ownership of the graph snapshot and its vertex-disjoint
  /// partitioning (assignment must cover the graph's vertices).
  IncrementalMaintainer(rdf::RdfGraph graph,
                        partition::Partitioning partitioning,
                        MaintainerOptions options = MaintainerOptions());

  /// Reconstructs a maintainer from a checkpointed state, bit-for-bit:
  /// the rebuilt graph re-interns every term in id order (identical
  /// ids), the partitioning is re-materialized from the snapshot and
  /// patched to the saved live counters, added triples are re-appended
  /// to the site vectors, and the forest/tracker are restored verbatim.
  IncrementalMaintainer(const MaintainerState& state,
                        MaintainerOptions options = MaintainerOptions());

  /// Durable construction: recovers from options.journal_dir (latest
  /// checkpoint + journal tail replay; from the seed graph/partitioning
  /// when no checkpoint exists yet), then attaches the journal so every
  /// subsequent ApplyBatch is write-ahead journaled. `fingerprint`
  /// (PartitionIo::Fingerprint of the seed directory) binds the journal
  /// to its partitioning. A repartition is checkpointed at its batch, so
  /// the replayed tail never re-runs MPC.
  static Result<std::unique_ptr<IncrementalMaintainer>> OpenDurable(
      rdf::RdfGraph graph, partition::Partitioning partitioning,
      MaintainerOptions options, uint64_t fingerprint);

  IncrementalMaintainer(const IncrementalMaintainer&) = delete;
  IncrementalMaintainer& operator=(const IncrementalMaintainer&) = delete;

  /// Applies one batch, evaluates the policy, and (if fired) runs
  /// RepartitionNow() before returning; when journaling, a repartition
  /// is checkpointed at its batch.
  ApplyResult ApplyBatch(const UpdateBatch& batch);

  /// The graph snapshot plus dictionary growth. Dictionaries are always
  /// current (every live term resolves); triples() is the snapshot of
  /// the last full (re)partition and is NOT the live triple set — use
  /// LiveTriples() or MaterializeGraph() for that.
  const rdf::RdfGraph& graph() const { return graph_; }

  /// The maintained partitioning. Aggregate counters (|L_cross|, mask,
  /// crossing-edge count, owned-vertex counts) are exact; per-site
  /// triple vectors may still hold tombstoned entries.
  const partition::Partitioning& partitioning() const {
    return partitioning_;
  }

  DriftMetrics drift() const;

  bool IsLive(const rdf::Triple& t) const;
  size_t num_live_triples() const { return tracker_.live_triples(); }

  /// Live triples in canonical (property, subject, object) order.
  std::vector<rdf::Triple> LiveTriples() const;

  /// Tombstone-free copy of the maintained partitioning over the current
  /// id space: live edges only, extended-vertex lists recomputed. Its
  /// metrics must agree with the maintained counters (tested).
  partition::Partitioning CompactPartitioning() const;

  /// Fresh, compacted graph of the live triples (new dense ids).
  rdf::RdfGraph MaterializeGraph() const;

  /// Monotone state-version counter: bumped by Attach, every ApplyBatch,
  /// and every repartition swap. Equal generations imply identical live
  /// state — the QueryService result cache's invalidation token.
  uint64_t generation() const { return generation_; }

  /// Synchronous full MPC re-run on the live graph + atomic swap. When
  /// journaling, the new state is checkpointed before returning (so
  /// recovery never re-runs MPC or loses the swap); the Status is that
  /// checkpoint's, Ok otherwise.
  Status RepartitionNow();

  size_t repartition_count() const { return repartitions_; }

  /// Hot-vertex moves applied over the maintainer's lifetime (survives
  /// checkpoint/recovery). A serving capture may only reuse pack-time
  /// segments while this is 0 — a migration changes ownership without
  /// rewriting the site files.
  size_t migration_count() const { return migrations_; }

  /// Replaces the per-property query weights (see
  /// MaintainerOptions::property_weights) and re-derives the weighted
  /// |L_cross| and its seed under the new weights. No-op when the
  /// weights are unchanged. Single-writer contract applies.
  void SetPropertyWeights(std::vector<double> weights);

  /// The live-set delta relative to the loaded snapshot:
  /// live = (snapshot ∪ added_triples) \ deleted_triples. Reset by a
  /// repartition swap (the snapshot re-baselines). Exposed so a serving
  /// capture can compose immutable pack-time segments with a delta
  /// overlay instead of rebuilding stores (only valid while
  /// repartition_count() == 0).
  const std::unordered_set<rdf::Triple>& added_triples() const {
    return added_;
  }
  const std::unordered_set<rdf::Triple>& deleted_triples() const {
    return deleted_;
  }

  /// Batches applied over the maintainer's lifetime (survives
  /// checkpoint/recovery); the journal sequence number of the next batch
  /// is batches_applied() + 1.
  size_t batches_applied() const { return tracker_.batches_applied(); }

  /// True when a write-ahead journal is attached (OpenDurable).
  bool journaling() const { return journal_ != nullptr; }

  /// Complete serializable state (see MaintainerState).
  MaintainerState ExportState() const;

  /// Exports the state and writes a checkpoint to the journal directory
  /// (Internal error when no journal is attached). Called automatically
  /// per MaintainerOptions::checkpoint_every_batches and by
  /// RepartitionNow(); exposed so a stream can force a final checkpoint.
  Status WriteCheckpoint();

 private:
  /// Rebuilds all derived state (crossing counts, online forest, drift
  /// counters) from graph_ + partitioning_. O(|E| α).
  void Attach();

  bool InBaseSnapshot(const rdf::Triple& t) const;

  /// Owner site for a brand-new vertex paired with `other` (or
  /// kInvalidVertex when both endpoints are new) under property p.
  uint32_t PlaceNewVertex(rdf::VertexId other, rdf::PropertyId p) const;
  uint32_t LeastLoadedSite() const;

  /// Applies one update; returns 0 noop, +1 insert, -1 delete.
  int ApplyUpdate(const TripleUpdate& update);

  /// Rebuilds the online forest from the live triples, discarding the
  /// staleness accumulated by internal deletes. O(|E| α).
  void RebuildForest();

  /// The Def. 4.2 ceiling (1+eps)|V|/k over the maintained universe.
  size_t InternalComponentBudget() const;

  /// W(p) under the current weights (0 when no weights are configured,
  /// so the weighted drift stays inert).
  double PropertyWeight(rdf::PropertyId p) const;

  /// Recomputes weighted_lcross_ from crossing_count_ and
  /// seed_weighted_lcross_ from seed_crossing_ (O(P); runs on anchor,
  /// restore, and weight change — never per update).
  void RecomputeWeightedLcross();

  /// Runs one hot-vertex migration event (see BoundaryMigrator); bumps
  /// the generation when any move was applied.
  MigrationReport TryMigrate();

  /// Moves vertex v to site `to`, flipping the crossing/internal state
  /// of its live incident edges incrementally (counters, L_cross mask,
  /// weighted sums, tracker slots, forest unions). Site triple vectors
  /// are NOT relocated — compaction re-derives placement from the
  /// assignment, and serving captures refuse the segment overlay once
  /// migration_count() > 0.
  void ApplyMigrationMove(rdf::VertexId v, uint32_t to,
                          const std::vector<rdf::Triple>& incident);

  rdf::RdfGraph graph_;
  partition::Partitioning partitioning_;
  MaintainerOptions options_;

  /// Triples inserted since the snapshot (they are also appended to the
  /// site vectors, so vectors == snapshot ∪ added_).
  std::unordered_set<rdf::Triple> added_;
  /// Tombstones over snapshot ∪ added_; live = (snapshot ∪ added_) \ deleted_.
  std::unordered_set<rdf::Triple> deleted_;

  /// Live crossing edges per property; a 0->1 transition puts the
  /// property into L_cross, 1->0 retires it.
  std::vector<size_t> crossing_count_;

  /// Online WCC(G[L_in]) forest (grows only; deletes leave it stale,
  /// which over-approximates the Def. 4.2 cost conservatively).
  dsf::DisjointSetForest forest_{0};

  DriftTracker tracker_;
  size_t repartitions_ = 0;

  /// L_cross membership at the last anchor (Attach), indexed by
  /// property id — the weighted seed stays recomputable when weights
  /// change mid-stream or after a checkpoint restore.
  std::vector<uint8_t> seed_crossing_;
  /// Weighted |L_cross| now and at the last anchor, under the current
  /// weights (both 0 when no weights are configured).
  double weighted_lcross_ = 0.0;
  double seed_weighted_lcross_ = 0.0;

  /// Live crossing edges incident to each vertex — the boundary set the
  /// migrator ranks (crossing_degree_[v] > 0 means v sits on the cut).
  std::vector<uint32_t> crossing_degree_;
  /// Lifetime hot-vertex moves (checkpointed).
  size_t migrations_ = 0;
  /// Lazy: constructed at the first migration event.
  std::unique_ptr<BoundaryMigrator> migrator_;

  /// Internal deletes since the forest was last rebuilt from live
  /// triples (Attach or RebuildForest); while 0 the forest is exact.
  size_t forest_stale_deletes_ = 0;

  // Durability (set by OpenDurable; empty/null otherwise).
  std::unique_ptr<UpdateJournal> journal_;
  uint64_t journal_fingerprint_ = 0;

  uint64_t generation_ = 0;
};

}  // namespace mpc::dynamic

#endif  // MPC_DYNAMIC_INCREMENTAL_MAINTAINER_H_
