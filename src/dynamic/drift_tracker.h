#ifndef MPC_DYNAMIC_DRIFT_TRACKER_H_
#define MPC_DYNAMIC_DRIFT_TRACKER_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "partition/partitioning.h"

namespace mpc::dynamic {

/// Live health metrics of a maintained partitioning, measured against the
/// seed state (the moment the partitioning was last computed from
/// scratch). Every field is maintained incrementally — computing a
/// snapshot is O(k), never O(|E|).
struct DriftMetrics {
  /// Triples currently live (inserts minus deletes, set semantics).
  size_t live_triples = 0;
  /// |L_cross| right after the last full (re)partition.
  size_t seed_crossing_properties = 0;
  /// Current |L_cross| — the quantity MPC minimizes; growth here is the
  /// primary drift signal (each new crossing property makes previously
  /// independent queries require joins).
  size_t crossing_properties = 0;
  /// Current |E^c| (distinct live crossing edges).
  size_t crossing_edges = 0;
  /// crossing_properties / seed - 1; 0 when at or below the seed (and
  /// when the seed is 0 but nothing crosses yet).
  double lcross_growth = 0.0;
  /// max_i |V_i| / (|V|/k) over the maintained vertex universe
  /// (tombstoned vertices keep their owner until a repartition).
  double balance_ratio = 0.0;
  /// Dead entries still occupying site stores / total stored entries;
  /// measures the lazy-deletion garbage queries must filter around.
  double tombstone_ratio = 0.0;
  /// Live stored entries / live triples (>= 1; the 1-hop replication
  /// overhead of Def. 3.3).
  double replication_ratio = 0.0;
  /// Largest WCC of G[L_in] in the online forest — an overapproximation
  /// after deletes (the forest never splits), exact under insert-only
  /// streams (and after a forest rebuild; see
  /// MaintainerOptions::forest_rebuild_tombstone_ratio). Compared against
  /// internal_component_budget, the Def. 4.2 budget.
  size_t max_internal_component = 0;
  /// (1+eps)|V|/k over the maintained vertex universe — the Def. 4.2
  /// ceiling max_internal_component is measured against. 0 when the
  /// maintainer does not supply one.
  size_t internal_component_budget = 0;

  /// Workload-weighted |L_cross|: sum of W(p) over p currently in
  /// L_cross, where W(p) is the per-property query weight the maintainer
  /// was given (1.0 for properties beyond the weight vector). 0 when no
  /// weights are configured — the weighted threshold is then inert.
  double weighted_crossing_properties = 0.0;
  /// Weighted |L_cross| right after the last full (re)partition,
  /// measured with the current weights.
  double seed_weighted_crossing_properties = 0.0;
  /// weighted_crossing_properties / seed - 1 (0 at or below the seed).
  double weighted_lcross_growth = 0.0;

  size_t updates_applied = 0;
  size_t batches_applied = 0;
  size_t repartitions = 0;
  /// Hot-vertex moves applied by the migration escalation (lifetime).
  size_t migrations = 0;
};

/// When to abandon incremental maintenance and recompute the partitioning
/// from scratch. Evaluated at batch boundaries.
struct RepartitionPolicy {
  enum class Kind {
    /// Never repartition; drift is reported but unbounded.
    kNever,
    /// Every `period_batches` applied batches.
    kPeriodic,
    /// When a drift metric exceeds its bound (the default).
    kThreshold,
  };

  Kind kind = Kind::kThreshold;

  /// kPeriodic: batches between repartitions.
  size_t period_batches = 64;

  /// kThreshold: fire when crossing_properties > LcrossBound(seed) =
  /// max(seed * (1 + max_lcross_growth), seed + min_lcross_slack). The
  /// absolute slack keeps tiny seeds (|L_cross| of 2-3) from thrashing
  /// on every new crossing property.
  double max_lcross_growth = 0.5;
  size_t min_lcross_slack = 4;
  /// kThreshold: fire when tombstone_ratio exceeds this.
  double max_tombstone_ratio = 0.25;
  /// kThreshold: fire when max_internal_component exceeds
  /// internal_component_budget (the Def. 4.2 ceiling). Off by default:
  /// the online forest over-approximates after deletes, so without the
  /// maintainer's forest rebuild this check over-fires on delete-heavy
  /// streams.
  bool enforce_component_budget = false;

  /// |L_cross| ceiling the threshold policy enforces for a given seed.
  size_t LcrossBound(size_t seed) const;

  /// Weighted analogue of LcrossBound: max(seed * (1 + max_lcross_growth),
  /// seed + min_lcross_slack) in weight units. Under uniform weight 1.0
  /// this fires at exactly the same points as the integer check; a hot
  /// property (large W) going crossing eats the slack in one step and
  /// fires sooner than a cold one.
  double WeightedLcrossBound(double seed) const;

  /// Returns a human-readable trigger reason, or empty when the
  /// partitioning should be kept.
  std::string Evaluate(const DriftMetrics& m) const;
};

/// Incrementally maintained counters behind DriftMetrics. The maintainer
/// calls the On*() hooks on every live-set transition; stored-entry
/// accounting counts one slot per internal edge and two per crossing
/// edge (the 1-hop replicas).
class DriftTracker {
 public:
  /// The tracker's complete internal state — incremental counters plus
  /// the lifetime totals — exported for checkpoint serialization and
  /// restored bit-for-bit on recovery.
  struct State {
    uint64_t live_internal = 0;
    uint64_t live_crossing = 0;
    uint64_t dead_slots = 0;
    uint64_t seed_lcross = 0;
    uint64_t updates_applied = 0;
    uint64_t batches_applied = 0;
    uint64_t repartitions = 0;

    bool operator==(const State&) const = default;
  };

  State ExportState() const {
    return State{live_internal_,   live_crossing_,   dead_slots_,
                 seed_lcross_,     updates_applied_, batches_applied_,
                 repartitions_};
  }

  void RestoreState(const State& s) {
    live_internal_ = s.live_internal;
    live_crossing_ = s.live_crossing;
    dead_slots_ = s.dead_slots;
    seed_lcross_ = s.seed_lcross;
    updates_applied_ = s.updates_applied;
    batches_applied_ = s.batches_applied;
    repartitions_ = s.repartitions;
  }

  size_t batches_applied() const { return batches_applied_; }

  /// Re-seeds the tracker from a freshly (re)materialized partitioning:
  /// `internal_edges` live internal edges, `crossing_edges` distinct live
  /// crossing edges, `seed_lcross` = |L_cross| at this moment.
  void Reset(size_t internal_edges, size_t crossing_edges,
             size_t seed_lcross);

  void OnInsertInternal(bool resurrected);
  void OnDeleteInternal();
  void OnInsertCrossing(bool resurrected);
  void OnDeleteCrossing();
  void OnUpdateApplied() { ++updates_applied_; }
  void OnBatchApplied() { ++batches_applied_; }
  void OnRepartition() { ++repartitions_; }

  /// A hot-vertex migration flipped a live crossing edge internal. The
  /// stale replica entry stays in the old site store until compaction,
  /// so one of the edge's two slots turns into garbage.
  void OnMigrateCrossingToInternal() {
    --live_crossing_;
    ++live_internal_;
    dead_slots_ += 1;
  }

  /// A migration pushed a live internal edge across the cut. The second
  /// replica slot is accounted logically (compaction materializes it).
  void OnMigrateInternalToCrossing() {
    --live_internal_;
    ++live_crossing_;
  }

  size_t live_triples() const {
    return live_internal_ + live_crossing_;
  }

  /// Assembles the metrics; `partitioning` supplies |L_cross| and the
  /// balance ratio, `max_internal_component` comes from the online DSF,
  /// `internal_component_budget` is the maintainer-computed (1+eps)|V|/k
  /// Def. 4.2 ceiling (0 when not enforced).
  DriftMetrics Snapshot(const partition::Partitioning& partitioning,
                        size_t max_internal_component,
                        size_t internal_component_budget = 0) const;

 private:
  size_t live_internal_ = 0;   // live internal edges (1 slot each)
  size_t live_crossing_ = 0;   // live distinct crossing edges (2 slots)
  size_t dead_slots_ = 0;      // tombstoned entries still stored
  size_t seed_lcross_ = 0;
  size_t updates_applied_ = 0;
  size_t batches_applied_ = 0;
  size_t repartitions_ = 0;
};

}  // namespace mpc::dynamic

#endif  // MPC_DYNAMIC_DRIFT_TRACKER_H_
