#include "dynamic/drift_tracker.h"

#include <algorithm>
#include <cmath>

namespace mpc::dynamic {

size_t RepartitionPolicy::LcrossBound(size_t seed) const {
  const size_t relative = static_cast<size_t>(
      std::floor(static_cast<double>(seed) * (1.0 + max_lcross_growth)));
  return std::max(relative, seed + min_lcross_slack);
}

double RepartitionPolicy::WeightedLcrossBound(double seed) const {
  return std::max(seed * (1.0 + max_lcross_growth),
                  seed + static_cast<double>(min_lcross_slack));
}

std::string RepartitionPolicy::Evaluate(const DriftMetrics& m) const {
  switch (kind) {
    case Kind::kNever:
      return {};
    case Kind::kPeriodic:
      if (period_batches > 0 && m.batches_applied > 0 &&
          m.batches_applied % period_batches == 0) {
        return "periodic: " + std::to_string(period_batches) +
               " batches applied";
      }
      return {};
    case Kind::kThreshold: {
      const size_t bound = LcrossBound(m.seed_crossing_properties);
      if (m.crossing_properties > bound) {
        return "|L_cross| " + std::to_string(m.crossing_properties) +
               " exceeds bound " + std::to_string(bound) + " (seed " +
               std::to_string(m.seed_crossing_properties) + ")";
      }
      if (m.weighted_crossing_properties >
          WeightedLcrossBound(m.seed_weighted_crossing_properties)) {
        return "weighted |L_cross| " +
               std::to_string(m.weighted_crossing_properties) +
               " exceeds bound " +
               std::to_string(WeightedLcrossBound(
                   m.seed_weighted_crossing_properties)) +
               " (seed " +
               std::to_string(m.seed_weighted_crossing_properties) + ")";
      }
      if (m.tombstone_ratio > max_tombstone_ratio) {
        return "tombstone ratio " + std::to_string(m.tombstone_ratio) +
               " exceeds " + std::to_string(max_tombstone_ratio);
      }
      if (enforce_component_budget && m.internal_component_budget > 0 &&
          m.max_internal_component > m.internal_component_budget) {
        return "internal component " +
               std::to_string(m.max_internal_component) +
               " exceeds Def. 4.2 budget " +
               std::to_string(m.internal_component_budget);
      }
      return {};
    }
  }
  return {};
}

void DriftTracker::Reset(size_t internal_edges, size_t crossing_edges,
                         size_t seed_lcross) {
  live_internal_ = internal_edges;
  live_crossing_ = crossing_edges;
  dead_slots_ = 0;
  seed_lcross_ = seed_lcross;
}

void DriftTracker::OnInsertInternal(bool resurrected) {
  ++live_internal_;
  if (resurrected) dead_slots_ -= 1;
}

void DriftTracker::OnDeleteInternal() {
  --live_internal_;
  dead_slots_ += 1;
}

void DriftTracker::OnInsertCrossing(bool resurrected) {
  ++live_crossing_;
  if (resurrected) dead_slots_ -= 2;
}

void DriftTracker::OnDeleteCrossing() {
  --live_crossing_;
  dead_slots_ += 2;
}

DriftMetrics DriftTracker::Snapshot(
    const partition::Partitioning& partitioning,
    size_t max_internal_component,
    size_t internal_component_budget) const {
  DriftMetrics m;
  m.live_triples = live_internal_ + live_crossing_;
  m.seed_crossing_properties = seed_lcross_;
  m.crossing_properties = partitioning.num_crossing_properties();
  m.crossing_edges = partitioning.num_crossing_edges();
  if (seed_lcross_ > 0 && m.crossing_properties > seed_lcross_) {
    m.lcross_growth = static_cast<double>(m.crossing_properties) /
                          static_cast<double>(seed_lcross_) -
                      1.0;
  }
  m.balance_ratio = partitioning.BalanceRatio();
  const size_t live_slots = live_internal_ + 2 * live_crossing_;
  const size_t stored = live_slots + dead_slots_;
  m.tombstone_ratio =
      stored == 0 ? 0.0
                  : static_cast<double>(dead_slots_) /
                        static_cast<double>(stored);
  m.replication_ratio =
      m.live_triples == 0 ? 1.0
                          : static_cast<double>(live_slots) /
                                static_cast<double>(m.live_triples);
  m.max_internal_component = max_internal_component;
  m.internal_component_budget = internal_component_budget;
  m.updates_applied = updates_applied_;
  m.batches_applied = batches_applied_;
  m.repartitions = repartitions_;
  return m;
}

}  // namespace mpc::dynamic
