#include "dynamic/incremental_maintainer.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mpc::dynamic {

namespace {

/// Inserts v into a sorted, deduped vector, keeping it sorted; no-op when
/// already present.
void InsertSortedUnique(std::vector<rdf::VertexId>* vec, rdf::VertexId v) {
  auto it = std::lower_bound(vec->begin(), vec->end(), v);
  if (it == vec->end() || *it != v) vec->insert(it, v);
}

}  // namespace

IncrementalMaintainer::IncrementalMaintainer(
    rdf::RdfGraph graph, partition::Partitioning partitioning,
    MaintainerOptions options)
    : graph_(std::move(graph)),
      partitioning_(std::move(partitioning)),
      options_(std::move(options)) {
  Attach();
}

IncrementalMaintainer::IncrementalMaintainer(const MaintainerState& state,
                                             MaintainerOptions options)
    : options_(std::move(options)) {
  // Rebuild the graph: interning every dictionary term in id order
  // replays the exact Intern() sequence that produced the saved ids, so
  // the restored dictionaries are identical; the frozen snapshot is
  // re-added by id.
  rdf::GraphBuilder builder;
  for (const std::string& term : state.vertex_terms) {
    builder.InternVertex(term);
  }
  for (const std::string& term : state.property_terms) {
    builder.InternProperty(term);
  }
  for (const rdf::Triple& t : state.snapshot_triples) {
    builder.Add(t.subject, t.property, t.object);
  }
  graph_ = builder.Build();

  partition::VertexAssignment assignment;
  assignment.k = state.k;
  assignment.part = state.assignment;
  partitioning_ = partition::Partitioning::MaterializeVertexDisjoint(
      graph_.triples(), graph_.num_vertices(), graph_.num_properties(),
      std::move(assignment), options_.num_threads);

  // Materialization derived the crossing mask and |E^c| from the
  // snapshot alone; patch them to the saved live values (crossing
  // inserts and deletes have moved them since).
  crossing_count_.assign(state.crossing_count.begin(),
                         state.crossing_count.end());
  for (size_t p = 0; p < crossing_count_.size(); ++p) {
    partitioning_.SetCrossingProperty(static_cast<rdf::PropertyId>(p),
                                      crossing_count_[p] > 0);
  }
  partitioning_.BumpCrossingEdges(
      static_cast<std::ptrdiff_t>(state.num_crossing_edges) -
      static_cast<std::ptrdiff_t>(partitioning_.num_crossing_edges()));

  // Re-append the added triples to the site vectors, restoring the
  // invariant vectors == snapshot ∪ added (tombstoned entries stay, as
  // in the live maintainer).
  const std::vector<uint32_t>& part = partitioning_.assignment().part;
  for (const rdf::Triple& t : state.added) {
    added_.insert(t);
    const uint32_t ps = part[t.subject];
    const uint32_t po = part[t.object];
    if (ps == po) {
      partitioning_.mutable_partition(ps).internal_edges.push_back(t);
    } else {
      partition::Partition& a = partitioning_.mutable_partition(ps);
      partition::Partition& b = partitioning_.mutable_partition(po);
      a.crossing_edges.push_back(t);
      b.crossing_edges.push_back(t);
      InsertSortedUnique(&a.extended_vertices, t.object);
      InsertSortedUnique(&b.extended_vertices, t.subject);
    }
  }
  deleted_.insert(state.deleted.begin(), state.deleted.end());

  // The forest's tree shape is history-dependent: restore it verbatim
  // rather than re-deriving it from edges.
  Result<dsf::DisjointSetForest> forest =
      dsf::DisjointSetForest::FromState(state.forest);
  if (forest.ok()) {
    forest_ = std::move(*forest);
    forest_stale_deletes_ = state.forest_stale_deletes;
  } else {
    MPC_LOG(Warning) << "checkpoint forest state invalid ("
                     << forest.status().ToString()
                     << "); rebuilding from live triples";
    RebuildForest();
  }
  tracker_.RestoreState(state.tracker);
  repartitions_ = state.tracker.repartitions;
  migrations_ = state.migrations;

  // The boundary set is derived, not checkpointed: one pass over the
  // live triples under the restored assignment rebuilds it.
  crossing_degree_.assign(graph_.num_vertices(), 0);
  for (const rdf::Triple& t : LiveTriples()) {
    if (part[t.subject] != part[t.object]) {
      ++crossing_degree_[t.subject];
      ++crossing_degree_[t.object];
    }
  }
  // Weighted drift state: the checkpoint stores the seed L_cross
  // membership; the weighted sums are re-derived under the (possibly
  // new) weights in options.
  seed_crossing_.assign(graph_.num_properties(), 0);
  for (uint32_t p : state.seed_crossing) {
    if (p < seed_crossing_.size()) seed_crossing_[p] = 1;
  }
  RecomputeWeightedLcross();
}

Result<std::unique_ptr<IncrementalMaintainer>>
IncrementalMaintainer::OpenDurable(rdf::RdfGraph graph,
                                   partition::Partitioning partitioning,
                                   MaintainerOptions options,
                                   uint64_t fingerprint) {
  if (options.journal_dir.empty()) {
    return Status::InvalidArgument(
        "OpenDurable requires options.journal_dir");
  }
  obs::TraceSpan span("dynamic.recover");
  const std::string dir = options.journal_dir;

  std::unique_ptr<IncrementalMaintainer> maintainer;
  Result<MaintainerState> checkpoint =
      CheckpointIo::LoadLatest(dir, fingerprint);
  if (checkpoint.ok()) {
    maintainer = std::make_unique<IncrementalMaintainer>(*checkpoint,
                                                         std::move(options));
    span.Attr("checkpoint_seq", checkpoint->seq);
  } else if (checkpoint.status().code() == StatusCode::kNotFound) {
    maintainer = std::make_unique<IncrementalMaintainer>(
        std::move(graph), std::move(partitioning), std::move(options));
  } else {
    return checkpoint.status();
  }

  Result<std::vector<UpdateJournal::Entry>> tail = UpdateJournal::Replay(
      dir, fingerprint, maintainer->batches_applied());
  if (!tail.ok()) return tail.status();
  uint64_t replayed = 0;
  for (const UpdateJournal::Entry& e : *tail) {
    if (e.seq != maintainer->batches_applied() + 1) {
      return Status::Internal(
          "journal gap: frame " + std::to_string(e.seq) + " follows " +
          std::to_string(maintainer->batches_applied()) +
          " applied batches");
    }
    maintainer->ApplyBatch(e.batch);
    ++replayed;
  }
  span.Attr("replayed_batches", replayed);
  obs::MetricsRegistry::Default()
      .CounterRef("dynamic.recover.replayed_batches")
      .Inc(replayed);
  obs::MetricsRegistry::Default().CounterRef("dynamic.recover.runs").Inc();

  Result<UpdateJournal> journal = UpdateJournal::Open(dir, fingerprint);
  if (!journal.ok()) return journal.status();
  maintainer->journal_ =
      std::make_unique<UpdateJournal>(std::move(*journal));
  maintainer->journal_fingerprint_ = fingerprint;
  return maintainer;
}

void IncrementalMaintainer::Attach() {
  assert(partitioning_.kind() ==
         partition::PartitioningKind::kVertexDisjoint);
  assert(partitioning_.assignment().part.size() == graph_.num_vertices());

  added_.clear();
  deleted_.clear();

  const std::vector<uint32_t>& part = partitioning_.assignment().part;
  crossing_count_.assign(graph_.num_properties(), 0);
  crossing_degree_.assign(graph_.num_vertices(), 0);
  for (const rdf::Triple& t : graph_.triples()) {
    if (part[t.subject] != part[t.object]) {
      ++crossing_count_[t.property];
      ++crossing_degree_[t.subject];
      ++crossing_degree_[t.object];
    }
  }

  forest_ = dsf::DisjointSetForest(graph_.num_vertices());
  for (const rdf::Triple& t : graph_.triples()) {
    if (!partitioning_.IsCrossingProperty(t.property)) {
      forest_.Union(t.subject, t.object);
    }
  }

  tracker_.Reset(graph_.num_edges() - partitioning_.num_crossing_edges(),
                 partitioning_.num_crossing_edges(),
                 partitioning_.num_crossing_properties());
  // Re-anchor the weighted drift baseline alongside the unweighted one:
  // the seed L_cross membership is frozen here so the weighted seed can
  // be re-derived whenever the weights change.
  seed_crossing_.assign(graph_.num_properties(), 0);
  for (size_t p = 0; p < crossing_count_.size(); ++p) {
    seed_crossing_[p] = crossing_count_[p] > 0 ? 1 : 0;
  }
  RecomputeWeightedLcross();
  if (migrator_) migrator_->Invalidate();
  forest_stale_deletes_ = 0;
  ++generation_;
}

double IncrementalMaintainer::PropertyWeight(rdf::PropertyId p) const {
  const std::vector<double>& w = options_.property_weights;
  if (w.empty()) return 0.0;  // weighted drift disabled
  return p < w.size() ? w[p] : 1.0;
}

void IncrementalMaintainer::RecomputeWeightedLcross() {
  weighted_lcross_ = 0.0;
  seed_weighted_lcross_ = 0.0;
  if (options_.property_weights.empty()) return;
  for (size_t p = 0; p < crossing_count_.size(); ++p) {
    const rdf::PropertyId id = static_cast<rdf::PropertyId>(p);
    if (crossing_count_[p] > 0) weighted_lcross_ += PropertyWeight(id);
    if (p < seed_crossing_.size() && seed_crossing_[p]) {
      seed_weighted_lcross_ += PropertyWeight(id);
    }
  }
}

void IncrementalMaintainer::SetPropertyWeights(std::vector<double> weights) {
  if (weights == options_.property_weights) return;
  options_.property_weights = std::move(weights);
  RecomputeWeightedLcross();
}

bool IncrementalMaintainer::InBaseSnapshot(const rdf::Triple& t) const {
  std::span<const rdf::Triple> run = graph_.EdgesWithProperty(t.property);
  auto it = std::lower_bound(run.begin(), run.end(), t);
  return it != run.end() && *it == t;
}

bool IncrementalMaintainer::IsLive(const rdf::Triple& t) const {
  if (t.subject >= graph_.num_vertices() ||
      t.object >= graph_.num_vertices() ||
      t.property >= graph_.num_properties()) {
    return false;
  }
  if (deleted_.count(t) > 0) return false;
  return added_.count(t) > 0 || InBaseSnapshot(t);
}

uint32_t IncrementalMaintainer::LeastLoadedSite() const {
  uint32_t best = 0;
  size_t best_owned = partitioning_.partition(0).num_owned_vertices;
  for (uint32_t i = 1; i < partitioning_.k(); ++i) {
    const size_t owned = partitioning_.partition(i).num_owned_vertices;
    if (owned < best_owned) {
      best = i;
      best_owned = owned;
    }
  }
  return best;
}

uint32_t IncrementalMaintainer::PlaceNewVertex(rdf::VertexId other,
                                               rdf::PropertyId p) const {
  // Co-locating with the existing endpoint keeps an internal property
  // internal (preserving Theorem 2's guarantee for L_in); for an already
  // crossing property the edge may cross anyway, so balance wins.
  if (!partitioning_.IsCrossingProperty(p)) {
    return partitioning_.assignment().part[other];
  }
  return LeastLoadedSite();
}

int IncrementalMaintainer::ApplyUpdate(const TripleUpdate& update) {
  if (update.kind == UpdateKind::kDelete) {
    const rdf::VertexId s = graph_.vertex_dict().Lookup(update.subject);
    const rdf::PropertyId p = graph_.property_dict().Lookup(update.property);
    const rdf::VertexId o = graph_.vertex_dict().Lookup(update.object);
    if (s == rdf::kInvalidVertex || p == rdf::kInvalidProperty ||
        o == rdf::kInvalidVertex) {
      return 0;  // a term was never seen, so the triple cannot be live
    }
    const rdf::Triple t(s, p, o);
    if (!IsLive(t)) return 0;
    // Lazy deletion: tombstone only. Site vectors keep the entry (store
    // rebuilds and compaction filter it); counters update immediately.
    deleted_.insert(t);
    const std::vector<uint32_t>& part = partitioning_.assignment().part;
    if (part[s] == part[o]) {
      tracker_.OnDeleteInternal();
      // The online forest cannot split; staleness is conservative (the
      // drift metric over-approximates the Def. 4.2 cost) until the
      // tombstone-triggered rebuild recomputes it from live triples.
      ++forest_stale_deletes_;
    } else {
      partitioning_.BumpCrossingEdges(-1);
      if (--crossing_count_[p] == 0) {
        // Last crossing edge of p died: p leaves L_cross and queries
        // over p become independently executable again.
        partitioning_.SetCrossingProperty(p, false);
        weighted_lcross_ -= PropertyWeight(p);
      }
      --crossing_degree_[s];
      --crossing_degree_[o];
      tracker_.OnDeleteCrossing();
    }
    return -1;
  }

  // Insert: encode, growing dictionaries for never-seen terms.
  const rdf::VertexId s = graph_.InternVertex(update.subject);
  const rdf::PropertyId p = graph_.InternProperty(update.property);
  const rdf::VertexId o = graph_.InternVertex(update.object);
  if (crossing_count_.size() < graph_.num_properties()) {
    crossing_count_.resize(graph_.num_properties(), 0);
    partitioning_.GrowPropertyUniverse(graph_.num_properties());
  }

  std::vector<uint32_t>& part = partitioning_.mutable_assignment().part;
  if (part.size() < graph_.num_vertices()) {
    // At least one endpoint is brand new; pick its owner.
    const bool s_new = s >= part.size();
    const bool o_new = o >= part.size();
    uint32_t site;
    if (s_new && o_new) {
      site = LeastLoadedSite();  // both new: co-locate at one site
    } else if (s_new) {
      site = PlaceNewVertex(o, p);
    } else {
      site = PlaceNewVertex(s, p);
    }
    while (part.size() < graph_.num_vertices()) {
      part.push_back(site);
      ++partitioning_.mutable_partition(site).num_owned_vertices;
    }
    forest_.Grow(graph_.num_vertices());
  }
  if (crossing_degree_.size() < graph_.num_vertices()) {
    crossing_degree_.resize(graph_.num_vertices(), 0);
  }

  const rdf::Triple t(s, p, o);
  if (IsLive(t)) return 0;  // duplicate insert (RDF set semantics)
  // A resurrected triple (insert after delete) still sits in the site
  // vectors; a brand-new one must be appended.
  const bool resurrected = deleted_.erase(t) > 0;
  const bool appended = !resurrected;
  if (appended) added_.insert(t);
  if (migrator_) migrator_->OnInsert(t, resurrected);

  const uint32_t ps = part[s];
  const uint32_t po = part[o];
  if (ps == po) {
    if (appended) {
      partitioning_.mutable_partition(ps).internal_edges.push_back(t);
    }
    if (!partitioning_.IsCrossingProperty(p)) forest_.Union(s, o);
    tracker_.OnInsertInternal(resurrected);
  } else {
    if (appended) {
      // 1-hop replication (Def. 3.3): the crossing edge is stored at
      // both endpoint sites, each extending its V_i^e.
      partition::Partition& a = partitioning_.mutable_partition(ps);
      partition::Partition& b = partitioning_.mutable_partition(po);
      a.crossing_edges.push_back(t);
      b.crossing_edges.push_back(t);
      InsertSortedUnique(&a.extended_vertices, t.object);
      InsertSortedUnique(&b.extended_vertices, t.subject);
    }
    partitioning_.BumpCrossingEdges(+1);
    if (crossing_count_[p]++ == 0) {
      // First crossing edge of p: a formerly-internal (or never-seen)
      // property enters L_cross — immediately visible to classification.
      partitioning_.SetCrossingProperty(p, true);
      weighted_lcross_ += PropertyWeight(p);
    }
    ++crossing_degree_[s];
    ++crossing_degree_[o];
    tracker_.OnInsertCrossing(resurrected);
  }
  return 1;
}

ApplyResult IncrementalMaintainer::ApplyBatch(const UpdateBatch& batch) {
  obs::TraceSpan batch_span("dynamic.apply_batch");
  batch_span.Attr("updates", static_cast<uint64_t>(batch.updates.size()));

  ApplyResult result;
  // Write-ahead ordering: the batch must be durable before any of its
  // effects are. A failed append aborts the batch un-applied — applying
  // unjournaled updates would make recovery silently lossy.
  if (journal_) {
    result.durability =
        journal_->Append(tracker_.batches_applied() + 1, batch);
    if (!result.durability.ok()) {
      result.drift = drift();
      return result;
    }
  }

  for (const TripleUpdate& u : batch.updates) {
    const int delta = ApplyUpdate(u);
    if (delta > 0) {
      ++result.inserts;
    } else if (delta < 0) {
      ++result.deletes;
    } else {
      ++result.noops;
    }
    tracker_.OnUpdateApplied();
  }
  tracker_.OnBatchApplied();
  ++generation_;

  // Tombstone-triggered forest rebuild, before the policy reads the
  // Def. 4.2 cost: once enough deletes accumulated, the grow-only
  // forest's max component is recomputed from the live triples so the
  // component-budget check stops over-firing.
  if (options_.forest_rebuild_tombstone_ratio > 0.0 &&
      forest_stale_deletes_ > 0 &&
      drift().tombstone_ratio > options_.forest_rebuild_tombstone_ratio) {
    RebuildForest();
  }

  DriftMetrics metrics = drift();
  std::string reason = options_.policy.Evaluate(metrics);
  // Escalation ladder: a fired policy first tries hot-vertex migration
  // (cheap, incremental); only when the re-evaluated drift still exceeds
  // its bound — migration stopped reducing weighted |L_cross| — does the
  // full MPC re-run happen.
  if (!reason.empty() && options_.migration.enabled) {
    const MigrationReport migrated = TryMigrate();
    result.migrated = migrated.moves;
    result.migration_gain = migrated.weighted_lcross_gain;
    if (migrated.moves > 0) {
      metrics = drift();
      reason = options_.policy.Evaluate(metrics);
    }
  }
  // A repartition checkpoints itself; otherwise the cadence decides
  // (every N batches).
  const uint64_t seq = tracker_.batches_applied();
  Status checkpoint;
  if (!reason.empty()) {
    result.repartition_triggered = true;
    result.trigger_reason = std::move(reason);
    batch_span.Attr("trigger", result.trigger_reason);
    checkpoint = RepartitionNow();
    result.repartitioned = true;
    metrics = drift();
  } else if (journal_ && options_.checkpoint_every_batches > 0 &&
             seq % options_.checkpoint_every_batches == 0) {
    checkpoint = WriteCheckpoint();
  }
  if (!checkpoint.ok()) {
    MPC_LOG(Warning) << "checkpoint at batch " << seq
                     << " failed: " << checkpoint.ToString();
    if (result.durability.ok()) result.durability = checkpoint;
  }
  result.drift = metrics;
  batch_span.Attr("inserts", static_cast<uint64_t>(result.inserts))
      .Attr("deletes", static_cast<uint64_t>(result.deletes))
      .Attr("noops", static_cast<uint64_t>(result.noops));

  // Publish the drift snapshot as gauges so a metrics dump mid-stream
  // shows where the live partitioning stands.
  auto& m = obs::MetricsRegistry::Default();
  m.CounterRef("dynamic.batches").Inc();
  m.CounterRef("dynamic.inserts").Inc(result.inserts);
  m.CounterRef("dynamic.deletes").Inc(result.deletes);
  m.CounterRef("dynamic.noops").Inc(result.noops);
  m.GaugeRef("dynamic.drift.live_triples")
      .Set(static_cast<double>(metrics.live_triples));
  m.GaugeRef("dynamic.drift.crossing_edges")
      .Set(static_cast<double>(metrics.crossing_edges));
  m.GaugeRef("dynamic.drift.crossing_properties")
      .Set(static_cast<double>(metrics.crossing_properties));
  m.GaugeRef("dynamic.drift.lcross_growth").Set(metrics.lcross_growth);
  m.GaugeRef("dynamic.drift.weighted_crossing_properties")
      .Set(metrics.weighted_crossing_properties);
  m.GaugeRef("dynamic.drift.weighted_lcross_growth")
      .Set(metrics.weighted_lcross_growth);
  m.GaugeRef("dynamic.drift.balance_ratio").Set(metrics.balance_ratio);
  m.GaugeRef("dynamic.drift.tombstone_ratio").Set(metrics.tombstone_ratio);
  m.GaugeRef("dynamic.drift.replication_ratio")
      .Set(metrics.replication_ratio);
  return result;
}

DriftMetrics IncrementalMaintainer::drift() const {
  DriftMetrics m =
      tracker_.Snapshot(partitioning_, forest_.max_component_size(),
                        InternalComponentBudget());
  m.weighted_crossing_properties = weighted_lcross_;
  m.seed_weighted_crossing_properties = seed_weighted_lcross_;
  if (seed_weighted_lcross_ > 0.0 &&
      weighted_lcross_ > seed_weighted_lcross_) {
    m.weighted_lcross_growth = weighted_lcross_ / seed_weighted_lcross_ - 1.0;
  }
  m.migrations = migrations_;
  return m;
}

size_t IncrementalMaintainer::InternalComponentBudget() const {
  const uint32_t k = partitioning_.k();
  if (k == 0) return 0;
  const double ideal =
      static_cast<double>(graph_.num_vertices()) / static_cast<double>(k);
  return static_cast<size_t>((1.0 + options_.mpc.base.epsilon) * ideal);
}

void IncrementalMaintainer::RebuildForest() {
  MPC_TRACE_SPAN("dynamic.forest.rebuild");
  obs::MetricsRegistry::Default().CounterRef("dynamic.forest_rebuilds").Inc();
  forest_ = dsf::DisjointSetForest(graph_.num_vertices());
  for (const rdf::Triple& t : LiveTriples()) {
    if (!partitioning_.IsCrossingProperty(t.property)) {
      forest_.Union(t.subject, t.object);
    }
  }
  forest_stale_deletes_ = 0;
}

MaintainerState IncrementalMaintainer::ExportState() const {
  MaintainerState state;
  state.seq = tracker_.batches_applied();
  state.k = partitioning_.k();
  state.vertex_terms.reserve(graph_.num_vertices());
  for (size_t v = 0; v < graph_.num_vertices(); ++v) {
    state.vertex_terms.push_back(
        graph_.VertexName(static_cast<rdf::VertexId>(v)));
  }
  state.property_terms.reserve(graph_.num_properties());
  for (size_t p = 0; p < graph_.num_properties(); ++p) {
    state.property_terms.push_back(
        graph_.PropertyName(static_cast<rdf::PropertyId>(p)));
  }
  state.snapshot_triples = graph_.triples();
  state.assignment = partitioning_.assignment().part;
  state.crossing_count.assign(crossing_count_.begin(),
                              crossing_count_.end());
  state.num_crossing_edges = partitioning_.num_crossing_edges();
  state.added.assign(added_.begin(), added_.end());
  std::sort(state.added.begin(), state.added.end());
  state.deleted.assign(deleted_.begin(), deleted_.end());
  std::sort(state.deleted.begin(), state.deleted.end());
  state.forest = forest_.ExportState();
  state.tracker = tracker_.ExportState();
  state.forest_stale_deletes = forest_stale_deletes_;
  for (size_t p = 0; p < seed_crossing_.size(); ++p) {
    if (seed_crossing_[p]) {
      state.seed_crossing.push_back(static_cast<uint32_t>(p));
    }
  }
  state.migrations = migrations_;
  return state;
}

Status IncrementalMaintainer::WriteCheckpoint() {
  if (!journal_) {
    return Status::Internal("WriteCheckpoint requires an attached journal");
  }
  return CheckpointIo::Write(ExportState(), journal_fingerprint_,
                             options_.journal_dir);
}

std::vector<rdf::Triple> IncrementalMaintainer::LiveTriples() const {
  std::vector<rdf::Triple> live;
  live.reserve(tracker_.live_triples());
  for (const rdf::Triple& t : graph_.triples()) {
    if (deleted_.count(t) == 0) live.push_back(t);
  }
  for (const rdf::Triple& t : added_) {
    if (deleted_.count(t) == 0) live.push_back(t);
  }
  std::sort(live.begin(), live.end());
  return live;
}

partition::Partitioning IncrementalMaintainer::CompactPartitioning() const {
  partition::VertexAssignment assignment = partitioning_.assignment();
  const std::vector<rdf::Triple> live = LiveTriples();
  return partition::Partitioning::MaterializeVertexDisjoint(
      live, graph_.num_vertices(), graph_.num_properties(),
      std::move(assignment), options_.num_threads);
}

rdf::RdfGraph IncrementalMaintainer::MaterializeGraph() const {
  rdf::GraphBuilder builder;
  for (const rdf::Triple& t : LiveTriples()) {
    builder.Add(graph_.VertexName(t.subject),
                graph_.PropertyName(t.property),
                graph_.VertexName(t.object));
  }
  return builder.Build();
}

Status IncrementalMaintainer::RepartitionNow() {
  MPC_TRACE_SPAN("dynamic.repartition");
  obs::MetricsRegistry::Default().CounterRef("dynamic.repartitions").Inc();
  rdf::RdfGraph fresh = MaterializeGraph();
  core::MpcOptions mpc = options_.mpc;
  mpc.base.k = partitioning_.k();
  mpc.base.num_threads = options_.num_threads;
  partition::Partitioning repartitioned =
      core::MpcPartitioner(mpc).Partition(fresh);
  if (!options_.property_weights.empty()) {
    // The fresh graph re-interns the live terms, so property ids can
    // shift (a property whose last live edge died drops out of the
    // dense id space). The id-indexed weights must follow their
    // properties by name or the weighted drift starts charging the
    // wrong properties. Properties the old vector never covered keep
    // the default weight of 1.0.
    std::vector<double> remapped(fresh.num_properties(), 1.0);
    for (rdf::PropertyId p = 0; p < fresh.num_properties(); ++p) {
      const rdf::PropertyId old =
          graph_.property_dict().Lookup(fresh.PropertyName(p));
      if (old != rdf::kInvalidProperty) remapped[p] = PropertyWeight(old);
    }
    options_.property_weights = std::move(remapped);
  }
  graph_ = std::move(fresh);
  partitioning_ = std::move(repartitioned);
  Attach();
  tracker_.OnRepartition();
  ++repartitions_;
  return journal_ ? WriteCheckpoint() : Status::Ok();
}

MigrationReport IncrementalMaintainer::TryMigrate() {
  MPC_TRACE_SPAN("dynamic.migrate");
  if (!migrator_) {
    migrator_ = std::make_unique<BoundaryMigrator>(options_.migration);
  }
  BoundaryMigrator::Context ctx;
  ctx.part = &partitioning_.assignment().part;
  ctx.crossing_degree = &crossing_degree_;
  ctx.crossing_count = &crossing_count_;
  ctx.weight_of = [this](rdf::PropertyId p) { return PropertyWeight(p); };
  ctx.is_live = [this](const rdf::Triple& t) { return IsLive(t); };
  ctx.live_triples = [this]() { return LiveTriples(); };
  ctx.owned = [this](uint32_t site) {
    return partitioning_.partition(site).num_owned_vertices;
  };
  ctx.balance_cap = InternalComponentBudget();
  ctx.k = partitioning_.k();
  ctx.num_vertices = graph_.num_vertices();
  ctx.apply_move = [this](rdf::VertexId v, uint32_t to,
                          const std::vector<rdf::Triple>& incident) {
    ApplyMigrationMove(v, to, incident);
  };
  const MigrationReport report = migrator_->Migrate(ctx);
  if (report.moves > 0) {
    // The live state changed after the batch's generation bump: bump
    // again so result caches and serving captures see a new state.
    ++generation_;
  }
  auto& m = obs::MetricsRegistry::Default();
  m.CounterRef("dynamic.migrate.events").Inc();
  m.CounterRef("dynamic.migrate.moves").Inc(report.moves);
  m.CounterRef("dynamic.migrate.properties_retired")
      .Inc(report.properties_retired);
  return report;
}

void IncrementalMaintainer::ApplyMigrationMove(
    rdf::VertexId v, uint32_t to,
    const std::vector<rdf::Triple>& incident) {
  std::vector<uint32_t>& part = partitioning_.mutable_assignment().part;
  const uint32_t from = part[v];
  for (const rdf::Triple& t : incident) {
    if (!IsLive(t)) continue;
    const rdf::VertexId u = t.subject == v ? t.object : t.subject;
    if (u == v) continue;  // self-loop: internal at any site
    const bool was_crossing = part[u] != from;
    const bool now_crossing = part[u] != to;
    if (was_crossing == now_crossing) continue;
    if (was_crossing) {
      partitioning_.BumpCrossingEdges(-1);
      if (--crossing_count_[t.property] == 0) {
        partitioning_.SetCrossingProperty(t.property, false);
        weighted_lcross_ -= PropertyWeight(t.property);
      }
      --crossing_degree_[v];
      --crossing_degree_[u];
      tracker_.OnMigrateCrossingToInternal();
    } else {
      partitioning_.BumpCrossingEdges(+1);
      if (crossing_count_[t.property]++ == 0) {
        partitioning_.SetCrossingProperty(t.property, true);
        weighted_lcross_ += PropertyWeight(t.property);
      }
      ++crossing_degree_[v];
      ++crossing_degree_[u];
      tracker_.OnMigrateInternalToCrossing();
      // The forest may have unioned this edge while it was internal;
      // it cannot split, so count the staleness toward the
      // tombstone-triggered rebuild like an internal delete would.
      ++forest_stale_deletes_;
    }
  }
  part[v] = to;
  --partitioning_.mutable_partition(from).num_owned_vertices;
  ++partitioning_.mutable_partition(to).num_owned_vertices;
  // Union the edges that landed internal with an internal property into
  // the online forest (Def. 4.2 tracking; edges of a property still in
  // L_cross stay out of G[L_in]).
  for (const rdf::Triple& t : incident) {
    if (!IsLive(t)) continue;
    const rdf::VertexId u = t.subject == v ? t.object : t.subject;
    if (u == v) continue;
    if (part[u] == to && !partitioning_.IsCrossingProperty(t.property)) {
      forest_.Union(v, u);
    }
  }
  ++migrations_;
}

}  // namespace mpc::dynamic
