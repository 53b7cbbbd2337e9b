#include "exec/cluster.h"

#include <algorithm>
#include <utility>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "obs/trace.h"
#include "partition/partition_io.h"
#include "storage/delta_overlay.h"

namespace mpc::exec {

std::vector<rdf::Triple> SiteTriples(const partition::Partition& partition) {
  std::vector<rdf::Triple> triples;
  triples.reserve(partition.num_triples());
  triples.insert(triples.end(), partition.internal_edges.begin(),
                 partition.internal_edges.end());
  triples.insert(triples.end(), partition.crossing_edges.begin(),
                 partition.crossing_edges.end());
  return triples;
}

std::vector<uint8_t> PropertyPresence(const store::TripleSource& source,
                                      size_t num_properties) {
  std::vector<uint8_t> row(num_properties, 0);
  for (size_t p = 0; p < num_properties; ++p) {
    row[p] = source.PropertyCount(static_cast<rdf::PropertyId>(p)) > 0;
  }
  return row;
}

std::vector<uint8_t> PropertyPresence(const partition::Partition& partition,
                                      size_t num_properties) {
  std::vector<uint8_t> row(num_properties, 0);
  for (const auto* edges : {&partition.internal_edges,
                            &partition.crossing_edges}) {
    for (const rdf::Triple& t : *edges) row[t.property] = 1;
  }
  return row;
}

Status PackSegments(const partition::Partitioning& partitioning,
                    const std::string& dir, uint32_t block_size,
                    storage::SegmentWriteStats* stats) {
  Result<uint64_t> fingerprint = partition::PartitionIo::Fingerprint(dir);
  if (!fingerprint.ok()) return fingerprint.status();
  storage::SegmentWriterOptions options;
  options.block_size = block_size;
  options.k = partitioning.k();
  options.num_properties = partitioning.crossing_property_mask().size();
  // An edge-disjoint partitioning has no assignment: the writer then
  // derives each site's vertex universe from its triples.
  options.num_vertices = partitioning.assignment().part.size();
  options.partition_fingerprint = *fingerprint;
  const uint32_t k = partitioning.k();
  std::vector<storage::SegmentWriteStats> site(k);
  std::vector<Status> site_status(k);
  // Each site writes its own file from its own partition.
  ParallelFor(0, k, 1, /*num_threads=*/0, [&](size_t i) {
    storage::SegmentWriterOptions site_options = options;
    site_options.site = static_cast<uint32_t>(i);
    site_status[i] = storage::WriteSegment(
        storage::SegmentPath(dir, site_options.site),
        SiteTriples(partitioning.partition(site_options.site)), site_options,
        &site[i]);
  });
  storage::SegmentWriteStats total;
  for (uint32_t i = 0; i < k; ++i) {
    MPC_RETURN_IF_ERROR(site_status[i]);
    total.num_triples += site[i].num_triples;
    total.file_bytes += site[i].file_bytes;
    total.pso_blocks += site[i].pso_blocks;
    total.pos_blocks += site[i].pos_blocks;
  }
  if (stats != nullptr) *stats = total;
  return Status::Ok();
}

Result<storage::SegmentStore> OpenSiteSegment(const std::string& dir,
                                              uint32_t site,
                                              uint64_t fingerprint,
                                              std::optional<uint32_t> k) {
  Result<storage::SegmentStore> segment =
      storage::SegmentStore::Open(storage::SegmentPath(dir, site), fingerprint);
  if (!segment.ok()) return segment.status();
  const storage::SegmentHeader& header = segment->header();
  if (header.site != site || (k.has_value() && header.k != *k)) {
    std::string expected = std::to_string(site);
    if (k.has_value()) expected += '/' + std::to_string(*k);
    return Status::InvalidArgument(
        segment->path() + ": segment is for site " +
        std::to_string(header.site) + "/" + std::to_string(header.k) +
        ", expected " + expected);
  }
  return segment;
}

store::TripleStore DecodeToTripleStore(const store::TripleSource& source) {
  std::vector<rdf::Triple> triples;
  triples.reserve(source.num_triples());
  source.Scan(rdf::kInvalidVertex, rdf::kInvalidProperty, rdf::kInvalidVertex,
              [&triples](const rdf::Triple& t) {
                triples.push_back(t);
                return true;
              });
  return store::TripleStore(std::move(triples));
}

Cluster Cluster::Build(partition::Partitioning partitioning,
                       int num_threads) {
  const int threads = ResolveNumThreads(num_threads);
  Cluster cluster;
  cluster.partitioning_ = std::move(partitioning);
  const size_t k = cluster.partitioning_.k();
  cluster.stores_.resize(k);
  std::vector<double> site_millis(k, 0.0);
  // Sites touch disjoint store slots, so they build independently.
  ParallelFor(0, k, 1, threads, [&](size_t i) {
    std::vector<rdf::Triple> triples = SiteTriples(
        cluster.partitioning_.partition(static_cast<uint32_t>(i)));
    Timer timer;
    cluster.stores_[i] =
        std::make_shared<const store::TripleStore>(std::move(triples));
    site_millis[i] = timer.ElapsedMillis();
  });
  cluster.FillPropertyPresence();
  for (double ms : site_millis) {
    cluster.loading_millis_ = std::max(cluster.loading_millis_, ms);
  }
  return cluster;
}

void Cluster::FillPropertyPresence() {
  const size_t num_properties = partitioning_.crossing_property_mask().size();
  property_present_.clear();
  for (const auto& source : stores_) {
    property_present_.push_back(PropertyPresence(*source, num_properties));
  }
}

Result<Cluster> Cluster::BuildFromSegments(partition::Partitioning partitioning,
                                           const std::string& dir,
                                           int num_threads) {
  const int threads = ResolveNumThreads(num_threads);
  Result<uint64_t> fingerprint = partition::PartitionIo::Fingerprint(dir);
  if (!fingerprint.ok()) return fingerprint.status();

  Cluster cluster;
  cluster.partitioning_ = std::move(partitioning);
  const uint32_t k = cluster.partitioning_.k();
  cluster.stores_.resize(k);
  std::vector<double> site_millis(k, 0.0);
  std::vector<Status> site_status(k);
  ParallelFor(0, k, 1, threads, [&](size_t i) {
    Timer timer;
    Result<storage::SegmentStore> segment =
        OpenSiteSegment(dir, static_cast<uint32_t>(i), *fingerprint, k);
    if (!segment.ok()) {
      site_status[i] = segment.status();
      return;
    }
    cluster.stores_[i] =
        std::make_shared<const storage::SegmentStore>(std::move(*segment));
    site_millis[i] = timer.ElapsedMillis();
  });
  for (const Status& st : site_status) {
    if (!st.ok()) return st;
  }
  cluster.FillPropertyPresence();
  for (double ms : site_millis) {
    cluster.loading_millis_ = std::max(cluster.loading_millis_, ms);
  }
  return cluster;
}

Cluster Cluster::BuildOverlay(
    partition::Partitioning partitioning,
    std::vector<std::shared_ptr<const store::TripleSource>> bases,
    const std::vector<rdf::Triple>& added,
    const std::vector<rdf::Triple>& deleted) {
  Cluster cluster;
  cluster.partitioning_ = std::move(partitioning);
  const size_t k = cluster.partitioning_.k();
  Timer timer;
  // A triple lives at its subject's owner site and (when crossing) its
  // object's owner too — the vertex-disjoint placement rule — so each
  // delta triple is routed to every site whose copy it affects.
  const partition::VertexAssignment& assignment =
      cluster.partitioning_.assignment();
  std::vector<std::vector<rdf::Triple>> site_added(k);
  std::vector<std::vector<rdf::Triple>> site_deleted(k);
  auto route = [&](const rdf::Triple& t,
                   std::vector<std::vector<rdf::Triple>>& out) {
    if (t.subject >= assignment.part.size() ||
        t.object >= assignment.part.size()) {
      return;  // vertex unknown to this partitioning: affects no site
    }
    const uint32_t so = assignment.part[t.subject];
    const uint32_t oo = assignment.part[t.object];
    out[so].push_back(t);
    if (oo != so) out[oo].push_back(t);
  };
  for (const rdf::Triple& t : added) route(t, site_added);
  for (const rdf::Triple& t : deleted) route(t, site_deleted);

  cluster.stores_.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    cluster.stores_.push_back(std::make_shared<storage::DeltaOverlaySource>(
        bases[i], std::move(site_added[i]), std::move(site_deleted[i])));
  }
  cluster.FillPropertyPresence();
  cluster.loading_millis_ = timer.ElapsedMillis();
  return cluster;
}

ReplicaCoverage ClusterBackend::ComputeReplicaCoverage(
    const SiteAvailability& avail) const {
  ReplicaCoverage coverage;
  if (avail.num_down() == 0) return coverage;
  const bool vertex_disjoint =
      partitioning_.kind() == partition::PartitioningKind::kVertexDisjoint;
  if (!vertex_disjoint) {
    // Edge-disjoint (VP): no replication at all — a down site's triples
    // are simply gone.
    for (uint32_t site : avail.DownSites()) {
      coverage.lost_triples += partitioning_.partition(site).num_triples();
    }
    return coverage;
  }

  const partition::VertexAssignment& assignment = partitioning_.assignment();
  // Distinct down-owned vertices with a live replica: walk the live
  // sites' extended-vertex lists (already sorted, deduped per site).
  std::vector<uint8_t> replicated(assignment.part.size(), 0);
  for (uint32_t site = 0; site < k(); ++site) {
    if (!avail.IsUp(site)) continue;
    for (rdf::VertexId v : partitioning_.partition(site).extended_vertices) {
      if (!avail.IsUp(assignment.part[v])) replicated[v] = 1;
    }
  }
  for (uint32_t site : avail.DownSites()) {
    const partition::Partition& p = partitioning_.partition(site);
    coverage.failed_owned_vertices += p.num_owned_vertices;
    // Internal edges exist only at the owner: all lost.
    coverage.lost_triples += p.internal_edges.size();
    // A crossing edge survives unless both endpoint owners are down; it
    // is stored at both, so count it once (at the smaller owner).
    for (const rdf::Triple& t : p.crossing_edges) {
      const uint32_t so = assignment.part[t.subject];
      const uint32_t oo = assignment.part[t.object];
      if (!avail.IsUp(so) && !avail.IsUp(oo) && site == std::min(so, oo)) {
        ++coverage.lost_triples;
      }
    }
  }
  for (size_t v = 0; v < replicated.size(); ++v) {
    coverage.replicated_on_live += replicated[v];
  }
  return coverage;
}

void ClusterBackend::EvaluateOnSites(std::span<const uint32_t> sites,
                                     const store::ResolvedQuery& resolved,
                                     const SiteEvalRequest& request,
                                     const SiteCallPolicy& policy,
                                     int num_threads,
                                     std::span<SiteEvalReply> replies,
                                     std::span<Status> statuses) const {
  // Pool threads have no ambient span state; hand them this thread's
  // context so their site spans stay inside the caller's trace.
  const obs::TraceContext trace_ctx = obs::CurrentTraceContext();
  ParallelFor(0, sites.size(), 1, num_threads, [&](size_t s) {
    obs::ScopedTraceContext scoped_ctx(trace_ctx);
    obs::TraceSpan span("exec.site.eval");
    statuses[s] =
        EvaluateOnSite(sites[s], resolved, request, policy, &replies[s]);
    span.Attr("site", sites[s])
        .Attr("rows", static_cast<uint64_t>(replies[s].table.num_rows()))
        .Attr("eval_ms", replies[s].eval_millis)
        .Attr("ok", statuses[s].ok() ? 1 : 0);
  });
}

namespace {

/// The star constant of a sub-BGP: a vertex c the partitioning knows
/// (`c < part.size()`) that every pattern has as subject or object.
std::optional<rdf::VertexId> StarConstant(
    const store::ResolvedQuery& resolved,
    std::span<const size_t> pattern_indices,
    const std::vector<uint32_t>& part) {
  if (pattern_indices.empty()) return std::nullopt;
  const store::ResolvedPattern& first = resolved.patterns[pattern_indices[0]];
  for (const auto& [is_var, c] : {std::pair(first.s_is_var, first.s),
                                  std::pair(first.o_is_var, first.o)}) {
    if (is_var || c >= part.size()) continue;
    const bool touches_all = std::all_of(
        pattern_indices.begin(), pattern_indices.end(), [&](size_t idx) {
          const store::ResolvedPattern& p = resolved.patterns[idx];
          return (!p.s_is_var && p.s == c) || (!p.o_is_var && p.o == c);
        });
    if (touches_all) return c;
  }
  return std::nullopt;
}

}  // namespace

SiteSelection SelectSites(const ClusterBackend& cluster,
                          const store::ResolvedQuery& resolved,
                          const std::vector<bool>& crossing_pattern,
                          std::span<const size_t> pattern_indices) {
  SiteSelection selection;
  // A pattern naming a term the data lacks matches nowhere.
  if (std::any_of(pattern_indices.begin(), pattern_indices.end(),
                  [&](size_t idx) {
                    return resolved.patterns[idx].impossible;
                  })) {
    return selection;
  }
  const partition::Partitioning& partitioning = cluster.partitioning();
  // Ownership: an internal triple is stored at its subject's owner only,
  // which is also its object's owner, so a non-crossing pattern with a
  // constant endpoint c matches at owner(c) alone. Two such constants
  // with different owners leave no site at all.
  if (partitioning.kind() == partition::PartitioningKind::kVertexDisjoint) {
    const std::vector<uint32_t>& part = partitioning.assignment().part;
    for (size_t idx : pattern_indices) {
      const store::ResolvedPattern& p = resolved.patterns[idx];
      if (p.p_is_var || crossing_pattern[idx]) continue;
      for (const auto& [is_var, c] : {std::pair(p.s_is_var, p.s),
                                      std::pair(p.o_is_var, p.o)}) {
        if (is_var || c >= part.size()) continue;
        if (!selection.owner_constant.has_value()) {
          selection.owner_constant = c;
          selection.owner = part[c];
        } else if (part[c] != selection.owner) {
          return selection;
        }
      }
    }
    // The star rule: every triple incident to c is stored at owner(c),
    // a crossing one at its other endpoint's owner too.
    if (!selection.owner_constant.has_value()) {
      selection.owner_constant =
          StarConstant(resolved, pattern_indices, part);
      if (selection.owner_constant.has_value()) {
        selection.owner = part[*selection.owner_constant];
        selection.star = true;
      }
    }
  }
  // Property presence: a site lacking a constant predicate the sub-BGP
  // requires cannot match it.
  auto relevant = [&](uint32_t site) {
    return std::all_of(pattern_indices.begin(), pattern_indices.end(),
                       [&](size_t idx) {
                         const store::ResolvedPattern& p =
                             resolved.patterns[idx];
                         return p.p_is_var ||
                                cluster.SiteHasProperty(site, p.p);
                       });
  };
  if (selection.owner_constant.has_value()) {
    // An owner lacking a required property leaves no match anywhere:
    // every match a replica could give is also the owner's.
    if (!relevant(selection.owner)) return selection;
    selection.sites.push_back(selection.owner);
    if (!selection.star) return selection;
  }
  // Without an owner these are the sites to ask; for a star, the ones
  // holding its crossing triples' replicas.
  std::vector<uint32_t>& rest =
      selection.star ? selection.failover : selection.sites;
  for (uint32_t site = 0; site < cluster.k(); ++site) {
    if (site == selection.owner && selection.star) continue;
    if (relevant(site)) rest.push_back(site);
  }
  return selection;
}

store::BindingTable SchemaTable(const store::ResolvedQuery& resolved,
                                std::span<const size_t> pattern_indices) {
  // Mirrors BgpMatcher::Evaluate's column contract: variables used by
  // the selected patterns (impossible ones included), ascending.
  std::vector<uint32_t> columns;
  for (size_t idx : pattern_indices) {
    const store::ResolvedPattern& p = resolved.patterns[idx];
    if (p.s_is_var) columns.push_back(p.s);
    if (p.p_is_var) columns.push_back(p.p);
    if (p.o_is_var) columns.push_back(p.o);
  }
  std::sort(columns.begin(), columns.end());
  columns.erase(std::unique(columns.begin(), columns.end()), columns.end());
  store::BindingTable table;
  table.var_ids = std::move(columns);
  return table;
}

SiteEvalReply EvaluateSiteRequest(const store::TripleSource& store,
                                  const store::ResolvedQuery& resolved,
                                  const SiteEvalRequest& request) {
  SiteEvalReply reply;
  Timer timer;
  store::BgpMatcher::Options matcher_options;
  matcher_options.max_results = request.max_rows;
  store::BindingTable local = store::BgpMatcher::Evaluate(
      store, resolved, request.pattern_indices, matcher_options);
  if (request.var_filters != nullptr) {
    // Drop rows whose join keys cannot match any earlier subquery's
    // bindings; this happens site-side, before shipping.
    const auto& filters = *request.var_filters;
    size_t kept = 0;
    for (size_t r = 0; r < local.rows.size(); ++r) {
      bool may_join = true;
      for (size_t col = 0; col < local.var_ids.size(); ++col) {
        const auto& filter = filters[local.var_ids[col]];
        if (filter != nullptr && !filter->MayContain(local.rows[r][col])) {
          may_join = false;
          break;
        }
      }
      if (may_join) {
        // Guard against self-move: moving rows[r] onto itself would
        // leave an empty row behind.
        if (kept != r) local.rows[kept] = std::move(local.rows[r]);
        ++kept;
      }
    }
    reply.bloom_dropped = local.rows.size() - kept;
    local.rows.resize(kept);
  }
  // The coordinator merges the sites' sorted replies instead of sorting
  // their union.
  local.Deduplicate();
  reply.eval_millis = timer.ElapsedMillis();
  reply.table = std::move(local);
  return reply;
}

Status Cluster::EvaluateOnSite(uint32_t site,
                               const store::ResolvedQuery& resolved,
                               const SiteEvalRequest& request,
                               const SiteCallPolicy& /*policy*/,
                               SiteEvalReply* reply) const {
  *reply = EvaluateSiteRequest(*stores_[site], resolved, request);
  return Status::Ok();
}

size_t Cluster::MemoryUsage() const {
  size_t bytes = 0;
  for (const auto& s : stores_) bytes += s->MemoryUsage();
  return bytes;
}

}  // namespace mpc::exec
