#ifndef MPC_EXEC_CLUSTER_H_
#define MPC_EXEC_CLUSTER_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/bloom_filter.h"
#include "exec/network_model.h"
#include "partition/partitioning.h"
#include "rdf/graph.h"
#include "storage/segment_store.h"
#include "storage/segment_writer.h"
#include "store/bgp_matcher.h"
#include "store/triple_source.h"
#include "store/triple_store.h"

namespace mpc::exec {

// --- How a site's store comes into being -------------------------------
// Every backend (in-process Cluster, `mpc site` worker, `mpc pack`) builds
// a site from these, so the stored triples, the property-presence rule
// and the segment checks are the same everywhere. A worker loads only
// the segment its coordinator packed (RemoteCluster::Start).

/// The triples a site stores (Def. 3.3-3.4): its partition's internal
/// edges followed by the 1-hop crossing-edge replicas.
std::vector<rdf::Triple> SiteTriples(const partition::Partition& partition);

/// One site's property-presence row: entry p is 1 iff the site stores a
/// triple with property p, for p < num_properties. From the site's
/// store (in-process backends and workers) ...
std::vector<uint8_t> PropertyPresence(const store::TripleSource& source,
                                      size_t num_properties);
/// ... or from its partition, for a coordinator that holds no stores.
std::vector<uint8_t> PropertyPresence(const partition::Partition& partition,
                                      size_t num_properties);

/// Writes every site's SiteTriples as `partition_<i>.mpcseg` into `dir`
/// (where `partitioning` was saved), each stamped with the directory's
/// PartitionIo fingerprint. Needs no graph: the property universe is the
/// crossing-property mask's size, the vertex universe the assignment's
/// (an edge-disjoint partitioning has none, so each site's is derived
/// from its triples). The sites are written concurrently; the bytes are
/// those of a serial write. `stats`, if given, receives the totals over
/// all sites.
Status PackSegments(const partition::Partitioning& partitioning,
                    const std::string& dir,
                    uint32_t block_size = storage::kDefaultBlockSize,
                    storage::SegmentWriteStats* stats = nullptr);

/// Opens site `site`'s segment in `dir`. Refuses (InvalidArgument) a
/// segment packed for another partitioning (`fingerprint` is
/// PartitionIo::Fingerprint(dir)), for another site, or — when `k` is
/// given — for another site count.
Result<storage::SegmentStore> OpenSiteSegment(const std::string& dir,
                                              uint32_t site,
                                              uint64_t fingerprint,
                                              std::optional<uint32_t> k);

/// An in-memory TripleStore holding exactly `source`'s triples, read
/// with one all-unbound Scan. A worker decodes its segment with it and
/// serves from the result, so its site is the TripleStore the in-process
/// Cluster builds from SiteTriples.
store::TripleStore DecodeToTripleStore(const store::TripleSource& source);

/// The coordinator's per-query view of which sites are reachable. A
/// crash marks the site down for the rest of the query (fail-stop); the
/// Cluster itself stays immutable, so concurrent queries each keep their
/// own view.
class SiteAvailability {
 public:
  SiteAvailability() = default;
  explicit SiteAvailability(uint32_t k) : up_(k, 1) {}

  bool IsUp(uint32_t site) const { return up_[site] != 0; }
  void MarkDown(uint32_t site) { up_[site] = 0; }
  uint32_t k() const { return static_cast<uint32_t>(up_.size()); }

  uint32_t num_down() const {
    uint32_t n = 0;
    for (uint8_t u : up_) n += (u == 0);
    return n;
  }
  std::vector<uint32_t> DownSites() const {
    std::vector<uint32_t> down;
    for (uint32_t i = 0; i < up_.size(); ++i) {
      if (up_[i] == 0) down.push_back(i);
    }
    return down;
  }

 private:
  std::vector<uint8_t> up_;
};

/// How much of the down sites' data is still reachable somewhere, from
/// the 1-hop crossing-edge replication (Def. 3.3-3.4). Feeds the
/// best-effort completeness bound in ExecutionStats.
struct ReplicaCoverage {
  /// Vertices owned by down sites.
  size_t failed_owned_vertices = 0;
  /// Of those, how many appear as extended vertices of a live site —
  /// every crossing edge at such a vertex survives on the live replica.
  size_t replicated_on_live = 0;
  /// Triples stored only at down sites (edge-disjoint partitionings lose
  /// all of a site's triples; vertex-disjoint ones only the internal
  /// edges whose endpoints have no live replica copy).
  size_t lost_triples = 0;
};

/// One site-subquery evaluation order, as shipped to a site: the sub-BGP
/// (indices into a coordinator-resolved query), the row cap, and the
/// optional WORQ-style per-variable Bloom filters the site applies before
/// shipping rows back.
struct SiteEvalRequest {
  std::span<const size_t> pattern_indices;
  size_t max_rows = SIZE_MAX;
  /// Indexed by query var id; null entries mean no filter. Applied
  /// site-side so definitely-non-joining rows never cross the wire.
  const std::vector<std::unique_ptr<BloomFilter>>* var_filters = nullptr;
};

/// What a site answers with. On failure (a real transport's, or one the
/// FaultModel wrapper simulates), the call still fills the retry/wait
/// accounting so the coordinator's stats stay truthful.
struct SiteEvalReply {
  store::BindingTable table;
  /// Rows dropped site-side by the Bloom filters.
  size_t bloom_dropped = 0;
  /// Site-side evaluation time (wall-clock at the site).
  double eval_millis = 0.0;
  /// Transport waiting: retry backoff, blown deadlines, reconnects
  /// (wall-clock for real transports; the FaultModel wrapper adds its
  /// simulated waits here).
  double wait_millis = 0.0;
  /// Transport-level retries actually performed.
  int retries = 0;
  /// With an Unavailable status: the site only ran out of retries on
  /// transient errors and stays up for later subqueries. Unavailable
  /// without it is fail-stop — the site is down for the rest of the
  /// query.
  bool transient = false;
};

/// Evaluation schedule knobs a backend applies to real RPCs; mirrors the
/// NetworkModel fields the simulator charges to virtual time.
struct SiteCallPolicy {
  /// Per-attempt deadline in ms; 0 = no deadline (a generous transport
  /// default still bounds the wait so a hung site cannot wedge a query).
  double timeout_ms = 0.0;
  /// Retries after the first attempt.
  int max_retries = 0;
  /// Exponential backoff base between attempts.
  double backoff_ms = 1.0;

  /// `net`'s deadline, retry and backoff settings, so one configuration
  /// governs simulated and real calls.
  static SiteCallPolicy FromNetwork(const NetworkModel& net) {
    return {net.site_timeout_ms, net.max_retries, net.retry_backoff_ms};
  }
};

/// Abstract coordinator-side view of the k partition sites. Everything
/// the DistributedExecutor needs is either derivable from the
/// partitioning (owned here) or a site evaluation: EvaluateOnSite for
/// one site, EvaluateOnSites for one scatter step over many. Two
/// implementations exist — `Cluster`, the deterministic in-process
/// simulator (k TripleStores, modeled network/faults), and
/// `RemoteCluster`, k `mpc site` worker processes spoken to over
/// checksummed socket RPC, where crashes, timeouts and torn connections
/// are real.
class ClusterBackend {
 public:
  virtual ~ClusterBackend() = default;

  uint32_t k() const { return partitioning_.k(); }
  const partition::Partitioning& partitioning() const {
    return partitioning_;
  }

  /// True iff site i stores at least one triple with property p. The
  /// executor uses this to localize queries: a sub-BGP requiring a
  /// property absent at a site cannot match there, so the site is not
  /// contacted at all (the "localization" the paper defers as future
  /// work, in its simplest sound form).
  bool SiteHasProperty(uint32_t i, rdf::PropertyId p) const {
    return p < property_present_[i].size() && property_present_[i][p] != 0;
  }

  /// Fresh availability view with every site up.
  SiteAvailability AllUp() const { return SiteAvailability(k()); }

  /// |V_i| for vertex-disjoint partitionings (0 for edge-disjoint).
  size_t OwnedVertexCount(uint32_t site) const {
    return partitioning_.partition(site).num_owned_vertices;
  }

  /// Replica lookup for failover: quantifies, for the sites `avail`
  /// marks down, what survives on live sites via 1-hop crossing-edge
  /// replication. This is the data-path justification for best-effort
  /// answers — live sites already hold (and evaluate) the replicated
  /// crossing edges of a dead site, so those matches are served without
  /// contacting it. Pure function of the partitioning: identical for
  /// simulated and real clusters.
  ReplicaCoverage ComputeReplicaCoverage(const SiteAvailability& avail) const;

  /// Max per-site index build time, ms (the Table VI "Loading" analogue).
  double loading_millis() const { return loading_millis_; }

  /// Sum of store footprints in bytes (worker-reported for remote sites).
  virtual size_t MemoryUsage() const = 0;

  /// Evaluates `request`'s sub-BGP of `resolved` at `site`. Errors
  /// (Unavailable for a dead site / exhausted retries, DeadlineExceeded
  /// for blown deadlines) only come from remote backends — the
  /// simulator's failures are injected by FaultModel instead. `policy`
  /// bounds real transport attempts and is ignored in-process.
  virtual Status EvaluateOnSite(uint32_t site,
                                const store::ResolvedQuery& resolved,
                                const SiteEvalRequest& request,
                                const SiteCallPolicy& policy,
                                SiteEvalReply* reply) const = 0;

  /// One scatter step: evaluates `request` at every site of `sites`
  /// (distinct), leaving sites[i]'s answer in replies[i] and statuses[i]
  /// (both sized like `sites`), with EvaluateOnSite's error contract per
  /// site. The executor's one data-path call (made through
  /// FaultModel::EvaluateOnSites). This default runs EvaluateOnSite per
  /// site on up to `num_threads` threads (0 = hardware concurrency),
  /// each under an `exec.site.eval` span in the caller's trace; every
  /// reply lands in its own slot, so the outcome is identical at any
  /// thread count. RemoteCluster overrides it to send the request to
  /// every site before reading any reply.
  virtual void EvaluateOnSites(std::span<const uint32_t> sites,
                               const store::ResolvedQuery& resolved,
                               const SiteEvalRequest& request,
                               const SiteCallPolicy& policy, int num_threads,
                               std::span<SiteEvalReply> replies,
                               std::span<Status> statuses) const;

 protected:
  ClusterBackend() = default;
  ClusterBackend(const ClusterBackend&) = default;
  ClusterBackend& operator=(const ClusterBackend&) = default;
  ClusterBackend(ClusterBackend&&) = default;
  ClusterBackend& operator=(ClusterBackend&&) = default;

  partition::Partitioning partitioning_;
  /// Per-site PropertyPresence rows.
  std::vector<std::vector<uint8_t>> property_present_;
  double loading_millis_ = 0.0;
};

/// Where one sub-BGP is sent: the query localization the paper leaves
/// as future work (Section V-B2), in three sound forms.
struct SiteSelection {
  /// The sites to contact, ascending.
  std::vector<uint32_t> sites;
  /// Set when an ownership rule applied: `owner` is the one site that
  /// holds every triple the sub-BGP can match, and `owner_constant` the
  /// constant that names it.
  std::optional<rdf::VertexId> owner_constant;
  uint32_t owner = 0;
  /// Set when the star rule alone applied: every pattern has
  /// `owner_constant` as subject or object, crossing patterns included.
  bool star = false;
  /// For a star: the other sites property presence keeps. They hold the
  /// 1-hop replicas of the star's crossing triples, so under kBestEffort
  /// a failed `owner` is replaced by them within the same step, and the
  /// answer is the one asking them all would have given.
  std::vector<uint32_t> failover;
};

/// The sites that can hold a match of the sub-BGP `pattern_indices` of
/// `resolved`; `crossing_pattern` is the plan's per-pattern crossing
/// flag (Classification::crossing_pattern). No site is selected when a
/// pattern is `impossible` (a constant the dictionaries lack). A site is
/// skipped when
///  - it stores no triple with some constant predicate the sub-BGP
///    requires (property presence), or
///  - on a vertex-disjoint partitioning, a pattern with a constant,
///    non-crossing predicate has a constant subject or object c and the
///    site is not owner(c) (ownership: such a triple is internal, so it
///    is stored at owner(c) only), or
///  - on a vertex-disjoint partitioning, every pattern has one constant
///    c as subject or object and the site is not owner(c) (the star
///    rule: every triple incident to c, internal or crossing, is stored
///    at owner(c)).
/// A constant the partitioning does not know skips both ownership
/// rules. On an edge-disjoint (VP) partitioning a property is stored at
/// its home site only, so presence alone selects that site (all k for a
/// variable predicate). DESIGN.md §5 has the proof. Both the executor
/// and `mpc explain` select sites here.
SiteSelection SelectSites(const ClusterBackend& cluster,
                          const store::ResolvedQuery& resolved,
                          const std::vector<bool>& crossing_pattern,
                          std::span<const size_t> pattern_indices);

/// The empty BindingTable a sub-BGP would produce: columns are exactly
/// the variables its patterns use, ascending by var id (the matcher's
/// column contract). Lets the coordinator synthesize result schemas for
/// subqueries every site pruned or failed — without a store and without
/// an RPC.
store::BindingTable SchemaTable(const store::ResolvedQuery& resolved,
                                std::span<const size_t> pattern_indices);

/// An in-process stand-in for the paper's 8-machine deployment: k
/// per-site TripleSources, one per partition, each holding that
/// partition's internal edges plus crossing-edge replicas. The backend
/// per site is interchangeable — in-memory TripleStore (Build), mmap'ed
/// compressed SegmentStore (BuildFromSegments), or segment + delta
/// overlay for the dynamic path (BuildOverlay) — with bit-identical
/// query results. Loading time (index build / segment open) is measured
/// per site; the reported figure is the maximum across sites, matching
/// parallel loading on a real cluster. Kept as the deterministic test
/// mode now that RemoteCluster runs the same partitionings as real
/// worker processes.
class Cluster final : public ClusterBackend {
 public:
  Cluster() = default;

  /// Builds the per-site in-memory stores from a materialized
  /// partitioning. The partitioning is moved in and retained (the
  /// executor needs its crossing-property mask). Sites are independent,
  /// so with num_threads > 1 (0 = hardware_concurrency) their indexes
  /// build concurrently — mirroring what a real cluster does anyway —
  /// with identical resulting stores at any thread count.
  static Cluster Build(partition::Partitioning partitioning,
                       int num_threads = 1);

  /// Opens `mpc pack`'s per-site segments from `dir` (OpenSiteSegment,
  /// with the site count checked) instead of building in-memory
  /// indexes: cold start maps files and reads TOCs rather than sorting
  /// four copies per site. The partitioning is still moved in for the
  /// executor's metadata (masks, ownership).
  static Result<Cluster> BuildFromSegments(
      partition::Partitioning partitioning, const std::string& dir,
      int num_threads = 1);

  /// Composes immutable per-site base sources with the dynamic
  /// maintainer's add/tombstone sets: site i serves
  /// (base_i ∪ added_i) \ deleted_i through a DeltaOverlaySource, so a
  /// serving snapshot of a maintained graph never rebuilds the heavy
  /// indexes. `partitioning` must be the maintained (vertex-disjoint)
  /// partitioning the bases were packed for, with ownership unchanged
  /// since pack time (i.e. no repartition) — callers enforce that.
  static Cluster BuildOverlay(
      partition::Partitioning partitioning,
      std::vector<std::shared_ptr<const store::TripleSource>> bases,
      const std::vector<rdf::Triple>& added,
      const std::vector<rdf::Triple>& deleted);

  const store::TripleSource& site(uint32_t i) const { return *stores_[i]; }
  /// Shared handles to the site sources (so a later overlay build can
  /// reuse them as bases without reopening).
  const std::vector<std::shared_ptr<const store::TripleSource>>& sources()
      const {
    return stores_;
  }

  size_t MemoryUsage() const override;

  /// In-process evaluation: BgpMatcher over the site's store plus the
  /// site-side Bloom reduction. Never fails; timing lands in
  /// reply->eval_millis.
  Status EvaluateOnSite(uint32_t site, const store::ResolvedQuery& resolved,
                        const SiteEvalRequest& request,
                        const SiteCallPolicy& policy,
                        SiteEvalReply* reply) const override;

 private:
  /// Derives property_present_ from the constructed sources.
  void FillPropertyPresence();

  // shared_ptr, not unique_ptr: Cluster stays copyable (copies share
  // the immutable sources), and overlay clusters alias their bases.
  std::vector<std::shared_ptr<const store::TripleSource>> stores_;
};

/// Runs the matcher, applies the request's Bloom filters and sorts and
/// deduplicates the rows — the site-side half of one evaluation, shared
/// verbatim by the in-process Cluster and the `mpc site` worker process
/// so their tables are bit-identical (for any TripleSource backend). The
/// reply's rows are strictly ascending, which the coordinator's merge
/// relies on and checks.
SiteEvalReply EvaluateSiteRequest(const store::TripleSource& store,
                                  const store::ResolvedQuery& resolved,
                                  const SiteEvalRequest& request);

}  // namespace mpc::exec

#endif  // MPC_EXEC_CLUSTER_H_
