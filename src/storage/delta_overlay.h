#ifndef MPC_STORAGE_DELTA_OVERLAY_H_
#define MPC_STORAGE_DELTA_OVERLAY_H_

#include <memory>
#include <span>
#include <unordered_set>
#include <vector>

#include "rdf/types.h"
#include "store/triple_source.h"

namespace mpc::storage {

/// A TripleSource presenting `(base ∪ added) \ deleted` — the dynamic
/// maintainer's live-set equation — without touching the immutable base.
/// This is how IncrementalMaintainer stays correct atop on-disk
/// segments: the segment is the snapshot, the overlay carries the
/// add/tombstone sets, and a captured serving state composes them
/// per site instead of rebuilding four sort indexes per generation.
///
/// Construction normalizes the deltas against the base (point lookups,
/// O(|delta| log) once) into
///   plus_  = added \ deleted \ base   (strictly new triples)
///   minus_ = deleted ∩ base           (tombstones that actually hit)
/// so scans are a two-way ordered merge of base and plus_ with minus_
/// membership skips (a pattern with its property bound takes its adds
/// as one sorted range of plus_ or of its POS-sorted copy), and every
/// cardinality is base-exact plus/minus the matching delta counts —
/// preserving both halves of the TripleSource contract (emission order
/// AND exact estimates), which keeps query results bit-identical to a
/// freshly built in-memory store of the live set.
class DeltaOverlaySource final : public store::TripleSource {
 public:
  DeltaOverlaySource(std::shared_ptr<const store::TripleSource> base,
                     std::vector<rdf::Triple> added,
                     std::vector<rdf::Triple> deleted);

  size_t num_triples() const override { return num_triples_; }
  size_t PropertyCount(rdf::PropertyId p) const override;
  bool Scan(rdf::VertexId s, rdf::PropertyId p, rdf::VertexId o,
            store::ScanFn fn) const override;
  size_t EstimateCardinality(rdf::VertexId s, rdf::PropertyId p,
                             rdf::VertexId o) const override;
  size_t MemoryUsage() const override;

  size_t num_added() const { return plus_.size(); }
  size_t num_tombstoned() const { return minus_vec_.size(); }
  const store::TripleSource& base() const { return *base_; }

 private:
  /// The adds matching (s, p, o) with p bound, in that combination's
  /// emission order: one equal range of plus_ or plus_pos_.
  std::span<const rdf::Triple> PropertyAdds(rdf::VertexId s,
                                            rdf::PropertyId p,
                                            rdf::VertexId o) const;

  std::shared_ptr<const store::TripleSource> base_;
  /// Sorted PSO; disjoint from base and from minus_.
  std::vector<rdf::Triple> plus_;
  /// plus_ sorted POS, for the (p, o) ranges.
  std::vector<rdf::Triple> plus_pos_;
  /// Sorted PSO; every entry present in base.
  std::vector<rdf::Triple> minus_vec_;
  /// Same set as minus_vec_, hashed for O(1) skips during scans.
  std::unordered_set<rdf::Triple> minus_;
  size_t num_triples_ = 0;
};

}  // namespace mpc::storage

#endif  // MPC_STORAGE_DELTA_OVERLAY_H_
