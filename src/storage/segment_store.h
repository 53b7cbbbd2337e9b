#ifndef MPC_STORAGE_SEGMENT_STORE_H_
#define MPC_STORAGE_SEGMENT_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "rdf/types.h"
#include "storage/segment_format.h"
#include "store/triple_source.h"

namespace mpc::storage {

/// Every kRestartInterval-th triple of a block is a restart point of
/// SegmentStore's in-heap index. A restart costs 16 B, so the index
/// takes about 1 B per triple per run.
inline constexpr uint32_t kRestartInterval = 16;

/// Read-only TripleSource over one mmap'ed `.mpcseg` segment — the
/// compressed out-of-core backend. Opening maps the file, reads the
/// header and TOC, and checksums and decodes every block in one
/// sequential pass, keeping an in-heap restart index (every
/// kRestartInterval-th key of each block and the payload offset after
/// it). A bound (p,s), (p,o) or (p,s,o) probe binary-searches the block
/// TOC, then the block's restarts, and decodes at most kRestartInterval
/// triples before its first match, so its work is proportional to the
/// matching data, not the block or the partition. Unbound-predicate
/// sweeps decode the blocks the zone maps cannot rule out. Emission
/// order and cardinalities follow the TripleSource contract
/// bit-for-bit, so a SegmentStore is interchangeable with the in-memory
/// TripleStore anywhere in the executor.
///
/// Thread-safe for concurrent scans (the mapping and the restart index
/// are immutable; the only mutable state is the relaxed stats
/// counters).
class SegmentStore final : public store::TripleSource {
 public:
  /// Maps and validates `path`: every block payload checksum, and every
  /// block must decode cleanly to keys that match its TOC first/last
  /// keys (one sequential pass over the file, which also builds the
  /// restart index). Torn, truncated, garbage or undecodable files
  /// return ParseError; nothing is allocated based on unvalidated
  /// sizes. When `expected_fingerprint` is nonzero, the segment's
  /// stamped partition fingerprint must match (InvalidArgument
  /// otherwise) — a segment packed for a different partitioning must
  /// never serve its queries.
  static Result<SegmentStore> Open(const std::string& path,
                                   uint64_t expected_fingerprint = 0);

  SegmentStore(SegmentStore&& other) noexcept;
  SegmentStore& operator=(SegmentStore&& other) noexcept;
  SegmentStore(const SegmentStore&) = delete;
  SegmentStore& operator=(const SegmentStore&) = delete;
  ~SegmentStore() override;

  // TripleSource interface.
  size_t num_triples() const override {
    return static_cast<size_t>(header_.num_triples);
  }
  size_t PropertyCount(rdf::PropertyId p) const override;
  bool Scan(rdf::VertexId s, rdf::PropertyId p, rdf::VertexId o,
            store::ScanFn fn) const override;
  size_t EstimateCardinality(rdf::VertexId s, rdf::PropertyId p,
                             rdf::VertexId o) const override;
  /// Mapped file bytes plus the in-heap TOC mirror and restart index —
  /// the resident ceiling; actual residency is only the pages scans
  /// touched.
  size_t MemoryUsage() const override;

  const SegmentHeader& header() const { return header_; }
  size_t file_size() const { return size_; }
  const std::string& path() const { return path_; }

  /// Scan-pruning counters (relaxed; for benches and tests).
  uint64_t blocks_decoded() const {
    return stats_->decoded.load(std::memory_order_relaxed);
  }
  uint64_t blocks_pruned() const {
    return stats_->pruned.load(std::memory_order_relaxed);
  }

  /// Exhaustive offline validation (the `segment_check` tool): decodes
  /// every block of both runs and re-derives what the TOC asserts —
  /// strict global sort order, per-block first/last keys and zone maps,
  /// per-property counts and block ranges. ParseError naming the first
  /// violated invariant.
  Status DeepCheck() const;

 private:
  /// Per-instance counters, mirrored into the global obs registry
  /// (storage.segment.*) so a live server's pruning behaviour is
  /// visible to `mpc top` without plumbing store handles around. The
  /// registry pointers are resolved once at Open; the per-instance
  /// atomics stay authoritative for the accessors below.
  struct ScanStats {
    std::atomic<uint64_t> decoded{0};
    std::atomic<uint64_t> pruned{0};
    obs::Counter* global_decoded = nullptr;
    obs::Counter* global_pruned = nullptr;

    void IncDecoded() {
      decoded.fetch_add(1, std::memory_order_relaxed);
      if (global_decoded != nullptr) global_decoded->Inc();
    }
    void IncPruned() {
      pruned.fetch_add(1, std::memory_order_relaxed);
      if (global_pruned != nullptr) global_pruned->Inc();
    }
  };

  /// One restart point: a triple's key and the payload offset just
  /// after it, from which BlockDecoder::ResumeAfter continues.
  struct Restart {
    Key3 key;
    uint32_t pos;
  };

  /// One sorted run: its TOC block metas and its restart index. Block
  /// i's restarts are restarts[restart_begin[i] .. restart_begin[i+1]);
  /// restart j of a block is its ((j+1) * kRestartInterval)-th triple.
  struct Run {
    std::vector<BlockMeta> metas;
    std::vector<Restart> restarts;
    std::vector<size_t> restart_begin;
  };

  SegmentStore() = default;

  const Run& run(RunOrder order) const {
    return order == RunOrder::kPso ? pso_ : pos_;
  }
  const std::vector<BlockMeta>& metas(RunOrder order) const {
    return run(order).metas;
  }
  const uint8_t* BlockPayload(RunOrder run, size_t index) const;
  /// Decodes every block of `order` once: refuses a block that does not
  /// decode cleanly or whose keys disagree with its TOC first/last key,
  /// and records its restart points.
  Status BuildRestartIndex(RunOrder order);
  /// A decoder over block `index` of `run`, resumed just after the last
  /// restart whose key is below `bound` (`inclusive`: not above it), or
  /// at the block start when there is none. `*skipped` receives the
  /// number of triples before the resume point.
  BlockDecoder SeekBlock(RunOrder run, size_t index, const Key3& bound,
                         bool inclusive, uint32_t* skipped) const;
  /// Number of block `index`'s triples with key below `bound`
  /// (`inclusive`: not above it); decodes at most kRestartInterval
  /// triples.
  uint32_t RankInBlock(RunOrder run, size_t index, const Key3& bound,
                       bool inclusive) const;
  /// The query-time decode step shared by every scan: counts block
  /// `index` of `run` as decoded and calls `visit(t, key)` for its
  /// triples with key in [lo, hi], in key order, starting from the last
  /// restart below `lo`. True iff the block was exhausted without
  /// passing `hi` or `visit` returning false, i.e. iff the scan should
  /// go on to the next block.
  template <typename Visit>
  bool DecodeBlock(RunOrder run, size_t index, const Key3& lo, const Key3& hi,
                   Visit visit) const;

  /// Emits triples with key in [lo, hi] from `run`, in key order.
  /// Returns false iff `fn` stopped early.
  bool ScanKeyRange(RunOrder run, const Key3& lo, const Key3& hi,
                    store::ScanFn fn) const;
  /// Full-run sweep with optional equality filters on the mid/minor key
  /// columns, pruned by zone maps. Emits in the run's key order.
  bool SweepFiltered(RunOrder run, bool bound_mid, uint32_t mid,
                     bool bound_minor, uint32_t minor, store::ScanFn fn) const;
  /// Exact match count for key range [lo, hi]; fully-covered blocks
  /// count by meta, and an edge block by the ranks of its two edges, so
  /// the restart groups between them are never decoded.
  size_t CountKeyRange(RunOrder run, const Key3& lo, const Key3& hi) const;
  size_t CountFiltered(RunOrder run, bool bound_mid, uint32_t mid,
                       bool bound_minor, uint32_t minor) const;

  std::string path_;
  const uint8_t* base_ = nullptr;  // mmap'ed file, PROT_READ
  size_t size_ = 0;
  SegmentHeader header_;
  std::vector<PropertyEntry> properties_;
  Run pso_;
  Run pos_;
  std::unique_ptr<ScanStats> stats_;
};

}  // namespace mpc::storage

#endif  // MPC_STORAGE_SEGMENT_STORE_H_
