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

/// Read-only TripleSource over one mmap'ed `.mpcseg` segment — the
/// compressed out-of-core backend. Opening maps the file, reads the
/// header and TOC and checksums every block in one sequential pass;
/// scans then decode exactly the blocks the zone maps cannot rule out,
/// so bound-pattern work is proportional to the matching data, not the
/// partition. Emission order and cardinalities follow the TripleSource
/// contract bit-for-bit, so a SegmentStore is interchangeable with the
/// in-memory TripleStore anywhere in the executor.
///
/// Thread-safe for concurrent scans (the mapping is immutable; the only
/// mutable state is the relaxed stats counters).
class SegmentStore final : public store::TripleSource {
 public:
  /// Maps and validates `path`, including every block payload checksum
  /// (one sequential pass over the file). Torn, truncated or garbage
  /// files return ParseError; nothing is allocated based on unvalidated
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
  /// Mapped file bytes plus the in-heap TOC mirror — the resident
  /// ceiling; actual residency is only the pages scans touched.
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
  /// True once a scan met a block payload that does not decode (its
  /// checksum matched, so the writer produced it or the checksum was
  /// forged); that scan stops emitting at the bad block.
  bool corruption_detected() const {
    return stats_->corrupt.load(std::memory_order_relaxed);
  }

  /// Exhaustive offline validation (the `segment_check` tool): decodes
  /// every block of both runs and re-derives what the TOC asserts —
  /// strict global sort order, per-block first/last keys and zone maps,
  /// per-property counts and block ranges. ParseError naming the first
  /// violated invariant.
  Status DeepCheck() const;

 private:
  /// Per-instance counters, mirrored into the global obs registry
  /// (storage.segment.*) so a live server's pruning behaviour and any
  /// decode-time corruption are visible to `mpc top` without
  /// plumbing store handles around. The registry pointers are resolved
  /// once at Open; the per-instance atomics stay authoritative for the
  /// accessors below.
  struct ScanStats {
    std::atomic<uint64_t> decoded{0};
    std::atomic<uint64_t> pruned{0};
    std::atomic<bool> corrupt{false};
    obs::Counter* global_decoded = nullptr;
    obs::Counter* global_pruned = nullptr;
    obs::Counter* global_corrupt = nullptr;

    void IncDecoded() {
      decoded.fetch_add(1, std::memory_order_relaxed);
      if (global_decoded != nullptr) global_decoded->Inc();
    }
    void IncPruned() {
      pruned.fetch_add(1, std::memory_order_relaxed);
      if (global_pruned != nullptr) global_pruned->Inc();
    }
    void MarkCorrupt() {
      // Count the transition, not every detection: the global counter
      // reads as "segments that went bad", matching the sticky flag.
      if (!corrupt.exchange(true, std::memory_order_relaxed) &&
          global_corrupt != nullptr) {
        global_corrupt->Inc();
      }
    }
  };

  SegmentStore() = default;

  const std::vector<BlockMeta>& metas(RunOrder run) const {
    return run == RunOrder::kPso ? pso_metas_ : pos_metas_;
  }
  const uint8_t* BlockPayload(RunOrder run, size_t index) const;
  /// The query-time decode step shared by every scan and count: counts
  /// block `index` of `run` as decoded and calls `visit(t, key)` for
  /// its triples with key in [lo, hi], in key order. A payload that
  /// fails to decode marks the store corrupt. True iff the block was
  /// exhausted cleanly without passing `hi` or `visit` returning false,
  /// i.e. iff the scan should go on to the next block.
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
  /// count by meta without decoding.
  size_t CountKeyRange(RunOrder run, const Key3& lo, const Key3& hi) const;
  size_t CountFiltered(RunOrder run, bool bound_mid, uint32_t mid,
                       bool bound_minor, uint32_t minor) const;

  std::string path_;
  const uint8_t* base_ = nullptr;  // mmap'ed file, PROT_READ
  size_t size_ = 0;
  SegmentHeader header_;
  std::vector<PropertyEntry> properties_;
  std::vector<BlockMeta> pso_metas_;
  std::vector<BlockMeta> pos_metas_;
  std::unique_ptr<ScanStats> stats_;
};

}  // namespace mpc::storage

#endif  // MPC_STORAGE_SEGMENT_STORE_H_
