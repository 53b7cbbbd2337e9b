#ifndef MPC_STORAGE_SEGMENT_FORMAT_H_
#define MPC_STORAGE_SEGMENT_FORMAT_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "rdf/types.h"
#include "storage/varint.h"

namespace mpc::storage {

/// On-disk layout of one partition segment (`partition_<i>.mpcseg`) — an
/// immutable, dictionary-encoded, delta+varint-compressed copy of one
/// site's triple set, written once by `mpc pack` and mmap'ed at query
/// time:
///
///   [header page]     one block_size page; fields below, zero padding,
///                     FNV-1a header checksum
///   [PSO blocks]      block_size-aligned pages, triples sorted by
///                     (property, subject, object), delta+varint coded
///   [POS blocks]      same triples sorted by (property, object, subject)
///   [TOC]             property table + one BlockMeta per block
///                     (counts, payload checksum, first/last key, and
///                     the zone map: min/max of the non-major columns),
///                     FNV-1a checksummed as a whole
///
/// Versioned-header discipline follows net/frame.*: every field that
/// sizes or offsets anything is validated against the actual file size
/// BEFORE it is trusted, so torn, truncated or garbage input decodes to
/// a clean ParseError — never a crash, an over-allocation, or a silent
/// misparse. Block payload checksums catch corruption that leaves the
/// header plausible.
inline constexpr uint32_t kSegmentMagic = 0x4753504du;  // "MPSG"
inline constexpr uint32_t kSegmentVersion = 1;
inline constexpr uint32_t kDefaultBlockSize = 4096;
inline constexpr size_t kSegmentHeaderSize = 112;
/// Serialized sizes of the TOC records.
inline constexpr size_t kBlockMetaSize = 56;
inline constexpr size_t kPropertyEntrySize = 24;
/// Sanity caps checked before any TOC arithmetic: generous for real
/// data, small enough that every size product fits in uint64 with room.
inline constexpr uint64_t kMaxProperties = uint64_t{1} << 28;
inline constexpr uint64_t kMaxBlocksPerRun = uint64_t{1} << 26;

/// Which sort order a run of blocks holds. The key of a triple in index
/// order: PSO → (property, subject, object), POS → (property, object,
/// subject).
enum class RunOrder : uint8_t { kPso, kPos };

/// Triple key in a run's index order, for block binary search.
using Key3 = std::array<uint32_t, 3>;

inline Key3 KeyOf(RunOrder order, const rdf::Triple& t) {
  if (order == RunOrder::kPso) return {t.property, t.subject, t.object};
  return {t.property, t.object, t.subject};
}

inline rdf::Triple TripleOf(RunOrder order, const Key3& key) {
  if (order == RunOrder::kPso) return rdf::Triple(key[1], key[0], key[2]);
  return rdf::Triple(key[2], key[0], key[1]);
}

/// The fixed-size header at offset 0.
struct SegmentHeader {
  uint32_t magic = kSegmentMagic;
  uint32_t version = kSegmentVersion;
  uint32_t block_size = kDefaultBlockSize;
  uint32_t site = 0;
  uint32_t k = 0;
  uint32_t flags = 0;
  uint64_t num_triples = 0;
  uint64_t num_properties = 0;  // property-universe size at pack time
  uint64_t num_vertices = 0;    // vertex-universe size at pack time
  /// PartitionIo::Fingerprint of the partition directory the segment
  /// was packed from; open paths refuse a segment packed for a
  /// different partitioning, mirroring the update journal's binding.
  uint64_t partition_fingerprint = 0;
  uint32_t pso_num_blocks = 0;
  uint32_t pos_num_blocks = 0;
  uint64_t pso_offset = 0;
  uint64_t pos_offset = 0;
  uint64_t toc_offset = 0;
  uint64_t toc_size = 0;
  uint64_t toc_checksum = 0;
};

/// Per-block TOC entry: decode bounds, payload checksum, the first/last
/// triple key (for binary search over blocks), and the zone map — min
/// and max of the two non-major columns over the whole block, valid (if
/// loose) even when a block spans several properties. `mid` is the
/// second key component (subject for PSO, object for POS), `minor` the
/// third.
struct BlockMeta {
  uint32_t num_triples = 0;
  uint32_t payload_len = 0;
  uint64_t checksum = 0;
  Key3 first = {0, 0, 0};
  Key3 last = {0, 0, 0};
  uint32_t min_mid = 0;
  uint32_t max_mid = 0;
  uint32_t min_minor = 0;
  uint32_t max_minor = 0;
};

/// Per-property TOC entry: exact triple count plus the half-open block
/// ranges of the property's run in each index (blocks a multi-property
/// page straddles are included in every property they carry).
struct PropertyEntry {
  uint64_t count = 0;
  uint32_t pso_first = 0;
  uint32_t pso_count = 0;
  uint32_t pos_first = 0;
  uint32_t pos_count = 0;
};

/// Serializes the header into exactly kSegmentHeaderSize bytes,
/// including the trailing header checksum (caller pads to block_size).
std::string EncodeSegmentHeader(const SegmentHeader& header);

/// Decodes and validates a header: magic, version, checksum, block size
/// a power of two in [512, 1 MiB], the sanity caps above, and that every
/// section offset/length lands inside `file_size` with the exact layout
/// Encode produces. ParseError otherwise.
Result<SegmentHeader> DecodeSegmentHeader(const uint8_t* data, size_t len,
                                          uint64_t file_size);

void EncodeBlockMeta(const BlockMeta& meta, std::string* out);
BlockMeta DecodeBlockMeta(const uint8_t* data);  // exactly kBlockMetaSize

void EncodePropertyEntry(const PropertyEntry& entry, std::string* out);
PropertyEntry DecodePropertyEntry(const uint8_t* data);

/// Streaming decoder over one block payload. Trusts nothing: every
/// varint read is bounds-checked, so a corrupt payload (even one whose
/// checksum matches) yields ok()=false instead of a crash. Usage:
///
///   BlockDecoder dec(order, payload, payload_len, num_triples);
///   rdf::Triple t;
///   while (dec.Next(&t)) { ... }
///   if (!dec.ok()) -> corrupt block
class BlockDecoder {
 public:
  BlockDecoder(RunOrder order, const uint8_t* payload, size_t payload_len,
               uint32_t num_triples)
      : order_(order),
        data_(payload),
        len_(payload_len),
        remaining_(num_triples) {}

  /// Decodes the next triple; false at end-of-block or on corruption
  /// (distinguish with ok()).
  bool Next(rdf::Triple* t);

  /// Continues decoding just after a triple already decoded from this
  /// payload: its key, the payload offset just after it (pos() at that
  /// point) and the number of triples still to come. This is how a
  /// probe starts at a restart point instead of the block's first
  /// triple.
  void ResumeAfter(const Key3& prev_key, size_t pos, uint32_t remaining) {
    prev_ = prev_key;
    pos_ = pos;
    remaining_ = remaining;
    first_ = false;
  }

  bool ok() const { return ok_; }
  /// Payload offset just after the last decoded triple.
  size_t pos() const { return pos_; }
  /// True iff all declared triples decoded and the payload was fully
  /// consumed (trailing garbage inside payload_len is corruption too).
  bool AtCleanEnd() const { return ok_ && remaining_ == 0 && pos_ == len_; }

 private:
  bool Read(uint32_t* v) { return DecodeVarint32(data_, len_, &pos_, v); }

  RunOrder order_;
  const uint8_t* data_;
  size_t len_;
  uint32_t remaining_;
  size_t pos_ = 0;
  bool first_ = true;
  bool ok_ = true;
  Key3 prev_ = {0, 0, 0};
};

// Inline, like KeyOf and TripleOf: this is the per-triple step of every
// segment scan. The delta encoding is documented at EncodeTripleDelta.
inline bool BlockDecoder::Next(rdf::Triple* t) {
  if (!ok_ || remaining_ == 0) return false;
  uint32_t v0 = 0, v1 = 0, v2 = 0;
  Key3 key;
  // A failed read leaves its value untouched, so the branches below
  // stay well defined; `good` records the failure.
  bool good = Read(&v0);
  // Overflowing deltas (key wrapping back below prev_) mean the block
  // is not sorted, and a zero final delta repeats a key: both are
  // corrupt by construction.
  if (first_) {
    good = good && Read(&v1) && Read(&v2);
    key = {v0, v1, v2};
  } else if (v0 != 0) {
    good = good && Read(&v1) && Read(&v2) && prev_[0] + v0 >= prev_[0];
    key = {prev_[0] + v0, v1, v2};
  } else {
    good = good && Read(&v1);
    if (v1 != 0) {
      good = good && Read(&v2) && prev_[1] + v1 >= prev_[1];
      key = {prev_[0], prev_[1] + v1, v2};
    } else {
      good = good && Read(&v2) && v2 != 0 && prev_[2] + v2 >= prev_[2];
      key = {prev_[0], prev_[1], prev_[2] + v2};
    }
  }
  if (!good) {
    ok_ = false;
    return false;
  }
  first_ = false;
  prev_ = key;
  --remaining_;
  *t = TripleOf(order_, key);
  return true;
}

/// Appends one triple's encoding (relative to `prev`, or absolute when
/// `first`) to `out`. Keys must be strictly increasing in index order.
void EncodeTripleDelta(RunOrder order, const rdf::Triple& t, const Key3& prev,
                       bool first, std::string* out);

/// Encoded size of the same, for block fill decisions.
size_t TripleDeltaSize(RunOrder order, const rdf::Triple& t, const Key3& prev,
                       bool first);

}  // namespace mpc::storage

#endif  // MPC_STORAGE_SEGMENT_FORMAT_H_
