#include "storage/segment_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "common/fsio.h"
#include "common/hash.h"

namespace mpc::storage {

namespace {

constexpr uint32_t kMaxId = UINT32_MAX;
constexpr Key3 kFirstKey = {0, 0, 0};
constexpr Key3 kLastKey = {kMaxId, kMaxId, kMaxId};

std::string_view BytesView(const uint8_t* data, size_t len) {
  return std::string_view(reinterpret_cast<const char*>(data), len);
}

/// Index of the first block whose last key is >= `lo`: where a key-range
/// scan starting at `lo` begins.
size_t FirstBlockFrom(const std::vector<BlockMeta>& ms, const Key3& lo) {
  return static_cast<size_t>(
      std::partition_point(ms.begin(), ms.end(),
                           [&](const BlockMeta& m) { return m.last < lo; }) -
      ms.begin());
}

}  // namespace

SegmentStore::SegmentStore(SegmentStore&& other) noexcept
    : path_(std::move(other.path_)),
      base_(std::exchange(other.base_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      header_(other.header_),
      properties_(std::move(other.properties_)),
      pso_(std::move(other.pso_)),
      pos_(std::move(other.pos_)),
      stats_(std::move(other.stats_)) {}

SegmentStore& SegmentStore::operator=(SegmentStore&& other) noexcept {
  if (this != &other) {
    if (base_ != nullptr) {
      ::munmap(const_cast<uint8_t*>(base_), size_);
    }
    path_ = std::move(other.path_);
    base_ = std::exchange(other.base_, nullptr);
    size_ = std::exchange(other.size_, 0);
    header_ = other.header_;
    properties_ = std::move(other.properties_);
    pso_ = std::move(other.pso_);
    pos_ = std::move(other.pos_);
    stats_ = std::move(other.stats_);
  }
  return *this;
}

SegmentStore::~SegmentStore() {
  if (base_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(base_), size_);
  }
}

Result<SegmentStore> SegmentStore::Open(const std::string& path,
                                        uint64_t expected_fingerprint) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return SysError("open failed for", path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status err = SysError("fstat failed for", path);
    ::close(fd);
    return err;
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size < kSegmentHeaderSize) {
    ::close(fd);
    return Status::ParseError("segment " + path + " too short: " +
                              std::to_string(size) + " bytes");
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) return SysError("mmap failed for", path);

  SegmentStore store;
  store.path_ = path;
  store.base_ = static_cast<const uint8_t*>(map);
  store.size_ = size;
  store.stats_ = std::make_unique<ScanStats>();
  auto& metrics = obs::MetricsRegistry::Default();
  store.stats_->global_decoded =
      &metrics.CounterRef("storage.segment.blocks_decoded");
  store.stats_->global_pruned =
      &metrics.CounterRef("storage.segment.blocks_pruned");

  auto fail = [&](const Status& status) -> Status {
    const std::string msg = path + ": " + status.message();
    return status.code() == StatusCode::kInvalidArgument
               ? Status::InvalidArgument(msg)
               : Status::ParseError(msg);
  };

  Result<SegmentHeader> header =
      DecodeSegmentHeader(store.base_, size, size);
  if (!header.ok()) return fail(header.status());
  store.header_ = *header;
  const SegmentHeader& h = store.header_;
  if (expected_fingerprint != 0 &&
      h.partition_fingerprint != expected_fingerprint) {
    return fail(Status::InvalidArgument(
        "segment was packed for a different partitioning (fingerprint "
        "mismatch); re-run `mpc pack`"));
  }

  // The TOC: verified as a whole before any of it is believed. Sizes
  // were already proven consistent with the actual file size by
  // DecodeSegmentHeader, so these allocations are bounded by the file.
  const uint8_t* toc = store.base_ + h.toc_offset;
  if (HashString(BytesView(toc, h.toc_size)) != h.toc_checksum) {
    return fail(Status::ParseError("TOC checksum mismatch"));
  }
  store.properties_.reserve(h.num_properties);
  const uint8_t* cursor = toc;
  for (uint64_t i = 0; i < h.num_properties; ++i) {
    store.properties_.push_back(DecodePropertyEntry(cursor));
    cursor += kPropertyEntrySize;
  }
  store.pso_.metas.reserve(h.pso_num_blocks);
  for (uint32_t i = 0; i < h.pso_num_blocks; ++i) {
    store.pso_.metas.push_back(DecodeBlockMeta(cursor));
    cursor += kBlockMetaSize;
  }
  store.pos_.metas.reserve(h.pos_num_blocks);
  for (uint32_t i = 0; i < h.pos_num_blocks; ++i) {
    store.pos_.metas.push_back(DecodeBlockMeta(cursor));
    cursor += kBlockMetaSize;
  }

  // Structural TOC invariants: block payloads inside their pages,
  // strictly increasing keys across blocks, counts adding up. Anything
  // off means a corrupt (or cross-written) TOC.
  for (RunOrder run : {RunOrder::kPso, RunOrder::kPos}) {
    const std::vector<BlockMeta>& ms = store.metas(run);
    uint64_t total = 0;
    for (size_t i = 0; i < ms.size(); ++i) {
      const BlockMeta& m = ms[i];
      // Every triple codes to three varints, so at least three bytes.
      if (m.num_triples == 0 || m.payload_len > h.block_size ||
          m.num_triples > m.payload_len / 3) {
        return fail(Status::ParseError("block " + std::to_string(i) +
                                       " has implausible counts"));
      }
      if (m.first > m.last || m.min_mid > m.max_mid ||
          m.min_minor > m.max_minor) {
        return fail(Status::ParseError("block " + std::to_string(i) +
                                       " has inverted key bounds"));
      }
      if (i > 0 && !(ms[i - 1].last < m.first)) {
        return fail(Status::ParseError(
            "blocks " + std::to_string(i - 1) + ".." + std::to_string(i) +
            " out of order"));
      }
      total += m.num_triples;
    }
    if (total != h.num_triples) {
      return fail(Status::ParseError(
          "block triple counts sum to " + std::to_string(total) +
          ", header says " + std::to_string(h.num_triples)));
    }
  }
  uint64_t property_total = 0;
  for (const PropertyEntry& e : store.properties_) {
    property_total += e.count;
    if (uint64_t{e.pso_first} + e.pso_count > store.pso_.metas.size() ||
        uint64_t{e.pos_first} + e.pos_count > store.pos_.metas.size()) {
      return fail(
          Status::ParseError("property block range exceeds block count"));
    }
  }
  if (property_total != h.num_triples) {
    return fail(Status::ParseError(
        "property counts sum to " + std::to_string(property_total) +
        ", header says " + std::to_string(h.num_triples)));
  }

  for (RunOrder run : {RunOrder::kPso, RunOrder::kPos}) {
    Status built = store.BuildRestartIndex(run);
    if (!built.ok()) return fail(built);
  }
  return store;
}

Status SegmentStore::BuildRestartIndex(RunOrder order) {
  Run& r = order == RunOrder::kPso ? pso_ : pos_;
  const char* run_name = order == RunOrder::kPso ? "PSO" : "POS";
  size_t num_restarts = 0;
  for (const BlockMeta& m : r.metas) {
    num_restarts += m.num_triples / kRestartInterval;
  }
  r.restarts.reserve(num_restarts);
  r.restart_begin.reserve(r.metas.size() + 1);
  r.restart_begin.push_back(0);
  for (size_t i = 0; i < r.metas.size(); ++i) {
    const BlockMeta& m = r.metas[i];
    const uint8_t* payload = BlockPayload(order, i);
    auto refuse = [&](const std::string& what) {
      return Status::ParseError(std::string(run_name) + " block " +
                                std::to_string(i) + ": " + what);
    };
    if (HashString(BytesView(payload, m.payload_len)) != m.checksum) {
      return refuse("payload checksum mismatch");
    }
    // The decoder refuses keys that do not strictly increase inside a
    // block; the TOC checks already made the blocks' [first, last]
    // ranges strictly increasing, so matching them here orders the
    // whole run — which the probes' binary searches rely on.
    BlockDecoder dec(order, payload, m.payload_len, m.num_triples);
    rdf::Triple t;
    Key3 key = kFirstKey;
    uint32_t n = 0;
    while (dec.Next(&t)) {
      key = KeyOf(order, t);
      if (n == 0 && key != m.first) {
        return refuse("first key disagrees with TOC");
      }
      if (++n % kRestartInterval == 0) {
        r.restarts.push_back({key, static_cast<uint32_t>(dec.pos())});
      }
    }
    if (!dec.AtCleanEnd()) return refuse("payload does not decode cleanly");
    if (key != m.last) return refuse("last key disagrees with TOC");
    r.restart_begin.push_back(r.restarts.size());
  }
  return Status::Ok();
}

const uint8_t* SegmentStore::BlockPayload(RunOrder run, size_t index) const {
  const uint64_t section =
      run == RunOrder::kPso ? header_.pso_offset : header_.pos_offset;
  return base_ + section + uint64_t{index} * header_.block_size;
}

BlockDecoder SegmentStore::SeekBlock(RunOrder order, size_t index,
                                     const Key3& bound, bool inclusive,
                                     uint32_t* skipped) const {
  const Run& r = run(order);
  const BlockMeta& m = r.metas[index];
  BlockDecoder dec(order, BlockPayload(order, index), m.payload_len,
                   m.num_triples);
  const Restart* first = r.restarts.data() + r.restart_begin[index];
  const Restart* last = r.restarts.data() + r.restart_begin[index + 1];
  const Restart* after = std::partition_point(
      first, last, [&](const Restart& x) {
        return inclusive ? x.key <= bound : x.key < bound;
      });
  *skipped = static_cast<uint32_t>(after - first) * kRestartInterval;
  if (after != first) {
    dec.ResumeAfter(after[-1].key, after[-1].pos, m.num_triples - *skipped);
  }
  return dec;
}

uint32_t SegmentStore::RankInBlock(RunOrder order, size_t index,
                                   const Key3& bound, bool inclusive) const {
  uint32_t rank = 0;
  BlockDecoder dec = SeekBlock(order, index, bound, inclusive, &rank);
  rdf::Triple t;
  while (dec.Next(&t)) {
    const Key3 key = KeyOf(order, t);
    if (inclusive ? bound < key : !(key < bound)) break;
    ++rank;
  }
  return rank;
}

template <typename Visit>
bool SegmentStore::DecodeBlock(RunOrder run, size_t index, const Key3& lo,
                               const Key3& hi, Visit visit) const {
  stats_->IncDecoded();
  uint32_t skipped = 0;
  BlockDecoder dec = SeekBlock(run, index, lo, false, &skipped);
  rdf::Triple t;
  while (dec.Next(&t)) {
    const Key3 key = KeyOf(run, t);
    if (key < lo) continue;
    if (hi < key || !visit(t, key)) return false;
  }
  return true;
}

size_t SegmentStore::PropertyCount(rdf::PropertyId p) const {
  if (p >= properties_.size()) return 0;
  return static_cast<size_t>(properties_[p].count);
}

bool SegmentStore::ScanKeyRange(RunOrder run, const Key3& lo, const Key3& hi,
                                store::ScanFn fn) const {
  const std::vector<BlockMeta>& ms = metas(run);
  bool stopped = false;
  for (size_t i = FirstBlockFrom(ms, lo); i < ms.size(); ++i) {
    if (hi < ms[i].first ||
        !DecodeBlock(run, i, lo, hi, [&](const rdf::Triple& t, const Key3&) {
          stopped = !fn(t);
          return !stopped;
        })) {
      break;
    }
  }
  return !stopped;
}

bool SegmentStore::SweepFiltered(RunOrder run, bool bound_mid, uint32_t mid,
                                 bool bound_minor, uint32_t minor,
                                 store::ScanFn fn) const {
  const std::vector<BlockMeta>& ms = metas(run);
  bool stopped = false;
  for (size_t i = 0; i < ms.size(); ++i) {
    const BlockMeta& m = ms[i];
    // Zone-map pruning: a block whose min/max excludes the bound value
    // cannot contain a match and is never decoded.
    if ((bound_mid && (mid < m.min_mid || mid > m.max_mid)) ||
        (bound_minor && (minor < m.min_minor || minor > m.max_minor))) {
      stats_->IncPruned();
      continue;
    }
    if (!DecodeBlock(run, i, kFirstKey, kLastKey,
                     [&](const rdf::Triple& t, const Key3& key) {
                       if ((bound_mid && key[1] != mid) ||
                           (bound_minor && key[2] != minor)) {
                         return true;
                       }
                       stopped = !fn(t);
                       return !stopped;
                     })) {
      break;
    }
  }
  return !stopped;
}

bool SegmentStore::Scan(rdf::VertexId s, rdf::PropertyId p, rdf::VertexId o,
                        store::ScanFn fn) const {
  const bool bs = s != rdf::kInvalidVertex;
  const bool bp = p != rdf::kInvalidProperty;
  const bool bo = o != rdf::kInvalidVertex;

  if (bp && p < properties_.size() && properties_[p].count == 0) return true;
  if (bp && bs && bo) return ScanKeyRange(RunOrder::kPso, {p, s, o}, {p, s, o}, fn);
  if (bp && bs) {
    return ScanKeyRange(RunOrder::kPso, {p, s, 0}, {p, s, kMaxId}, fn);
  }
  if (bp && bo) {
    return ScanKeyRange(RunOrder::kPos, {p, o, 0}, {p, o, kMaxId}, fn);
  }
  if (bp) {
    return ScanKeyRange(RunOrder::kPso, {p, 0, 0}, {p, kMaxId, kMaxId}, fn);
  }
  if (bs && bo) {
    return SweepFiltered(RunOrder::kPso, true, s, true, o, fn);
  }
  if (bs) return SweepFiltered(RunOrder::kPso, true, s, false, 0, fn);
  if (bo) {
    // Object-bound only must emit in (subject, property) order — the
    // in-memory store's OSP index order — which no on-disk run provides.
    // Collect the (zone-pruned) matches from the POS run and sort; the
    // match set is the object's degree, typically tiny.
    std::vector<rdf::Triple> matches;
    SweepFiltered(RunOrder::kPos, true, o, false, 0,
                  [&](const rdf::Triple& t) {
                    matches.push_back(t);
                    return true;
                  });
    std::sort(matches.begin(), matches.end(),
              [](const rdf::Triple& a, const rdf::Triple& b) {
                if (a.subject != b.subject) return a.subject < b.subject;
                return a.property < b.property;
              });
    for (const rdf::Triple& t : matches) {
      if (!fn(t)) return false;
    }
    return true;
  }
  return SweepFiltered(RunOrder::kPso, false, 0, false, 0, fn);
}

size_t SegmentStore::CountKeyRange(RunOrder run, const Key3& lo,
                                   const Key3& hi) const {
  const std::vector<BlockMeta>& ms = metas(run);
  size_t count = 0;
  for (size_t i = FirstBlockFrom(ms, lo); i < ms.size(); ++i) {
    const BlockMeta& m = ms[i];
    if (hi < m.first) break;
    if (lo <= m.first && m.last <= hi) {
      // Fully covered: the meta already knows the answer.
      count += m.num_triples;
      continue;
    }
    // An edge block: the match count is the rank of hi's edge minus the
    // rank of lo's, each found from the restart index.
    stats_->IncDecoded();
    const uint32_t below_lo = m.first < lo ? RankInBlock(run, i, lo, false) : 0;
    const uint32_t upto_hi =
        hi < m.last ? RankInBlock(run, i, hi, true) : m.num_triples;
    count += upto_hi - below_lo;
    if (hi < m.last) break;
  }
  return count;
}

size_t SegmentStore::CountFiltered(RunOrder run, bool bound_mid, uint32_t mid,
                                   bool bound_minor, uint32_t minor) const {
  size_t count = 0;
  SweepFiltered(run, bound_mid, mid, bound_minor, minor,
                [&](const rdf::Triple&) {
                  ++count;
                  return true;
                });
  return count;
}

size_t SegmentStore::EstimateCardinality(rdf::VertexId s, rdf::PropertyId p,
                                         rdf::VertexId o) const {
  const bool bs = s != rdf::kInvalidVertex;
  const bool bp = p != rdf::kInvalidProperty;
  const bool bo = o != rdf::kInvalidVertex;
  if (bp && p < properties_.size() && properties_[p].count == 0) return 0;
  if (bp && bs && bo) {
    return CountKeyRange(RunOrder::kPso, {p, s, o}, {p, s, o});
  }
  if (bp && bs) return CountKeyRange(RunOrder::kPso, {p, s, 0}, {p, s, kMaxId});
  if (bp && bo) return CountKeyRange(RunOrder::kPos, {p, o, 0}, {p, o, kMaxId});
  if (bp) return PropertyCount(p);
  if (bs && bo) return CountFiltered(RunOrder::kPso, true, s, true, o);
  if (bs) return CountFiltered(RunOrder::kPso, true, s, false, 0);
  if (bo) return CountFiltered(RunOrder::kPos, true, o, false, 0);
  return num_triples();
}

size_t SegmentStore::MemoryUsage() const {
  size_t bytes = size_ + properties_.capacity() * sizeof(PropertyEntry);
  for (const Run* r : {&pso_, &pos_}) {
    bytes += r->metas.capacity() * sizeof(BlockMeta) +
             r->restarts.capacity() * sizeof(Restart) +
             r->restart_begin.capacity() * sizeof(size_t);
  }
  return bytes;
}

Status SegmentStore::DeepCheck() const {
  for (RunOrder run : {RunOrder::kPso, RunOrder::kPos}) {
    const char* run_name = run == RunOrder::kPso ? "PSO" : "POS";
    const std::vector<BlockMeta>& ms = metas(run);
    std::vector<uint64_t> property_counts(properties_.size(), 0);
    bool have_prev = false;
    Key3 prev = {0, 0, 0};
    for (size_t i = 0; i < ms.size(); ++i) {
      const BlockMeta& m = ms[i];
      const uint8_t* payload = BlockPayload(run, i);
      if (HashString(BytesView(payload, m.payload_len)) != m.checksum) {
        return Status::ParseError(std::string(run_name) + " block " +
                                  std::to_string(i) + ": checksum mismatch");
      }
      BlockDecoder dec(run, payload, m.payload_len, m.num_triples);
      rdf::Triple t;
      uint32_t n = 0;
      Key3 block_first = {0, 0, 0};
      Key3 block_last = {0, 0, 0};
      uint32_t min_mid = UINT32_MAX, max_mid = 0;
      uint32_t min_minor = UINT32_MAX, max_minor = 0;
      while (dec.Next(&t)) {
        const Key3 key = KeyOf(run, t);
        if (have_prev && !(prev < key)) {
          return Status::ParseError(std::string(run_name) + " block " +
                                    std::to_string(i) +
                                    ": keys not strictly increasing");
        }
        prev = key;
        have_prev = true;
        if (n == 0) block_first = key;
        block_last = key;
        min_mid = std::min(min_mid, key[1]);
        max_mid = std::max(max_mid, key[1]);
        min_minor = std::min(min_minor, key[2]);
        max_minor = std::max(max_minor, key[2]);
        if (key[0] < property_counts.size()) ++property_counts[key[0]];
        ++n;
      }
      if (!dec.AtCleanEnd() || n != m.num_triples) {
        return Status::ParseError(std::string(run_name) + " block " +
                                  std::to_string(i) +
                                  ": payload does not decode cleanly");
      }
      if (block_first != m.first || block_last != m.last ||
          min_mid != m.min_mid || max_mid != m.max_mid ||
          min_minor != m.min_minor || max_minor != m.max_minor) {
        return Status::ParseError(std::string(run_name) + " block " +
                                  std::to_string(i) +
                                  ": TOC keys/zone map do not match payload");
      }
    }
    for (size_t p = 0; p < properties_.size(); ++p) {
      if (property_counts[p] != properties_[p].count) {
        return Status::ParseError(
            std::string(run_name) + ": property " + std::to_string(p) +
            " count " + std::to_string(property_counts[p]) +
            " != TOC count " + std::to_string(properties_[p].count));
      }
      // Every block holding property p must fall inside its TOC range.
      for (size_t b = 0; b < ms.size(); ++b) {
        const bool holds = ms[b].first[0] <= p && p <= ms[b].last[0];
        if (!holds) continue;
        const uint32_t first =
            run == RunOrder::kPso ? properties_[p].pso_first
                                  : properties_[p].pos_first;
        const uint32_t count = run == RunOrder::kPso
                                   ? properties_[p].pso_count
                                   : properties_[p].pos_count;
        if (b < first || b >= uint64_t{first} + count) {
          return Status::ParseError(std::string(run_name) + ": property " +
                                    std::to_string(p) +
                                    " block range misses block " +
                                    std::to_string(b));
        }
      }
    }
  }
  return Status::Ok();
}

}  // namespace mpc::storage
