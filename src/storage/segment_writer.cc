#include "storage/segment_writer.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>

#include "common/fsio.h"
#include "common/hash.h"

namespace mpc::storage {

namespace {

struct Run {
  std::string data;              // concatenated block pages
  std::vector<BlockMeta> metas;  // one per block
};

/// Packs `triples` (already sorted in `order`, unique) into
/// block_size-aligned pages: delta+varint payload, zero padding, zone
/// map and first/last keys in the meta. A triple never splits across
/// blocks; each new block restarts with an absolute first triple.
Run BuildRun(RunOrder order, const std::vector<rdf::Triple>& triples,
             uint32_t block_size) {
  Run run;
  size_t i = 0;
  while (i < triples.size()) {
    BlockMeta meta;
    std::string payload;
    payload.reserve(block_size);
    Key3 prev = {0, 0, 0};
    uint32_t min_mid = UINT32_MAX, max_mid = 0;
    uint32_t min_minor = UINT32_MAX, max_minor = 0;
    const size_t block_start = i;
    while (i < triples.size()) {
      const bool first = (i == block_start);
      const size_t sz = TripleDeltaSize(order, triples[i], prev, first);
      if (payload.size() + sz > block_size) break;
      EncodeTripleDelta(order, triples[i], prev, first, &payload);
      const Key3 key = KeyOf(order, triples[i]);
      if (first) meta.first = key;
      meta.last = key;
      min_mid = std::min(min_mid, key[1]);
      max_mid = std::max(max_mid, key[1]);
      min_minor = std::min(min_minor, key[2]);
      max_minor = std::max(max_minor, key[2]);
      prev = key;
      ++i;
    }
    meta.num_triples = static_cast<uint32_t>(i - block_start);
    meta.payload_len = static_cast<uint32_t>(payload.size());
    meta.checksum = HashString(payload);
    meta.min_mid = min_mid;
    meta.max_mid = max_mid;
    meta.min_minor = min_minor;
    meta.max_minor = max_minor;
    payload.resize(block_size, '\0');
    run.data += payload;
    run.metas.push_back(meta);
  }
  return run;
}

/// Half-open block range [first, first+count) of the blocks that carry
/// at least one triple of property p, per property. Blocks are sorted by
/// key, so each property's blocks are contiguous.
void FillPropertyRanges(const std::vector<BlockMeta>& metas,
                        uint64_t num_properties, bool pso,
                        std::vector<PropertyEntry>* table) {
  for (uint32_t b = 0; b < metas.size(); ++b) {
    const uint64_t lo = metas[b].first[0];
    const uint64_t hi = metas[b].last[0];
    for (uint64_t p = lo; p <= hi && p < num_properties; ++p) {
      PropertyEntry& e = (*table)[p];
      uint32_t& first = pso ? e.pso_first : e.pos_first;
      uint32_t& count = pso ? e.pso_count : e.pos_count;
      if (count == 0) first = b;
      count = b - first + 1;
    }
  }
}

Status WriteFileDurably(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return SysError("open failed for", tmp);
  Status st = WriteAll(fd, bytes, tmp);
  if (st.ok()) st = FsyncFd(fd, tmp);
  ::close(fd);
  if (!st.ok()) {
    ::unlink(tmp.c_str());
    return st;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return SysError("rename failed for", path);
  }
  const size_t slash = path.find_last_of('/');
  return FsyncDir(slash == std::string::npos ? "." : path.substr(0, slash));
}

}  // namespace

std::string SegmentFileName(uint32_t site) {
  return "partition_" + std::to_string(site) + ".mpcseg";
}

std::string SegmentPath(const std::string& dir, uint32_t site) {
  return dir + "/" + SegmentFileName(site);
}

Status WriteSegment(const std::string& path, std::vector<rdf::Triple> triples,
                    const SegmentWriterOptions& options,
                    SegmentWriteStats* stats) {
  const uint32_t bs = options.block_size;
  if (bs < 512 || bs > (1u << 20) || (bs & (bs - 1)) != 0) {
    return Status::InvalidArgument("segment block size must be a power of "
                                   "two in [512, 1MiB], got " +
                                   std::to_string(bs));
  }
  // Identical normalization to TripleStore's constructor: PSO sort,
  // duplicates removed. Both backends then hold the same triple set.
  std::sort(triples.begin(), triples.end());
  triples.erase(std::unique(triples.begin(), triples.end()), triples.end());

  Run pso = BuildRun(RunOrder::kPso, triples, bs);
  {
    std::vector<rdf::Triple> pos_sorted = triples;
    std::sort(pos_sorted.begin(), pos_sorted.end(),
              [](const rdf::Triple& a, const rdf::Triple& b) {
                return KeyOf(RunOrder::kPos, a) < KeyOf(RunOrder::kPos, b);
              });
    triples = std::move(pos_sorted);
  }
  Run pos = BuildRun(RunOrder::kPos, triples, bs);

  // The declared universes may not be smaller than what the data uses:
  // the property table must cover every stored property (open-side
  // validation sums it against num_triples).
  uint64_t num_properties = options.num_properties;
  uint64_t num_vertices = options.num_vertices;
  for (const rdf::Triple& t : triples) {
    num_properties = std::max(num_properties, uint64_t{t.property} + 1);
    num_vertices = std::max(
        num_vertices, uint64_t{std::max(t.subject, t.object)} + 1);
  }
  if (num_properties > kMaxProperties) {
    return Status::InvalidArgument(
        "segment property universe too large: " +
        std::to_string(num_properties));
  }

  std::vector<PropertyEntry> table(num_properties);
  for (const rdf::Triple& t : triples) {
    ++table[t.property].count;
  }
  FillPropertyRanges(pso.metas, num_properties, /*pso=*/true, &table);
  FillPropertyRanges(pos.metas, num_properties, /*pso=*/false, &table);

  std::string toc;
  toc.reserve(table.size() * kPropertyEntrySize +
              (pso.metas.size() + pos.metas.size()) * kBlockMetaSize);
  for (const PropertyEntry& e : table) EncodePropertyEntry(e, &toc);
  for (const BlockMeta& m : pso.metas) EncodeBlockMeta(m, &toc);
  for (const BlockMeta& m : pos.metas) EncodeBlockMeta(m, &toc);

  SegmentHeader header;
  header.block_size = bs;
  header.site = options.site;
  header.k = options.k;
  header.num_triples = triples.size();
  header.num_properties = num_properties;
  header.num_vertices = num_vertices;
  header.partition_fingerprint = options.partition_fingerprint;
  header.pso_num_blocks = static_cast<uint32_t>(pso.metas.size());
  header.pos_num_blocks = static_cast<uint32_t>(pos.metas.size());
  header.pso_offset = bs;
  header.pos_offset = bs * (1 + uint64_t{header.pso_num_blocks});
  header.toc_offset =
      bs * (1 + uint64_t{header.pso_num_blocks} + header.pos_num_blocks);
  header.toc_size = toc.size();
  header.toc_checksum = HashString(toc);

  std::string file = EncodeSegmentHeader(header);
  file.resize(bs, '\0');  // header page
  file += pso.data;
  file += pos.data;
  file += toc;

  MPC_RETURN_IF_ERROR(WriteFileDurably(path, file));
  if (stats != nullptr) {
    stats->num_triples = header.num_triples;
    stats->file_bytes = file.size();
    stats->pso_blocks = header.pso_num_blocks;
    stats->pos_blocks = header.pos_num_blocks;
  }
  return Status::Ok();
}

}  // namespace mpc::storage
