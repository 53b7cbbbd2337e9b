#include "storage/segment_format.h"

#include <cstring>

#include "common/hash.h"

namespace mpc::storage {

namespace {

void AppendU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void AppendU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

uint32_t ReadU32(const uint8_t* data) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data[i]) << (8 * i);
  return v;
}

uint64_t ReadU64(const uint8_t* data) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(data[i]) << (8 * i);
  return v;
}

bool IsPow2(uint32_t v) { return v != 0 && (v & (v - 1)) == 0; }

}  // namespace

std::string EncodeSegmentHeader(const SegmentHeader& header) {
  std::string out;
  out.reserve(kSegmentHeaderSize);
  AppendU32(header.magic, &out);
  AppendU32(header.version, &out);
  AppendU32(header.block_size, &out);
  AppendU32(header.site, &out);
  AppendU32(header.k, &out);
  AppendU32(header.flags, &out);
  AppendU64(header.num_triples, &out);
  AppendU64(header.num_properties, &out);
  AppendU64(header.num_vertices, &out);
  AppendU64(header.partition_fingerprint, &out);
  AppendU32(header.pso_num_blocks, &out);
  AppendU32(header.pos_num_blocks, &out);
  AppendU64(header.pso_offset, &out);
  AppendU64(header.pos_offset, &out);
  AppendU64(header.toc_offset, &out);
  AppendU64(header.toc_size, &out);
  AppendU64(header.toc_checksum, &out);
  AppendU64(HashString(out), &out);
  return out;
}

Result<SegmentHeader> DecodeSegmentHeader(const uint8_t* data, size_t len,
                                          uint64_t file_size) {
  if (len < kSegmentHeaderSize) {
    return Status::ParseError("segment too short for header: " +
                              std::to_string(len) + " bytes");
  }
  const uint64_t stored_checksum = ReadU64(data + kSegmentHeaderSize - 8);
  const uint64_t computed = HashString(std::string_view(
      reinterpret_cast<const char*>(data), kSegmentHeaderSize - 8));
  if (stored_checksum != computed) {
    return Status::ParseError("segment header checksum mismatch");
  }
  SegmentHeader h;
  h.magic = ReadU32(data);
  h.version = ReadU32(data + 4);
  h.block_size = ReadU32(data + 8);
  h.site = ReadU32(data + 12);
  h.k = ReadU32(data + 16);
  h.flags = ReadU32(data + 20);
  h.num_triples = ReadU64(data + 24);
  h.num_properties = ReadU64(data + 32);
  h.num_vertices = ReadU64(data + 40);
  h.partition_fingerprint = ReadU64(data + 48);
  h.pso_num_blocks = ReadU32(data + 56);
  h.pos_num_blocks = ReadU32(data + 60);
  h.pso_offset = ReadU64(data + 64);
  h.pos_offset = ReadU64(data + 72);
  h.toc_offset = ReadU64(data + 80);
  h.toc_size = ReadU64(data + 88);
  h.toc_checksum = ReadU64(data + 96);
  if (h.magic != kSegmentMagic) {
    return Status::ParseError("not a segment file (bad magic)");
  }
  if (h.version != kSegmentVersion) {
    return Status::ParseError("unsupported segment version " +
                              std::to_string(h.version));
  }
  if (!IsPow2(h.block_size) || h.block_size < 512 ||
      h.block_size > (1u << 20)) {
    return Status::ParseError("implausible segment block size " +
                              std::to_string(h.block_size));
  }
  if (h.num_properties > kMaxProperties ||
      h.pso_num_blocks > kMaxBlocksPerRun ||
      h.pos_num_blocks > kMaxBlocksPerRun) {
    return Status::ParseError("segment header counts exceed sanity caps");
  }
  // The layout is rigid: header page, PSO pages, POS pages, TOC, end of
  // file. Recompute every offset and demand an exact match — a header
  // declaring sections beyond (or overlapping within) the actual file is
  // corrupt, and nothing downstream may trust it.
  const uint64_t bs = h.block_size;
  const uint64_t expected_pso = bs;
  const uint64_t expected_pos = bs * (1 + uint64_t{h.pso_num_blocks});
  const uint64_t expected_toc =
      bs * (1 + uint64_t{h.pso_num_blocks} + uint64_t{h.pos_num_blocks});
  const uint64_t expected_toc_size =
      h.num_properties * kPropertyEntrySize +
      (uint64_t{h.pso_num_blocks} + uint64_t{h.pos_num_blocks}) *
          kBlockMetaSize;
  if (h.pso_offset != expected_pso || h.pos_offset != expected_pos ||
      h.toc_offset != expected_toc || h.toc_size != expected_toc_size) {
    return Status::ParseError("segment section offsets inconsistent");
  }
  if (h.toc_offset + h.toc_size != file_size) {
    return Status::ParseError(
        "segment truncated or oversized: header implies " +
        std::to_string(h.toc_offset + h.toc_size) + " bytes, file has " +
        std::to_string(file_size));
  }
  return h;
}

void EncodeBlockMeta(const BlockMeta& meta, std::string* out) {
  AppendU32(meta.num_triples, out);
  AppendU32(meta.payload_len, out);
  AppendU64(meta.checksum, out);
  for (uint32_t v : meta.first) AppendU32(v, out);
  for (uint32_t v : meta.last) AppendU32(v, out);
  AppendU32(meta.min_mid, out);
  AppendU32(meta.max_mid, out);
  AppendU32(meta.min_minor, out);
  AppendU32(meta.max_minor, out);
}

BlockMeta DecodeBlockMeta(const uint8_t* data) {
  BlockMeta meta;
  meta.num_triples = ReadU32(data);
  meta.payload_len = ReadU32(data + 4);
  meta.checksum = ReadU64(data + 8);
  for (int i = 0; i < 3; ++i) meta.first[i] = ReadU32(data + 16 + 4 * i);
  for (int i = 0; i < 3; ++i) meta.last[i] = ReadU32(data + 28 + 4 * i);
  meta.min_mid = ReadU32(data + 40);
  meta.max_mid = ReadU32(data + 44);
  meta.min_minor = ReadU32(data + 48);
  meta.max_minor = ReadU32(data + 52);
  return meta;
}

void EncodePropertyEntry(const PropertyEntry& entry, std::string* out) {
  AppendU64(entry.count, out);
  AppendU32(entry.pso_first, out);
  AppendU32(entry.pso_count, out);
  AppendU32(entry.pos_first, out);
  AppendU32(entry.pos_count, out);
}

PropertyEntry DecodePropertyEntry(const uint8_t* data) {
  PropertyEntry entry;
  entry.count = ReadU64(data);
  entry.pso_first = ReadU32(data + 8);
  entry.pso_count = ReadU32(data + 12);
  entry.pos_first = ReadU32(data + 16);
  entry.pos_count = ReadU32(data + 20);
  return entry;
}

// Delta encoding of one triple against the previous key, in index
// order (c0, c1, c2):
//   first triple       varint(c0) varint(c1) varint(c2)
//   c0 changed         varint(dc0>=1) varint(c1) varint(c2)
//   c1 changed         varint(0) varint(dc1>=1) varint(c2)
//   c2 changed         varint(0) varint(0) varint(dc2>=1)
// Sorted-unique input makes the leading nonzero delta >= 1, so a zero
// unambiguously means "component unchanged, read the next one".
void EncodeTripleDelta(RunOrder order, const rdf::Triple& t, const Key3& prev,
                       bool first, std::string* out) {
  const Key3 key = KeyOf(order, t);
  if (first) {
    AppendVarint32(key[0], out);
    AppendVarint32(key[1], out);
    AppendVarint32(key[2], out);
    return;
  }
  if (key[0] != prev[0]) {
    AppendVarint32(key[0] - prev[0], out);
    AppendVarint32(key[1], out);
    AppendVarint32(key[2], out);
  } else if (key[1] != prev[1]) {
    AppendVarint32(0, out);
    AppendVarint32(key[1] - prev[1], out);
    AppendVarint32(key[2], out);
  } else {
    AppendVarint32(0, out);
    AppendVarint32(0, out);
    AppendVarint32(key[2] - prev[2], out);
  }
}

size_t TripleDeltaSize(RunOrder order, const rdf::Triple& t, const Key3& prev,
                       bool first) {
  const Key3 key = KeyOf(order, t);
  if (first) {
    return Varint32Size(key[0]) + Varint32Size(key[1]) + Varint32Size(key[2]);
  }
  if (key[0] != prev[0]) {
    return Varint32Size(key[0] - prev[0]) + Varint32Size(key[1]) +
           Varint32Size(key[2]);
  }
  if (key[1] != prev[1]) {
    return 1 + Varint32Size(key[1] - prev[1]) + Varint32Size(key[2]);
  }
  return 2 + Varint32Size(key[2] - prev[2]);
}

}  // namespace mpc::storage
