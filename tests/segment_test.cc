// Tests for the compressed out-of-core segment subsystem: codec
// boundaries, writer/store round trips, bit-identity with the in-memory
// TripleStore (the contract the executor relies on), zone-map pruning,
// corruption handling, and the delta-overlay dynamic path.

#include <algorithm>
#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

#include "common/function_ref.h"
#include "common/hash.h"
#include "common/random.h"
#include "dynamic/incremental_maintainer.h"
#include "exec/cluster.h"
#include "exec/distributed_executor.h"
#include "mpc/mpc_partitioner.h"
#include "partition/partition_io.h"
#include "partition/subject_hash_partitioner.h"
#include "partition/vp_partitioner.h"
#include "serve/serving_state.h"
#include "storage/delta_overlay.h"
#include "storage/segment_format.h"
#include "storage/segment_store.h"
#include "storage/segment_writer.h"
#include "storage/varint.h"
#include "store/triple_store.h"
#include "test_util.h"
#include "workload/lubm.h"

namespace mpc::storage {
namespace {

using rdf::kInvalidProperty;
using rdf::kInvalidVertex;
using rdf::Triple;

std::string TempDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Collects a scan into a vector; optionally stops after `limit` rows.
std::vector<Triple> Collect(const store::TripleSource& source, rdf::VertexId s,
                            rdf::PropertyId p, rdf::VertexId o,
                            size_t limit = SIZE_MAX, bool* completed = nullptr) {
  std::vector<Triple> out;
  const bool done = source.Scan(s, p, o, [&](const Triple& t) {
    out.push_back(t);
    return out.size() < limit;
  });
  if (completed != nullptr) *completed = done;
  return out;
}

// ---------------------------------------------------------------------------
// Varint codec boundaries.

TEST(VarintTest, BoundaryRoundTrips) {
  const uint32_t values[] = {0,          1,          127,        128,
                             129,        16383,      16384,      (1u << 21) - 1,
                             1u << 21,   (1u << 28) - 1, 1u << 28, UINT32_MAX - 1,
                             UINT32_MAX};
  std::string buf;
  for (uint32_t v : values) {
    AppendVarint32(v, &buf);
  }
  size_t pos = 0;
  const uint8_t* data = reinterpret_cast<const uint8_t*>(buf.data());
  for (uint32_t v : values) {
    uint32_t decoded = 0;
    ASSERT_TRUE(DecodeVarint32(data, buf.size(), &pos, &decoded));
    EXPECT_EQ(decoded, v);
    // Size function agrees with the encoder.
    std::string one;
    AppendVarint32(v, &one);
    EXPECT_EQ(one.size(), Varint32Size(v));
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(VarintTest, TruncationAndOverflowAreCleanFailures) {
  std::string buf;
  AppendVarint32(UINT32_MAX, &buf);  // 5 bytes
  const uint8_t* data = reinterpret_cast<const uint8_t*>(buf.data());
  for (size_t len = 0; len < buf.size(); ++len) {
    size_t pos = 0;
    uint32_t v = 0;
    EXPECT_FALSE(DecodeVarint32(data, len, &pos, &v)) << len;
  }
  // 5th byte carrying bits beyond 32.
  const uint8_t overflow[] = {0xff, 0xff, 0xff, 0xff, 0x7f};
  size_t pos = 0;
  uint32_t v = 0;
  EXPECT_FALSE(DecodeVarint32(overflow, sizeof(overflow), &pos, &v));
  // Five continuation bytes: malformed no matter what follows.
  const uint8_t runaway[] = {0x80, 0x80, 0x80, 0x80, 0x80, 0x01};
  pos = 0;
  EXPECT_FALSE(DecodeVarint32(runaway, sizeof(runaway), &pos, &v));
}

TEST(VarintTest, MaxIdTripleDeltaRoundTrips) {
  // A block whose triples sit at the extreme of the id space must code
  // and decode exactly.
  const Triple big{UINT32_MAX, UINT32_MAX, UINT32_MAX};
  const Triple prev_t{UINT32_MAX - 1, UINT32_MAX, 0};
  std::string payload;
  EncodeTripleDelta(RunOrder::kPso, prev_t, {0, 0, 0}, true, &payload);
  EncodeTripleDelta(RunOrder::kPso, big, KeyOf(RunOrder::kPso, prev_t), false,
                    &payload);
  BlockDecoder dec(RunOrder::kPso,
                   reinterpret_cast<const uint8_t*>(payload.data()),
                   payload.size(), 2);
  Triple t;
  ASSERT_TRUE(dec.Next(&t));
  EXPECT_EQ(t, prev_t);
  ASSERT_TRUE(dec.Next(&t));
  EXPECT_EQ(t, big);
  EXPECT_FALSE(dec.Next(&t));
  EXPECT_TRUE(dec.AtCleanEnd());
}

/// Decodes `payload` as a PSO block declaring `n` triples and returns
/// how many triples Next produced before it returned false.
size_t DecodedBeforeStop(const std::string& payload, uint32_t n,
                         BlockDecoder* dec) {
  *dec = BlockDecoder(RunOrder::kPso,
                      reinterpret_cast<const uint8_t*>(payload.data()),
                      payload.size(), n);
  size_t decoded = 0;
  Triple t;
  while (dec->Next(&t)) ++decoded;
  return decoded;
}

std::string Varints(std::initializer_list<uint32_t> values) {
  std::string out;
  for (uint32_t v : values) AppendVarint32(v, &out);
  return out;
}

TEST(BlockDecoderTest, EveryMalformedPayloadFailsCleanly) {
  BlockDecoder dec(RunOrder::kPso, nullptr, 0, 0);
  // Well formed: (1,2,3) then a minor-column step to (1,2,4).
  EXPECT_EQ(DecodedBeforeStop(Varints({1, 2, 3, 0, 0, 1}), 2, &dec), 2u);
  EXPECT_TRUE(dec.AtCleanEnd());

  struct Case {
    const char* name;
    std::string payload;
    uint32_t declared;
    size_t decoded_before_failure;
  };
  const std::string overlong(5, '\xff');
  const Case cases[] = {
      {"truncated first triple", Varints({1, 2}), 1, 0},
      {"overlong varint", overlong, 1, 0},
      {"declared count beyond payload", Varints({1, 2, 3}), 2, 1},
      {"major delta wraps", Varints({UINT32_MAX, 0, 0, 1, 0, 0}), 2, 1},
      {"mid delta wraps", Varints({0, UINT32_MAX, 0, 0, 1, 0}), 2, 1},
      {"minor delta wraps", Varints({0, 0, UINT32_MAX, 0, 0, 1}), 2, 1},
      {"zero final delta repeats a key", Varints({1, 2, 3, 0, 0, 0}), 2, 1},
      {"truncated after a zero delta", Varints({1, 2, 3, 0}), 2, 1},
      {"truncated after two zero deltas", Varints({1, 2, 3, 0, 0}), 2, 1},
      {"truncated after a mid delta", Varints({1, 2, 3, 0, 1}), 2, 1},
      {"truncated after a major delta", Varints({1, 2, 3, 1, 5}), 2, 1},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(DecodedBeforeStop(c.payload, c.declared, &dec),
              c.decoded_before_failure)
        << c.name;
    EXPECT_FALSE(dec.ok()) << c.name;
    EXPECT_FALSE(dec.AtCleanEnd()) << c.name;
    Triple t;
    EXPECT_FALSE(dec.Next(&t)) << c.name << ": decoder must stay failed";
  }

  // Trailing bytes after the declared triples decode cleanly but leave
  // the block short of a clean end.
  EXPECT_EQ(DecodedBeforeStop(Varints({1, 2, 3, 7}), 1, &dec), 1u);
  EXPECT_TRUE(dec.ok());
  EXPECT_FALSE(dec.AtCleanEnd());
}

// ---------------------------------------------------------------------------
// Writer / store round trips.

std::vector<Triple> SortedDeduped(std::vector<Triple> triples) {
  std::sort(triples.begin(), triples.end());
  triples.erase(std::unique(triples.begin(), triples.end()), triples.end());
  return triples;
}

TEST(SegmentWriterTest, RoundTripsRandomTriples) {
  Rng rng(7);
  std::vector<Triple> triples;
  for (int i = 0; i < 5000; ++i) {
    triples.push_back(Triple{static_cast<uint32_t>(rng.Next() % 300),
                             static_cast<uint32_t>(rng.Next() % 12),
                             static_cast<uint32_t>(rng.Next() % 300)});
  }
  // Duplicates must collapse exactly as TripleStore's constructor does.
  triples.insert(triples.end(), triples.begin(), triples.begin() + 100);

  const std::string dir = TempDir("seg_roundtrip");
  const std::string path = SegmentPath(dir, 0);
  SegmentWriterOptions options;
  options.block_size = 512;  // many blocks
  options.num_properties = 12;
  options.num_vertices = 300;
  SegmentWriteStats stats;
  ASSERT_TRUE(WriteSegment(path, triples, options, &stats).ok());

  const std::vector<Triple> expected = SortedDeduped(triples);
  EXPECT_EQ(stats.num_triples, expected.size());
  EXPECT_GT(stats.pso_blocks, 1u);

  Result<SegmentStore> segment = SegmentStore::Open(path);
  ASSERT_TRUE(segment.ok()) << segment.status().ToString();
  EXPECT_EQ(segment->num_triples(), expected.size());
  EXPECT_TRUE(segment->DeepCheck().ok());

  // Full unbound scan is the PSO order, which equals Triple::operator<.
  EXPECT_EQ(Collect(*segment, kInvalidVertex, kInvalidProperty, kInvalidVertex),
            expected);

  // The compressed file is much smaller than the four resident copies.
  EXPECT_LT(stats.file_bytes, expected.size() * 4 * sizeof(Triple));
}

TEST(SegmentWriterTest, EmptySegmentRoundTrips) {
  const std::string dir = TempDir("seg_empty");
  const std::string path = SegmentPath(dir, 3);
  SegmentWriterOptions options;
  options.site = 3;
  options.k = 4;
  ASSERT_TRUE(WriteSegment(path, {}, options).ok());
  Result<SegmentStore> segment = SegmentStore::Open(path);
  ASSERT_TRUE(segment.ok()) << segment.status().ToString();
  EXPECT_EQ(segment->num_triples(), 0u);
  EXPECT_TRUE(segment->DeepCheck().ok());
  EXPECT_TRUE(
      Collect(*segment, kInvalidVertex, kInvalidProperty, kInvalidVertex)
          .empty());
  EXPECT_EQ(segment->EstimateCardinality(kInvalidVertex, kInvalidProperty,
                                         kInvalidVertex),
            0u);
}

TEST(SegmentWriterTest, FingerprintMismatchIsRefused) {
  const std::string dir = TempDir("seg_fp");
  const std::string path = SegmentPath(dir, 0);
  SegmentWriterOptions options;
  options.partition_fingerprint = 0xabcdef12u;
  ASSERT_TRUE(WriteSegment(path, {Triple{1, 2, 3}}, options).ok());

  EXPECT_TRUE(SegmentStore::Open(path, 0xabcdef12u).ok());

  Result<SegmentStore> wrong = SegmentStore::Open(path, 0x11111111u);
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Bit-identity with TripleStore: same emission sequences, same (exact)
// cardinalities, same early-stop behavior, for every bound combination.

/// One probe on both sources: the same rows in the same order, exact
/// estimates, and the same prefix and stop report when stopped early.
void ExpectProbeIdentical(const store::TripleSource& a,
                          const store::TripleSource& b, rdf::VertexId s,
                          rdf::PropertyId p, rdf::VertexId o) {
  const std::vector<Triple> rows = Collect(b, s, p, o);
  ASSERT_EQ(Collect(a, s, p, o), rows)
      << "scan mismatch s=" << s << " p=" << p << " o=" << o;
  EXPECT_EQ(a.EstimateCardinality(s, p, o), rows.size())
      << "s=" << s << " p=" << p << " o=" << o;
  EXPECT_EQ(b.EstimateCardinality(s, p, o), rows.size());
  if (rows.size() > 1) {
    bool done_a = true;
    bool done_b = true;
    const size_t limit = rows.size() / 2;
    EXPECT_EQ(Collect(a, s, p, o, limit, &done_a),
              Collect(b, s, p, o, limit, &done_b));
    EXPECT_FALSE(done_a);
    EXPECT_FALSE(done_b);
  }
}

void ExpectSourcesIdentical(const store::TripleSource& a,
                            const store::TripleSource& b, size_t num_vertices,
                            size_t num_properties) {
  ASSERT_EQ(a.num_triples(), b.num_triples());
  for (rdf::PropertyId p = 0; p <= num_properties; ++p) {
    EXPECT_EQ(a.PropertyCount(p), b.PropertyCount(p)) << "p=" << p;
  }
  std::vector<rdf::VertexId> vertices = {kInvalidVertex};
  for (size_t v = 0; v < num_vertices; v += 1 + num_vertices / 7) {
    vertices.push_back(static_cast<rdf::VertexId>(v));
  }
  vertices.push_back(static_cast<rdf::VertexId>(num_vertices + 5));  // absent
  std::vector<rdf::PropertyId> properties = {kInvalidProperty};
  for (size_t p = 0; p < num_properties; ++p) {
    properties.push_back(static_cast<rdf::PropertyId>(p));
  }
  properties.push_back(static_cast<rdf::PropertyId>(num_properties + 2));

  for (rdf::VertexId s : vertices) {
    for (rdf::PropertyId p : properties) {
      for (rdf::VertexId o : vertices) {
        ASSERT_NO_FATAL_FAILURE(ExpectProbeIdentical(a, b, s, p, o));
      }
    }
  }
}

TEST(SegmentStoreTest, BitIdenticalToTripleStoreOnRandomGraphs) {
  Rng rng(11);
  for (int round = 0; round < 3; ++round) {
    const size_t n = 60 + 40 * static_cast<size_t>(round);
    rdf::RdfGraph graph = testutil::RandomGraph(rng, n, 4 * n, 5 + round);
    const std::string dir = TempDir("seg_bitid_" + std::to_string(round));
    const std::string path = SegmentPath(dir, 0);
    SegmentWriterOptions options;
    options.block_size = 512;
    options.num_properties = graph.num_properties();
    options.num_vertices = graph.num_vertices();
    ASSERT_TRUE(WriteSegment(path, graph.triples(), options).ok());
    Result<SegmentStore> segment = SegmentStore::Open(path);
    ASSERT_TRUE(segment.ok()) << segment.status().ToString();
    store::TripleStore memory(graph.triples());
    ExpectSourcesIdentical(*segment, memory, graph.num_vertices(),
                           graph.num_properties());
  }
}

TEST(SegmentStoreTest, ZoneMapsPruneBoundSubjectSweeps) {
  // Subjects are clustered per property, so PSO blocks have narrow
  // subject zone maps: a bound-subject sweep must rule most blocks out
  // without decoding them.
  std::vector<Triple> triples;
  for (uint32_t p = 0; p < 16; ++p) {
    for (uint32_t i = 0; i < 600; ++i) {
      triples.push_back(Triple{p * 1000 + (i % 100), p, i});
    }
  }
  const std::string dir = TempDir("seg_zonemap");
  const std::string path = SegmentPath(dir, 0);
  SegmentWriterOptions options;
  options.block_size = 512;
  ASSERT_TRUE(WriteSegment(path, triples, options).ok());
  Result<SegmentStore> segment = SegmentStore::Open(path);
  ASSERT_TRUE(segment.ok()) << segment.status().ToString();
  ASSERT_GT(segment->header().pso_num_blocks, 8u);

  const std::vector<Triple> all = SortedDeduped(triples);
  const rdf::VertexId s = 3 * 1000 + 7;
  std::vector<Triple> expected;
  for (const Triple& t : all) {
    if (t.subject == s) expected.push_back(t);
  }
  // (s) bound only: contract order is (p, o) ascending, which for a
  // single subject equals PSO order filtered to it.
  const uint64_t decoded_before = segment->blocks_decoded();
  EXPECT_EQ(Collect(*segment, s, kInvalidProperty, kInvalidVertex), expected);
  const uint64_t decoded = segment->blocks_decoded() - decoded_before;
  EXPECT_GT(segment->blocks_pruned(), 0u);
  EXPECT_LT(decoded, segment->header().pso_num_blocks / 2);
}

/// The TOC's block metas of one run, read straight from the file.
std::vector<BlockMeta> ReadBlockMetas(const std::string& path, RunOrder run) {
  const std::string bytes = ReadFileBytes(path);
  const uint8_t* data = reinterpret_cast<const uint8_t*>(bytes.data());
  Result<SegmentHeader> h =
      DecodeSegmentHeader(data, bytes.size(), bytes.size());
  EXPECT_TRUE(h.ok()) << h.status().ToString();
  if (!h.ok()) return {};
  size_t at = h->toc_offset + h->num_properties * kPropertyEntrySize;
  if (run == RunOrder::kPos) at += h->pso_num_blocks * kBlockMetaSize;
  const uint32_t n =
      run == RunOrder::kPso ? h->pso_num_blocks : h->pos_num_blocks;
  std::vector<BlockMeta> metas;
  for (uint32_t i = 0; i < n; ++i) {
    metas.push_back(DecodeBlockMeta(data + at + i * kBlockMetaSize));
  }
  return metas;
}

uint64_t BlocksOverlapping(const std::vector<BlockMeta>& metas,
                           const Key3& lo, const Key3& hi) {
  uint64_t n = 0;
  for (const BlockMeta& m : metas) {
    if (!(m.last < lo) && !(hi < m.first)) ++n;
  }
  return n;
}

TEST(SegmentStoreTest, KeyRangeScansDecodeOnlyOverlappingBlocks) {
  Rng rng(23);
  rdf::RdfGraph graph = testutil::RandomGraph(rng, 150, 3000, 4);
  const std::string dir = TempDir("seg_overlap");
  const std::string path = SegmentPath(dir, 0);
  SegmentWriterOptions options;
  options.block_size = 512;
  ASSERT_TRUE(WriteSegment(path, graph.triples(), options).ok());
  Result<SegmentStore> segment = SegmentStore::Open(path);
  ASSERT_TRUE(segment.ok()) << segment.status().ToString();
  const std::vector<BlockMeta> pso = ReadBlockMetas(path, RunOrder::kPso);
  const std::vector<BlockMeta> pos = ReadBlockMetas(path, RunOrder::kPos);
  ASSERT_GT(pso.size(), 8u);
  ASSERT_GT(pos.size(), 8u);

  uint64_t multi_block_scans = 0;
  for (rdf::PropertyId p = 0; p < graph.num_properties(); ++p) {
    for (rdf::VertexId v = 0; v < graph.num_vertices(); v += 3) {
      // Bound (p, s): the PSO key range {p, s, *}.
      uint64_t before = segment->blocks_decoded();
      Collect(*segment, v, p, kInvalidVertex);
      const uint64_t by_subject =
          BlocksOverlapping(pso, {p, v, 0}, {p, v, UINT32_MAX});
      EXPECT_EQ(segment->blocks_decoded() - before, by_subject)
          << "p=" << p << " s=" << v;
      // Bound (p, o): the POS key range {p, o, *}.
      before = segment->blocks_decoded();
      Collect(*segment, kInvalidVertex, p, v);
      const uint64_t by_object =
          BlocksOverlapping(pos, {p, v, 0}, {p, v, UINT32_MAX});
      EXPECT_EQ(segment->blocks_decoded() - before, by_object)
          << "p=" << p << " o=" << v;
      if (by_subject > 1 || by_object > 1) ++multi_block_scans;
    }
  }
  // Some key ranges straddle a block boundary, so the test also covers
  // scans that cross from one decoded block into the next.
  EXPECT_GT(multi_block_scans, 0u);
}

TEST(SegmentStoreTest, CardinalityDecodesAtMostTheTwoEdgeBlocks) {
  // Subject 5 has 3,000 objects under property 1: its PSO key range
  // spans many 512-byte blocks, with subjects 4 and 6 sharing the edge
  // blocks so both edges fall mid-block.
  std::vector<Triple> triples;
  for (uint32_t o = 0; o < 3000; ++o) triples.push_back(Triple{5, 1, o});
  for (uint32_t o = 0; o < 50; ++o) {
    triples.push_back(Triple{4, 1, o});
    triples.push_back(Triple{6, 1, o});
  }
  const std::string dir = TempDir("seg_covered");
  const std::string path = SegmentPath(dir, 0);
  SegmentWriterOptions options;
  options.block_size = 512;
  ASSERT_TRUE(WriteSegment(path, triples, options).ok());
  Result<SegmentStore> segment = SegmentStore::Open(path);
  ASSERT_TRUE(segment.ok()) << segment.status().ToString();
  const std::vector<BlockMeta> pso = ReadBlockMetas(path, RunOrder::kPso);
  ASSERT_GT(BlocksOverlapping(pso, {1, 5, 0}, {1, 5, UINT32_MAX}), 4u);

  const uint64_t before = segment->blocks_decoded();
  EXPECT_EQ(segment->EstimateCardinality(5, 1, kInvalidVertex), 3000u);
  EXPECT_LE(segment->blocks_decoded() - before, 2u);
}

// ---------------------------------------------------------------------------
// Restart-index probes: differential against TripleStore at, around and
// between the restart points, and under concurrent use.

/// Random triples plus a subject hub (p 0, s 7: 4,000 objects) and an
/// object hub (p 1, o 11: 4,000 subjects), whose (p,s) and (p,o) key
/// ranges span several blocks at block sizes 512 and 4096.
std::vector<Triple> ProbeTestTriples(Rng& rng) {
  std::vector<Triple> triples;
  for (int i = 0; i < 12000; ++i) {
    triples.push_back(Triple{static_cast<uint32_t>(rng.Next() % 400),
                             static_cast<uint32_t>(rng.Next() % 6),
                             static_cast<uint32_t>(rng.Next() % 400)});
  }
  for (uint32_t v = 0; v < 4000; ++v) {
    triples.push_back(Triple{7, 0, v});
    triples.push_back(Triple{v, 1, 11});
  }
  return triples;
}

/// The keys of `run` the probes aim at, read by decoding the file: each
/// block's first and last key and its every kRestartInterval-th key
/// (the restart points SegmentStore indexes).
std::vector<Key3> BoundaryKeys(const std::string& path, RunOrder run) {
  const std::string bytes = ReadFileBytes(path);
  const uint8_t* data = reinterpret_cast<const uint8_t*>(bytes.data());
  Result<SegmentHeader> h =
      DecodeSegmentHeader(data, bytes.size(), bytes.size());
  EXPECT_TRUE(h.ok()) << h.status().ToString();
  if (!h.ok()) return {};
  const uint64_t section =
      run == RunOrder::kPso ? h->pso_offset : h->pos_offset;
  const std::vector<BlockMeta> metas = ReadBlockMetas(path, run);
  std::vector<Key3> keys;
  for (size_t i = 0; i < metas.size(); ++i) {
    const BlockMeta& m = metas[i];
    BlockDecoder dec(run, data + section + i * h->block_size, m.payload_len,
                     m.num_triples);
    Triple t;
    uint32_t n = 0;
    while (dec.Next(&t)) {
      ++n;
      if (n == 1 || n % kRestartInterval == 0 || n == m.num_triples) {
        keys.push_back(KeyOf(run, t));
      }
    }
  }
  return keys;
}

using Probe = std::array<uint32_t, 3>;  // (s, p, o); kInvalid* = unbound

/// Probes before, at and after every boundary key of both runs: point
/// probes on the key and its last component +-1, the key's (p, mid)
/// range with mid +-1, and the (p, x) range of the other run. Every
/// eighth key also adds the four unbound-property combinations and the
/// property-only scan.
std::set<Probe> RestartProbes(const std::string& path) {
  std::set<Probe> probes = {
      {kInvalidVertex, kInvalidProperty, kInvalidVertex}};
  for (RunOrder run : {RunOrder::kPso, RunOrder::kPos}) {
    const std::vector<Key3> keys = BoundaryKeys(path, run);
    for (size_t i = 0; i < keys.size(); ++i) {
      const Key3& key = keys[i];
      for (int d = -1; d <= 1; ++d) {
        Key3 point = key;
        point[2] += static_cast<uint32_t>(d);  // wraps harmlessly at 0
        const Triple t = TripleOf(run, point);
        probes.insert({t.subject, t.property, t.object});
        const uint32_t mid = key[1] + static_cast<uint32_t>(d);
        probes.insert(run == RunOrder::kPso
                          ? Probe{mid, key[0], kInvalidVertex}
                          : Probe{kInvalidVertex, key[0], mid});
      }
      const Triple t = TripleOf(run, key);
      probes.insert(run == RunOrder::kPso
                        ? Probe{kInvalidVertex, t.property, t.object}
                        : Probe{t.subject, t.property, kInvalidVertex});
      if (i % 8 == 0) {
        probes.insert({kInvalidVertex, t.property, kInvalidVertex});
        probes.insert({t.subject, kInvalidProperty, t.object});
        probes.insert({t.subject, kInvalidProperty, kInvalidVertex});
        probes.insert({kInvalidVertex, kInvalidProperty, t.object});
      }
    }
  }
  return probes;
}

TEST(SegmentStoreTest, RestartProbesMatchTripleStore) {
  Rng rng(37);
  const std::vector<Triple> triples = ProbeTestTriples(rng);
  const store::TripleStore memory(triples);
  for (uint32_t block_size : {512u, 4096u}) {
    SCOPED_TRACE("block_size " + std::to_string(block_size));
    const std::string dir =
        TempDir("seg_restart_" + std::to_string(block_size));
    const std::string path = SegmentPath(dir, 0);
    SegmentWriterOptions options;
    options.block_size = block_size;
    ASSERT_TRUE(WriteSegment(path, triples, options).ok());
    Result<SegmentStore> segment = SegmentStore::Open(path);
    ASSERT_TRUE(segment.ok()) << segment.status().ToString();
    ASSERT_GT(BlocksOverlapping(ReadBlockMetas(path, RunOrder::kPso),
                                {0, 7, 0}, {0, 7, UINT32_MAX}),
              2u);
    ASSERT_GT(BlocksOverlapping(ReadBlockMetas(path, RunOrder::kPos),
                                {1, 11, 0}, {1, 11, UINT32_MAX}),
              2u);
    // The hubs themselves: several-block ranges, each direction.
    ASSERT_NO_FATAL_FAILURE(
        ExpectProbeIdentical(*segment, memory, 7, 0, kInvalidVertex));
    ASSERT_NO_FATAL_FAILURE(
        ExpectProbeIdentical(*segment, memory, kInvalidVertex, 1, 11));
    for (const Probe& probe : RestartProbes(path)) {
      ASSERT_NO_FATAL_FAILURE(ExpectProbeIdentical(
          *segment, memory, probe[0], probe[1], probe[2]));
    }
  }
}

TEST(SegmentStoreTest, ConcurrentProbesMatchSerial) {
  Rng rng(41);
  const std::vector<Triple> triples = ProbeTestTriples(rng);
  const std::string dir = TempDir("seg_concurrent");
  const std::string path = SegmentPath(dir, 0);
  SegmentWriterOptions options;
  options.block_size = 512;
  ASSERT_TRUE(WriteSegment(path, triples, options).ok());
  Result<SegmentStore> segment = SegmentStore::Open(path);
  ASSERT_TRUE(segment.ok()) << segment.status().ToString();

  // Every fourth restart probe keeps this quick under ThreadSanitizer.
  std::vector<Probe> probes;
  size_t seen = 0;
  for (const Probe& probe : RestartProbes(path)) {
    if (seen++ % 4 == 0) probes.push_back(probe);
  }
  struct Answer {
    std::vector<Triple> rows;
    size_t estimate = 0;
    bool operator==(const Answer&) const = default;
  };
  auto answer = [&](const Probe& probe) {
    return Answer{Collect(*segment, probe[0], probe[1], probe[2]),
                  segment->EstimateCardinality(probe[0], probe[1], probe[2])};
  };
  std::vector<Answer> serial;
  for (const Probe& probe : probes) serial.push_back(answer(probe));

  constexpr int kThreads = 4;
  std::vector<size_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      // Each thread walks the probes from its own offset, so different
      // threads decode the same blocks at the same time.
      for (size_t i = 0; i < probes.size(); ++i) {
        const size_t at = (i + w * probes.size() / kThreads) % probes.size();
        if (!(answer(probes[at]) == serial[at])) ++mismatches[w];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int w = 0; w < kThreads; ++w) {
    EXPECT_EQ(mismatches[w], 0u) << "thread " << w;
  }
}

// ---------------------------------------------------------------------------
// Corruption: every mutation is a clean error, never a crash.

TEST(SegmentStoreTest, HeaderBitFlipsAreParseErrors) {
  const std::string dir = TempDir("seg_fuzz_header");
  const std::string path = SegmentPath(dir, 0);
  SegmentWriterOptions options;
  ASSERT_TRUE(
      WriteSegment(path, {Triple{1, 1, 2}, Triple{2, 3, 4}}, options).ok());
  const std::string good = ReadFileBytes(path);
  ASSERT_GE(good.size(), kSegmentHeaderSize);

  const std::string fuzzed = dir + "/fuzzed.mpcseg";
  for (size_t byte = 0; byte < kSegmentHeaderSize; ++byte) {
    std::string bad = good;
    bad[byte] = static_cast<char>(bad[byte] ^ 0x40);
    WriteFileBytes(fuzzed, bad);
    Result<SegmentStore> segment = SegmentStore::Open(fuzzed);
    ASSERT_FALSE(segment.ok()) << "flip at header byte " << byte;
    EXPECT_EQ(segment.status().code(), StatusCode::kParseError) << byte;
  }
}

TEST(SegmentStoreTest, TruncationsAndGarbageAreParseErrors) {
  const std::string dir = TempDir("seg_fuzz_trunc");
  const std::string path = SegmentPath(dir, 0);
  Rng rng(5);
  std::vector<Triple> triples;
  for (int i = 0; i < 2000; ++i) {
    triples.push_back(Triple{static_cast<uint32_t>(rng.Next() % 100),
                             static_cast<uint32_t>(rng.Next() % 8),
                             static_cast<uint32_t>(rng.Next() % 100)});
  }
  SegmentWriterOptions options;
  options.block_size = 512;
  ASSERT_TRUE(WriteSegment(path, triples, options).ok());
  const std::string good = ReadFileBytes(path);

  const std::string fuzzed = dir + "/fuzzed.mpcseg";
  // Truncations at every section boundary and at odd offsets.
  for (size_t len : {size_t{0}, size_t{1}, size_t{100}, kSegmentHeaderSize,
                     size_t{512}, size_t{513}, good.size() - 57,
                     good.size() - 1}) {
    WriteFileBytes(fuzzed, good.substr(0, len));
    Result<SegmentStore> segment = SegmentStore::Open(fuzzed);
    ASSERT_FALSE(segment.ok()) << "truncation to " << len;
    EXPECT_EQ(segment.status().code(), StatusCode::kParseError) << len;
  }
  // Trailing garbage (the layout is rigid: TOC must end the file).
  WriteFileBytes(fuzzed, good + "garbage");
  EXPECT_FALSE(SegmentStore::Open(fuzzed).ok());
  // Pure garbage of plausible size.
  std::string garbage(good.size(), '\x5a');
  WriteFileBytes(fuzzed, garbage);
  Result<SegmentStore> segment = SegmentStore::Open(fuzzed);
  ASSERT_FALSE(segment.ok());
  EXPECT_EQ(segment.status().code(), StatusCode::kParseError);
}

TEST(SegmentStoreTest, RandomBitFlipsNeverCrash) {
  const std::string dir = TempDir("seg_fuzz_rand");
  const std::string path = SegmentPath(dir, 0);
  Rng rng(17);
  std::vector<Triple> triples;
  for (int i = 0; i < 3000; ++i) {
    triples.push_back(Triple{static_cast<uint32_t>(rng.Next() % 200),
                             static_cast<uint32_t>(rng.Next() % 10),
                             static_cast<uint32_t>(rng.Next() % 200)});
  }
  SegmentWriterOptions options;
  options.block_size = 512;
  ASSERT_TRUE(WriteSegment(path, triples, options).ok());
  const std::string good = ReadFileBytes(path);

  const std::string fuzzed = dir + "/fuzzed.mpcseg";
  for (int trial = 0; trial < 200; ++trial) {
    std::string bad = good;
    const size_t pos = rng.Next() % bad.size();
    bad[pos] = static_cast<char>(bad[pos] ^ (1u << (rng.Next() % 8)));
    WriteFileBytes(fuzzed, bad);
    Result<SegmentStore> segment = SegmentStore::Open(fuzzed);
    if (!segment.ok()) {
      const StatusCode code = segment.status().code();
      EXPECT_TRUE(code == StatusCode::kParseError ||
                  code == StatusCode::kInvalidArgument)
          << segment.status().ToString();
      continue;
    }
    // A flip in padding can leave the file fully valid: it must then
    // still read back the original data (scan everything; no crash).
    EXPECT_EQ(
        Collect(*segment, kInvalidVertex, kInvalidProperty, kInvalidVertex),
        SortedDeduped(triples));
  }
}

TEST(SegmentStoreTest, FlippedPayloadByteIsRefusedAtOpen) {
  const std::string dir = TempDir("seg_payload_flip");
  const std::string path = SegmentPath(dir, 0);
  std::vector<Triple> triples;
  for (uint32_t i = 0; i < 2000; ++i) {
    triples.push_back(Triple{i % 97, i % 7, i % 89});
  }
  SegmentWriterOptions options;
  options.block_size = 512;
  ASSERT_TRUE(WriteSegment(path, triples, options).ok());
  std::string bytes = ReadFileBytes(path);
  // Flip a byte in the middle of the first PSO block's payload: header
  // and TOC stay valid, only the block checksum catches it.
  bytes[512 + 20] = static_cast<char>(bytes[512 + 20] ^ 0xff);
  WriteFileBytes(path, bytes);

  Result<SegmentStore> segment = SegmentStore::Open(path);
  ASSERT_FALSE(segment.ok());
  EXPECT_EQ(segment.status().code(), StatusCode::kParseError);
  EXPECT_NE(segment.status().message().find("payload checksum mismatch"),
            std::string::npos)
      << segment.status().ToString();
}

/// Packs a 2,000-triple segment, lets `forge` rewrite the first PSO
/// block's payload (the bytes up to its payload_len) and TOC entry,
/// re-stamps the block, TOC and header checksums so only decoding can
/// tell, and returns the segment's path.
std::string ForgeFirstPsoBlock(
    const std::string& name,
    const std::function<void(std::string*, BlockMeta*)>& forge) {
  const std::string dir = TempDir(name);
  const std::string path = SegmentPath(dir, 0);
  std::vector<Triple> triples;
  for (uint32_t i = 0; i < 2000; ++i) {
    triples.push_back(Triple{i % 97, i % 7, i % 89});
  }
  SegmentWriterOptions options;
  options.block_size = 512;
  EXPECT_TRUE(WriteSegment(path, triples, options).ok());
  std::string bytes = ReadFileBytes(path);
  const uint8_t* data = reinterpret_cast<const uint8_t*>(bytes.data());
  Result<SegmentHeader> header =
      DecodeSegmentHeader(data, bytes.size(), bytes.size());
  EXPECT_TRUE(header.ok()) << header.status().ToString();
  if (!header.ok()) return path;

  const size_t meta_at =
      header->toc_offset + header->num_properties * kPropertyEntrySize;
  BlockMeta meta = DecodeBlockMeta(data + meta_at);
  std::string payload = bytes.substr(header->pso_offset, meta.payload_len);
  forge(&payload, &meta);
  EXPECT_LE(payload.size(), options.block_size);
  meta.payload_len = static_cast<uint32_t>(payload.size());
  payload.resize(options.block_size, '\0');
  bytes.replace(header->pso_offset, payload.size(), payload);
  meta.checksum = HashString(
      std::string_view(bytes.data() + header->pso_offset, meta.payload_len));
  std::string encoded_meta;
  EncodeBlockMeta(meta, &encoded_meta);
  bytes.replace(meta_at, kBlockMetaSize, encoded_meta);
  header->toc_checksum = HashString(
      std::string_view(bytes.data() + header->toc_offset, header->toc_size));
  bytes.replace(0, kSegmentHeaderSize, EncodeSegmentHeader(*header));
  WriteFileBytes(path, bytes);
  return path;
}

void ExpectRefusedAtOpen(const std::string& path, const std::string& what) {
  Result<SegmentStore> segment = SegmentStore::Open(path);
  ASSERT_FALSE(segment.ok()) << what;
  EXPECT_EQ(segment.status().code(), StatusCode::kParseError);
  EXPECT_NE(segment.status().message().find("PSO block 0: " + what),
            std::string::npos)
      << segment.status().ToString();
}

TEST(SegmentStoreTest, UndecodableBlockWithForgedChecksumsIsRefusedAtOpen) {
  // A payload whose checksums match (a writer bug, or a forged file)
  // but which does not decode to what its TOC entry says is refused by
  // Open, naming the run and block: no scan ever meets it.
  ExpectRefusedAtOpen(
      ForgeFirstPsoBlock("seg_forged_varint",
                         [](std::string* payload, BlockMeta*) {
                           // An overlong varint opens the payload.
                           for (size_t i = 0; i < kMaxVarint32Bytes; ++i) {
                             (*payload)[i] = '\xff';
                           }
                         }),
      "payload does not decode cleanly");
  ExpectRefusedAtOpen(
      ForgeFirstPsoBlock(
          "seg_forged_repeat",
          [](std::string* payload, BlockMeta*) {
            // The second triple repeats the first (an all-zero delta):
            // keys that do not strictly increase.
            const uint8_t* data =
                reinterpret_cast<const uint8_t*>(payload->data());
            BlockDecoder dec(RunOrder::kPso, data, payload->size(), 2);
            Triple t;
            ASSERT_TRUE(dec.Next(&t));
            const size_t first_end = dec.pos();
            ASSERT_TRUE(dec.Next(&t));
            *payload = payload->substr(0, first_end) +
                       std::string(3, '\0') + payload->substr(dec.pos());
          }),
      "payload does not decode cleanly");
  ExpectRefusedAtOpen(ForgeFirstPsoBlock("seg_forged_first",
                                         [](std::string*, BlockMeta* meta) {
                                           ++meta->first[2];
                                         }),
                      "first key disagrees with TOC");
  ExpectRefusedAtOpen(ForgeFirstPsoBlock("seg_forged_last",
                                         [](std::string*, BlockMeta* meta) {
                                           meta->last = meta->first;
                                         }),
                      "last key disagrees with TOC");
}

// ---------------------------------------------------------------------------
// The shared pack/open path refuses a segment swapped onto another site.

TEST(SegmentClusterTest, SwappedSiteSegmentsAreRefused) {
  Rng rng(17);
  rdf::RdfGraph graph = testutil::RandomGraph(rng, 80, 300, 6);
  partition::PartitionerOptions popt{.k = 3, .epsilon = 0.1, .seed = 1};
  partition::Partitioning partitioning =
      partition::SubjectHashPartitioner(popt).Partition(graph);
  const std::string dir = TempDir("seg_swap");
  ASSERT_TRUE(partition::PartitionIo::Save(graph, partitioning, dir).ok());
  ASSERT_TRUE(exec::PackSegments(partitioning, dir).ok());
  ASSERT_TRUE(exec::Cluster::BuildFromSegments(partitioning, dir).ok());

  // Same fingerprint, wrong site: only the header's site id tells them
  // apart.
  const std::string tmp = dir + "/swap.tmp";
  std::filesystem::rename(SegmentPath(dir, 0), tmp);
  std::filesystem::rename(SegmentPath(dir, 1), SegmentPath(dir, 0));
  std::filesystem::rename(tmp, SegmentPath(dir, 1));
  Result<exec::Cluster> swapped =
      exec::Cluster::BuildFromSegments(partitioning, dir);
  ASSERT_FALSE(swapped.ok());
  EXPECT_EQ(swapped.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(swapped.status().message().find("segment is for site"),
            std::string::npos)
      << swapped.status().ToString();

  // The worker's open (no k known) refuses it the same way.
  Result<uint64_t> fingerprint = partition::PartitionIo::Fingerprint(dir);
  ASSERT_TRUE(fingerprint.ok());
  EXPECT_FALSE(
      exec::OpenSiteSegment(dir, 0, *fingerprint, std::nullopt).ok());
  EXPECT_TRUE(exec::OpenSiteSegment(dir, 2, *fingerprint, 3).ok());
  EXPECT_FALSE(exec::OpenSiteSegment(dir, 2, *fingerprint, 4).ok());
}

// The worker's loader: every packed site, decoded into a TripleStore, is
// the store the in-process Cluster builds from SiteTriples, for an MPC
// and a VP partitioning at k=4 — the same rows in the same order on all
// 8 bound combinations, exact estimates, and the same footprint.
TEST(SegmentClusterTest, DecodedSitesEqualSiteTriplesStores) {
  Rng rng(23);
  rdf::RdfGraph graph = testutil::RandomGraph(rng, 90, 360, 6,
                                              /*community=*/15,
                                              /*escape=*/0.2);
  core::MpcOptions mpc;
  mpc.base.k = 4;
  mpc.base.epsilon = 0.3;
  partition::PartitionerOptions vp{.k = 4};
  const partition::Partitioning cases[] = {
      core::MpcPartitioner(mpc).Partition(graph),
      partition::VpPartitioner(vp).Partition(graph)};
  for (size_t c = 0; c < std::size(cases); ++c) {
    const partition::Partitioning& partitioning = cases[c];
    const std::string dir = TempDir("seg_decode_" + std::to_string(c));
    ASSERT_TRUE(partition::PartitionIo::Save(graph, partitioning, dir).ok());
    ASSERT_TRUE(exec::PackSegments(partitioning, dir).ok());
    Result<uint64_t> fingerprint = partition::PartitionIo::Fingerprint(dir);
    ASSERT_TRUE(fingerprint.ok());
    for (uint32_t site = 0; site < partitioning.k(); ++site) {
      SCOPED_TRACE("case " + std::to_string(c) + " site " +
                   std::to_string(site));
      Result<SegmentStore> segment =
          exec::OpenSiteSegment(dir, site, *fingerprint, partitioning.k());
      ASSERT_TRUE(segment.ok()) << segment.status().ToString();
      const store::TripleStore decoded = exec::DecodeToTripleStore(*segment);
      const store::TripleStore built(
          exec::SiteTriples(partitioning.partition(site)));
      EXPECT_EQ(decoded.MemoryUsage(), built.MemoryUsage());
      ExpectSourcesIdentical(decoded, built, graph.num_vertices(),
                             graph.num_properties());
    }
  }
}

// ---------------------------------------------------------------------------
// Executor-level equivalence on the LUBM mix.

TEST(SegmentClusterTest, LubmQueryMixIsBitIdenticalAcrossBackends) {
  workload::LubmOptions lubm_options;
  lubm_options.num_universities = 6;
  workload::GeneratedDataset dataset = workload::MakeLubm(lubm_options);

  partition::PartitionerOptions popt{.k = 4, .epsilon = 0.1, .seed = 3};
  partition::Partitioning partitioning =
      partition::SubjectHashPartitioner(popt).Partition(dataset.graph);

  const std::string dir = TempDir("seg_lubm");
  ASSERT_TRUE(
      partition::PartitionIo::Save(dataset.graph, partitioning, dir).ok());
  ASSERT_TRUE(exec::PackSegments(partitioning, dir).ok());

  exec::Cluster memory_cluster = exec::Cluster::Build(partitioning);
  Result<exec::Cluster> segment_cluster =
      exec::Cluster::BuildFromSegments(partitioning, dir);
  ASSERT_TRUE(segment_cluster.ok()) << segment_cluster.status().ToString();
  EXPECT_EQ(segment_cluster->MemoryUsage() > 0, true);

  exec::DistributedExecutor memory_exec(memory_cluster, dataset.graph, {});
  exec::DistributedExecutor segment_exec(*segment_cluster, dataset.graph, {});
  ASSERT_FALSE(dataset.benchmark_queries.empty());
  for (const workload::NamedQuery& q : dataset.benchmark_queries) {
    Result<exec::QueryResponse> a =
        memory_exec.Execute(exec::QueryRequest::FromText(q.sparql));
    Result<exec::QueryResponse> b =
        segment_exec.Execute(exec::QueryRequest::FromText(q.sparql));
    ASSERT_TRUE(a.ok()) << q.name << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << q.name << ": " << b.status().ToString();
    // Bit-identical: same columns, same rows, same order.
    EXPECT_EQ(a->bindings.var_ids, b->bindings.var_ids) << q.name;
    ASSERT_EQ(a->bindings.rows, b->bindings.rows) << q.name;
  }
}

// ---------------------------------------------------------------------------
// Delta overlay: (base ∪ added) \ deleted, bit-identical to a rebuilt
// TripleStore over the live set.

TEST(DeltaOverlayTest, MatchesRebuiltStoreOnRandomDeltas) {
  Rng rng(23);
  for (int round = 0; round < 3; ++round) {
    std::vector<Triple> base;
    for (int i = 0; i < 1500; ++i) {
      base.push_back(Triple{static_cast<uint32_t>(rng.Next() % 120),
                            static_cast<uint32_t>(rng.Next() % 6),
                            static_cast<uint32_t>(rng.Next() % 120)});
    }
    base = SortedDeduped(base);
    std::vector<Triple> added;
    std::vector<Triple> deleted;
    for (int i = 0; i < 200; ++i) {
      // Adds: half fresh, half duplicating base (no-ops).
      added.push_back(rng.Next() % 2 == 0
                          ? base[rng.Next() % base.size()]
                          : Triple{static_cast<uint32_t>(rng.Next() % 120),
                                   static_cast<uint32_t>(rng.Next() % 6),
                                   static_cast<uint32_t>(rng.Next() % 120)});
      // Deletes: half hitting base, half missing (no-ops); may overlap
      // the adds (delete wins — matches IncrementalMaintainer).
      deleted.push_back(rng.Next() % 2 == 0
                            ? base[rng.Next() % base.size()]
                            : Triple{static_cast<uint32_t>(rng.Next() % 120),
                                     static_cast<uint32_t>(rng.Next() % 6),
                                     static_cast<uint32_t>(rng.Next() % 120)});
    }

    auto base_store = std::make_shared<const store::TripleStore>(base);
    DeltaOverlaySource overlay(base_store, added, deleted);

    // Reference: live = (base ∪ added) \ deleted.
    std::vector<Triple> live = base;
    std::set<Triple> deleted_set(deleted.begin(), deleted.end());
    for (const Triple& t : added) {
      if (deleted_set.count(t) == 0) live.push_back(t);
    }
    live.erase(std::remove_if(live.begin(), live.end(),
                              [&](const Triple& t) {
                                return deleted_set.count(t) != 0;
                              }),
               live.end());
    store::TripleStore rebuilt(std::move(live));

    ExpectSourcesIdentical(overlay, rebuilt, 120, 6);
  }
}

TEST(DeltaOverlayTest, OverlayOverSegmentBaseMatchesToo) {
  // The composition actually shipped: segment base + overlay.
  Rng rng(29);
  std::vector<Triple> base;
  for (int i = 0; i < 1000; ++i) {
    base.push_back(Triple{static_cast<uint32_t>(rng.Next() % 80),
                          static_cast<uint32_t>(rng.Next() % 5),
                          static_cast<uint32_t>(rng.Next() % 80)});
  }
  const std::string dir = TempDir("seg_overlay");
  const std::string path = SegmentPath(dir, 0);
  SegmentWriterOptions options;
  options.block_size = 512;
  ASSERT_TRUE(WriteSegment(path, base, options).ok());
  Result<SegmentStore> segment = SegmentStore::Open(path);
  ASSERT_TRUE(segment.ok());

  std::vector<Triple> added = {Triple{200, 1, 3}, Triple{0, 0, 0}};
  std::vector<Triple> deleted = {base[0], base[1], Triple{999, 4, 999}};
  auto seg_base =
      std::make_shared<const SegmentStore>(std::move(*segment));
  DeltaOverlaySource overlay(seg_base, added, deleted);

  std::vector<Triple> live = SortedDeduped(base);
  std::set<Triple> deleted_set(deleted.begin(), deleted.end());
  for (const Triple& t : added) {
    if (deleted_set.count(t) == 0) live.push_back(t);
  }
  live.erase(std::remove_if(
                 live.begin(), live.end(),
                 [&](const Triple& t) { return deleted_set.count(t) != 0; }),
             live.end());
  store::TripleStore rebuilt(std::move(live));
  ExpectSourcesIdentical(overlay, rebuilt, 210, 6);
}

TEST(DeltaOverlayTest, RandomBatchesOverSegmentBaseMatchRebuiltStore) {
  // Cumulative add and delete sets over a segment base, as
  // ServingState::Capture composes them, batch after batch. Adds share
  // (p,s) or (p,o) with base triples, so their ranges interleave with
  // the base's, or carry properties 5 and 6, which the base lacks.
  Rng rng(43);
  auto vertex = [&] { return static_cast<uint32_t>(rng.Next() % 160); };
  std::vector<Triple> base;
  for (int i = 0; i < 3000; ++i) {
    base.push_back(Triple{vertex(), static_cast<uint32_t>(rng.Next() % 5),
                          vertex()});
  }
  base = SortedDeduped(base);
  const std::string dir = TempDir("seg_overlay_batches");
  const std::string path = SegmentPath(dir, 0);
  SegmentWriterOptions options;
  options.block_size = 512;
  ASSERT_TRUE(WriteSegment(path, base, options).ok());
  Result<SegmentStore> segment = SegmentStore::Open(path);
  ASSERT_TRUE(segment.ok()) << segment.status().ToString();
  auto seg_base = std::make_shared<const SegmentStore>(std::move(*segment));

  std::vector<Triple> added;
  std::vector<Triple> deleted;
  for (int batch = 0; batch < 4; ++batch) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    for (int i = 0; i < 60; ++i) {
      const Triple& b = base[rng.Next() % base.size()];
      const uint64_t add_kind = rng.Next() % 4;
      if (add_kind == 0) {
        added.push_back(Triple{b.subject, b.property, vertex()});
      } else if (add_kind == 1) {
        added.push_back(Triple{vertex(), b.property, b.object});
      } else if (add_kind == 2) {
        added.push_back(Triple{
            vertex(), static_cast<uint32_t>(5 + rng.Next() % 2), vertex()});
      } else {
        added.push_back(b);  // a no-op add
      }
      // Deletes: base triples, earlier adds (delete wins) and misses.
      const uint64_t delete_kind = rng.Next() % 4;
      if (delete_kind <= 1) {
        deleted.push_back(base[rng.Next() % base.size()]);
      } else if (delete_kind == 2) {
        deleted.push_back(added[rng.Next() % added.size()]);
      } else {
        deleted.push_back(Triple{vertex(), 2, vertex()});
      }
    }
    DeltaOverlaySource overlay(seg_base, added, deleted);

    std::vector<Triple> live = base;
    live.insert(live.end(), added.begin(), added.end());
    const std::set<Triple> deleted_set(deleted.begin(), deleted.end());
    live.erase(std::remove_if(
                   live.begin(), live.end(),
                   [&](const Triple& t) { return deleted_set.count(t) != 0; }),
               live.end());
    const store::TripleStore rebuilt(std::move(live));

    ASSERT_NO_FATAL_FAILURE(ExpectSourcesIdentical(overlay, rebuilt, 160, 7));
    // All eight bound combinations around every add and delete.
    std::set<Probe> probes;
    for (const std::vector<Triple>* delta : {&added, &deleted}) {
      for (const Triple& t : *delta) {
        for (int mask = 0; mask < 8; ++mask) {
          probes.insert({(mask & 1) ? t.subject : kInvalidVertex,
                         (mask & 2) ? t.property : kInvalidProperty,
                         (mask & 4) ? t.object : kInvalidVertex});
        }
      }
    }
    for (const Probe& probe : probes) {
      ASSERT_NO_FATAL_FAILURE(ExpectProbeIdentical(overlay, rebuilt, probe[0],
                                                   probe[1], probe[2]));
    }
  }
}

// ---------------------------------------------------------------------------
// Serving: Capture with segment bases serves the same answers as the
// full rebuild.

TEST(ServingOverlayTest, CaptureWithBasesMatchesRebuild) {
  Rng rng(31);
  rdf::RdfGraph graph = testutil::RandomGraph(rng, 120, 500, 6);
  partition::PartitionerOptions popt{.k = 3, .epsilon = 0.1, .seed = 9};
  partition::Partitioning partitioning =
      partition::SubjectHashPartitioner(popt).Partition(graph);

  // Bases: the initial cluster's own sources (any TripleSource works;
  // `mpc serve` uses opened segments).
  exec::Cluster base_cluster = exec::Cluster::Build(partitioning);

  dynamic::MaintainerOptions moptions;
  moptions.policy.kind = dynamic::RepartitionPolicy::Kind::kNever;
  dynamic::IncrementalMaintainer maintainer(graph.Clone(), partitioning,
                                            moptions);
  dynamic::UpdateBatch batch;
  // Inserts reusing existing terms plus one brand-new vertex, and
  // deletes of existing triples.
  const std::vector<Triple>& triples = graph.triples();
  for (int i = 0; i < 20; ++i) {
    const Triple& t = triples[rng.Next() % triples.size()];
    batch.updates.push_back(dynamic::TripleUpdate{
        dynamic::UpdateKind::kDelete, graph.VertexName(t.subject),
        graph.PropertyName(t.property), graph.VertexName(t.object)});
  }
  for (int i = 0; i < 20; ++i) {
    const Triple& t = triples[rng.Next() % triples.size()];
    batch.updates.push_back(dynamic::TripleUpdate{
        dynamic::UpdateKind::kInsert, graph.VertexName(t.subject),
        graph.PropertyName(t.property),
        graph.VertexName(triples[rng.Next() % triples.size()].object)});
  }
  batch.updates.push_back(dynamic::TripleUpdate{
      dynamic::UpdateKind::kInsert, "<t:brandnew>",
      graph.PropertyName(triples[0].property), graph.VertexName(0)});
  maintainer.ApplyBatch(batch);

  serve::ServingStateOptions with_bases;
  with_bases.base_sources = base_cluster.sources();
  std::shared_ptr<const serve::ServingState> overlay_state =
      serve::ServingState::Capture(maintainer, with_bases);
  std::shared_ptr<const serve::ServingState> rebuilt_state =
      serve::ServingState::Capture(maintainer, {});
  EXPECT_EQ(overlay_state->generation(), rebuilt_state->generation());

  const std::string queries[] = {
      "SELECT ?s ?o WHERE { ?s <t:p0> ?o . }",
      "SELECT ?s ?o WHERE { ?s <t:p1> ?o . ?s <t:p2> ?o2 . }",
      "SELECT ?s WHERE { ?s <t:p3> ?o . ?o <t:p0> ?t . }",
  };
  for (const std::string& q : queries) {
    Result<exec::QueryResponse> a = overlay_state->distributed().Execute(
        exec::QueryRequest::FromText(q));
    Result<exec::QueryResponse> b = rebuilt_state->distributed().Execute(
        exec::QueryRequest::FromText(q));
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(a->bindings.var_ids, b->bindings.var_ids);
    EXPECT_EQ(testutil::RowSet(a->bindings), testutil::RowSet(b->bindings))
        << q;
  }

  // The overlay path must not have rebuilt: its site stores report the
  // delta accounting.
  const auto* cluster =
      dynamic_cast<const exec::Cluster*>(&overlay_state->cluster());
  ASSERT_NE(cluster, nullptr);
  size_t tombstoned = 0;
  for (const auto& source : cluster->sources()) {
    const auto* overlay =
        dynamic_cast<const DeltaOverlaySource*>(source.get());
    ASSERT_NE(overlay, nullptr);
    tombstoned += overlay->num_tombstoned();
  }
  EXPECT_GT(tombstoned, 0u);
}

// ---------------------------------------------------------------------------
// Satellites: FunctionRef semantics and the MemoryUsage accounting fix.

TEST(FunctionRefTest, InvokesCapturesWithoutOwnership) {
  int hits = 0;
  auto counter = [&hits](const Triple& t) {
    ++hits;
    return t.property < 2;
  };
  FunctionRef<bool(const Triple&)> ref = counter;
  EXPECT_TRUE(ref(Triple{0, 0, 0}));
  EXPECT_TRUE(ref(Triple{0, 1, 0}));
  EXPECT_FALSE(ref(Triple{0, 2, 0}));
  EXPECT_EQ(hits, 3);

  // Two words: object pointer + trampoline. The whole point of the
  // refactor is that passing a capturing lambda to Scan never allocates.
  static_assert(sizeof(FunctionRef<bool(const Triple&)>) <=
                2 * sizeof(void*));

  // Re-binding to another callable.
  auto always = [](const Triple&) { return true; };
  ref = FunctionRef<bool(const Triple&)>(always);
  EXPECT_TRUE(ref(Triple{9, 9, 9}));
}

TEST(TripleStoreTest, MemoryUsageCountsAllFourIndexCopies) {
  Rng rng(41);
  std::vector<Triple> triples;
  for (int i = 0; i < 4000; ++i) {
    triples.push_back(Triple{static_cast<uint32_t>(rng.Next() % 500),
                             static_cast<uint32_t>(rng.Next() % 9),
                             static_cast<uint32_t>(rng.Next() % 500)});
  }
  triples = SortedDeduped(triples);
  store::TripleStore store(triples);
  // Four sorted copies (PSO, POS, SPO, OSP) at minimum — the old
  // accounting under-reported by 25% by counting three.
  EXPECT_GE(store.MemoryUsage(), 4 * triples.size() * sizeof(Triple));
}

}  // namespace
}  // namespace mpc::storage
