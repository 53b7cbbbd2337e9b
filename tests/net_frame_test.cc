// Adversarial coverage for the wire layer: every torn, truncated,
// corrupted or garbage frame must come back as a descriptive ParseError
// (or Unavailable/DeadlineExceeded where the vocabulary says so) — never
// a crash, an out-of-bounds read, or an unbounded allocation.

#include <sys/socket.h>
#include <unistd.h>

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "exec/bloom_filter.h"
#include "exec/cluster.h"
#include "exec/rpc_protocol.h"
#include "gtest/gtest.h"
#include "net/bytes.h"
#include "net/frame.h"
#include "net/socket.h"

namespace mpc::net {
namespace {

// --- ByteWriter / ByteReader. ---

TEST(BytesTest, RoundTripsEveryWidth) {
  ByteWriter w;
  w.U8(0xab);
  w.U16(0xbeef);
  w.U32(0xdeadbeefu);
  w.U64(0x0123456789abcdefull);
  w.F64(3.5);
  w.Str("hello");
  const std::string payload = w.Take();

  ByteReader r(payload);
  uint8_t u8 = 0;
  uint16_t u16 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  double f64 = 0;
  std::string s;
  ASSERT_TRUE(r.U8(&u8).ok());
  ASSERT_TRUE(r.U16(&u16).ok());
  ASSERT_TRUE(r.U32(&u32).ok());
  ASSERT_TRUE(r.U64(&u64).ok());
  ASSERT_TRUE(r.F64(&f64).ok());
  ASSERT_TRUE(r.Str(&s).ok());
  EXPECT_TRUE(r.ExpectEnd().ok());
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u16, 0xbeef);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefull);
  EXPECT_EQ(f64, 3.5);
  EXPECT_EQ(s, "hello");
}

TEST(BytesTest, EveryTruncationPointFailsCleanly) {
  ByteWriter w;
  w.U32(7);
  w.Str("payload");
  w.U64(42);
  const std::string full = w.Take();
  for (size_t len = 0; len < full.size(); ++len) {
    ByteReader r(std::string_view(full).substr(0, len));
    uint32_t a = 0;
    uint64_t b = 0;
    std::string s;
    Status st = r.U32(&a);
    if (st.ok()) st = r.Str(&s);
    if (st.ok()) st = r.U64(&b);
    EXPECT_FALSE(st.ok()) << "prefix length " << len;
    EXPECT_EQ(st.code(), StatusCode::kParseError);
    EXPECT_NE(st.message().find("truncated"), std::string::npos);
  }
}

TEST(BytesTest, StringLengthIsValidatedBeforeAllocation) {
  // A length prefix claiming 4 GiB against a 3-byte buffer must fail
  // without touching the output.
  ByteWriter w;
  w.U32(0xffffffffu);
  w.Bytes("abc");
  const std::string hostile = w.Take();
  ByteReader r(hostile);
  std::string out = "unchanged";
  Status st = r.Str(&out);
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_EQ(out, "unchanged");
}

TEST(BytesTest, TrailingGarbageIsAnError) {
  ByteWriter w;
  w.U32(1);
  w.U8(0);
  ByteReader r(w.Take());
  uint32_t v = 0;
  ASSERT_TRUE(r.U32(&v).ok());
  Status st = r.ExpectEnd();
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("trailing"), std::string::npos);
}

// --- Frame header decoding. ---

TEST(FrameTest, HeaderRoundTrips) {
  const std::string frame = EncodeFrame(kFramePing, "abc");
  ASSERT_GE(frame.size(), kFrameHeaderSize);
  Result<FrameHeader> header =
      DecodeFrameHeader(std::string_view(frame).substr(0, kFrameHeaderSize));
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header->version, kProtocolVersion);
  EXPECT_EQ(header->type, kFramePing);
  EXPECT_EQ(header->payload_len, 3u);
  EXPECT_TRUE(
      VerifyFramePayload(*header, frame.substr(kFrameHeaderSize)).ok());
}

TEST(FrameTest, TruncatedHeaderIsParseError) {
  const std::string frame = EncodeFrame(kFramePing, "abc");
  for (size_t len = 0; len < kFrameHeaderSize; ++len) {
    Result<FrameHeader> header =
        DecodeFrameHeader(std::string_view(frame).substr(0, len));
    ASSERT_FALSE(header.ok()) << "header prefix " << len;
    EXPECT_EQ(header.status().code(), StatusCode::kParseError);
  }
}

TEST(FrameTest, BadMagicIsParseErrorNamingTheBytes) {
  std::string frame = EncodeFrame(kFramePing, "abc");
  frame[0] = 'X';
  Result<FrameHeader> header =
      DecodeFrameHeader(std::string_view(frame).substr(0, kFrameHeaderSize));
  ASSERT_FALSE(header.ok());
  EXPECT_EQ(header.status().code(), StatusCode::kParseError);
  EXPECT_NE(header.status().message().find("magic"), std::string::npos);
}

TEST(FrameTest, UnknownVersionIsParseError) {
  std::string frame = EncodeFrame(kFramePing, "abc");
  frame[4] = static_cast<char>(0x7f);  // version low byte
  Result<FrameHeader> header =
      DecodeFrameHeader(std::string_view(frame).substr(0, kFrameHeaderSize));
  ASSERT_FALSE(header.ok());
  EXPECT_EQ(header.status().code(), StatusCode::kParseError);
  EXPECT_NE(header.status().message().find("version"), std::string::npos);
}

TEST(FrameTest, OversizedLengthIsRejectedBeforeAllocating) {
  std::string frame = EncodeFrame(kFramePing, "abc");
  // Stamp a 3.9 GiB payload length into the header (offset 8, LE u32).
  const uint32_t huge = 0xf0000000u;
  for (int i = 0; i < 4; ++i) {
    frame[8 + i] = static_cast<char>((huge >> (8 * i)) & 0xff);
  }
  Result<FrameHeader> header =
      DecodeFrameHeader(std::string_view(frame).substr(0, kFrameHeaderSize));
  ASSERT_FALSE(header.ok());
  EXPECT_EQ(header.status().code(), StatusCode::kParseError);
  EXPECT_NE(header.status().message().find("payload length"),
            std::string::npos)
      << header.status().ToString();
}

TEST(FrameTest, ChecksumMismatchIsParseError) {
  const std::string frame = EncodeFrame(kFramePing, "abcdef");
  Result<FrameHeader> header =
      DecodeFrameHeader(std::string_view(frame).substr(0, kFrameHeaderSize));
  ASSERT_TRUE(header.ok());
  std::string payload = frame.substr(kFrameHeaderSize);
  payload[2] ^= 0x01;
  Status st = VerifyFramePayload(*header, payload);
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("checksum"), std::string::npos);
}

/// Fuzz-ish: single-byte mutations of a valid header either still parse
/// (mutations inside the checksum field — it is not covered by itself)
/// or produce a clean ParseError. Never a crash; that is the property.
TEST(FrameTest, HeaderByteMutationsNeverMisbehave) {
  const std::string frame = EncodeFrame(kFirstAppFrameType, "payload-bytes");
  const std::string_view header_bytes =
      std::string_view(frame).substr(0, kFrameHeaderSize);
  for (size_t pos = 0; pos < kFrameHeaderSize; ++pos) {
    for (uint8_t flip : {0x01, 0x80, 0xff}) {
      std::string mutated(header_bytes);
      mutated[pos] = static_cast<char>(mutated[pos] ^ flip);
      Result<FrameHeader> header = DecodeFrameHeader(mutated);
      if (!header.ok()) {
        EXPECT_EQ(header.status().code(), StatusCode::kParseError);
        continue;
      }
      // Parsed despite the flip: acceptable only for fields that cannot
      // be validated statelessly (type, a shorter-but-legal length, or
      // the checksum itself) — and then payload verification must catch
      // length/checksum damage.
      if (header->payload_len != frame.size() - kFrameHeaderSize) continue;
      Status verify =
          VerifyFramePayload(*header, frame.substr(kFrameHeaderSize));
      if (pos >= 12) {
        // Checksum field mutated: verification must fail.
        EXPECT_FALSE(verify.ok()) << "pos " << pos;
      }
    }
  }
}

// --- Framed sockets end to end. ---

std::string TestSocketPath(const char* name) {
  return ::testing::TempDir() + "mpc_" + name + "_" +
         std::to_string(::getpid()) + ".sock";
}

TEST(FrameSocketTest, PingPongRoundTrip) {
  const std::string path = TestSocketPath("pingpong");
  Result<Socket> listener = Socket::Listen(path);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  std::thread server([&] {
    Result<Socket> conn = listener->Accept(2000);
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    Result<Frame> frame = ReadFrame(*conn, 2000);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->type, kFramePing);
    EXPECT_EQ(frame->payload, "marco");
    ASSERT_TRUE(WriteFrame(*conn, kFramePong, "polo").ok());
  });
  Result<Socket> client = Socket::Connect(path);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(WriteFrame(*client, kFramePing, "marco").ok());
  Result<Frame> reply = ReadFrame(*client, 2000);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, kFramePong);
  EXPECT_EQ(reply->payload, "polo");
  server.join();
  ::unlink(path.c_str());
}

TEST(FrameSocketTest, CleanEofBetweenFramesIsUnavailable) {
  const std::string path = TestSocketPath("eof");
  Result<Socket> listener = Socket::Listen(path);
  ASSERT_TRUE(listener.ok());
  std::thread server([&] {
    Result<Socket> conn = listener->Accept(2000);
    ASSERT_TRUE(conn.ok());
    // Close immediately: the peer sees EOF at a frame boundary.
  });
  Result<Socket> client = Socket::Connect(path);
  ASSERT_TRUE(client.ok());
  server.join();
  Result<Frame> frame = ReadFrame(*client, 2000);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kUnavailable);
  ::unlink(path.c_str());
}

TEST(FrameSocketTest, MidPayloadEofIsParseError) {
  const std::string path = TestSocketPath("torn");
  Result<Socket> listener = Socket::Listen(path);
  ASSERT_TRUE(listener.ok());
  std::thread server([&] {
    Result<Socket> conn = listener->Accept(2000);
    ASSERT_TRUE(conn.ok());
    // Send the header (promising 64 payload bytes) plus half the
    // payload, then tear the connection.
    const std::string frame = EncodeFrame(kFramePing, std::string(64, 'x'));
    ASSERT_TRUE(
        conn->SendAll(frame.data(), kFrameHeaderSize + 32).ok());
  });
  Result<Socket> client = Socket::Connect(path);
  ASSERT_TRUE(client.ok());
  server.join();
  Result<Frame> frame = ReadFrame(*client, 2000);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kParseError);
  ::unlink(path.c_str());
}

TEST(FrameSocketTest, GarbageStreamIsParseError) {
  const std::string path = TestSocketPath("garbage");
  Result<Socket> listener = Socket::Listen(path);
  ASSERT_TRUE(listener.ok());
  std::thread server([&] {
    Result<Socket> conn = listener->Accept(2000);
    ASSERT_TRUE(conn.ok());
    const std::string junk(64, '\x5a');
    ASSERT_TRUE(conn->SendAll(junk.data(), junk.size()).ok());
  });
  Result<Socket> client = Socket::Connect(path);
  ASSERT_TRUE(client.ok());
  server.join();
  Result<Frame> frame = ReadFrame(*client, 2000);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kParseError);
  ::unlink(path.c_str());
}

TEST(FrameSocketTest, ReadDeadlineIsDeadlineExceeded) {
  const std::string path = TestSocketPath("deadline");
  Result<Socket> listener = Socket::Listen(path);
  ASSERT_TRUE(listener.ok());
  Result<Socket> client = Socket::Connect(path);
  ASSERT_TRUE(client.ok());
  Result<Socket> conn = listener->Accept(2000);
  ASSERT_TRUE(conn.ok());
  // Nobody ever writes: the read must give up on time, not hang.
  Result<Frame> frame = ReadFrame(*client, 50);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDeadlineExceeded);
  ::unlink(path.c_str());
}

TEST(SocketTest, ConnectToMissingPathIsUnavailable) {
  Result<Socket> conn =
      Socket::Connect(::testing::TempDir() + "mpc_no_such_worker.sock");
  ASSERT_FALSE(conn.ok());
  EXPECT_EQ(conn.status().code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace mpc::net

// --- RPC message codecs (exec layer). ---

namespace mpc::exec {
namespace {

HelloMsg MakeHello() {
  HelloMsg hello;
  hello.site = 3;
  hello.k = 8;
  hello.pid = 4242;
  hello.load_millis = 12.25;
  hello.memory_bytes = 1 << 20;
  hello.property_present = {1, 0, 1, 1, 0};
  return hello;
}

TEST(RpcProtocolTest, HelloRoundTrips) {
  const HelloMsg hello = MakeHello();
  Result<HelloMsg> decoded = DecodeHello(EncodeHello(hello));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->site, hello.site);
  EXPECT_EQ(decoded->k, hello.k);
  EXPECT_EQ(decoded->pid, hello.pid);
  EXPECT_EQ(decoded->load_millis, hello.load_millis);
  EXPECT_EQ(decoded->memory_bytes, hello.memory_bytes);
  EXPECT_EQ(decoded->property_present, hello.property_present);
}

store::ResolvedQuery MakeResolved() {
  store::ResolvedQuery resolved;
  resolved.num_vars = 3;
  store::ResolvedPattern p;
  p.s_is_var = true;
  p.s = 0;
  p.p = 17;
  p.o_is_var = true;
  p.o = 1;
  resolved.patterns.push_back(p);
  store::ResolvedPattern q;
  q.s = 99;
  q.p_is_var = true;
  q.p = 2;
  q.o = 123;
  q.impossible = true;
  resolved.patterns.push_back(q);
  return resolved;
}

TEST(RpcProtocolTest, EvalRequestRoundTripsWithFilters) {
  const store::ResolvedQuery resolved = MakeResolved();
  const std::vector<size_t> indices = {0, 1};
  std::vector<std::unique_ptr<BloomFilter>> filters;
  filters.resize(resolved.num_vars);
  filters[1] = std::make_unique<BloomFilter>(3);
  for (uint32_t v : {5u, 9u, 1000u}) filters[1]->Insert(v);
  SiteEvalRequest request;
  request.pattern_indices = indices;
  request.max_rows = 512;
  request.var_filters = &filters;

  Result<EvalRequestMsg> decoded =
      DecodeEvalRequest(EncodeEvalRequest(resolved, request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->resolved.num_vars, resolved.num_vars);
  ASSERT_EQ(decoded->resolved.patterns.size(), resolved.patterns.size());
  for (size_t i = 0; i < resolved.patterns.size(); ++i) {
    const store::ResolvedPattern& a = resolved.patterns[i];
    const store::ResolvedPattern& b = decoded->resolved.patterns[i];
    EXPECT_EQ(a.s_is_var, b.s_is_var);
    EXPECT_EQ(a.p_is_var, b.p_is_var);
    EXPECT_EQ(a.o_is_var, b.o_is_var);
    EXPECT_EQ(a.impossible, b.impossible);
    EXPECT_EQ(a.s, b.s);
    EXPECT_EQ(a.p, b.p);
    EXPECT_EQ(a.o, b.o);
  }
  EXPECT_EQ(decoded->pattern_indices, (std::vector<size_t>{0, 1}));
  EXPECT_EQ(decoded->max_rows, 512u);
  ASSERT_EQ(decoded->filters.size(), 1u);
  EXPECT_EQ(decoded->filters[0].var, 1u);
  // The reconstructed filter must answer exactly like the original.
  BloomFilter rebuilt = BloomFilter::FromBytes(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(decoded->filters[0].bits.data()),
      decoded->filters[0].bits.size()));
  for (uint32_t v : {5u, 9u, 1000u}) EXPECT_TRUE(rebuilt.MayContain(v));
  size_t agree = 0;
  for (uint32_t v = 0; v < 4096; ++v) {
    agree += rebuilt.MayContain(v) == filters[1]->MayContain(v);
  }
  EXPECT_EQ(agree, 4096u);
}

TEST(RpcProtocolTest, EvalRequestRejectsOutOfRangePatternIndex) {
  const store::ResolvedQuery resolved = MakeResolved();
  const std::vector<size_t> indices = {0, 5};  // 5 >= 2 patterns
  SiteEvalRequest request;
  request.pattern_indices = indices;
  Result<EvalRequestMsg> decoded =
      DecodeEvalRequest(EncodeEvalRequest(resolved, request));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
  EXPECT_NE(decoded.status().message().find("out of range"),
            std::string::npos);
}

TEST(RpcProtocolTest, EvalReplyRoundTrips) {
  SiteEvalReply reply;
  reply.table.var_ids = {0, 2};
  reply.table.rows = {{1, 2}, {3, 4}, {5, 6}};
  reply.bloom_dropped = 9;
  reply.eval_millis = 1.5;
  SiteEvalReply decoded;
  Status st = DecodeEvalReply(EncodeEvalReply(reply), &decoded);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(decoded.table.var_ids, reply.table.var_ids);
  EXPECT_EQ(decoded.table.rows, reply.table.rows);
  EXPECT_EQ(decoded.bloom_dropped, 9u);
  EXPECT_EQ(decoded.eval_millis, 1.5);
}

TEST(RpcProtocolTest, EvalReplyRowCountIsValidatedBeforeAllocation) {
  // Claim 2^40 rows over a payload of a few bytes: must ParseError, not
  // attempt the allocation. 2^62 rows of 8 bytes wrap a 64-bit byte
  // count to 0.
  for (uint64_t hostile : {uint64_t{1} << 40, uint64_t{1} << 62}) {
    net::ByteWriter w;
    w.U64(0);                       // bloom_dropped
    w.F64(0.0);                     // eval_millis
    w.U32(2);                       // num columns
    w.U32(0);
    w.U32(1);
    w.U64(hostile);                 // num rows
    SiteEvalReply decoded;
    Status st = DecodeEvalReply(w.Take(), &decoded);
    ASSERT_FALSE(st.ok()) << hostile;
    EXPECT_EQ(st.code(), StatusCode::kParseError);
  }
}

TEST(RpcProtocolTest, ErrorRoundTripsEveryCode) {
  for (Status original : {Status::InvalidArgument("bad"),
                          Status::ParseError("torn"),
                          Status::Unavailable("down"),
                          Status::DeadlineExceeded("late"),
                          Status::Internal("bug")}) {
    Status decoded = DecodeError(EncodeError(original));
    EXPECT_EQ(decoded, original);
  }
}

/// Fuzz-ish sweep: every strict prefix of every message type fails with
/// ParseError; no prefix length crashes or reads out of bounds (run
/// under asan by scripts/check.sh).
TEST(RpcProtocolTest, EveryTruncationOfEveryMessageFailsCleanly) {
  const store::ResolvedQuery resolved = MakeResolved();
  const std::vector<size_t> indices = {0, 1};
  SiteEvalRequest request;
  request.pattern_indices = indices;
  SiteEvalReply reply;
  reply.table.var_ids = {0, 1, 2};
  reply.table.rows = {{1, 2, 3}, {4, 5, 6}};
  struct Case {
    std::string bytes;
    std::function<Status(std::string_view)> decode;
  };
  const std::vector<Case> cases = {
      {EncodeHello(MakeHello()),
       [](std::string_view p) { return DecodeHello(p).status(); }},
      {EncodeEvalRequest(resolved, request),
       [](std::string_view p) { return DecodeEvalRequest(p).status(); }},
      {EncodeEvalReply(reply),
       [](std::string_view p) {
         SiteEvalReply sink;
         return DecodeEvalReply(p, &sink);
       }},
      {EncodeError(Status::Unavailable("down")),
       [](std::string_view p) {
         Status carried = DecodeError(p);
         // DecodeError returns the carried status on success; only a
         // ParseError *about the frame* is a decode failure here.
         return carried.code() == StatusCode::kUnavailable ? Status::Ok()
                                                           : carried;
       }},
  };
  for (const Case& c : cases) {
    // The full message decodes...
    EXPECT_TRUE(c.decode(c.bytes).ok());
    // ...and every strict prefix fails with ParseError.
    for (size_t len = 0; len < c.bytes.size(); ++len) {
      Status st = c.decode(std::string_view(c.bytes).substr(0, len));
      EXPECT_FALSE(st.ok()) << "prefix " << len << "/" << c.bytes.size();
      EXPECT_EQ(st.code(), StatusCode::kParseError);
    }
  }
}

/// Random single-byte corruptions of a valid EvalRequest payload either
/// decode (the mutation hit a don't-care bit) or ParseError — never
/// anything else. Deterministic seed, wide coverage.
TEST(RpcProtocolTest, RandomCorruptionsNeverMisbehave) {
  const store::ResolvedQuery resolved = MakeResolved();
  const std::vector<size_t> indices = {0, 1};
  SiteEvalRequest request;
  request.pattern_indices = indices;
  const std::string base = EncodeEvalRequest(resolved, request);
  Rng rng(77);
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = base;
    mutated[rng.Below(mutated.size())] ^=
        static_cast<char>(1 + rng.Below(255));
    Result<EvalRequestMsg> decoded = DecodeEvalRequest(mutated);
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
    }
  }
}

}  // namespace
}  // namespace mpc::exec
