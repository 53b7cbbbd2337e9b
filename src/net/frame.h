#ifndef MPC_NET_FRAME_H_
#define MPC_NET_FRAME_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "net/socket.h"

namespace mpc::net {

/// Wire format: every message is one frame,
///
///   magic   u32   "MPCR" (little-endian 0x5243504d)
///   version u16   kProtocolVersion
///   type    u16   message type (transport types below; applications
///                 define their own from kFirstAppFrameType up)
///   length  u32   payload byte count (<= kMaxFramePayload)
///   check   u64   FNV-1a over the payload bytes
///   payload length bytes
///
/// The magic + version + length guard makes every torn, truncated or
/// garbage frame a clean ParseError at the reader — never a crash, an
/// unbounded allocation, or a silent misparse; the checksum catches
/// payload corruption that leaves the header plausible.
inline constexpr uint32_t kFrameMagic = 0x5243504du;  // "MPCR"
/// v2: EvalRequest carries trace context (trace_id / parent_span_id /
/// query_tag) and EvalReply appends the worker's recorded spans. The
/// version check is strict both ways, so a v1 worker's Hello is
/// rejected as ParseError at the coordinator's first read (and vice
/// versa) — mixed-version fleets fail loudly at connect, not subtly
/// mid-query. v3: Hello drops the generation field (a fleet serves one
/// partitioning for its lifetime).
inline constexpr uint16_t kProtocolVersion = 3;
inline constexpr size_t kFrameHeaderSize = 20;
inline constexpr size_t kMaxFramePayload = size_t{1} << 30;

/// Transport-level frame types; application protocols (the site RPC
/// messages in exec/rpc_protocol.h) start at kFirstAppFrameType.
inline constexpr uint16_t kFramePing = 1;
inline constexpr uint16_t kFramePong = 2;
inline constexpr uint16_t kFirstAppFrameType = 16;

struct FrameHeader {
  uint16_t version = 0;
  uint16_t type = 0;
  uint32_t payload_len = 0;
  uint64_t checksum = 0;
};

struct Frame {
  uint16_t type = 0;
  std::string payload;
};

/// A complete frame (header + payload), ready to send.
std::string EncodeFrame(uint16_t type, std::string_view payload);

/// Decodes exactly kFrameHeaderSize header bytes. ParseError on short
/// input, wrong magic, unknown version, or an oversized length — checked
/// BEFORE anything allocates payload_len bytes.
Result<FrameHeader> DecodeFrameHeader(std::string_view bytes);

/// Verifies the payload against the header's checksum.
Status VerifyFramePayload(const FrameHeader& header, std::string_view payload);

/// Sends one frame.
Status WriteFrame(const Socket& socket, uint16_t type,
                  std::string_view payload);

/// Reads one frame before the deadline. Clean EOF between frames is
/// Unavailable (peer departed); EOF or reset inside a frame, bad magic,
/// bad version, oversized length, and checksum mismatch are ParseError;
/// a blown deadline is DeadlineExceeded.
Result<Frame> ReadFrame(const Socket& socket, double timeout_ms);

}  // namespace mpc::net

#endif  // MPC_NET_FRAME_H_
