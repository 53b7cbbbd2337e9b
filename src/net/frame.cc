#include "net/frame.h"

#include <cstdio>

#include "common/hash.h"
#include "net/bytes.h"

namespace mpc::net {

std::string EncodeFrame(uint16_t type, std::string_view payload) {
  ByteWriter w;
  w.U32(kFrameMagic);
  w.U16(kProtocolVersion);
  w.U16(type);
  w.U32(static_cast<uint32_t>(payload.size()));
  w.U64(HashString(payload));
  w.Bytes(payload);
  return w.Take();
}

Result<FrameHeader> DecodeFrameHeader(std::string_view bytes) {
  if (bytes.size() < kFrameHeaderSize) {
    return Status::ParseError("frame header truncated: " +
                              std::to_string(bytes.size()) + " of " +
                              std::to_string(kFrameHeaderSize) + " bytes");
  }
  ByteReader r(bytes.substr(0, kFrameHeaderSize));
  uint32_t magic = 0;
  FrameHeader header;
  // Reads from a size-checked buffer cannot fail; decode in order.
  (void)r.U32(&magic);
  (void)r.U16(&header.version);
  (void)r.U16(&header.type);
  (void)r.U32(&header.payload_len);
  (void)r.U64(&header.checksum);
  if (magic != kFrameMagic) {
    return Status::ParseError("bad frame magic: got 0x" + [&] {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%08x", magic);
      return std::string(buf);
    }() + ", want 0x5243504d (\"MPCR\")");
  }
  if (header.version != kProtocolVersion) {
    return Status::ParseError(
        "unsupported frame version " + std::to_string(header.version) +
        " (speak version " + std::to_string(kProtocolVersion) + ")");
  }
  if (header.payload_len > kMaxFramePayload) {
    return Status::ParseError("frame payload length " +
                              std::to_string(header.payload_len) +
                              " exceeds the 1 GiB frame cap");
  }
  return header;
}

Status VerifyFramePayload(const FrameHeader& header,
                          std::string_view payload) {
  if (payload.size() != header.payload_len) {
    return Status::ParseError("frame payload size mismatch");
  }
  if (HashString(payload) != header.checksum) {
    return Status::ParseError(
        "frame checksum mismatch: payload corrupted in transit");
  }
  return Status::Ok();
}

Status WriteFrame(const Socket& socket, uint16_t type,
                  std::string_view payload) {
  const std::string frame = EncodeFrame(type, payload);
  return socket.SendAll(frame.data(), frame.size());
}

Result<Frame> ReadFrame(const Socket& socket, double timeout_ms) {
  char header_bytes[kFrameHeaderSize];
  // Clean EOF here (Unavailable) means the peer left between frames.
  MPC_RETURN_IF_ERROR(
      socket.RecvExact(header_bytes, kFrameHeaderSize, timeout_ms));
  Result<FrameHeader> header =
      DecodeFrameHeader(std::string_view(header_bytes, kFrameHeaderSize));
  if (!header.ok()) return header.status();

  Frame frame;
  frame.type = header->type;
  frame.payload.resize(header->payload_len);
  if (header->payload_len > 0) {
    Status st = socket.RecvExact(frame.payload.data(), header->payload_len,
                                 timeout_ms);
    if (!st.ok()) {
      // EOF at the payload boundary is still a torn frame — the header
      // promised bytes that never arrived.
      if (st.code() == StatusCode::kUnavailable) {
        return Status::ParseError("stream truncated: EOF where " +
                                  std::to_string(header->payload_len) +
                                  " payload bytes were promised");
      }
      return st;
    }
  }
  MPC_RETURN_IF_ERROR(VerifyFramePayload(*header, frame.payload));
  return frame;
}

}  // namespace mpc::net
