#ifndef MPC_NET_BYTES_H_
#define MPC_NET_BYTES_H_

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace mpc::net {

/// Append-only little-endian encoder for wire payloads. Fixed-width
/// fields only (no varints): frames are length-prefixed anyway, and
/// fixed widths keep decode errors trivially localizable.
class ByteWriter {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U16(uint16_t v) { PutLe(v, 2); }
  void U32(uint32_t v) { PutLe(v, 4); }
  void U64(uint64_t v) { PutLe(v, 8); }
  /// IEEE-754 bits; both ends are little-endian IEEE hosts.
  void F64(double v) { U64(std::bit_cast<uint64_t>(v)); }
  void Bytes(std::string_view data) { out_.append(data); }
  /// u32 length prefix + raw bytes.
  void Str(std::string_view data) {
    U32(static_cast<uint32_t>(data.size()));
    out_.append(data);
  }

  void Reserve(size_t bytes) { out_.reserve(bytes); }
  size_t size() const { return out_.size(); }
  std::string Take() { return std::move(out_); }

 private:
  void PutLe(uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }

  std::string out_;
};

/// Bounds-checked decoder over a received payload. Every read past the
/// buffer returns ParseError naming the offset — never reads out of
/// bounds, whatever bytes a torn or hostile frame carries.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Status U8(uint8_t* v) {
    MPC_RETURN_IF_ERROR(Need(1));
    *v = static_cast<uint8_t>(data_[pos_++]);
    return Status::Ok();
  }
  Status U16(uint16_t* v) { return GetLe(v); }
  Status U32(uint32_t* v) { return GetLe(v); }
  Status U64(uint64_t* v) { return GetLe(v); }
  Status F64(double* v) {
    uint64_t bits = 0;
    MPC_RETURN_IF_ERROR(U64(&bits));
    *v = std::bit_cast<double>(bits);
    return Status::Ok();
  }
  /// Reads a u32 length prefix, then that many raw bytes. The length is
  /// validated against the remaining buffer before anything is touched.
  Status Str(std::string* out) {
    uint32_t len = 0;
    MPC_RETURN_IF_ERROR(U32(&len));
    MPC_RETURN_IF_ERROR(Need(len));
    out->assign(data_.substr(pos_, len));
    pos_ += len;
    return Status::Ok();
  }

  /// Takes the next `n` raw bytes as a view into the payload: one bounds
  /// check for a whole fixed-width block.
  Status Bytes(size_t n, std::string_view* out) {
    MPC_RETURN_IF_ERROR(Need(n));
    *out = data_.substr(pos_, n);
    pos_ += n;
    return Status::Ok();
  }

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  /// Decoders call this last: trailing garbage means the two ends
  /// disagree about the message layout — better a loud error than a
  /// silently half-read message.
  Status ExpectEnd() const {
    if (AtEnd()) return Status::Ok();
    return Status::ParseError("message has " + std::to_string(remaining()) +
                              " unexpected trailing bytes");
  }

 private:
  Status Need(size_t n) const {
    if (data_.size() - pos_ >= n) return Status::Ok();
    return Status::ParseError(
        "message truncated: need " + std::to_string(n) + " bytes at offset " +
        std::to_string(pos_) + ", have " + std::to_string(remaining()));
  }
  template <typename T>
  Status GetLe(T* v) {
    MPC_RETURN_IF_ERROR(Need(sizeof(T)));
    uint64_t acc = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      acc |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
             << (8 * i);
    }
    pos_ += sizeof(T);
    *v = static_cast<T>(acc);
    return Status::Ok();
  }

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace mpc::net

#endif  // MPC_NET_BYTES_H_
