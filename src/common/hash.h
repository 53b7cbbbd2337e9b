#ifndef MPC_COMMON_HASH_H_
#define MPC_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

namespace mpc {

/// 64-bit finalizer from MurmurHash3; good avalanche, used for hashing
/// vertex ids into partitions (Subject_Hash) and properties (VP).
inline uint64_t HashU64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// FNV-1a for strings; used when hashing raw IRIs before dictionary
/// encoding is available, and as the checksum of RPC frames and segment
/// blocks — so it is part of the wire and file formats and must not
/// change.
inline uint64_t HashString(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Combines two hashes (boost::hash_combine style, 64-bit variant).
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 12) + (a >> 4));
}

}  // namespace mpc

#endif  // MPC_COMMON_HASH_H_
