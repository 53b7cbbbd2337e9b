#ifndef MPC_COMMON_RADIX_SORT_H_
#define MPC_COMMON_RADIX_SORT_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace mpc {

/// Below this many elements RadixSortBy hands off to std::stable_sort:
/// four 256-bucket histograms cost more than a comparison sort of a few
/// hundred elements.
inline constexpr size_t kRadixSortCutoff = 256;

/// Stable LSD radix sort of `*items` by the 32-bit `key(item)`, 8 bits
/// per pass. One counting pass builds all four digit histograms; a
/// digit every key shares (one bucket holds them all) costs no pass, so
/// keys below 2^16 sort in two passes. Elements with equal keys keep
/// their order, which lets callers sort by several keys, least
/// significant first. `*buffer` is resized to match and holds
/// unspecified elements afterwards; passing the same one to repeated
/// calls reuses its memory.
template <typename T, typename KeyFn>
void RadixSortBy(std::vector<T>* items, std::vector<T>* buffer, KeyFn key) {
  const size_t n = items->size();
  if (n < kRadixSortCutoff) {
    std::stable_sort(items->begin(), items->end(),
                     [&](const T& a, const T& b) { return key(a) < key(b); });
    return;
  }
  std::array<std::array<size_t, 256>, 4> counts{};
  for (const T& item : *items) {
    const uint32_t k = key(item);
    for (int d = 0; d < 4; ++d) ++counts[d][(k >> (8 * d)) & 0xff];
  }
  buffer->resize(n);
  for (int d = 0; d < 4; ++d) {
    std::array<size_t, 256>& count = counts[d];
    const uint32_t shift = 8 * d;
    if (count[(key((*items)[0]) >> shift) & 0xff] == n) continue;
    size_t offset = 0;
    for (size_t& c : count) offset += std::exchange(c, offset);
    T* out = buffer->data();
    for (const T& item : *items) {
      out[count[(key(item) >> shift) & 0xff]++] = item;
    }
    items->swap(*buffer);
  }
}

}  // namespace mpc

#endif  // MPC_COMMON_RADIX_SORT_H_
