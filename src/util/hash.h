// Hashing utilities for tuples and join keys.

#ifndef ADP_UTIL_HASH_H_
#define ADP_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace adp {

/// Mixes one 64-bit word into a running hash (SplitMix64 finalizer).
inline std::uint64_t HashMix(std::uint64_t h, std::uint64_t v) {
  v += 0x9e3779b97f4a7c15ULL + h;
  v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ULL;
  v = (v ^ (v >> 27)) * 0x94d049bb133111ebULL;
  return v ^ (v >> 31);
}

/// Hashes a contiguous range of 64-bit values.
inline std::uint64_t HashRange(const std::int64_t* data, std::size_t n) {
  std::uint64_t h = 0x2545f4914f6cdd1dULL;
  for (std::size_t i = 0; i < n; ++i) {
    h = HashMix(h, static_cast<std::uint64_t>(data[i]));
  }
  return h;
}

/// std::hash-compatible functor for vectors of int64 values.
struct VecHash {
  std::size_t operator()(const std::vector<std::int64_t>& v) const {
    return static_cast<std::size_t>(HashRange(v.data(), v.size()));
  }
};

}  // namespace adp

#endif  // ADP_UTIL_HASH_H_
