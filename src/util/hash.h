// Hash mixing: the step of every hash over dictionary-code keys
// (relational/group_index.h).

#ifndef ADP_UTIL_HASH_H_
#define ADP_UTIL_HASH_H_

#include <cstdint>

namespace adp {

/// Mixes one 64-bit word into a running hash (SplitMix64 finalizer).
inline std::uint64_t HashMix(std::uint64_t h, std::uint64_t v) {
  v += 0x9e3779b97f4a7c15ULL + h;
  v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ULL;
  v = (v ^ (v >> 27)) * 0x94d049bb133111ebULL;
  return v ^ (v >> 31);
}

}  // namespace adp

#endif  // ADP_UTIL_HASH_H_
