// Stable ordering by an unsigned 64-bit key in linear time: the one sort
// behind the solver's gain orders (Singleton and Drastic picks, Universe's
// convex merge). Equal keys keep their input order, so ties go to the
// earlier item (the lower tuple id, the first-seen group or step).
//
// Fewer than kInsertionSortBelow items are insertion-sorted. Longer inputs
// take an LSD radix sort over the bytes of each key's distance from the
// first key in order (the smallest ascending, the largest descending), so a
// byte beyond the keys' spread costs nothing; each pass scatters into a
// scratch buffer, and a pass whose byte is the same for every item is
// skipped.

#ifndef ADP_UTIL_STABLE_ORDER_H_
#define ADP_UTIL_STABLE_ORDER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace adp {

enum class SortOrder { kAscending, kDescending };

/// Inputs this short are insertion-sorted.
inline constexpr std::size_t kInsertionSortBelow = 32;

/// Stably reorders `items` by `key(item)` (a std::uint64_t) in `order`. T
/// must be default-constructible and movable.
template <typename T, typename KeyFn>
void StableSortByKey(std::vector<T>& items, KeyFn key, SortOrder order) {
  const std::size_t n = items.size();
  const bool descending = order == SortOrder::kDescending;
  if (n < kInsertionSortBelow) {
    auto before = [&](const T& a, const T& b) {
      const std::uint64_t ka = key(a);
      const std::uint64_t kb = key(b);
      return descending ? ka > kb : ka < kb;
    };
    for (std::size_t i = 1; i < n; ++i) {
      if (!before(items[i], items[i - 1])) continue;
      T moving = std::move(items[i]);
      std::size_t j = i;
      for (; j > 0 && before(moving, items[j - 1]); --j) {
        items[j] = std::move(items[j - 1]);
      }
      items[j] = std::move(moving);
    }
    return;
  }

  std::uint64_t lo = ~std::uint64_t{0};
  std::uint64_t hi = 0;
  for (const T& x : items) {
    const std::uint64_t k = key(x);
    lo = std::min(lo, k);
    hi = std::max(hi, k);
  }
  // An item's rank is its key's distance from the first key in order.
  auto rank = [&](const T& x) -> std::uint64_t {
    const std::uint64_t k = key(x);
    return descending ? hi - k : k - lo;
  };
  std::size_t passes = 0;
  for (std::uint64_t spread = hi - lo; spread != 0; spread >>= 8) ++passes;
  if (passes == 0) return;  // all keys equal

  // One read of the keys fills every pass's byte histogram.
  std::vector<std::size_t> count(passes * 256, 0);
  for (const T& x : items) {
    std::uint64_t r = rank(x);
    for (std::size_t p = 0; p < passes; ++p, r >>= 8) {
      ++count[p * 256 + (r & 0xff)];
    }
  }
  std::vector<T> scratch(n);
  for (std::size_t p = 0; p < passes; ++p) {
    std::size_t* bucket = &count[p * 256];
    const unsigned shift = static_cast<unsigned>(8 * p);
    if (bucket[(rank(items[0]) >> shift) & 0xff] == n) continue;
    std::size_t offset = 0;
    for (std::size_t b = 0; b < 256; ++b) {
      const std::size_t size = bucket[b];
      bucket[b] = offset;
      offset += size;
    }
    for (T& x : items) {
      scratch[bucket[(rank(x) >> shift) & 0xff]++] = std::move(x);
    }
    items.swap(scratch);
  }
}

}  // namespace adp

#endif  // ADP_UTIL_STABLE_ORDER_H_
