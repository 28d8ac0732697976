// Saturating arithmetic for output counts. Cross products of component
// output counts overflow 64 bits quickly; all combination math saturates at
// kMaxOutputs instead.
//
// Both operations take non-negative operands only (counts are): that is
// their precondition, and for such operands they return min(kMaxOutputs,
// exact result). SatMul tests for overflow with the compiler's
// multiply-with-overflow builtin, one multiply and a flag test, then clamps
// at kMaxOutputs; the count propagation runs it on every parent row of
// every join-tree edge, where a division (the textbook `a > kMaxOutputs /
// b` test) would cost more than the rest of the step.

#ifndef ADP_UTIL_SATURATING_H_
#define ADP_UTIL_SATURATING_H_

#include <cstdint>

namespace adp {

/// Saturation bound for output counts.
inline constexpr std::int64_t kMaxOutputs = std::int64_t{1} << 62;

/// a * b saturated at kMaxOutputs (both non-negative).
inline std::int64_t SatMul(std::int64_t a, std::int64_t b) {
  std::int64_t product = 0;
  const bool overflow = __builtin_mul_overflow(a, b, &product);
  return overflow || product > kMaxOutputs ? kMaxOutputs : product;
}

/// a + b saturated at kMaxOutputs (both non-negative).
inline std::int64_t SatAdd(std::int64_t a, std::int64_t b) {
  if (a > kMaxOutputs - b) return kMaxOutputs;
  return a + b;
}

}  // namespace adp

#endif  // ADP_UTIL_SATURATING_H_
