// Dense reference combines for CostProfile tests: the k-indexed min-plus
// DPs the budget sweeps in solver/profile.cc replaced, kept test-only as the
// oracle. A dense profile is a vector of per-target costs (cost[0] == 0,
// nondecreasing, kInfCost for unreachable targets); targets past its end
// cost kInfCost.

#ifndef ADP_TESTS_PROFILE_ORACLE_H_
#define ADP_TESTS_PROFILE_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "solver/profile.h"
#include "util/saturating.h"

namespace adp::testing {

using DenseProfile = std::vector<std::int64_t>;

inline std::int64_t DenseAt(const DenseProfile& p, std::int64_t j) {
  return j >= 0 && j < static_cast<std::int64_t>(p.size())
             ? p[static_cast<std::size_t>(j)]
             : kInfCost;
}

/// Disjoint union (Eq. 1): out[j] = min over m of a[j-m] + b[m], for
/// j <= min(cap, |a| - 1 + |b| - 1).
inline DenseProfile DenseCombineDisjoint(const DenseProfile& a,
                                         const DenseProfile& b,
                                         std::int64_t cap) {
  const std::int64_t akmax = static_cast<std::int64_t>(a.size()) - 1;
  const std::int64_t bkmax = static_cast<std::int64_t>(b.size()) - 1;
  const std::int64_t out_kmax = std::min(cap, SatAdd(akmax, bkmax));
  DenseProfile out(static_cast<std::size_t>(out_kmax) + 1, kInfCost);
  for (std::int64_t j = 0; j <= out_kmax; ++j) {
    const std::int64_t mmax = std::min(j, bkmax);
    const std::int64_t mmin = std::max<std::int64_t>(0, j - akmax);
    for (std::int64_t m = mmin; m <= mmax; ++m) {
      const std::int64_t a_cost = DenseAt(a, j - m);
      const std::int64_t b_cost = DenseAt(b, m);
      if (a_cost >= kInfCost || b_cost >= kInfCost) continue;
      out[static_cast<std::size_t>(j)] =
          std::min(out[static_cast<std::size_t>(j)], a_cost + b_cost);
    }
  }
  return out;
}

/// Cross product with the §7.3 recurrence: for each target j and each k2,
/// the minimal feasible k1 in closed form. `a` governs a factor with `ma`
/// outputs, `b` one with `mb`; out covers j <= min(cap, ma * mb).
inline DenseProfile DenseCombineProduct(const DenseProfile& a, std::int64_t ma,
                                        const DenseProfile& b, std::int64_t mb,
                                        std::int64_t cap) {
  const std::int64_t akmax = static_cast<std::int64_t>(a.size()) - 1;
  const std::int64_t bkmax = static_cast<std::int64_t>(b.size()) - 1;
  const std::int64_t out_kmax = std::min(cap, SatMul(ma, mb));
  DenseProfile out(static_cast<std::size_t>(out_kmax) + 1, kInfCost);
  out[0] = 0;
  for (std::int64_t j = 1; j <= out_kmax; ++j) {
    std::int64_t& best = out[static_cast<std::size_t>(j)];
    for (std::int64_t k2 = 0; k2 <= std::min(bkmax, std::min(mb, j)); ++k2) {
      const std::int64_t cb = DenseAt(b, k2);
      if (cb >= kInfCost) break;  // profiles are monotone
      std::int64_t k1 = 0;
      if (k2 < mb) {
        const std::int64_t need = j - SatMul(k2, ma);
        if (need > 0) k1 = (need + (mb - k2) - 1) / (mb - k2);
      }
      if (k1 > ma || k1 > akmax) continue;
      if (SatAdd(SatMul(k1, mb - k2), SatMul(k2, ma)) < j) continue;
      const std::int64_t ca = DenseAt(a, k1);
      if (ca >= kInfCost) continue;
      best = std::min(best, ca + cb);
    }
    best = std::max(best, out[static_cast<std::size_t>(j) - 1]);
  }
  return out;
}

}  // namespace adp::testing

#endif  // ADP_TESTS_PROFILE_ORACLE_H_
