// Cost profiles: the common currency of the ComputeADP dynamic programs.
//
// A CostProfile for a subproblem (Q', D') answers, for j = 0..kmax,
//   At(j) = number of input tuples the sub-solver needs to delete to
//           remove at least j outputs from Q'(D').
// It stores that function from the budget side, as the Pareto staircase of
// breakpoints (c, r): c deletions remove at most r outputs, and c is the
// least budget that does. Both coordinates strictly increase and the first
// breakpoint has c = 0, so a profile holds at most min(kmax, C) + 1 entries
// for a largest budget C; budgets count deleted tuples, so C <= |D'| however
// large |Q'(D')| is. At(j) is the budget of the first breakpoint removing
// >= j. Targets no breakpoint reaches (possible under §9 restrictions)
// simply end the staircase: kmax() is the last reachable target and At()
// beyond it is kInfCost. For exact sub-solvers the entries are optimal; for
// heuristic leaves they are feasible upper bounds.
//
// Two combination semantics occur in the paper:
//   * disjoint union (Universe, Eq. 1): removed outputs add up;
//   * cross product (Decompose, Alg. 5, Lemma 3): removing r1 of m1 and r2
//     of m2 outputs removes r1*m2 + r2*m1 - r1*r2 of the m1*m2 products.
// Both combines sweep pairs of operand breakpoints: (c1, r1) and (c2, r2)
// give the candidate (c1 + c2, combined removed), the most removed per
// budget is kept, and a running max over budgets yields the staircase — a
// (max,+) convolution over budgets. The removed count is monotone in both
// arguments, so every target's optimum is attained at a pair of
// breakpoints: the sweep equals the k-indexed min-plus DP (Eq. 1 and the
// §7.3 recurrence) in O(S1*S2 + C) time for S1, S2 breakpoints and a
// largest budget C, instead of O(k * k2). Pairs costing more than the
// cheapest single-operand way to reach the cap are skipped.

#ifndef ADP_SOLVER_PROFILE_H_
#define ADP_SOLVER_PROFILE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/saturating.h"

namespace adp {

/// Sentinel for "not achievable at this node".
inline constexpr std::int64_t kInfCost = std::int64_t{1} << 60;

/// One breakpoint of a profile's staircase.
struct ProfileStep {
  std::int64_t budget = 0;   // deletions spent
  std::int64_t removed = 0;  // most outputs those deletions remove
};

/// How a combined breakpoint splits between the two operands: the first
/// operand removes `.first` outputs and the second `.second`, each at its
/// own At() cost, which sum to the breakpoint's budget.
using StepSplit = std::pair<std::int64_t, std::int64_t>;

class CostProfile {
 public:
  /// The trivial profile {0}: nothing to remove, nothing removable.
  CostProfile() : steps_(1) {}

  /// Wraps an explicit per-target cost vector (tests and the Fig 29
  /// ablation). Requires cost[0] == 0 and entries nondecreasing (checked in
  /// debug builds); a kInfCost tail ends the staircase.
  explicit CostProfile(const std::vector<std::int64_t>& cost);

  /// Largest j the profile reaches.
  std::int64_t kmax() const { return steps_.back().removed; }

  /// Least budget removing >= j outputs, or kInfCost beyond kmax.
  std::int64_t At(std::int64_t j) const {
    return (j >= 0 && j <= kmax()) ? steps_[StepOf(j)].budget : kInfCost;
  }

  bool Feasible(std::int64_t j) const { return At(j) < kInfCost; }

  /// Largest j with At(j) <= budget (-1 for a negative budget).
  std::int64_t MaxRemovedWithin(std::int64_t budget) const;

  /// True if marginal costs are nonincreasing in value terms — i.e. the
  /// increments At(j+1)-At(j) are nondecreasing in j.
  bool IsConvex() const;

  /// True if the gains-per-unit-budget sequence
  ///   g_c = MaxRemovedWithin(c) - MaxRemovedWithin(c-1)
  /// is nonincreasing. Such profiles behave like a list of unit-cost items
  /// with nonincreasing profits (Singleton case 1, vacuum relations), which
  /// is exactly the precondition for the greedy marginal-merge combination
  /// under disjoint union (classic concave resource allocation).
  bool HasConcaveGains() const;

  /// Shrinks the profile to kmax = cap (no-op if already smaller): the
  /// first breakpoint reaching cap is kept, clamped to cap, and the rest
  /// dropped.
  void TruncateTo(std::int64_t cap);

  /// Extends the staircase with (budget, removed), where budget is at least
  /// the last breakpoint's. A pair removing no more than the last
  /// breakpoint is skipped; a breakpoint reaching `cap` is clamped to it
  /// and ends the profile. Returns false once kmax() has reached cap.
  bool Append(std::int64_t budget, std::int64_t removed,
              std::int64_t cap = kMaxOutputs);

  /// Index of the breakpoint serving target j: the first with
  /// removed >= j. Requires 0 <= j <= kmax().
  std::size_t StepOf(std::int64_t j) const;

  const std::vector<ProfileStep>& steps() const { return steps_; }

  /// At(0..kmax()) as a dense vector, for the Fig 29 ablation's k-indexed
  /// loops.
  std::vector<std::int64_t> Dense() const;

 private:
  std::vector<ProfileStep> steps_;
};

/// Disjoint-union combination up to `cap`:
///   At(j) = min over m of a.At(j-m) + b.At(m).
/// If `split` is non-null it receives, per output breakpoint, the removed
/// counts taken from a and b.
CostProfile CombineDisjoint(const CostProfile& a, const CostProfile& b,
                            std::int64_t cap, std::vector<StepSplit>* split);

/// Cross-product combination up to `cap`, where `a` governs a factor with
/// `ma` outputs and `b` a factor with `mb` outputs (a.kmax() <= ma,
/// b.kmax() <= mb):
///   At(j) = min over (k1,k2) with k1*mb + k2*ma - k1*k2 >= j
///           of a.At(k1) + b.At(k2).
/// `naive_inner` selects the paper's original O(j^2)-per-target enumeration
/// over dense copies of both operands instead of the budget sweep (the
/// Fig. 29 ablation). If `split` is non-null it receives, per output
/// breakpoint, the (k1, k2) it takes.
CostProfile CombineProduct(const CostProfile& a, std::int64_t ma,
                           const CostProfile& b, std::int64_t mb,
                           std::int64_t cap, bool naive_inner,
                           std::vector<StepSplit>* split);

/// A left fold of operand profiles that keeps every level and its splits,
/// so a target of any level can be walked back to per-operand targets.
struct ProfileFold {
  /// levels[i]: operands 0..i combined.
  std::vector<CostProfile> levels;
  /// splits[i][s] (i >= 1): what breakpoint s of levels[i] takes from
  /// levels[i-1] and from operand i. splits[0] is unused.
  std::vector<std::vector<StepSplit>> splits;

  /// Per-operand targets (operands 0..level) that together meet target j
  /// of levels[level] at its cost. Requires levels[level].Feasible(j).
  std::vector<std::int64_t> Targets(std::size_t level, std::int64_t j) const;
};

}  // namespace adp

#endif  // ADP_SOLVER_PROFILE_H_
