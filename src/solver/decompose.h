// Decompose(Q, D, k) (Algorithm 5): solve each connected subquery
// recursively and combine under cross-product semantics.
//
// Three combination strategies are provided (Figure 29 ablation):
//   * kImprovedDP       — the budget sweep over profile breakpoints
//                         (CombineProduct, solver/profile.h), which needs no
//                         array of length k at any level, root included;
//   * kPairwiseNaive    — Algorithm 5 as printed, enumerating (k1, k2) per
//                         target over dense copies of the child profiles;
//   * kFullEnumeration  — Eq. 2 of Lemma 3: enumerate all (k1..ks) vectors.
//
// The two baselines keep the root the paper measured them with: without a
// stream attached, ComputeAdp hands a Decompose root under either of them
// to SolveDecomposeAblationRoot, which folds all but the largest component
// into a profile and scans the largest one for the single target k. The
// default strategy has no root special case: ComputeAdp reads the root
// node's profile as in every other case.
//
// Every strategy solves a node's components the same way. The one with the
// fewest tuples (the lowest index on ties) goes first, at the node's cap;
// each other one is solved at ceil(cap / m) for the first one's m outputs,
// or at 0 when m = 0 and the product is empty. Removing r outputs of any
// other component alone already removes r times the others' product, at
// least r * m, so the node's profile is exact for every target up to cap.
//
// When AdpOptions::parallelism is set (Parallelism::min_components > 0),
// the n - 1 sub-solves after the first fan out across the executor when
// there are enough of them; the cross-product DP that combines their
// profiles stays on the calling thread, so results are bitwise-identical
// to the sequential path (AdpStats::sharded_decompose_nodes reports
// engagement).

#ifndef ADP_SOLVER_DECOMPOSE_H_
#define ADP_SOLVER_DECOMPOSE_H_

#include <cstdint>

#include "relational/database.h"
#include "solver/compute_adp.h"

namespace adp {

/// Builds the recursion node with a full profile up to `cap`.
/// Precondition: plan.op is kDecompose (>= 2 components). Counts nothing:
/// each child plan is solved over its component's relations, the first at
/// `cap` and the rest at ceil(cap / m) (see above), and each |Q_i(D)| is
/// read off that child's `outputs`; the node's `outputs` is their product.
AdpNode DecomposeNode(const DispatchPlan& plan, const Database& db,
                      std::int64_t cap, const AdpOptions& options);

/// The Fig 29 baselines' root: solves target k alone under
/// options.decompose_strategy (kPairwiseNaive or kFullEnumeration) and fills
/// the result's output_count (|Q(D)|, from the children as in
/// DecomposeNode), cost, exact flag and tuples (empty when counting_only).
/// A k above |Q(D)| returns right after the children, at kInfCost.
/// Preconditions: plan.op is kDecompose and k >= 1.
AdpSolution SolveDecomposeAblationRoot(const DispatchPlan& plan,
                                       const Database& db, std::int64_t k,
                                       const AdpOptions& options);

}  // namespace adp

#endif  // ADP_SOLVER_DECOMPOSE_H_
