// Universe(Q, D, k) (Algorithm 4): partition the instance by the universal
// attributes, solve each class recursively, and combine the per-class cost
// profiles under disjoint-union semantics (Eq. 1).
//
// Optimizations (§7.3):
//   * all universal attributes are removed as one combined attribute
//     (UniverseStrategy::kAllAtOnce); the one-by-one strategy is kept for
//     the Figure 28 ablation;
//   * when every class profile is convex (e.g. classes solved by Singleton)
//     the DP degenerates to a global merge of marginal gains, which is what
//     makes the paper's "improved" strategy near-linear.
//
// The per-class sub-solves are independent (disjoint sub-instances); with
// AdpOptions::parallelism set they are sharded across an executor and the
// profiles combined in partition order, producing results identical to the
// sequential fold.

#ifndef ADP_SOLVER_UNIVERSE_H_
#define ADP_SOLVER_UNIVERSE_H_

#include "relational/database.h"
#include "solver/compute_adp.h"

namespace adp {

/// Builds the recursion node: partitions `db` on plan.removed and solves
/// the plan's one residual child over every group. Counts nothing: the
/// node's `outputs` is the sum of its groups'. Precondition: plan.op is
/// kUniverse.
AdpNode UniverseNode(const DispatchPlan& plan, const Database& db,
                     std::int64_t cap, const AdpOptions& options);

}  // namespace adp

#endif  // ADP_SOLVER_UNIVERSE_H_
