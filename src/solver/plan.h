// Compiled dispatch plans for ComputeADP (Algorithm 2).
//
// Every decision Algorithm 2 makes about *which* case to apply is a function
// of query structure alone: the boolean test, the singleton test, universal
// attributes, and connectivity never look at the data. The recursion's
// derived queries are likewise data-independent — all Universe groups share
// one residual query, and Decompose's components are fixed by the body's
// join graph (Lemma 3). A DispatchPlan is that skeleton compiled once into
// a tree: each node carries its case, its own selection-free query and what
// the case recurses into, and a Boolean node the linear arrangement found by
// the exhaustive permutation search in §7.1 — the single most expensive
// piece of query-complexity work.
//
// The solver walks the tree by child index (SolveNode, solver/compute_adp.h):
// no node classifies, looks up or rebuilds a query while solving. A solve
// without AdpOptions::plan compiles one first, so there is one dispatch path.
// Plans are immutable after construction, so one instance may serve any
// number of concurrent solves.

#ifndef ADP_SOLVER_PLAN_H_
#define ADP_SOLVER_PLAN_H_

#include <optional>
#include <vector>

#include "query/query.h"
#include "solver/compute_adp.h"

namespace adp {

/// One node of the compiled Algorithm-2 recursion; the plan is its root.
struct DispatchPlan {
  AdpCase op = AdpCase::kHeuristic;

  /// The node's selection-free query; its database's instances are indexed
  /// as in its body.
  ConjunctiveQuery query;

  /// Boolean nodes only: the linear arrangement, or nullopt if the
  /// permutation search proved none exists (the solver then solves each
  /// component of a disconnected body on its own, and goes straight to the
  /// greedy fallback for a connected one).
  std::optional<std::vector<int>> linear_order;

  /// Universe nodes only: the attributes each group's key fixes — all
  /// universal attributes, or the lowest one under the kOneByOne ablation.
  AttrSet removed;

  /// Decompose nodes, and Boolean nodes over a disconnected body without a
  /// linear arrangement: each component's body positions in `query`, in
  /// ConnectedComponents order.
  std::vector<std::vector<int>> components;

  /// A Universe node's one residual child (every group solves it), or a
  /// child per component of such a Decompose or Boolean node; leaves have
  /// none.
  std::vector<DispatchPlan> children;
};

/// Compiles the plan for `q`, which must be selection-free (the engine plans
/// the residual query after Lemma-12 pushdown, matching what ComputeAdp
/// recurses on). `options` must carry the same classification-relevant knobs
/// (use_singleton, universe_strategy, presence of restrictions) as the
/// solves the plan will serve.
DispatchPlan BuildDispatchPlan(const ConjunctiveQuery& q,
                               const AdpOptions& options);

/// Short name of a dispatch case ("boolean", "singleton", ...).
const char* AdpCaseName(AdpCase c);

}  // namespace adp

#endif  // ADP_SOLVER_PLAN_H_
