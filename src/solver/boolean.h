// Boolean(Q, D, k) (§7.1): resilience of a boolean CQ via a minimum vertex
// cut. Requires a linear arrangement of the atoms (every triad-free query
// used in the paper has one; see dichotomy/linearize.h). Exogenous atoms
// participate with infinite node capacity — by Lemma 13 an optimal solution
// never deletes their tuples.

#ifndef ADP_SOLVER_BOOLEAN_H_
#define ADP_SOLVER_BOOLEAN_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "query/query.h"
#include "relational/database.h"
#include "solver/restrictions.h"
#include "solver/solution.h"

namespace adp {

/// Exact resilience result. The cut is in the coordinates of the database
/// it was solved over (body position, local row): root coordinates over a
/// root database.
struct BooleanResult {
  std::int64_t resilience = 0;       // minimum tuples to make Q(D) false
  std::vector<TupleRef> cut;         // a witness of that size
};

/// Solves resilience exactly if a linear arrangement exists; nullopt
/// otherwise (the caller falls back to the greedy heuristic).
/// Precondition: q is boolean and Q(D) is true (has at least one join row).
/// Protected tuples (if any) receive infinite capacity; the result may then
/// have resilience >= kInfCapacity, meaning the query cannot be falsified
/// with the deletable tuples alone.
/// `linear_order`, if non-null, must be a valid linear arrangement of `q`
/// (e.g. cached in a DispatchPlan); the permutation search is then skipped.
std::optional<BooleanResult> SolveBooleanExact(
    const ConjunctiveQuery& q, const Database& db,
    const DeletionRestrictions* restrictions = nullptr,
    const std::vector<int>* linear_order = nullptr);

}  // namespace adp

#endif  // ADP_SOLVER_BOOLEAN_H_
