// DrasticGreedyForFullCQ (Algorithm 7): the cheap heuristic for full CQs.
// Profits are computed once per tuple (distinct tuples of one relation
// remove disjoint full-join rows), each endogenous relation proposes the
// smallest profit-sorted prefix reaching the target, and the cheapest
// relation wins. Not applicable under projections (§7.4). The profit order
// is stable and linear (StableSortByKey, util/stable_order.h), equal
// profits keeping the lower tuple id, and each relation keeps only its
// picks up to the first whose prefix reaches the node's cap.

#ifndef ADP_SOLVER_DRASTIC_H_
#define ADP_SOLVER_DRASTIC_H_

#include "query/query.h"
#include "relational/database.h"
#include "solver/compute_adp.h"

namespace adp {

struct CountReads;  // relational/join.h
struct JoinCounts;  // relational/join.h

/// The per-tuple join rows DrasticNode reads: those of the relations it
/// proposes picks from, the endogenous ones (Lemma 13), or all of them under
/// deletion restrictions.
CountReads DrasticReads(const ConjunctiveQuery& q, const AdpOptions& options);

/// Builds the (non-exact) recursion node from the node's own counts: those
/// of CountComponents over exactly (q, db) under q's head, reading
/// DrasticReads(q, options) (SolveNode makes that pass). Precondition:
/// q.IsFull().
AdpNode DrasticNode(const ConjunctiveQuery& q, const Database& db,
                    std::int64_t cap, const AdpOptions& options,
                    const JoinCounts& counts);

}  // namespace adp

#endif  // ADP_SOLVER_DRASTIC_H_
