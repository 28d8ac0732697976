// Singleton(Q, D, k) (Definition 10, Algorithm 3): a direct sorting
// algorithm for queries with a relation Ri whose attributes are contained in
// every other relation and comparable with the head.
//
//   Case 1, attr(Ri) ⊆ head(Q): every output tuple inherits its attr(Ri)
//     values from exactly one Ri tuple, so outputs are partitioned by Ri
//     tuple. Removing the highest-"profit" tuples first is optimal.
//   Case 2, head(Q) ⊆ attr(Ri): after discarding dangling tuples, output t
//     dies exactly when all Ri tuples projecting to t die; picking the
//     cheapest output groups first is optimal.
//
// Both cases yield *convex* cost profiles, which is what makes stacked
// Universe/Decompose combinations cheap (§7.3, Figures 28–29). Both orders
// are stable and linear (StableSortByKey, util/stable_order.h): equal
// profits keep the lower tuple id, equal group sizes the first-seen group.
// The order is the node's one deletion order (LeafNode, solver/compute_adp.h),
// which keeps only the picks (or groups) up to the first that reaches its
// cap and maps only those to root tuples.

#ifndef ADP_SOLVER_SINGLETON_H_
#define ADP_SOLVER_SINGLETON_H_

#include "query/query.h"
#include "relational/database.h"
#include "solver/compute_adp.h"

namespace adp {

struct CountReads;  // relational/join.h
struct JoinCounts;  // relational/join.h

/// True if `q` satisfies Definition 10. If so and `which` is non-null,
/// stores the body index of the singleton relation Ri (the one with the
/// minimum attribute count, per Algorithm 3 line 1).
bool IsSingletonQuery(const ConjunctiveQuery& q, int* which);

/// What SingletonNode reads of a counting pass (JoinCounts): Ri's per-tuple
/// join rows in case 1 under a full head (the profits) and in case 2 (the
/// dangling filter). Case 1 under a projected head groups the distinct
/// outputs instead, so it reads the join, unless a vacuum Ri makes its one
/// profit |Q(D)|. Precondition: IsSingletonQuery(q).
CountReads SingletonReads(const ConjunctiveQuery& q);

/// Builds the exact recursion node from the node's own counts: those of
/// CountComponents over exactly (q, db) under q's head, reading
/// SingletonReads(q) (SolveNode makes that pass). Precondition:
/// IsSingletonQuery(q).
AdpNode SingletonNode(const ConjunctiveQuery& q, const Database& db,
                      std::int64_t cap, const AdpOptions& options,
                      const JoinCounts& counts);

}  // namespace adp

#endif  // ADP_SOLVER_SINGLETON_H_
