// GreedyForCQ (Algorithm 6): the general heuristic leaf for NP-hard queries.
// Repeatedly deletes the endogenous-relation tuple whose removal kills the
// most remaining outputs (exact profits via the ProvenanceIndex), until the
// target is met; ties go to the first candidate relation, then the lowest
// tuple id. Achieves the O(log k) set-cover ratio on full CQs; no guarantee
// under projections (§7.4).
//
// Cost model (rows = |join|, p = body size, n = candidate tuples): building
// the index is O(rows·p); a pick reads the root of a leftmost-max tree over
// the candidates' profits, then costs O(p·rows it kills + changed tuples ·
// log n) to apply the deletion and refresh the tuples whose profit or
// relevance changed.

#ifndef ADP_SOLVER_GREEDY_H_
#define ADP_SOLVER_GREEDY_H_

#include <cstdint>
#include <vector>

#include "query/query.h"
#include "relational/database.h"
#include "solver/compute_adp.h"

namespace adp {

struct JoinCounts;  // relational/join.h

/// The full deletion trajectory of one greedy run, in the coordinates of
/// the database it ran over (body position, local row): root coordinates
/// over a root database.
struct GreedyTrace {
  std::vector<TupleRef> picks;              // deletion order
  std::vector<std::int64_t> removed_after;  // cumulative outputs removed
  std::int64_t total_outputs = 0;           // |Q(D)| before any deletion
};

/// Runs GreedyForCQ until at least `target` outputs are removed (or no
/// deletable tuple can make further progress). `counts`, when given, are
/// CountComponents' counts of exactly (q, db) under q's head, joins kept:
/// an empty join returns at once, and the ProvenanceIndex is built from the
/// join they kept (JoinCounts::WholeJoin). Without counts, or over a
/// disconnected body, it joins for itself.
GreedyTrace RunGreedyForCQ(const ConjunctiveQuery& q, const Database& db,
                           std::int64_t target,
                           const DeletionRestrictions* restrictions = nullptr,
                           const JoinCounts* counts = nullptr);

/// Wraps a greedy run as a (non-exact) recursion node with kmax
/// min(cap, |Q(D)|): its picks are the node's one deletion order
/// (LeafNode). `counts` are the node's own, read as by RunGreedyForCQ
/// (SolveNode makes that pass, joins kept).
AdpNode GreedyNode(const ConjunctiveQuery& q, const Database& db,
                   std::int64_t cap, const AdpOptions& options,
                   const JoinCounts& counts);

}  // namespace adp

#endif  // ADP_SOLVER_GREEDY_H_
