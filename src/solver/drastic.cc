#include "solver/drastic.h"

#include <vector>

#include "dichotomy/relations.h"
#include "relational/join.h"
#include "util/stable_order.h"

namespace adp {
namespace {

// Whether the node proposes picks from relation `rel`. Restrictions
// invalidate the endogenous-only shortcut of Lemma 13: the exogenous
// substitute of a protected tuple may be the only deletable one (see the
// greedy note).
bool IsCandidate(const ConjunctiveQuery& q, int rel,
                 const AdpOptions& options) {
  return (options.restrictions && !options.restrictions->Empty()) ||
         !IsExogenous(q, rel);
}

}  // namespace

CountReads DrasticReads(const ConjunctiveQuery& q, const AdpOptions& options) {
  CountReads reads;
  for (int i = 0; i < q.num_relations(); ++i) {
    if (IsCandidate(q, i, options)) reads.Add(static_cast<std::size_t>(i));
  }
  return reads;
}

AdpNode DrasticNode(const ConjunctiveQuery& q, const Database& db,
                    std::int64_t cap, const AdpOptions& options,
                    const JoinCounts& counts) {
  if (options.stats) ++options.stats->drastic_leaves;
  // One order per candidate relation: its deletable tuples by profit, the
  // highest first, ties to the lower tuple id. Profits are full-join row
  // counts (full CQ: every row is a distinct output), disjoint within one
  // relation, so an order's prefix removes the sum of its profits; budget c
  // takes the relation whose first c picks remove the most.
  std::vector<DeletionOrder> orders;
  for (int rel = 0; rel < q.num_relations(); ++rel) {
    if (!IsCandidate(q, rel, options)) continue;
    const RelationInstance& inst = db.rel(rel);
    const std::vector<std::int64_t> profit = counts.RowsThrough(rel);
    DeletionOrder& order = orders.emplace_back();
    order.reserve(profit.size());
    for (TupleId t = 0; t < profit.size(); ++t) {
      if (profit[t] <= 0) continue;
      if (options.restrictions &&
          options.restrictions->IsProtectedLocal(inst, t)) {
        continue;
      }
      order.push_back({TupleRef{rel, t}, profit[t]});
    }
    StableSortByKey(
        order,
        [](const Deletion& d) { return static_cast<std::uint64_t>(d.gain); },
        SortOrder::kDescending);
  }
  return LeafNode(orders, db, cap, counts.outputs, /*exact=*/false, options);
}

}  // namespace adp
