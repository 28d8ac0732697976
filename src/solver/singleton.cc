#include "solver/singleton.h"

#include <cassert>
#include <cstdint>
#include <memory>

#include "obs/trace.h"
#include "relational/group_index.h"
#include "relational/join.h"
#include "util/saturating.h"
#include "util/stable_order.h"

namespace adp {
namespace {

// Case-1 profits under a projected head: a tuple's profit is the number of
// outputs it supports. attr(Ri) ⊆ head, so every join row of one output
// carries the same Ri tuple (instances are duplicate-free), and its first
// row names it. `counts` are the node's (SingletonNode), whose pass kept
// the join and its output groups (SingletonReads).
std::vector<std::int64_t> ProjectedProfits(const ConjunctiveQuery& q,
                                           const Database& db, int ri,
                                           const JoinCounts& counts) {
  if (q.relation(ri).attrs.empty()) {
    // A vacuum Ri holds at most the empty tuple, which every output
    // inherits: its profit is |Q(D)|. Ri shares no attribute, so the body is
    // disconnected, and its join is the cross product of the components.
    return std::vector<std::int64_t>(db.rel(ri).size(), counts.outputs);
  }
  std::vector<std::int64_t> profit(db.rel(ri).size(), 0);
  // An empty join keeps no join (CountComponents): no tuple supports an
  // output.
  const std::shared_ptr<const ComponentJoin> kept = counts.WholeJoin();
  assert(kept != nullptr || counts.outputs == 0);
  if (kept == nullptr) return profit;
  for (std::uint32_t r : kept->outputs->first_row) {
    ++profit[kept->join.SupportOf(r, ri)];
  }
  return profit;
}

}  // namespace

bool IsSingletonQuery(const ConjunctiveQuery& q, int* which) {
  int best = -1;
  for (int i = 0; i < q.num_relations(); ++i) {
    if (best < 0 || q.relation(i).attrs.size() < q.relation(best).attrs.size()) {
      best = i;
    }
  }
  if (best < 0) return false;
  const AttrSet ai = q.relation(best).attr_set();
  for (int j = 0; j < q.num_relations(); ++j) {
    if (!ai.SubsetOf(q.relation(j).attr_set())) return false;
  }
  if (!ai.SubsetOf(q.head()) && !q.head().SubsetOf(ai)) return false;
  if (which) *which = best;
  return true;
}

CountReads SingletonReads(const ConjunctiveQuery& q) {
  int ri = -1;
  IsSingletonQuery(q, &ri);
  CountReads reads;
  if (!q.relation(ri).attr_set().SubsetOf(q.head()) ||
      q.all_attrs().SubsetOf(q.head())) {
    reads.Add(static_cast<std::size_t>(ri));
  } else {
    reads.joins = !q.relation(ri).vacuum();
  }
  return reads;
}

AdpNode SingletonNode(const ConjunctiveQuery& q, const Database& db,
                      std::int64_t cap, const AdpOptions& options,
                      const JoinCounts& counts) {
  int ri = -1;
  IsSingletonQuery(q, &ri);
  const RelationSchema& schema = q.relation(ri);
  const RelationInstance& inst = db.rel(ri);
  const AttrSet ai = schema.attr_set();

  AdpNode node;
  node.exact = true;
  node.outputs = counts.outputs;
  if (options.stats) ++options.stats->singleton_nodes;
  if (options.trace != nullptr) {
    // Algorithm 3 has two regimes: case 1 (attr(Ri) ⊆ head, profit per
    // tuple) and case 2 (head ⊆ attr(Ri), cheapest groups). Record which
    // one fired on this node's own span.
    options.trace->Annotate(options.trace_parent, "case",
                            ai.SubsetOf(q.head()) ? "1" : "2");
  }

  if (ai.SubsetOf(q.head())) {
    // Case 1: profit of an Ri tuple = number of outputs inheriting it. Under
    // a full head every join row is an output, so that is the number of join
    // rows through the tuple.
    const std::vector<std::int64_t> profit =
        q.all_attrs().SubsetOf(q.head())
            ? counts.RowsThrough(ri)
            : ProjectedProfits(q, db, ri, counts);
    struct Pick {
      std::int64_t profit;
      TupleId t;  // in `inst`; the root tuple once the reporter keeps it
    };
    std::vector<Pick> picks;
    picks.reserve(inst.size());
    for (std::size_t t = 0; t < inst.size(); ++t) {
      if (profit[t] > 0) {
        picks.push_back(Pick{profit[t], static_cast<TupleId>(t)});
      }
    }
    // Highest profit first; ties go to the lower tuple id.
    StableSortByKey(
        picks,
        [](const Pick& p) { return static_cast<std::uint64_t>(p.profit); },
        SortOrder::kDescending);

    // The c-th deletion removes the c-th pick's profit; the profile reads
    // the picks up to the first that reaches cap.
    std::int64_t removed = 0;
    std::size_t used = 0;
    while (used < picks.size()) {
      removed = SatAdd(removed, picks[used].profit);
      ++used;
      if (!node.profile.Append(static_cast<std::int64_t>(used), removed,
                               cap)) {
        break;
      }
    }

    if (!options.counting_only) {
      picks.resize(used);
      for (Pick& p : picks) p.t = inst.OriginOf(p.t);
      auto shared = std::make_shared<std::vector<Pick>>(std::move(picks));
      const int root_rel = inst.root_relation();
      node.report = [shared, root_rel](std::int64_t j) {
        std::vector<TupleRef> out;
        std::int64_t removed = 0;
        for (const Pick& p : *shared) {
          if (removed >= j) break;
          out.push_back(TupleRef{root_rel, p.t});
          removed = SatAdd(removed, p.profit);
        }
        return out;
      };
    }
    return node;
  }

  // Case 2: head(Q) ⊆ attr(Ri). Discard dangling Ri tuples, group the rest
  // by head projection (one group per output), delete cheapest groups first.
  const std::vector<std::int64_t> through = counts.RowsThrough(ri);
  std::vector<int> hcols;
  for (AttrId a : q.head()) hcols.push_back(schema.ColumnOf(a));
  // Group by head-projection codes (no key materialization), then drop the
  // dangling members of each group; a group left empty never joins, i.e. it
  // is not an output.
  const HashGroupIndex grouped(inst, hcols);
  std::vector<std::vector<TupleId>> sorted_groups;
  sorted_groups.reserve(grouped.num_groups());
  for (std::size_t g = 0; g < grouped.num_groups(); ++g) {
    std::vector<TupleId> members;
    for (TupleId t : grouped.rows(g)) {
      if (through[t] > 0) members.push_back(t);
    }
    if (!members.empty()) sorted_groups.push_back(std::move(members));
  }
  // Smallest group first; ties keep first-seen group order.
  StableSortByKey(
      sorted_groups,
      [](const std::vector<TupleId>& g) {
        return static_cast<std::uint64_t>(g.size());
      },
      SortOrder::kAscending);

  // Removing the j cheapest groups costs the sum of their sizes and removes
  // exactly j outputs; the profile reads the first cap groups.
  std::int64_t spent = 0;
  std::size_t used = 0;
  while (used < sorted_groups.size()) {
    spent += static_cast<std::int64_t>(sorted_groups[used].size());
    ++used;
    if (!node.profile.Append(spent, static_cast<std::int64_t>(used), cap)) {
      break;
    }
  }

  if (!options.counting_only) {
    sorted_groups.resize(used);
    for (std::vector<TupleId>& group : sorted_groups) {
      for (TupleId& t : group) t = inst.OriginOf(t);
    }
    auto shared = std::make_shared<std::vector<std::vector<TupleId>>>(
        std::move(sorted_groups));
    const int root_rel = inst.root_relation();
    node.report = [shared, root_rel](std::int64_t j) {
      std::vector<TupleRef> out;
      for (std::int64_t g = 0; g < j && g < static_cast<std::int64_t>(
                                               shared->size());
           ++g) {
        for (TupleId t : (*shared)[g]) out.push_back(TupleRef{root_rel, t});
      }
      return out;
    };
  }
  return node;
}

}  // namespace adp
