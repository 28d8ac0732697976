#include "solver/drastic.h"

#include <algorithm>
#include <memory>

#include "dichotomy/relations.h"
#include "relational/join.h"
#include "util/saturating.h"
#include "util/stable_order.h"

namespace adp {
namespace {

struct RelationPlan {
  int root_rel = -1;
  // (profit, tuple) by profit descending, ties to the lower tuple id, up to
  // the first pick reaching cap; the tuple is the root's when a reporter
  // reads it. Profits are disjoint full-join row counts, so prefix sums are
  // exact removal counts.
  std::vector<std::pair<std::int64_t, TupleId>> picks;
  std::vector<std::int64_t> prefix_removed;  // cumulative outputs removed
};

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

  auto plans = std::make_shared<std::vector<RelationPlan>>();
  for (int rel = 0; rel < q.num_relations(); ++rel) {
    if (!IsCandidate(q, rel, options)) continue;
    const RelationInstance& inst = db.rel(rel);
    RelationPlan plan;
    plan.root_rel = inst.root_relation();
    // Per-tuple profits are full-join row counts (full CQ: every row is a
    // distinct output).
    const std::vector<std::int64_t> profit = counts.RowsThrough(rel);
    for (TupleId t = 0; t < profit.size(); ++t) {
      if (profit[t] <= 0) continue;
      if (options.restrictions &&
          options.restrictions->IsProtectedLocal(inst, t)) {
        continue;
      }
      plan.picks.emplace_back(profit[t], t);
    }
    StableSortByKey(
        plan.picks,
        [](const std::pair<std::int64_t, TupleId>& p) {
          return static_cast<std::uint64_t>(p.first);
        },
        SortOrder::kDescending);
    // No target beyond cap is read, so neither is any pick past the first
    // prefix reaching it.
    std::int64_t run = 0;
    for (const auto& [profit_t, t] : plan.picks) {
      run = SatAdd(run, profit_t);
      plan.prefix_removed.push_back(run);
      if (run >= cap) break;
    }
    plan.picks.resize(plan.prefix_removed.size());
    if (!options.counting_only) {
      for (auto& pick : plan.picks) pick.second = inst.OriginOf(pick.second);
    }
    plans->push_back(std::move(plan));
  }

  // Node profile: c deletions remove the most outputs through the relation
  // whose first c picks remove the most.
  AdpNode node;
  node.exact = false;
  node.outputs = counts.outputs;
  std::size_t longest = 0;
  for (const RelationPlan& plan : *plans) {
    longest = std::max(longest, plan.picks.size());
  }
  for (std::size_t c = 1; c <= longest; ++c) {
    std::int64_t best = 0;
    for (const RelationPlan& plan : *plans) {
      const auto& pr = plan.prefix_removed;
      if (!pr.empty()) best = std::max(best, pr[std::min(c, pr.size()) - 1]);
    }
    if (!node.profile.Append(static_cast<std::int64_t>(c), best, cap)) break;
  }

  if (!options.counting_only) {
    node.report = [plans](std::int64_t j) {
      std::vector<TupleRef> out;
      if (j <= 0) return out;
      // The profile's winner for j: the shortest pick prefix reaching j,
      // from the lowest-index relation on ties.
      int w = -1;
      std::size_t len = 0;
      for (std::size_t i = 0; i < plans->size(); ++i) {
        const auto& pr = (*plans)[i].prefix_removed;
        const auto it = std::lower_bound(pr.begin(), pr.end(), j);
        if (it == pr.end()) continue;
        const std::size_t n = static_cast<std::size_t>(it - pr.begin()) + 1;
        if (w < 0 || n < len) {
          w = static_cast<int>(i);
          len = n;
        }
      }
      if (w < 0) return out;
      const RelationPlan& plan = (*plans)[w];
      for (std::size_t i = 0; i < len; ++i) {
        out.push_back(TupleRef{plan.root_rel, plan.picks[i].second});
      }
      return out;
    };
  }
  return node;
}

}  // namespace adp
