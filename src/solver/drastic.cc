#include "solver/drastic.h"

#include <algorithm>
#include <memory>

#include "dichotomy/relations.h"
#include "relational/join.h"
#include "util/saturating.h"

namespace adp {
namespace {

struct RelationPlan {
  int rel = -1;
  // (profit, tuple) sorted by profit descending; profits are disjoint
  // full-join row counts, so prefix sums are exact removal counts.
  std::vector<std::pair<std::int64_t, TupleId>> picks;
  std::vector<std::int64_t> prefix_removed;  // cumulative outputs removed
};

}  // namespace

AdpNode DrasticNode(const ConjunctiveQuery& q, const Database& db,
                    std::int64_t cap, const AdpOptions& options) {
  if (options.stats) ++options.stats->drastic_leaves;
  // Per-tuple profits are full-join row counts (full CQ: every row is a
  // distinct output).
  const JoinCounts counts = CountJoinRows(q.body(), db);
  const std::int64_t total = counts.rows;

  std::vector<int> candidates = EndogenousRelations(q);
  if (options.restrictions && !options.restrictions->Empty()) {
    // See the greedy note: restrictions invalidate the endogenous-only
    // shortcut of Lemma 13.
    candidates.clear();
    for (int i = 0; i < q.num_relations(); ++i) candidates.push_back(i);
  }
  auto plans = std::make_shared<std::vector<RelationPlan>>();
  for (int rel : candidates) {
    RelationPlan plan;
    plan.rel = rel;
    const std::vector<std::int64_t>& profit = counts.per_tuple[rel];
    for (TupleId t = 0; t < profit.size(); ++t) {
      if (profit[t] <= 0) continue;
      if (options.restrictions &&
          options.restrictions->IsProtectedLocal(db.rel(rel), t)) {
        continue;
      }
      plan.picks.emplace_back(profit[t], t);
    }
    std::sort(plan.picks.begin(), plan.picks.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    plan.prefix_removed.reserve(plan.picks.size());
    std::int64_t run = 0;
    for (const auto& [profit_t, t] : plan.picks) {
      run = SatAdd(run, profit_t);
      plan.prefix_removed.push_back(run);
    }
    plans->push_back(std::move(plan));
  }

  // Node profile: pointwise best relation per target.
  const std::int64_t kmax = std::min(cap, total);
  std::vector<std::int64_t> cost(static_cast<std::size_t>(kmax) + 1, 0);
  // per-j winning plan for reporting
  auto winner = std::make_shared<std::vector<int>>(
      static_cast<std::size_t>(kmax) + 1, 0);
  for (std::int64_t j = 1; j <= kmax; ++j) {
    std::int64_t best = kInfCost;
    int best_plan = -1;
    for (std::size_t i = 0; i < plans->size(); ++i) {
      const auto& pr = (*plans)[i].prefix_removed;
      // Smallest prefix length with removed >= j.
      auto it = std::lower_bound(pr.begin(), pr.end(), j);
      if (it == pr.end()) continue;
      const std::int64_t len = static_cast<std::int64_t>(it - pr.begin()) + 1;
      if (len < best) {
        best = len;
        best_plan = static_cast<int>(i);
      }
    }
    cost[j] = best;
    (*winner)[j] = best_plan;
    if (cost[j] < cost[j - 1]) cost[j] = cost[j - 1];  // keep monotone
  }

  AdpNode node;
  node.exact = false;
  node.profile = CostProfile(std::move(cost));
  if (!options.counting_only) {
    // Capture origin translation tables.
    auto roots = std::make_shared<std::vector<std::pair<int,
        std::vector<TupleId>>>>();
    for (const RelationPlan& plan : *plans) {
      const RelationInstance& inst = db.rel(plan.rel);
      std::vector<TupleId> origins(inst.size());
      for (std::size_t t = 0; t < inst.size(); ++t) {
        origins[t] = inst.OriginOf(t);
      }
      roots->emplace_back(inst.root_relation(), std::move(origins));
    }
    node.report = [plans, winner, roots](std::int64_t j) {
      std::vector<TupleRef> out;
      if (j <= 0) return out;
      const int w = (*winner)[j];
      if (w < 0) return out;
      const RelationPlan& plan = (*plans)[w];
      const auto& [root_rel, origins] = (*roots)[w];
      std::int64_t removed = 0;
      for (std::size_t i = 0; i < plan.picks.size(); ++i) {
        out.push_back(TupleRef{root_rel, origins[plan.picks[i].second]});
        removed = plan.prefix_removed[i];
        if (removed >= j) break;
      }
      return out;
    };
  }
  return node;
}

}  // namespace adp
