#include "solver/universe.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>

#include "obs/names.h"
#include "obs/trace.h"
#include "query/transform.h"
#include "solver/plan.h"
#include "util/stable_order.h"

namespace adp {
namespace {

// Children plus everything the reporter needs.
struct UniverseState {
  std::vector<AdpNode> children;
  // Generic DP path: the disjoint-union fold of the children's profiles.
  ProfileFold fold;
  // Convex path: the marginal steps by gain descending, up to the first
  // reaching cap.
  struct Step {
    std::int64_t gain;
    int child;
  };
  std::vector<Step> steps;
  bool convex = false;
};

AdpNode CombineChildren(std::shared_ptr<UniverseState> state, std::int64_t cap,
                        const AdpOptions& options) {
  AdpNode node;
  for (const AdpNode& c : state->children) {
    node.exact &= c.exact;
    // Universal attributes are in the head, so the groups' outputs are
    // disjoint and |Q(D)| is their sum.
    node.outputs = SatAdd(node.outputs, c.outputs);
  }

  bool all_convex = options.universe_convex_merge;
  for (const AdpNode& c : state->children) {
    all_convex = all_convex && c.profile.HasConcaveGains();
  }
  state->convex = all_convex;

  if (all_convex) {
    // Global greedy over marginal gains: a concave child's breakpoints sit
    // at budgets 0, 1, 2, ..., and the c-th unit of budget spent on it buys
    // the c-th breakpoint's gain. Those gains are nonincreasing per child,
    // so merging all steps by gain is optimal for the disjoint union.
    for (std::size_t i = 0; i < state->children.size(); ++i) {
      const std::vector<ProfileStep>& st = state->children[i].profile.steps();
      assert(st[0].removed == 0);  // solver profiles remove nothing for free
      for (std::size_t c = 1; c < st.size(); ++c) {
        state->steps.push_back(UniverseState::Step{
            st[c].removed - st[c - 1].removed, static_cast<int>(i)});
      }
    }
    // Ties keep child order, and a child's own steps their order.
    StableSortByKey(
        state->steps,
        [](const UniverseState::Step& step) {
          return static_cast<std::uint64_t>(step.gain);
        },
        SortOrder::kDescending);
    std::int64_t removed = 0;
    std::size_t used = 0;
    while (used < state->steps.size()) {
      removed = SatAdd(removed, state->steps[used].gain);
      ++used;
      if (!node.profile.Append(static_cast<std::int64_t>(used), removed,
                               cap)) {
        break;
      }
    }
    state->steps.resize(used);  // the reporter reads no step past cap
  } else {
    // Sequential fold with the disjoint-union budget sweep (Eq. 1),
    // recording splits for reporting.
    ProfileFold& fold = state->fold;
    const std::size_t n = state->children.size();
    fold.levels.assign(1, state->children[0].profile);
    fold.levels[0].TruncateTo(cap);
    fold.splits.assign(n, {});
    for (std::size_t i = 1; i < n; ++i) {
      fold.levels.push_back(CombineDisjoint(
          fold.levels[i - 1], state->children[i].profile, cap,
          options.counting_only ? nullptr : &fold.splits[i]));
    }
    node.profile = fold.levels.back();
  }

  if (!options.counting_only) {
    const std::shared_ptr<UniverseState> s = state;
    node.report = [s, cancel = ReporterToken(options)](std::int64_t j) {
      std::vector<std::int64_t> targets;
      if (s->convex) {
        // Budget per child from the sorted step prefix covering j.
        std::vector<std::int64_t> budget(s->children.size(), 0);
        std::int64_t removed = 0;
        for (const auto& step : s->steps) {
          if (removed >= j) break;
          ++budget[step.child];
          removed += step.gain;
        }
        targets.resize(s->children.size());
        for (std::size_t i = 0; i < s->children.size(); ++i) {
          targets[i] = s->children[i].profile.MaxRemovedWithin(budget[i]);
        }
      } else {
        targets = s->fold.Targets(s->children.size() - 1, j);
      }
      std::vector<TupleRef> out;
      AppendChildReports(s->children, targets, cancel, out);
      return out;
    };
  }
  return node;
}

}  // namespace

AdpNode UniverseNode(const DispatchPlan& plan, const Database& db,
                     std::int64_t cap, const AdpOptions& options) {
  assert(plan.op == AdpCase::kUniverse && plan.children.size() == 1);
  const DispatchPlan& residual = plan.children[0];
  std::vector<UniverseGroup> groups =
      PartitionByAttrs(plan.query, db, plan.removed);
  if (options.stats) {
    ++options.stats->universe_nodes;
    options.stats->universe_groups +=
        static_cast<std::int64_t>(groups.size());
  }
  if (options.trace != nullptr) {
    // options.trace_parent is this node's own span (SolveNode opened it
    // before dispatching here); the tag lands on that span.
    options.trace->Annotate(options.trace_parent, "groups",
                            std::to_string(groups.size()));
  }

  // The groups are disjoint sub-instances of independent subproblems; the
  // children come back in partition order, which CombineChildren folds.
  auto state = std::make_shared<UniverseState>();
  bool sharded = false;
  state->children = SolveChildren(
      groups.size(),
      options.parallelism != nullptr ? options.parallelism->min_groups : 0,
      obs::kSpanShardUniverse, options,
      [&](std::size_t i, const AdpOptions& o, obs::Span&) {
        return SolveNode(residual, groups[i].db, cap, o);
      },
      &sharded);
  if (sharded && options.stats) ++options.stats->sharded_universe_nodes;
  if (state->children.empty()) {
    // No complete class: Q(D) is empty.
    return AdpNode{CostProfile(), true,
                   options.counting_only
                       ? Reporter()
                       : [](std::int64_t) { return std::vector<TupleRef>(); }};
  }
  return CombineChildren(state, cap, options);
}

}  // namespace adp
