// DispatchPlan: the compiled Algorithm-2 tree must record, node by node,
// what the classifier and the query rewrites decide, and a solve that walks
// a caller's plan must equal one that compiles its own.

#include <gtest/gtest.h>

#include <array>

#include "dichotomy/linearize.h"
#include "query/fingerprint.h"
#include "query/parser.h"
#include "query/transform.h"
#include "solver/compute_adp.h"
#include "solver/plan.h"
#include "test_util.h"
#include "util/rng.h"

namespace adp {
namespace {

using testing::MakeDb;
using testing::RandomDb;
using testing::RandomQuery;

TEST(DispatchPlanTest, LinearBooleanChainCachesArrangement) {
  const auto q = ParseQuery("Q() :- R1(A,B), R2(B,C), R3(C,E)");
  const DispatchPlan plan = BuildDispatchPlan(q, AdpOptions{});
  EXPECT_EQ(plan.op, AdpCase::kBoolean);
  ASSERT_TRUE(plan.linear_order.has_value());
  EXPECT_TRUE(IsLinearOrder(q, *plan.linear_order));
}

TEST(DispatchPlanTest, TriangleBooleanProvesNoArrangement) {
  const auto q = ParseQuery("Q() :- R1(A,B), R2(B,C), R3(C,A)");
  const DispatchPlan plan = BuildDispatchPlan(q, AdpOptions{});
  EXPECT_EQ(plan.op, AdpCase::kBoolean);
  EXPECT_FALSE(plan.linear_order.has_value());
}

TEST(DispatchPlanTest, UniverseAndDecomposeRecurseIntoResiduals) {
  // A is universal; the residual Q(B,C) :- R1(B), R2(C) is disconnected and
  // splits into two singleton components, so the plan holds the whole chain
  // universe -> decompose -> 2 leaves.
  const auto q = ParseQuery("Q(A,B,C) :- R1(A,B), R2(A,C)");
  const DispatchPlan plan = BuildDispatchPlan(q, AdpOptions{});
  EXPECT_EQ(plan.op, AdpCase::kUniverse);
  EXPECT_EQ(plan.removed, AttrSet::Of(q.FindAttribute("A")));
  ASSERT_EQ(plan.children.size(), 1u);
  const DispatchPlan& residual = plan.children[0];
  EXPECT_EQ(residual.op, AdpCase::kDecompose);
  EXPECT_EQ(residual.components,
            (std::vector<std::vector<int>>{{0}, {1}}));
  ASSERT_EQ(residual.children.size(), 2u);
  for (const DispatchPlan& leaf : residual.children) {
    EXPECT_EQ(leaf.op, AdpCase::kSingleton);
    EXPECT_TRUE(leaf.children.empty());
  }
}

TEST(DispatchPlanTest, PlanFromRenamedQueryIsInterchangeable) {
  const auto q = ParseQuery("Q(A,B,C,E) :- R1(A,B), R2(B,C), R3(C,E)");
  const auto renamed = ParseQuery("Q(X,Y,Z,W) :- S1(X,Y), S2(Y,Z), S3(Z,W)");
  ASSERT_EQ(CanonicalQueryKey(q), CanonicalQueryKey(renamed));
  const DispatchPlan plan = BuildDispatchPlan(renamed, AdpOptions{});

  const Database db = MakeDb(q, {{"R1", {{11, 21}, {12, 22}, {13, 23}}},
                                 {"R2", {{21, 31}, {22, 32}, {22, 33}, {23, 33}}},
                                 {"R3", {{31, 41}, {32, 43}, {33, 43}}}});
  AdpOptions with_plan;
  with_plan.plan = &plan;
  const AdpSolution planned = ComputeAdp(q, db, 2, with_plan);
  const AdpSolution direct = ComputeAdp(q, db, 2, AdpOptions{});
  EXPECT_EQ(planned.cost, direct.cost);
  EXPECT_EQ(planned.exact, direct.exact);
  EXPECT_EQ(planned.feasible, direct.feasible);
  EXPECT_EQ(planned.output_count, direct.output_count);
  EXPECT_EQ(planned.tuples, direct.tuples);
}

// Property: for random queries and instances, a plan-guided solve is
// bit-identical to the planless solve.
TEST(DispatchPlanTest, PlannedSolveMatchesDirectSolveProperty) {
  Rng rng(20260731);
  for (int trial = 0; trial < 120; ++trial) {
    const ConjunctiveQuery q = RandomQuery(rng, 4, 3);
    const Database db = RandomDb(q, rng, 4, 3);
    const std::int64_t k = static_cast<std::int64_t>(rng.Uniform(4));

    AdpOptions base;
    if (trial % 3 == 1) base.use_singleton = false;
    if (trial % 4 == 2) {
      base.universe_strategy = AdpOptions::UniverseStrategy::kOneByOne;
    }

    const DispatchPlan plan = BuildDispatchPlan(q, base);
    AdpOptions with_plan = base;
    with_plan.plan = &plan;

    const AdpSolution direct = ComputeAdp(q, db, k, base);
    const AdpSolution planned = ComputeAdp(q, db, k, with_plan);
    ASSERT_EQ(planned.cost, direct.cost)
        << "trial " << trial << " query " << q.ToString();
    ASSERT_EQ(planned.exact, direct.exact) << "trial " << trial;
    ASSERT_EQ(planned.feasible, direct.feasible) << "trial " << trial;
    ASSERT_EQ(planned.output_count, direct.output_count) << "trial " << trial;
    ASSERT_EQ(planned.tuples, direct.tuples) << "trial " << trial;
  }
}

// Checks `node` and its subtree against the classifier and the query
// rewrites the solver's cases stand for; tallies each node's case in `seen`.
void CheckSubtree(const DispatchPlan& node, const AdpOptions& options,
                  std::array<int, 5>& seen) {
  const ConjunctiveQuery& q = node.query;
  SCOPED_TRACE(std::string(AdpCaseName(node.op)) + " " + q.ToString());
  ASSERT_EQ(node.op, ClassifyAdpCase(q, options));
  ++seen[static_cast<std::size_t>(node.op)];
  switch (node.op) {
    case AdpCase::kBoolean:
      if (node.linear_order) {
        EXPECT_TRUE(IsLinearOrder(q, *node.linear_order));
      } else {
        EXPECT_FALSE(FindLinearOrder(q).has_value());
      }
      EXPECT_TRUE(node.children.empty());
      return;
    case AdpCase::kUniverse: {
      const AttrSet universal = q.UniversalAttrs();
      EXPECT_EQ(node.removed,
                options.universe_strategy ==
                        AdpOptions::UniverseStrategy::kOneByOne
                    ? AttrSet::Of(*universal.begin())
                    : universal);
      ASSERT_EQ(node.children.size(), 1u);
      EXPECT_EQ(CanonicalQueryKey(node.children[0].query),
                CanonicalQueryKey(RemoveAttributes(q, node.removed)));
      break;
    }
    case AdpCase::kDecompose: {
      const std::vector<Subquery> subs = DecomposeQuery(q);
      ASSERT_EQ(node.components.size(), subs.size());
      ASSERT_EQ(node.children.size(), subs.size());
      for (std::size_t c = 0; c < subs.size(); ++c) {
        EXPECT_EQ(node.components[c], subs[c].parent_relation);
        EXPECT_EQ(CanonicalQueryKey(node.children[c].query),
                  CanonicalQueryKey(subs[c].query));
      }
      break;
    }
    case AdpCase::kSingleton:
    case AdpCase::kHeuristic:
      EXPECT_TRUE(node.children.empty());
      return;
  }
  for (const DispatchPlan& child : node.children) {
    CheckSubtree(child, options, seen);
  }
}

// Property: over random query shapes and classification knobs, every node
// of the compiled tree holds what the solver would have derived at that
// node by classifying, removing universal attributes and decomposing.
TEST(DispatchPlanTest, TreeMatchesClassifierProperty) {
  Rng rng(20261018);
  std::array<int, 5> seen{};
  for (int trial = 0; trial < 240; ++trial) {
    const ConjunctiveQuery q =
        RandomQuery(rng, 5, 4, /*allow_vacuum=*/trial % 5 == 0);
    AdpOptions options;
    options.use_singleton = trial % 3 != 1;
    if (trial % 4 == 2) {
      options.universe_strategy = AdpOptions::UniverseStrategy::kOneByOne;
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    CheckSubtree(BuildDispatchPlan(q, options), options, seen);
  }
  // Every case was compiled somewhere, so no check above is vacuous.
  for (std::size_t c = 0; c < seen.size(); ++c) {
    EXPECT_GT(seen[c], 0) << AdpCaseName(static_cast<AdpCase>(c));
  }
}

}  // namespace
}  // namespace adp
