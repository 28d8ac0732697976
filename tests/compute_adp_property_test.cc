// The central correctness property of the unified algorithm: on random
// poly-time queries and instances, ComputeADP's cost equals the exhaustive
// optimum for every feasible k; on NP-hard queries the reported tuple set
// is always feasible (removes >= k outputs). Exactness flags must agree
// with the dichotomy.

#include <gtest/gtest.h>

#include <array>

#include "dichotomy/is_ptime.h"
#include "query/parser.h"
#include "query/transform.h"
#include "relational/join.h"
#include "solver/compute_adp.h"
#include "solver/plan.h"
#include "test_util.h"

namespace adp {
namespace {

using testing::OracleAdp;
using testing::OracleCount;
using testing::RandomDb;
using testing::RandomQuery;

class AdpExactnessSweep : public ::testing::TestWithParam<int> {};

TEST_P(AdpExactnessSweep, PtimeQueriesMatchOracle) {
  Rng rng(2000 + GetParam());
  int tested = 0;
  for (int iter = 0; iter < 60 && tested < 6; ++iter) {
    const ConjunctiveQuery q = RandomQuery(rng, 4, 3);
    if (!IsPtime(q)) continue;
    const Database db = RandomDb(q, rng, 4, 2);
    if (db.TotalTuples() > 12) continue;
    const std::int64_t total = OracleCount(q, db);
    if (total == 0) continue;
    ++tested;
    AdpOptions options;
    options.verify = true;
    for (std::int64_t k = 1; k <= total; ++k) {
      const AdpSolution sol = ComputeAdp(q, db, k, options);
      ASSERT_TRUE(sol.feasible) << q.ToString() << " k=" << k;
      EXPECT_TRUE(sol.exact) << q.ToString();
      EXPECT_EQ(sol.cost, OracleAdp(q, db, k))
          << q.ToString() << " k=" << k;
      EXPECT_GE(sol.removed_outputs, k) << q.ToString() << " k=" << k;
      EXPECT_EQ(static_cast<std::int64_t>(sol.tuples.size()), sol.cost);
    }
  }
  EXPECT_GT(tested, 0);
}

INSTANTIATE_TEST_SUITE_P(RandomPtime, AdpExactnessSweep,
                         ::testing::Range(0, 25));

class AdpFeasibilitySweep : public ::testing::TestWithParam<int> {};

TEST_P(AdpFeasibilitySweep, AnyQueryProducesFeasibleSolutions) {
  Rng rng(3000 + GetParam());
  for (int iter = 0; iter < 8; ++iter) {
    const ConjunctiveQuery q = RandomQuery(rng, 5, 4);
    const Database db = RandomDb(q, rng, 8, 3);
    const std::int64_t total = OracleCount(q, db);
    if (total == 0) continue;
    AdpOptions options;
    options.verify = true;
    for (std::int64_t k :
         {std::int64_t{1}, (total + 1) / 2, total}) {
      if (k <= 0) continue;
      const AdpSolution sol = ComputeAdp(q, db, k, options);
      ASSERT_TRUE(sol.feasible) << q.ToString();
      EXPECT_GE(sol.removed_outputs, k) << q.ToString() << " k=" << k;
      EXPECT_LE(static_cast<std::int64_t>(sol.tuples.size()), sol.cost)
          << q.ToString();
      // Heuristic cost is never better than the optimum.
      const std::int64_t opt = OracleAdp(q, db, k);
      EXPECT_GE(sol.cost, opt) << q.ToString() << " k=" << k;
      if (sol.exact) {
        EXPECT_EQ(sol.cost, opt) << q.ToString() << " k=" << k;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomQueries, AdpFeasibilitySweep,
                         ::testing::Range(0, 25));

TEST(AdpExactFlagTest, ExactImpliedByPtimeOnRandomQueries) {
  Rng rng(4444);
  for (int iter = 0; iter < 150; ++iter) {
    const ConjunctiveQuery q = RandomQuery(rng, 5, 4);
    const Database db = RandomDb(q, rng, 6, 3);
    const std::int64_t total = OracleCount(q, db);
    if (total == 0) continue;
    const AdpSolution sol = ComputeAdp(q, db, 1, AdpOptions{});
    if (IsPtime(q)) {
      EXPECT_TRUE(sol.exact) << q.ToString();
    }
  }
}

// Tallies the cases of `node`'s subtree, and whether a Decompose node sits
// under a Universe node and a Universe node under a Decompose node.
struct PlanShapes {
  std::array<int, 5> cases{};
  bool decompose_under_universe = false;
  bool universe_under_decompose = false;

  void Add(const DispatchPlan& node, bool in_universe, bool in_decompose) {
    ++cases[static_cast<std::size_t>(node.op)];
    const bool universe = node.op == AdpCase::kUniverse;
    const bool decompose = node.op == AdpCase::kDecompose;
    decompose_under_universe |= decompose && in_universe;
    universe_under_decompose |= universe && in_decompose;
    for (const DispatchPlan& child : node.children) {
      Add(child, in_universe || universe, in_decompose || decompose);
    }
  }
};

// |Q(D)| flows up the plan: each leaf counts its own body, a Universe node
// sums its groups' outputs and a Decompose node multiplies its components'.
// Over random queries of every Algorithm-2 case (with selections, vacuum
// relations and empty joins among them), the solve's output_count equals
// the count of the pushed-down body and the oracle's at k = 0, 1, |Q(D)| and
// |Q(D)| + 1, also at an ablation-strategy Decompose root, and a k above
// |Q(D)| answers infeasible at kInfCost.
TEST(AdpOutputCountTest, OutputsComposeUpThePlan) {
  Rng rng(20261019);
  PlanShapes shapes;
  int empty = 0;
  int ablation_roots = 0;
  for (int trial = 0; trial < 400; ++trial) {
    ConjunctiveQuery q =
        RandomQuery(rng, 5, 4, /*allow_vacuum=*/trial % 5 == 0);
    const Database db = RandomDb(q, rng, 5, 3);
    if (trial % 4 == 3 && !q.relation(0).attrs.empty()) {
      q.AddSelection(0, q.relation(0).attrs[0],
                     static_cast<Value>(rng.Uniform(3)));
    }
    const std::int64_t total = OracleCount(q, db);
    AdpOptions options;
    options.use_singleton = trial % 3 != 1;
    if (trial % 5 == 4 && total <= 40) {
      // A Decompose root then takes the Fig 29 single-k ablation path.
      options.decompose_strategy =
          AdpOptions::DecomposeStrategy::kPairwiseNaive;
    }
    const QueryDb pushed = ApplySelections(q, db);
    const DispatchPlan plan = BuildDispatchPlan(pushed.query, options);
    shapes.Add(plan, false, false);
    if (plan.op == AdpCase::kDecompose &&
        options.decompose_strategy !=
            AdpOptions::DecomposeStrategy::kImprovedDP) {
      ++ablation_roots;
    }
    ASSERT_EQ(static_cast<std::int64_t>(CountOutputs(
                  pushed.query.body(), pushed.query.head(), pushed.db)),
              total)
        << q.ToString();
    if (total == 0) ++empty;
    for (const std::int64_t k : {std::int64_t{0}, std::int64_t{1}, total,
                                 total + 1}) {
      SCOPED_TRACE(q.ToString() + " k=" + std::to_string(k));
      const AdpSolution sol = ComputeAdp(q, db, k, options);
      EXPECT_EQ(sol.output_count, total);
      if (k > total) {
        EXPECT_FALSE(sol.feasible);
        EXPECT_EQ(sol.cost, kInfCost);
        EXPECT_TRUE(sol.tuples.empty());
      } else {
        EXPECT_TRUE(sol.feasible);
        EXPECT_LT(sol.cost, kInfCost);
      }
    }
  }
  for (std::size_t c = 0; c < shapes.cases.size(); ++c) {
    EXPECT_GT(shapes.cases[c], 0) << static_cast<int>(c);
  }
  EXPECT_TRUE(shapes.decompose_under_universe);
  EXPECT_TRUE(shapes.universe_under_decompose);
  EXPECT_GT(empty, 0);
  EXPECT_GT(ablation_roots, 0);
}

TEST(AdpDeterminismTest, SameSeedSameSolution) {
  Rng rng(555);
  const ConjunctiveQuery q = ParseQuery("Q(A,B) :- R1(A), R2(A,B), R3(B)");
  const Database db = RandomDb(q, rng, 20, 6);
  const std::int64_t total = OracleCount(q, db);
  if (total == 0) GTEST_SKIP();
  const AdpSolution a = ComputeAdp(q, db, total / 2 + 1, AdpOptions{});
  const AdpSolution b = ComputeAdp(q, db, total / 2 + 1, AdpOptions{});
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.tuples.size(), b.tuples.size());
  for (std::size_t i = 0; i < a.tuples.size(); ++i) {
    EXPECT_EQ(a.tuples[i].relation, b.tuples[i].relation);
    EXPECT_EQ(a.tuples[i].row, b.tuples[i].row);
  }
}

}  // namespace
}  // namespace adp
