// Tests for the §9 deletion-restriction extension: protected tuples are
// never deleted, boolean subproblems stay exact, infeasibility is detected,
// and restricted optima match a restricted exhaustive oracle.

#include <gtest/gtest.h>

#include "profile_oracle.h"
#include "query/parser.h"
#include "query/transform.h"
#include "relational/join.h"
#include "solver/boolean.h"
#include "solver/brute_force.h"
#include "solver/compute_adp.h"
#include "solver/plan.h"
#include "test_util.h"

namespace adp {
namespace {

using testing::MakeDb;
using testing::OracleCount;

TEST(RestrictionsTest, MaskBasics) {
  DeletionRestrictions r;
  EXPECT_TRUE(r.Empty());
  r.Protect(1, 5);
  EXPECT_FALSE(r.Empty());
  EXPECT_TRUE(r.IsProtected(1, 5));
  EXPECT_FALSE(r.IsProtected(1, 4));
  EXPECT_FALSE(r.IsProtected(0, 5));
  EXPECT_FALSE(r.IsProtected(7, 0));
}

TEST(RestrictionsTest, GreedyAvoidsProtectedTuples) {
  // The hub tuple R3(5) is the obvious greedy pick; protect it.
  const ConjunctiveQuery q = ParseQuery("Q(A,B) :- R1(A), R2(A,B), R3(B)");
  const Database db = MakeDb(q, {{"R1", {{1}, {2}, {3}}},
                                 {"R2", {{1, 5}, {2, 5}, {3, 5}}},
                                 {"R3", {{5}}}});
  DeletionRestrictions restrictions;
  restrictions.Protect(2, 0);  // R3(5)
  AdpOptions options;
  options.restrictions = &restrictions;
  options.verify = true;
  const AdpSolution sol = ComputeAdp(q, db, 2, options);
  ASSERT_TRUE(sol.feasible);
  for (const TupleRef& t : sol.tuples) {
    EXPECT_FALSE(restrictions.IsProtected(t.relation, t.row));
  }
  EXPECT_GE(sol.removed_outputs, 2);
  EXPECT_EQ(sol.cost, 2);  // two R1/R2 tuples instead of the one hub
}

TEST(RestrictionsTest, InfeasibleWhenEverythingProtected) {
  const ConjunctiveQuery q = ParseQuery("Q(A,B) :- R1(A), R2(A,B), R3(B)");
  const Database db = MakeDb(q, {{"R1", {{1}}},
                                 {"R2", {{1, 5}}},
                                 {"R3", {{5}}}});
  DeletionRestrictions restrictions;
  for (int r = 0; r < 3; ++r) restrictions.Protect(r, 0);
  AdpOptions options;
  options.restrictions = &restrictions;
  const AdpSolution sol = ComputeAdp(q, db, 1, options);
  EXPECT_FALSE(sol.feasible);
}

TEST(RestrictionsTest, BooleanStaysExact) {
  const ConjunctiveQuery q = ParseQuery("Q() :- R1(A), R2(A,B), R3(B)");
  const Database db = MakeDb(q, {{"R1", {{1}, {2}}},
                                 {"R2", {{1, 5}, {2, 6}}},
                                 {"R3", {{5}, {6}}}});
  // Unrestricted resilience is 2 (two disjoint chains). Protect R1 fully:
  // the cut must use R3 (R2 is exogenous), still 2.
  DeletionRestrictions restrictions;
  restrictions.Protect(0, 0);
  restrictions.Protect(0, 1);
  const auto res = SolveBooleanExact(q, db, &restrictions);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->resilience, 2);
  for (const TupleRef& t : res->cut) {
    EXPECT_NE(t.relation, 0);
  }
  // ComputeAdp agrees and keeps exactness.
  AdpOptions options;
  options.restrictions = &restrictions;
  const AdpSolution sol = ComputeAdp(q, db, 1, options);
  EXPECT_TRUE(sol.exact);
  EXPECT_EQ(sol.cost, 2);
}

TEST(RestrictionsTest, BooleanInfeasibleUnderFullProtection) {
  const ConjunctiveQuery q = ParseQuery("Q() :- R1(A), R3(A)");
  const Database db = MakeDb(q, {{"R1", {{1}}}, {"R3", {{1}}}});
  DeletionRestrictions restrictions;
  restrictions.Protect(0, 0);
  restrictions.Protect(1, 0);
  AdpOptions options;
  options.restrictions = &restrictions;
  const AdpSolution sol = ComputeAdp(q, db, 1, options);
  EXPECT_FALSE(sol.feasible);
}

TEST(RestrictionsTest, BruteForceRespectsMask) {
  const ConjunctiveQuery q = ParseQuery("Q(A,B) :- R1(A), R2(A,B)");
  const Database db = MakeDb(q, {{"R1", {{1}, {2}}},
                                 {"R2", {{1, 5}, {2, 6}}}});
  DeletionRestrictions restrictions;
  restrictions.Protect(0, 0);  // R1(1)
  restrictions.Protect(1, 0);  // R2(1,5)
  const auto sol = BruteForceAdp(q, db, 1, -1, &restrictions);
  ASSERT_TRUE(sol.has_value());
  for (const TupleRef& t : sol->tuples) {
    EXPECT_FALSE(restrictions.IsProtected(t.relation, t.row));
  }
  // Output (1,5) cannot be removed; (2,6) can, via R1(2) or R2(2,6).
  EXPECT_EQ(sol->cost, 1);
  // Removing 2 outputs is impossible now.
  EXPECT_FALSE(BruteForceAdp(q, db, 2, -1, &restrictions).has_value());
}

// Property: restricted ComputeAdp never deletes protected tuples and its
// cost is an upper bound on the restricted brute-force optimum.
class RestrictedSweep : public ::testing::TestWithParam<int> {};

TEST_P(RestrictedSweep, FeasibleAndMaskRespected) {
  Rng rng(13000 + GetParam());
  const ConjunctiveQuery q = ParseQuery("Q(A,B) :- R1(A), R2(A,B), R3(B)");
  const Database db = testing::RandomDb(q, rng, 5, 3);
  const std::int64_t total = OracleCount(q, db);
  if (total < 2 || db.TotalTuples() > 13) GTEST_SKIP();

  DeletionRestrictions restrictions;
  for (int r = 0; r < q.num_relations(); ++r) {
    for (std::size_t t = 0; t < db.rel(r).size(); ++t) {
      if (rng.UniformDouble() < 0.3) {
        restrictions.Protect(r, static_cast<TupleId>(t));
      }
    }
  }
  AdpOptions options;
  options.restrictions = &restrictions;
  options.verify = true;
  const std::int64_t k = total / 2 + 1;
  const AdpSolution sol = ComputeAdp(q, db, k, options);
  const auto brute = BruteForceAdp(q, db, k, -1, &restrictions);
  if (!brute.has_value()) {
    // Restricted target genuinely infeasible; the solver must agree.
    EXPECT_FALSE(sol.feasible);
    return;
  }
  ASSERT_TRUE(sol.feasible);
  EXPECT_GE(sol.removed_outputs, k);
  EXPECT_GE(sol.cost, brute->cost);
  for (const TupleRef& t : sol.tuples) {
    EXPECT_FALSE(restrictions.IsProtected(t.relation, t.row));
  }
}

// Decompose over Universe children: the components are {R1, R2} (universal
// attribute A) and {R3}. Same checks as above, plus the root node's profile
// must equal the dense k-indexed fold (profile_oracle.h) of its children's
// profiles.
TEST_P(RestrictedSweep, DisconnectedFeasibleAndMaskRespected) {
  Rng rng(14000 + GetParam());
  const ConjunctiveQuery q = ParseQuery("Q(A,B,C) :- R1(A), R2(A,B), R3(C)");
  const Database db = testing::RandomDb(q, rng, 4, 3);
  const std::int64_t total = OracleCount(q, db);
  if (total < 2 || db.TotalTuples() > 13) GTEST_SKIP();

  DeletionRestrictions restrictions;
  for (int r = 0; r < q.num_relations(); ++r) {
    for (std::size_t t = 0; t < db.rel(r).size(); ++t) {
      if (rng.UniformDouble() < 0.3) {
        restrictions.Protect(r, static_cast<TupleId>(t));
      }
    }
  }
  AdpOptions options;
  options.restrictions = &restrictions;
  options.verify = true;
  const std::int64_t k = total / 2 + 1;
  const AdpSolution sol = ComputeAdp(q, db, k, options);
  const auto brute = BruteForceAdp(q, db, k, -1, &restrictions);
  if (!brute.has_value()) {
    EXPECT_FALSE(sol.feasible);
  } else {
    ASSERT_TRUE(sol.feasible);
    EXPECT_GE(sol.removed_outputs, k);
    EXPECT_GE(sol.cost, brute->cost);
    for (const TupleRef& t : sol.tuples) {
      EXPECT_FALSE(restrictions.IsProtected(t.relation, t.row));
    }
  }

  ASSERT_EQ(ClassifyAdpCase(q, options), AdpCase::kDecompose);
  const AdpNode root =
      SolveNode(BuildDispatchPlan(q, options), db, total, options);
  testing::DenseProfile fold;
  std::int64_t fold_m = 1;
  for (const Subquery& sub : DecomposeQuery(q)) {
    const Database sub_db = SubDatabase(sub.parent_relation, db);
    const std::int64_t m = static_cast<std::int64_t>(
        CountOutputs(sub.query.body(), sub.query.head(), sub_db));
    const AdpNode child = SolveNode(BuildDispatchPlan(sub.query, options),
                                    sub_db, std::min(m, total), options);
    fold = fold.empty() ? child.profile.Dense()
                        : testing::DenseCombineProduct(
                              fold, fold_m, child.profile.Dense(), m, total);
    fold_m = SatMul(fold_m, m);
  }
  for (std::int64_t j = 0; j <= total; ++j) {
    EXPECT_EQ(root.profile.At(j), testing::DenseAt(fold, j)) << "j=" << j;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, RestrictedSweep,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace adp
