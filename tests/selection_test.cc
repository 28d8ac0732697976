// Selection operator support (§7.5, Lemma 12): pushdown semantics,
// end-to-end solving on selected queries, and the σθQ1 workload behaviour.

#include <gtest/gtest.h>

#include "dichotomy/is_ptime.h"
#include "query/parser.h"
#include "solver/brute_force.h"
#include "solver/compute_adp.h"
#include "test_util.h"
#include "workload/tpch.h"

namespace adp {
namespace {

using testing::MakeDb;
using testing::OracleCount;

TEST(SelectionTest, SolutionsRespectPredicates) {
  // Only tuples satisfying the predicates may be deleted.
  const ConjunctiveQuery q = ParseQuery("Q(A,B) :- R1(A), R2(A,B=5)");
  const Database db = MakeDb(q, {{"R1", {{1}, {2}}},
                                 {"R2", {{1, 5}, {1, 6}, {2, 5}}}});
  // σ outputs: (1,5), (2,5).
  AdpOptions options;
  options.verify = true;
  const AdpSolution sol = ComputeAdp(q, db, 1, options);
  EXPECT_TRUE(sol.feasible);
  EXPECT_EQ(sol.output_count, 2);
  EXPECT_EQ(sol.cost, 1);
  ASSERT_EQ(sol.tuples.size(), 1u);
  // The reported tuple must not be R2(1,6), which fails the predicate.
  EXPECT_FALSE(sol.tuples[0].relation == 1 && sol.tuples[0].row == 1);
  EXPECT_GE(sol.removed_outputs, 1);
}

TEST(SelectionTest, SelectedQueryBecomesExact) {
  // Qpath is NP-hard; pinning B with a selection makes it poly-time
  // (the residual has a vacuum-ish singleton structure).
  const ConjunctiveQuery hard =
      ParseQuery("Q(A,B) :- R1(A), R2(A,B), R3(B)");
  const ConjunctiveQuery selected =
      ParseQuery("Q(A,B) :- R1(A), R2(A,B=5), R3(B=5)");
  EXPECT_FALSE(IsPtime(hard));
  EXPECT_TRUE(IsPtime(selected));

  const Database db = MakeDb(
      selected,
      {{"R1", {{1}, {2}, {3}}},
       {"R2", {{1, 5}, {2, 5}, {3, 5}, {1, 6}}},
       {"R3", {{5}, {6}}}});
  AdpOptions options;
  options.verify = true;
  const AdpSolution sol = ComputeAdp(selected, db, 3, options);
  EXPECT_TRUE(sol.exact);
  // Removing R3(5) kills all three selected outputs.
  EXPECT_EQ(sol.cost, 1);
  EXPECT_GE(sol.removed_outputs, 3);
}

TEST(SelectionTest, MatchesBruteForceOnSelectedInstances) {
  // The second query states its predicate in one atom of two holding A;
  // the third requires two different values of A and selects nothing.
  // Their domain holds both constants.
  struct Input {
    const char* text;
    std::int64_t domain;
  };
  for (const Input& in : {Input{"Q(A,B) :- R1(A), R2(A,B=1)", 2},
                          Input{"Q(B,C) :- R(A=1,B), S(A,C)", 3},
                          Input{"Q(B,C) :- R(A=1,B), S(A=2,C)", 3}}) {
    SCOPED_TRACE(in.text);
    const ConjunctiveQuery q = ParseQuery(in.text);
    Rng rng(61);
    for (int iter = 0; iter < 10; ++iter) {
      const Database db = testing::RandomDb(q, rng, 4, in.domain);
      const std::int64_t total = OracleCount(q, db);
      EXPECT_EQ(ComputeAdp(q, db, 1, AdpOptions{}).output_count, total);
      if (total == 0) continue;
      for (std::int64_t k = 1; k <= total; ++k) {
        const auto brute = BruteForceAdp(q, db, k);
        ASSERT_TRUE(brute.has_value());
        EXPECT_EQ(brute->cost, testing::OracleAdp(q, db, k)) << "k=" << k;
        const AdpSolution sol = ComputeAdp(q, db, k, AdpOptions{});
        EXPECT_TRUE(sol.exact);
        EXPECT_EQ(sol.cost, brute->cost) << "k=" << k;
      }
    }
  }
}

TEST(SelectionTest, TpchSelectedWorkloadIsExactAndFeasible) {
  const TpchWorkload w = MakeTpchSelected(300, /*seed=*/7);
  EXPECT_TRUE(IsPtime(w.query));
  const std::int64_t total = static_cast<std::int64_t>(
      OracleCount(w.query, w.db));
  ASSERT_GT(total, 0);
  AdpOptions options;
  options.verify = true;
  for (double rho : {0.1, 0.5}) {
    const std::int64_t k = static_cast<std::int64_t>(rho * total);
    if (k <= 0) continue;
    const AdpSolution sol = ComputeAdp(w.query, w.db, k, options);
    EXPECT_TRUE(sol.feasible);
    EXPECT_TRUE(sol.exact);
    EXPECT_GE(sol.removed_outputs, k);
  }
}

TEST(SelectionTest, CountingOnlySkipsTuplesButKeepsCost) {
  const TpchWorkload w = MakeTpchSelected(120, /*seed=*/9);
  const std::int64_t total = static_cast<std::int64_t>(
      OracleCount(w.query, w.db));
  ASSERT_GT(total, 0);
  const std::int64_t k = total / 4 + 1;
  AdpOptions counting;
  counting.counting_only = true;
  AdpOptions reporting;
  const AdpSolution a = ComputeAdp(w.query, w.db, k, counting);
  const AdpSolution b = ComputeAdp(w.query, w.db, k, reporting);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_TRUE(a.tuples.empty());
  EXPECT_FALSE(b.tuples.empty());
}

}  // namespace
}  // namespace adp
