// Singleton solver tests (Algorithm 3): both cases, profile shape,
// reporting, and an oracle sweep.

#include <gtest/gtest.h>

#include <algorithm>

#include "query/parser.h"
#include "relational/join.h"
#include "solver/singleton.h"
#include "solver/solution.h"
#include "test_util.h"

namespace adp {
namespace {

using testing::MakeDb;
using testing::OracleAdp;
using testing::OracleCount;
using testing::RandomDb;

// A Singleton node over the counts SolveNode hands it: the node's own pass
// over (q, db), reading SingletonReads(q).
AdpNode SolveSingleton(const ConjunctiveQuery& q, const Database& db,
                       std::int64_t cap, const AdpOptions& options) {
  return SingletonNode(
      q, db, cap, options,
      CountComponents(q.body(), q.head(), db, SingletonReads(q)));
}

TEST(SingletonDetectTest, RecognizesShapes) {
  int which = -1;
  // Case 1: attr(R1) ⊆ head.
  EXPECT_TRUE(
      IsSingletonQuery(ParseQuery("Q(A,B) :- R1(A), R2(A,B)"), &which));
  EXPECT_EQ(which, 0);
  // Case 2: head ⊆ attr(Ri) (boolean-ish heads).
  EXPECT_TRUE(IsSingletonQuery(ParseQuery("Q(A) :- R1(A,B), R2(A,B,C)"),
                               &which));
  EXPECT_EQ(which, 0);
  // Vacuum relation always qualifies.
  EXPECT_TRUE(IsSingletonQuery(ParseQuery("Q(A) :- R1(A), R2()"), &which));
  EXPECT_EQ(which, 1);
  // Not singleton: minimum relation not contained in all others.
  EXPECT_FALSE(
      IsSingletonQuery(ParseQuery("Q(A,B) :- R1(A), R2(A,B), R3(B)"),
                       nullptr));
  // Not singleton: head incomparable with attr(Ri).
  EXPECT_FALSE(
      IsSingletonQuery(ParseQuery("Q(B) :- R1(A), R2(A,B)"), nullptr));
}

TEST(SingletonCase1Test, ProfitsSortedGreedily) {
  // Q6-like: profit of R1(a) = #outputs with A=a.
  const ConjunctiveQuery q = ParseQuery("Q(A,B) :- R1(A), R2(A,B)");
  const Database db = MakeDb(
      q, {{"R1", {{1}, {2}, {3}}},
          {"R2", {{1, 9}, {1, 8}, {1, 7}, {2, 9}, {3, 9}, {3, 8}}}});
  AdpOptions options;
  const AdpNode node = SolveSingleton(q, db, 6, options);
  EXPECT_TRUE(node.exact);
  // Profits: R1(1)=3, R1(3)=2, R1(2)=1.
  EXPECT_EQ(node.profile.At(1), 1);
  EXPECT_EQ(node.profile.At(3), 1);
  EXPECT_EQ(node.profile.At(4), 2);
  EXPECT_EQ(node.profile.At(5), 2);
  EXPECT_EQ(node.profile.At(6), 3);
  // Unit-cost items with nonincreasing profits: eligible for the greedy
  // disjoint-union merge, though not convex in the cost sense.
  EXPECT_TRUE(node.profile.HasConcaveGains());
  EXPECT_FALSE(node.profile.IsConvex());
  // Reporting: removing >= 4 outputs takes R1(1) and R1(3).
  const auto tuples = node.report(4);
  ASSERT_EQ(tuples.size(), 2u);
  EXPECT_EQ(CountRemovedOutputs(q, db, tuples), 5);
}

// A projected case-1 Singleton whose join is empty: its pass keeps no join
// (CountComponents drops the joins of an empty body), so no tuple has a
// profit and nothing is removable. As a Decompose component, it makes the
// root's |Q(D)| zero, and a k = 1 request infeasible.
TEST(SingletonCase1Test, ProjectedEmptyJoinRemovesNothing) {
  const ConjunctiveQuery q = ParseQuery("Q(A,B) :- R1(A), R2(A,B,C)");
  const Database db = MakeDb(q, {{"R1", {{1}, {2}}}, {"R2", {{3, 5, 0}}}});
  const AdpNode node = SolveSingleton(q, db, 1, AdpOptions{});
  EXPECT_EQ(node.outputs, 0);
  EXPECT_EQ(node.profile.kmax(), 0);

  const ConjunctiveQuery split =
      ParseQuery("Q(A,B,D) :- R1(A), R2(A,B,C), R3(D)");
  const Database split_db = MakeDb(
      split, {{"R1", {{1}, {2}}}, {"R2", {{3, 5, 0}}}, {"R3", {{7}, {8}}}});
  ASSERT_EQ(ClassifyAdpCase(split, AdpOptions{}), AdpCase::kDecompose);
  const AdpSolution sol = ComputeAdp(split, split_db, 1);
  EXPECT_FALSE(sol.feasible);
  EXPECT_EQ(sol.output_count, 0);
  EXPECT_EQ(sol.cost, kInfCost);
}

TEST(SingletonCase2Test, CheapestOutputsFirst) {
  // head ⊆ attr(R1): Q(A) :- R1(A,B), R2(A,B,C). Outputs = distinct A among
  // joining tuples; cost of killing output a = #R1 tuples with that a.
  const ConjunctiveQuery q = ParseQuery("Q(A) :- R1(A,B), R2(A,B,C)");
  const Database db = MakeDb(
      q, {{"R1", {{1, 5}, {1, 6}, {2, 5}, {3, 5}, {3, 6}, {3, 7}}},
          {"R2",
           {{1, 5, 0}, {1, 6, 0}, {2, 5, 0}, {3, 5, 0}, {3, 6, 0},
            {3, 7, 0}}}});
  AdpOptions options;
  const AdpNode node = SolveSingleton(q, db, 3, options);
  EXPECT_TRUE(node.exact);
  // Costs per output: a=2 -> 1, a=1 -> 2, a=3 -> 3.
  EXPECT_EQ(node.profile.At(1), 1);
  EXPECT_EQ(node.profile.At(2), 3);
  EXPECT_EQ(node.profile.At(3), 6);
  // Ascending group costs: convex, but not unit-cost items.
  EXPECT_TRUE(node.profile.IsConvex());
  EXPECT_FALSE(node.profile.HasConcaveGains());
  const auto tuples = node.report(2);
  EXPECT_EQ(tuples.size(), 3u);
  EXPECT_EQ(CountRemovedOutputs(q, db, tuples), 2);
}

TEST(SingletonCase2Test, DanglingTuplesIgnored) {
  // R1(1,6) has no R2 partner: it dangles, so killing output A=1 costs one
  // deletion, not two (Algorithm 3, line 9).
  const ConjunctiveQuery q = ParseQuery("Q(A) :- R1(A,B), R2(A,B,C)");
  const Database db = MakeDb(q, {{"R1", {{1, 5}, {1, 6}, {2, 5}}},
                                 {"R2", {{1, 5, 0}, {2, 5, 0}}}});
  AdpOptions options;
  const AdpNode node = SolveSingleton(q, db, 2, options);
  EXPECT_EQ(node.profile.At(1), 1);
  EXPECT_EQ(node.profile.At(2), 2);
}

TEST(SingletonVacuumTest, SingleTupleKillsEverything) {
  const ConjunctiveQuery q = ParseQuery("Q(A) :- R1(A), R2()");
  Database db(2);
  db.Load(0, {{1}, {2}, {3}});
  db.rel(1).Add({});
  AdpOptions options;
  const AdpNode node = SolveSingleton(q, db, 3, options);
  EXPECT_EQ(node.profile.At(1), 1);
  EXPECT_EQ(node.profile.At(3), 1);
  const auto tuples = node.report(3);
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_EQ(tuples[0].relation, 1);
}

// A vacuum R0 under a projected head is the singleton relation of a
// disconnected body: its tuple, if any, is inherited by every output, so
// its profit is |Q(D)|. Optimal for every k with R0 = {∅}; with R0 = ∅,
// Q(D) is empty and nothing is removable.
TEST(SingletonVacuumTest, ProjectedDisconnectedBodyMatchesOracle) {
  const ConjunctiveQuery q = ParseQuery("Q(A,B) :- R0(), R1(A,C), R2(B,D)");
  Rng rng(62);
  for (int iter = 0; iter < 12; ++iter) {
    Database db = RandomDb(q, rng, 4, 3);
    const bool r0_empty = iter % 3 == 2;
    if (r0_empty) {
      db.rel(0) = RelationInstance();
      db.rel(0).set_root_relation(0);
    }
    const std::int64_t total = OracleCount(q, db);
    ASSERT_EQ(total == 0, r0_empty);
    AdpOptions options;
    const AdpNode node =
        SolveSingleton(q, db, std::max<std::int64_t>(total, 1), options);
    EXPECT_EQ(node.profile.kmax(), total);
    EXPECT_EQ(node.outputs, total);
    AdpOptions verified;
    verified.verify = true;
    if (r0_empty) {
      EXPECT_FALSE(ComputeAdp(q, db, 1, verified).feasible);
      continue;
    }
    for (std::int64_t k = 1; k <= total; ++k) {
      const std::int64_t optimum = OracleAdp(q, db, k);
      EXPECT_EQ(node.profile.At(k), optimum) << "iter " << iter << " k=" << k;
      EXPECT_GE(CountRemovedOutputs(q, db, node.report(k)), k);
      const AdpSolution sol = ComputeAdp(q, db, k, verified);
      EXPECT_EQ(sol.cost, optimum) << "iter " << iter << " k=" << k;
      EXPECT_GE(sol.removed_outputs, k) << "iter " << iter << " k=" << k;
    }
  }
}

// Oracle sweep: singleton solutions are optimal for every feasible k, in
// case 1 under a full head (profits from join-row counts) and a projected
// head (profits from the distinct outputs), and in case 2; also over a
// disconnected body, where the vacuum R0 = {∅} is the singleton relation and
// its one tuple's profit is a cross product (instances 24-31). Each k is
// solved both by the node over its own counts and through ComputeAdp.
class SingletonOracleSweep : public ::testing::TestWithParam<int> {};

TEST_P(SingletonOracleSweep, OptimalForAllK) {
  Rng rng(600 + GetParam());
  const char* const shapes[] = {"Q(A,B) :- R1(A), R2(A,B)",
                                "Q(A) :- R1(A,B), R2(A,B,C)",
                                "Q(A,B) :- R1(A), R2(A,B,C)",
                                "Q(A,B) :- R0(), R1(A), R2(B)"};
  const ConjunctiveQuery q =
      ParseQuery(shapes[GetParam() < 24 ? GetParam() % 3 : 3]);
  const Database db = RandomDb(q, rng, 8, 3);
  const std::int64_t total = OracleCount(q, db);
  if (total == 0) GTEST_SKIP();
  AdpOptions options;
  const AdpNode node = SolveSingleton(q, db, total, options);
  EXPECT_EQ(node.outputs, total);
  AdpOptions verified;
  verified.verify = true;
  for (std::int64_t k = 1; k <= total; ++k) {
    const std::int64_t optimum = OracleAdp(q, db, k);
    EXPECT_EQ(node.profile.At(k), optimum) << q.ToString() << " k=" << k;
    const auto tuples = node.report(k);
    EXPECT_GE(CountRemovedOutputs(q, db, tuples), k);
    EXPECT_EQ(static_cast<std::int64_t>(tuples.size()), node.profile.At(k));

    const AdpSolution sol = ComputeAdp(q, db, k, verified);
    EXPECT_TRUE(sol.feasible) << q.ToString() << " k=" << k;
    EXPECT_EQ(sol.cost, optimum) << q.ToString() << " k=" << k;
    EXPECT_GE(sol.removed_outputs, k) << q.ToString() << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, SingletonOracleSweep,
                         ::testing::Range(0, 32));

}  // namespace
}  // namespace adp
