// Decompose solver tests (Algorithm 5): cross-product accounting, agreement
// of the three strategies (Fig 29), root solves through ComputeAdp, sharded
// component sub-solves (serial/sharded equivalence + cancellation), and an
// oracle sweep.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <utility>
#include <vector>

#include "engine/thread_pool.h"
#include "query/parser.h"
#include "solver/decompose.h"
#include "solver/plan.h"
#include "solver/solution.h"
#include "test_util.h"

namespace adp {
namespace {

using testing::MakeDb;
using testing::OracleAdp;
using testing::OracleCount;
using testing::RandomDb;

ConjunctiveQuery TwoParts() {
  return ParseQuery("Q(A,B) :- R1(A), R2(B)");
}

TEST(DecomposeTest, CrossProductCosts) {
  const ConjunctiveQuery q = TwoParts();
  const Database db = MakeDb(q, {{"R1", {{1}, {2}}}, {"R2", {{5}, {6}, {7}}}});
  // |Q(D)| = 6. Removing one R1 tuple removes 3 products; one R2 tuple, 2.
  AdpOptions options;
  const DispatchPlan plan = BuildDispatchPlan(q, options);
  const AdpNode node = DecomposeNode(plan, db, 6, options);
  EXPECT_TRUE(node.exact);
  EXPECT_EQ(node.profile.At(1), 1);
  EXPECT_EQ(node.profile.At(3), 1);   // one R1 tuple
  EXPECT_EQ(node.profile.At(4), 2);   // R1 tuple + R2 tuple = 3+2-1 = 4? No:
  // k1=1 (R1 outputs), k2=1 (R2 outputs): removed = 1*3 + 1*2 - 1 = 4. Yes.
  EXPECT_EQ(node.profile.At(5), 2);   // 2 R1 tuples = whole factor -> 6
  EXPECT_EQ(node.profile.At(6), 2);
}

TEST(DecomposeTest, StrategiesAgreeOnOptimalCosts) {
  const ConjunctiveQuery q = ParseQuery(
      "Q(A1,B1,A2,B2,A3,B3) :- R11(A1), R12(A1,B1), R21(A2), R22(A2,B2), "
      "R31(A3), R32(A3,B3)");
  Rng rng(81);
  const Database db = RandomDb(q, rng, 4, 3);
  const std::int64_t total = OracleCount(q, db);
  if (total == 0) GTEST_SKIP();
  const std::int64_t cap = std::min<std::int64_t>(total, 20);

  AdpOptions improved;
  AdpOptions naive;
  naive.decompose_strategy = AdpOptions::DecomposeStrategy::kPairwiseNaive;
  AdpOptions full;
  full.decompose_strategy = AdpOptions::DecomposeStrategy::kFullEnumeration;

  const DispatchPlan plan = BuildDispatchPlan(q, improved);
  const AdpNode a = DecomposeNode(plan, db, cap, improved);
  const AdpNode b = DecomposeNode(plan, db, cap, naive);
  const AdpNode c = DecomposeNode(plan, db, cap, full);
  for (std::int64_t j = 0; j <= cap; ++j) {
    EXPECT_EQ(a.profile.At(j), b.profile.At(j)) << "j=" << j;
    EXPECT_EQ(a.profile.At(j), c.profile.At(j)) << "j=" << j;
  }
}

TEST(DecomposeTest, SingleKMatchesProfile) {
  const ConjunctiveQuery q = TwoParts();
  const DispatchPlan plan = BuildDispatchPlan(q, AdpOptions{});
  Rng rng(83);
  for (int iter = 0; iter < 20; ++iter) {
    const Database db = RandomDb(q, rng, 5, 6);
    const std::int64_t total = OracleCount(q, db);
    if (total == 0) continue;
    AdpOptions options;
    const AdpNode node = DecomposeNode(plan, db, total, options);
    for (std::int64_t k = 1; k <= total; ++k) {
      const AdpSolution single = ComputeAdp(q, db, k, options);
      EXPECT_EQ(single.cost, node.profile.At(k)) << "k=" << k;
      EXPECT_GE(CountRemovedOutputs(q, db, single.tuples), k);
    }
  }
}

TEST(DecomposeTest, ThreeComponentsSingleK) {
  const ConjunctiveQuery q =
      ParseQuery("Q(A,B,C) :- R1(A), R2(B), R3(C)");
  const Database db = MakeDb(
      q, {{"R1", {{1}, {2}}}, {"R2", {{1}, {2}}}, {"R3", {{1}, {2}}}});
  // |Q(D)| = 8; removing one tuple removes 4 products.
  AdpOptions options;
  EXPECT_EQ(ComputeAdp(q, db, 4, options).cost, 1);
  EXPECT_EQ(ComputeAdp(q, db, 5, options).cost, 2);
  // 2 tuples from different factors: 4+4-2=6; same factor: 8.
  EXPECT_EQ(ComputeAdp(q, db, 6, options).cost, 2);
  EXPECT_EQ(ComputeAdp(q, db, 7, options).cost, 2);  // whole factor
  EXPECT_EQ(ComputeAdp(q, db, 8, options).cost, 2);
}

// Sharding the component sub-solves across an executor must not change any
// profile entry, witness, or recursion statistic: children land at fixed
// fold-order indices and the cross-product DP runs on the caller exactly as
// in the sequential path. Property-tested over randomly generated instances
// of multi-component query shapes (2..4 components, mixed sub-solver cases).
TEST(DecomposeTest, ShardedComponentsMatchSequential) {
  ThreadPool pool(4);
  Parallelism par;
  par.min_components = 2;
  par.min_groups = 0;  // isolate the Decompose axis (stats compared below)
  par.run_all = [&pool](std::vector<std::function<void()>> tasks) {
    pool.RunAll(std::move(tasks));
  };

  const char* shapes[] = {
      "Q(A,B) :- R1(A), R2(B)",
      "Q(A,B,C) :- R1(A,B), R2(C)",
      "Q(A,B,C) :- R1(A), R2(B), R3(C)",
      "Q(A,B,C,E) :- R1(A), R2(A,B), R3(C), R4(C,E)",
      "Q(A,B,C,E) :- R1(A), R2(B), R3(C), R4(E)",
  };
  Rng rng(85);
  int sharded_nodes = 0;
  for (const char* text : shapes) {
    const ConjunctiveQuery q = ParseQuery(text);
    const DispatchPlan plan = BuildDispatchPlan(q, AdpOptions{});
    for (int iter = 0; iter < 8; ++iter) {
      const Database db = RandomDb(q, rng, 4, 3);
      const std::int64_t total = OracleCount(q, db);
      if (total == 0) continue;
      const std::int64_t cap = std::min<std::int64_t>(total, 24);

      AdpOptions sequential;
      AdpStats seq_stats;
      sequential.stats = &seq_stats;
      const AdpNode a = DecomposeNode(plan, db, cap, sequential);

      AdpOptions sharded = sequential;
      AdpStats shard_stats;
      sharded.stats = &shard_stats;
      sharded.parallelism = &par;
      const AdpNode b = DecomposeNode(plan, db, cap, sharded);

      for (std::int64_t j = 0; j <= cap; ++j) {
        ASSERT_EQ(a.profile.At(j), b.profile.At(j))
            << text << " iter " << iter << " j " << j;
      }
      EXPECT_EQ(a.exact, b.exact);
      for (std::int64_t j = 1; j <= cap; ++j) {
        EXPECT_EQ(a.report(j), b.report(j))
            << text << " iter " << iter << " j " << j;
      }

      // Root solves through ComputeAdp shard their BuildChildren too.
      for (std::int64_t k = 1; k <= cap; k += 3) {
        const AdpSolution sa = ComputeAdp(q, db, k, sequential);
        const AdpSolution sb = ComputeAdp(q, db, k, sharded);
        EXPECT_EQ(sa.cost, sb.cost) << text << " iter " << iter << " k " << k;
        EXPECT_EQ(sa.tuples, sb.tuples)
            << text << " iter " << iter << " k " << k;
      }

      sharded_nodes += shard_stats.sharded_decompose_nodes;
      EXPECT_EQ(seq_stats.sharded_decompose_nodes, 0);
      // Sharding must not perturb the recursion accounting: every AdpStats
      // field agrees (also guards MergeAdpStats against dropping a field).
      EXPECT_EQ(seq_stats.boolean_nodes, shard_stats.boolean_nodes) << text;
      EXPECT_EQ(seq_stats.boolean_fallbacks, shard_stats.boolean_fallbacks)
          << text;
      EXPECT_EQ(seq_stats.singleton_nodes, shard_stats.singleton_nodes)
          << text;
      EXPECT_EQ(seq_stats.universe_nodes, shard_stats.universe_nodes) << text;
      EXPECT_EQ(seq_stats.universe_groups, shard_stats.universe_groups)
          << text;
      EXPECT_EQ(seq_stats.greedy_leaves, shard_stats.greedy_leaves) << text;
      EXPECT_EQ(seq_stats.drastic_leaves, shard_stats.drastic_leaves) << text;
      EXPECT_EQ(seq_stats.sharded_universe_nodes,
                shard_stats.sharded_universe_nodes)
          << text;
      // decompose_nodes: the ComputeAdp probes above bump the counter
      // identically for both options structs, so plain equality still must
      // hold.
      EXPECT_EQ(seq_stats.decompose_nodes, shard_stats.decompose_nodes)
          << text;
    }
  }
  // The shapes all have >= 2 components: sharding must actually engage.
  EXPECT_GT(sharded_nodes, 0);
}

// Parallelism::min_components == 0 must disable the Decompose axis even
// when an executor is wired up.
TEST(DecomposeTest, ZeroMinComponentsDisablesSharding) {
  Parallelism par;
  par.min_components = 0;
  std::atomic<int> fanouts{0};
  par.run_all = [&](std::vector<std::function<void()>> tasks) {
    ++fanouts;
    for (auto& t : tasks) t();
  };
  const ConjunctiveQuery q = TwoParts();
  const Database db = MakeDb(q, {{"R1", {{1}, {2}}}, {"R2", {{5}, {6}}}});
  AdpOptions options;
  AdpStats stats;
  options.stats = &stats;
  options.parallelism = &par;
  const DispatchPlan plan = BuildDispatchPlan(q, options);
  const AdpNode node = DecomposeNode(plan, db, 4, options);
  EXPECT_EQ(node.profile.At(2), 1);
  EXPECT_EQ(fanouts.load(), 0);
  EXPECT_EQ(stats.sharded_decompose_nodes, 0);
}

// A cancel landing mid-fan-out stops the remaining component sub-solves at
// their node boundary: deterministic run_all that cancels after the first
// task; every later shard must abort before doing its work. The smallest
// component (the first, on this all-equal instance) is solved before the
// fan-out, so the other three make the tasks.
TEST(DecomposeTest, CancelMidComponentStopsShardedSubSolves) {
  const ConjunctiveQuery q =
      ParseQuery("Q(A,B,C,E) :- R1(A), R2(B), R3(C), R4(E)");
  const Database db = MakeDb(q, {{"R1", {{1}, {2}}},
                                 {"R2", {{1}, {2}}},
                                 {"R3", {{1}, {2}}},
                                 {"R4", {{1}, {2}}}});

  const CancelToken token = CancelToken::Make();
  std::atomic<int> ran{0};
  Parallelism par;
  par.min_components = 2;
  par.run_all = [&](std::vector<std::function<void()>> tasks) {
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      tasks[i]();
      ++ran;
      if (i == 0) token.Cancel();
    }
  };

  AdpOptions options;
  options.cancel = &token;
  options.parallelism = &par;
  try {
    // Root-path entry: ComputeAdp classifies this query as Decompose and
    // solves it through DecomposeNode's sharded BuildChildren.
    ComputeAdp(q, db, 6, options);
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.reason(), CancelReason::kCancelled);
  }
  // All tasks were invoked (run_all contract) but only the first solved.
  EXPECT_EQ(ran.load(), 3);
}

class DecomposeOracleSweep : public ::testing::TestWithParam<int> {};

TEST_P(DecomposeOracleSweep, OptimalForAllK) {
  Rng rng(800 + GetParam());
  const ConjunctiveQuery q =
      ParseQuery("Q(A,B,C) :- R1(A,B), R2(C)");
  const Database db = RandomDb(q, rng, 4, 3);
  const std::int64_t total = OracleCount(q, db);
  if (total == 0 || db.TotalTuples() > 12) GTEST_SKIP();
  AdpOptions options;
  const DispatchPlan plan = BuildDispatchPlan(q, options);
  const AdpNode node = DecomposeNode(plan, db, total, options);
  ASSERT_TRUE(node.exact);
  for (std::int64_t k = 1; k <= total; ++k) {
    EXPECT_EQ(node.profile.At(k), OracleAdp(q, db, k)) << "k=" << k;
    const auto tuples = node.report(k);
    EXPECT_GE(CountRemovedOutputs(q, db, tuples), k);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, DecomposeOracleSweep,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace adp
