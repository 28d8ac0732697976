// Universe solver tests (Algorithm 4): partitioning correctness, the convex
// merge fast path vs the plain DP, the one-by-one ablation strategy, and an
// oracle sweep.

#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "engine/thread_pool.h"
#include "query/parser.h"
#include "query/transform.h"
#include "solver/plan.h"
#include "solver/solution.h"
#include "solver/universe.h"
#include "test_util.h"

namespace adp {
namespace {

using testing::MakeDb;
using testing::OracleAdp;
using testing::OracleCount;
using testing::RandomDb;

// Q(A,B,C) :- R1(A,B), R2(A,C): A universal; groups solved independently.
ConjunctiveQuery UQ() { return ParseQuery("Q(A,B,C) :- R1(A,B), R2(A,C)"); }

// A Universe node for `q` even where ClassifyAdpCase picks an earlier case
// (Singleton): it removes what the compiled Universe case would, and its
// residual child is compiled as usual.
DispatchPlan UniverseRoot(const ConjunctiveQuery& q,
                          const AdpOptions& options) {
  DispatchPlan node;
  node.op = AdpCase::kUniverse;
  node.query = q;
  node.removed = q.UniversalAttrs();
  if (options.universe_strategy == AdpOptions::UniverseStrategy::kOneByOne) {
    node.removed = AttrSet::Of(*node.removed.begin());
  }
  node.children.push_back(
      BuildDispatchPlan(RemoveAttributes(q, node.removed), options));
  return node;
}

TEST(UniverseTest, PartitionedOptimum) {
  const ConjunctiveQuery q = UQ();
  const Database db = MakeDb(q, {{"R1", {{1, 5}, {1, 6}, {2, 5}}},
                                 {"R2", {{1, 7}, {2, 7}, {2, 8}}}});
  // Group a=1: 2x1 = 2 outputs; group a=2: 1x2 = 2 outputs.
  AdpOptions options;
  const DispatchPlan plan = BuildDispatchPlan(q, options);
  const AdpNode node = UniverseNode(plan, db, 4, options);
  EXPECT_TRUE(node.exact);
  // Removing 2 outputs: cheapest is one tuple (R2(1,7) kills group 1;
  // R1(2,5) kills group 2).
  EXPECT_EQ(node.profile.At(1), 1);
  EXPECT_EQ(node.profile.At(2), 1);
  EXPECT_EQ(node.profile.At(4), 2);
  const auto tuples = node.report(4);
  EXPECT_EQ(CountRemovedOutputs(q, db, tuples), 4);
  EXPECT_EQ(tuples.size(), 2u);
}

TEST(UniverseTest, ConvexAndDpPathsAgree) {
  Rng rng(71);
  const ConjunctiveQuery q = UQ();
  const DispatchPlan plan = BuildDispatchPlan(q, AdpOptions{});
  for (int iter = 0; iter < 20; ++iter) {
    const Database db = RandomDb(q, rng, 10, 4);
    const std::int64_t total = OracleCount(q, db);
    if (total == 0) continue;
    AdpOptions fast;
    AdpOptions slow;
    slow.universe_convex_merge = false;
    const AdpNode a = UniverseNode(plan, db, total, fast);
    const AdpNode b = UniverseNode(plan, db, total, slow);
    for (std::int64_t j = 0; j <= total; ++j) {
      EXPECT_EQ(a.profile.At(j), b.profile.At(j)) << "iter " << iter;
    }
  }
}

TEST(UniverseTest, OneByOneStrategySameCosts) {
  // Two universal attributes: peeling one at a time must agree with the
  // combined removal on optimal costs (it is just slower).
  const ConjunctiveQuery q =
      ParseQuery("Q(A,B,C) :- R1(A,B,C), R2(A,B)");
  Rng rng(72);
  const Database db = RandomDb(q, rng, 12, 3);
  const std::int64_t total = OracleCount(q, db);
  if (total == 0) GTEST_SKIP();
  AdpOptions combined;
  AdpOptions one_by_one;
  one_by_one.universe_strategy = AdpOptions::UniverseStrategy::kOneByOne;
  const AdpNode a =
      UniverseNode(UniverseRoot(q, combined), db, total, combined);
  const AdpNode b =
      UniverseNode(UniverseRoot(q, one_by_one), db, total, one_by_one);
  for (std::int64_t j = 0; j <= total; ++j) {
    EXPECT_EQ(a.profile.At(j), b.profile.At(j)) << "j=" << j;
  }
}

// Sharding the partition groups across an executor must not change any
// profile entry or witness: children land at fixed indices and are combined
// in partition order.
TEST(UniverseTest, ShardedGroupsMatchSequential) {
  ThreadPool pool(4);
  Parallelism par;
  par.min_groups = 2;
  par.run_all = [&pool](std::vector<std::function<void()>> tasks) {
    pool.RunAll(std::move(tasks));
  };

  Rng rng(73);
  const ConjunctiveQuery q = UQ();
  const DispatchPlan plan = BuildDispatchPlan(q, AdpOptions{});
  int sharded_nodes = 0;
  for (int iter = 0; iter < 20; ++iter) {
    const Database db = RandomDb(q, rng, 10, 4);
    const std::int64_t total = OracleCount(q, db);
    if (total == 0) continue;

    AdpOptions sequential;
    AdpStats seq_stats;
    sequential.stats = &seq_stats;
    const AdpNode a = UniverseNode(plan, db, total, sequential);

    AdpOptions sharded = sequential;
    AdpStats shard_stats;
    sharded.stats = &shard_stats;
    sharded.parallelism = &par;
    const AdpNode b = UniverseNode(plan, db, total, sharded);

    for (std::int64_t j = 0; j <= total; ++j) {
      ASSERT_EQ(a.profile.At(j), b.profile.At(j))
          << "iter " << iter << " j " << j;
    }
    EXPECT_EQ(a.exact, b.exact);
    for (std::int64_t j = 1; j <= total; ++j) {
      EXPECT_EQ(a.report(j), b.report(j)) << "iter " << iter << " j " << j;
    }
    sharded_nodes += shard_stats.sharded_universe_nodes;
    EXPECT_EQ(seq_stats.sharded_universe_nodes, 0);
    // Sharding must not perturb the recursion accounting: every AdpStats
    // field agrees (also guards MergeAdpStats against dropping a field).
    EXPECT_EQ(seq_stats.boolean_nodes, shard_stats.boolean_nodes)
        << "iter " << iter;
    EXPECT_EQ(seq_stats.boolean_fallbacks, shard_stats.boolean_fallbacks)
        << "iter " << iter;
    EXPECT_EQ(seq_stats.singleton_nodes, shard_stats.singleton_nodes)
        << "iter " << iter;
    EXPECT_EQ(seq_stats.universe_nodes, shard_stats.universe_nodes)
        << "iter " << iter;
    EXPECT_EQ(seq_stats.decompose_nodes, shard_stats.decompose_nodes)
        << "iter " << iter;
    EXPECT_EQ(seq_stats.greedy_leaves, shard_stats.greedy_leaves)
        << "iter " << iter;
    EXPECT_EQ(seq_stats.drastic_leaves, shard_stats.drastic_leaves)
        << "iter " << iter;
    EXPECT_EQ(seq_stats.universe_groups, shard_stats.universe_groups)
        << "iter " << iter;
  }
  EXPECT_GT(sharded_nodes, 0);
}

class UniverseOracleSweep : public ::testing::TestWithParam<int> {};

TEST_P(UniverseOracleSweep, OptimalForAllK) {
  Rng rng(700 + GetParam());
  const ConjunctiveQuery q = UQ();
  const Database db = RandomDb(q, rng, 6, 3);
  const std::int64_t total = OracleCount(q, db);
  if (total == 0 || db.TotalTuples() > 14) GTEST_SKIP();
  AdpOptions options;
  const DispatchPlan plan = BuildDispatchPlan(q, options);
  const AdpNode node = UniverseNode(plan, db, total, options);
  ASSERT_TRUE(node.exact);
  for (std::int64_t k = 1; k <= total; ++k) {
    EXPECT_EQ(node.profile.At(k), OracleAdp(q, db, k)) << "k=" << k;
    const auto tuples = node.report(k);
    EXPECT_GE(CountRemovedOutputs(q, db, tuples), k);
    EXPECT_LE(static_cast<std::int64_t>(tuples.size()), node.profile.At(k));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, UniverseOracleSweep,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace adp
