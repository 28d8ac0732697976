// Tests for AdpStats: the recursion-tracing facility must report exactly
// which Algorithm 2 cases a query exercises.

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "query/parser.h"
#include "solver/compute_adp.h"
#include "test_util.h"
#include "workload/tpch.h"

namespace adp {
namespace {

using testing::MakeDb;

TEST(StatsTest, SingletonQueryHitsSingletonOnly) {
  const ConjunctiveQuery q = ParseQuery("Q(A,B) :- R1(A), R2(A,B)");
  const Database db = MakeDb(q, {{"R1", {{1}, {2}}},
                                 {"R2", {{1, 5}, {2, 6}}}});
  AdpStats stats;
  AdpOptions options;
  options.stats = &stats;
  ComputeAdp(q, db, 1, options);
  EXPECT_EQ(stats.singleton_nodes, 1);
  EXPECT_EQ(stats.greedy_leaves, 0);
  EXPECT_EQ(stats.universe_nodes, 0);
  EXPECT_EQ(stats.decompose_nodes, 0);
  // The root leaf's one counting pass carries its profits.
  EXPECT_EQ(stats.count_passes, 1);
}

// A vacuum Singleton relation under a projected head: its one tuple's
// profit is |Q(D)|, read from the leaf's own counting pass, so the solve
// joins nothing more (the body is disconnected, and its join a cross
// product).
TEST(StatsTest, VacuumSingletonReadsPreambleCount) {
  const ConjunctiveQuery q = ParseQuery("Q(A,B) :- R0(), R1(A,C), R2(B,D)");
  Database db(3);
  db.rel(0).Add({});
  for (Value i = 0; i < 1000; ++i) {
    db.rel(1).Add({i, i % 7});
    db.rel(2).Add({i, i % 11});
  }
  AdpStats stats;
  AdpOptions options;
  options.counting_only = true;
  options.stats = &stats;
  const AdpSolution sol = ComputeAdp(q, db, 1, options);
  EXPECT_EQ(sol.output_count, 1000 * 1000);
  EXPECT_EQ(sol.cost, 1);
  EXPECT_EQ(stats.singleton_nodes, 1);
  EXPECT_EQ(stats.count_passes, 1);
}

TEST(StatsTest, VerifyMakesNoCountingPass) {
  const ConjunctiveQuery q = ParseQuery("Q(A,B) :- R1(A), R2(A,B)");
  const Database db = MakeDb(q, {{"R1", {{1}, {2}}},
                                 {"R2", {{1, 5}, {2, 6}}}});
  AdpStats stats;
  AdpOptions options;
  options.stats = &stats;
  options.verify = true;
  const AdpSolution sol = ComputeAdp(q, db, 1, options);
  EXPECT_EQ(sol.removed_outputs, 1);
  EXPECT_EQ(stats.count_passes, 1);
}

TEST(StatsTest, HardQueryHitsHeuristicLeaf) {
  const ConjunctiveQuery q = ParseQuery("Q(A,B) :- R1(A), R2(A,B), R3(B)");
  const Database db = MakeDb(q, {{"R1", {{1}}},
                                 {"R2", {{1, 5}}},
                                 {"R3", {{5}}}});
  AdpStats stats;
  AdpOptions options;
  options.stats = &stats;
  ComputeAdp(q, db, 1, options);
  EXPECT_EQ(stats.greedy_leaves, 1);
  EXPECT_EQ(stats.singleton_nodes, 0);

  AdpStats drastic_stats;
  options.stats = &drastic_stats;
  options.heuristic = AdpOptions::Heuristic::kDrastic;
  ComputeAdp(q, db, 1, options);
  EXPECT_EQ(drastic_stats.drastic_leaves, 1);
  EXPECT_EQ(drastic_stats.count_passes, 1);
}

TEST(StatsTest, UniverseCountsGroups) {
  const ConjunctiveQuery q = ParseQuery("Q(A,B,C) :- R1(A,B), R2(A,C)");
  const Database db = MakeDb(q, {{"R1", {{1, 5}, {2, 6}}},
                                 {"R2", {{1, 7}, {2, 8}}}});
  AdpStats stats;
  AdpOptions options;
  options.stats = &stats;
  ComputeAdp(q, db, 2, options);
  EXPECT_EQ(stats.universe_nodes, 1);
  EXPECT_EQ(stats.universe_groups, 2);  // keys a=1 and a=2
  // No root pass and no Decompose pass: in each of the two groups, each of
  // the Decompose node's two Singleton leaves counts its one relation.
  EXPECT_EQ(stats.count_passes, 4);
}

TEST(StatsTest, SelectedTpchExercisesDecomposeAndSingleton) {
  const TpchWorkload w = MakeTpchSelected(120, 3);
  AdpStats stats;
  AdpOptions options;
  options.stats = &stats;
  const AdpSolution sol = ComputeAdp(w.query, w.db, 5, options);
  EXPECT_TRUE(sol.exact);
  // σθQ1 decomposes into {Supplier, PartSupp} and {LineItem}, each solved
  // by Singleton.
  EXPECT_EQ(stats.decompose_nodes, 1);
  EXPECT_EQ(stats.singleton_nodes, 2);
  EXPECT_EQ(stats.greedy_leaves, 0);
  // Each Singleton component counts its own body, which gives its
  // |Q_i(D)| and its profits; the Decompose root counts nothing.
  EXPECT_EQ(stats.count_passes, 2);
}

// Passes over the data, joins included, at leaves that read a join. Ego
// Q5's shape (a projected heuristic root) and a projected case-1 Singleton
// root read the join their one pass materialized to count them: one pass.
// Q4's shape (a Decompose root over two projected Greedy components) makes
// one such pass per component, each keeping its own join: two. Q2's shape (a
// full acyclic heuristic root) materializes its join in its one pass too,
// since its greedy reads it, instead of propagating: one.
TEST(StatsTest, CountPassesIncludeTheLeafJoins) {
  struct Case {
    const char* text;
    std::int64_t passes;
  };
  const Case cases[] = {
      {"Q(A,B,C) :- R1(A,E), R2(B,E), R3(C,E)", 1},
      {"Q(A,C,E,G) :- R1(A,B), R2(B,C), R3(E,F), R4(F,G)", 2},
      {"Q(A,B) :- R1(A), R2(A,B,C)", 1},
      {"Q(A,B,C,D) :- R1(A,B), R2(B,C), R3(C,D)", 1},
  };
  Rng rng(12);
  for (const Case& c : cases) {
    const ConjunctiveQuery q = ParseQuery(c.text);
    const Database db = testing::RandomDb(q, rng, 12, 4);
    AdpStats stats;
    AdpOptions options;
    options.stats = &stats;
    const AdpSolution sol = ComputeAdp(q, db, 1, options);
    ASSERT_TRUE(sol.feasible) << c.text;
    EXPECT_EQ(stats.count_passes, c.passes) << c.text;
    EXPECT_EQ(stats.greedy_leaves + stats.singleton_nodes,
              stats.decompose_nodes == 1 ? 2 : 1)
        << c.text;
  }
}

// A target above |Q(D)| at a leaf root (Boolean, Singleton, heuristic under
// either heuristic) costs the root's one counting pass, and no node is
// solved.
TEST(StatsTest, InfeasibleLeafRootMakesOnePassAndSolvesNothing) {
  struct Case {
    const char* text;
    AdpCase root;
  };
  const Case cases[] = {
      {"Q() :- R1(A), R2(A,B), R3(B)", AdpCase::kBoolean},
      {"Q(A,B) :- R1(A), R2(A,B)", AdpCase::kSingleton},
      {"Q(A,B) :- R1(A), R2(A,B), R3(B)", AdpCase::kHeuristic},
  };
  Rng rng(13);
  for (const Case& c : cases) {
    const ConjunctiveQuery q = ParseQuery(c.text);
    ASSERT_EQ(ClassifyAdpCase(q, AdpOptions{}), c.root) << c.text;
    const Database db = testing::RandomDb(q, rng, 12, 4);
    const std::int64_t total = testing::OracleCount(q, db);
    for (const AdpOptions::Heuristic heuristic :
         {AdpOptions::Heuristic::kGreedy, AdpOptions::Heuristic::kDrastic}) {
      AdpStats stats;
      AdpOptions options;
      options.stats = &stats;
      options.heuristic = heuristic;
      const AdpSolution sol = ComputeAdp(q, db, total + 1, options);
      EXPECT_FALSE(sol.feasible) << c.text;
      EXPECT_EQ(sol.cost, kInfCost) << c.text;
      EXPECT_EQ(sol.output_count, total) << c.text;
      AdpStats one_pass;
      one_pass.count_passes = 1;
      EXPECT_TRUE(stats == one_pass) << c.text;
    }
  }
}

// A Universe root counts nothing of its own: with a Boolean leaf as the
// residual, the passes are exactly one per group.
TEST(StatsTest, UniverseRootMakesNoPassOfItsOwn) {
  const ConjunctiveQuery q = ParseQuery("Q(A,B) :- R1(A,B), R2(A,B,C)");
  const Database db =
      MakeDb(q, {{"R1", {{1, 1}, {2, 2}, {3, 3}}},
                 {"R2", {{1, 1, 5}, {2, 2, 6}, {3, 3, 7}, {3, 3, 8}}}});
  AdpStats stats;
  AdpOptions options;
  options.use_singleton = false;  // else the root is a Singleton leaf
  options.stats = &stats;
  ASSERT_EQ(ClassifyAdpCase(q, options), AdpCase::kUniverse);
  const AdpSolution sol = ComputeAdp(q, db, 2, options);
  EXPECT_EQ(sol.output_count, 3);
  EXPECT_EQ(sol.cost, 2);
  EXPECT_EQ(stats.universe_nodes, 1);
  EXPECT_EQ(stats.universe_groups, 3);
  EXPECT_EQ(stats.boolean_nodes, 3);
  EXPECT_EQ(stats.count_passes, 3);
}

TEST(StatsTest, BooleanQueryCountsBooleanNode) {
  const ConjunctiveQuery q = ParseQuery("Q() :- R1(A), R2(A)");
  const Database db = MakeDb(q, {{"R1", {{1}}}, {"R2", {{1}}}});
  AdpStats stats;
  AdpOptions options;
  options.stats = &stats;
  ComputeAdp(q, db, 1, options);
  EXPECT_EQ(stats.boolean_nodes, 1);
  EXPECT_EQ(stats.boolean_fallbacks, 0);
  EXPECT_EQ(stats.count_passes, 1);
}

TEST(StatsTest, NonLinearizableBooleanFallsBack) {
  // Triangle: boolean, NP-hard, no linear order -> greedy fallback.
  const ConjunctiveQuery q = ParseQuery("Q() :- R1(A,B), R2(B,C), R3(C,A)");
  const Database db = MakeDb(q, {{"R1", {{1, 2}}},
                                 {"R2", {{2, 3}}},
                                 {"R3", {{3, 1}}}});
  AdpStats stats;
  AdpOptions options;
  options.stats = &stats;
  const AdpSolution sol = ComputeAdp(q, db, 1, options);
  EXPECT_EQ(stats.boolean_fallbacks, 1);
  EXPECT_FALSE(sol.exact);
  EXPECT_EQ(sol.cost, 1);  // any single edge breaks the only triangle
}

// Sharded stats aggregation must be order-independent: MergeAdpStats is a
// commutative sum fold, so the schedule the shards complete in — here
// forced to the exact reverse of the dispatch order — must not change the
// merged stats. Guards against aggregation drift (e.g. a merge that
// overwrote instead of summed would pass the forward order by accident).
TEST(StatsTest, ShardedMergeIsScheduleOrderIndependent) {
  const ConjunctiveQuery q =
      ParseQuery("Q(A,B,C,E,F,G) :- R1(A,B), R2(A,C), R3(E,F), R4(E,G)");
  const Database db = MakeDb(
      q, {{"R1", {{1, 5}, {2, 6}, {3, 7}}},
          {"R2", {{1, 8}, {2, 9}, {3, 9}}},
          {"R3", {{4, 5}, {5, 6}, {6, 7}}},
          {"R4", {{4, 8}, {5, 9}, {6, 9}}}});

  // Baseline: fully sequential (no Parallelism at all).
  AdpStats sequential;
  AdpOptions options;
  options.stats = &sequential;
  const AdpSolution base = ComputeAdp(q, db, 3, options);

  // Inline "pools" that drain each shard batch forward and backward.
  // Both satisfy the run_all contract (every task exactly once, nestable).
  Parallelism forward;
  forward.min_groups = 2;
  forward.min_components = 2;
  forward.run_all = [](std::vector<std::function<void()>> tasks) {
    for (auto& task : tasks) task();
  };
  Parallelism reversed = forward;
  reversed.run_all = [](std::vector<std::function<void()>> tasks) {
    for (auto it = tasks.rbegin(); it != tasks.rend(); ++it) (*it)();
  };

  AdpStats fwd_stats;
  options.stats = &fwd_stats;
  options.parallelism = &forward;
  const AdpSolution fwd = ComputeAdp(q, db, 3, options);

  AdpStats rev_stats;
  options.stats = &rev_stats;
  options.parallelism = &reversed;
  const AdpSolution rev = ComputeAdp(q, db, 3, options);

  // Results are bitwise-identical across all three schedules.
  for (const AdpSolution* sol : {&fwd, &rev}) {
    EXPECT_EQ(sol->cost, base.cost);
    EXPECT_EQ(sol->exact, base.exact);
    EXPECT_EQ(sol->feasible, base.feasible);
    EXPECT_EQ(sol->output_count, base.output_count);
    EXPECT_EQ(sol->tuples, base.tuples);
  }
  // The two sharded schedules merge to *identical* stats (engagement
  // markers included), and both match the sequential case mix modulo the
  // sharded_* markers.
  EXPECT_GT(fwd_stats.sharded_universe_nodes +
                fwd_stats.sharded_decompose_nodes,
            0);
  EXPECT_TRUE(fwd_stats == rev_stats);
  EXPECT_TRUE(StatsAgreeModuloSharding(fwd_stats, sequential));
  EXPECT_TRUE(StatsAgreeModuloSharding(rev_stats, sequential));
}

}  // namespace
}  // namespace adp
