// Boolean (resilience) solver tests: pinned instances plus a randomized
// sweep against the exhaustive oracle.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <vector>

#include "dichotomy/is_ptime.h"
#include "dichotomy/linearize.h"
#include "dichotomy/relations.h"
#include "flow/max_flow.h"
#include "query/parser.h"
#include "query/transform.h"
#include "solver/boolean.h"
#include "solver/compute_adp.h"
#include "solver/solution.h"
#include "test_util.h"

namespace adp {
namespace {

using testing::MakeDb;
using testing::OracleAdp;
using testing::OracleCount;
using testing::RandomDb;
using testing::RootTuples;

TEST(BooleanSolverTest, SingleRelationNeedsFullDeletion) {
  const ConjunctiveQuery q = ParseQuery("Q() :- R1(A)");
  const Database db = MakeDb(q, {{"R1", {{1}, {2}, {3}}}});
  const auto res = SolveBooleanExact(q, db);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->resilience, 3);
  EXPECT_EQ(res->cut.size(), 3u);
}

TEST(BooleanSolverTest, ChainCutAtNarrowestRelation) {
  const ConjunctiveQuery q = ParseQuery("Q() :- R1(A), R2(A,B), R3(B)");
  const Database db = MakeDb(q, {{"R1", {{1}, {2}}},
                                 {"R2", {{1, 5}, {2, 5}, {2, 6}}},
                                 {"R3", {{5}, {6}}}});
  const auto res = SolveBooleanExact(q, db);
  ASSERT_TRUE(res.has_value());
  // Cheapest: delete R1(1), R1(2) (2 tuples) or R3(5), R3(6); R2 would need
  // 3. Exogenous R2 is excluded anyway.
  EXPECT_EQ(res->resilience, 2);
}

TEST(BooleanSolverTest, SharedMiddleValueCutCheaply) {
  // All chains pass through B=5: cutting R3(5) alone kills the query.
  const ConjunctiveQuery q = ParseQuery("Q() :- R2(A,B), R3(B)");
  const Database db = MakeDb(q, {{"R2", {{1, 5}, {2, 5}, {3, 5}}},
                                 {"R3", {{5}}}});
  const auto res = SolveBooleanExact(q, db);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->resilience, 1);
  ASSERT_EQ(res->cut.size(), 1u);
  EXPECT_EQ(res->cut[0].relation, 1);
}

TEST(BooleanSolverTest, VacuumRelationCutOfOne) {
  const ConjunctiveQuery q = ParseQuery("Q() :- R1(A), R2()");
  Database db(2);
  db.Load(0, {{1}, {2}, {3}});
  db.rel(1).Add({});
  const auto res = SolveBooleanExact(q, db);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->resilience, 1);  // delete the vacuum tuple
}

TEST(BooleanSolverTest, CutIsVerifiable) {
  const ConjunctiveQuery q =
      ParseQuery("Q() :- R1(A,B), R2(B,C), R3(C,E)");
  Rng rng(31);
  const Database db = RandomDb(q, rng, 15, 3);
  if (OracleCount(q, db) == 0) GTEST_SKIP();
  const auto res = SolveBooleanExact(q, db);
  ASSERT_TRUE(res.has_value());
  // Removing the cut makes the query false.
  EXPECT_EQ(CountRemovedOutputs(q, db, RootTuples(db, res->cut)), 1);
}

TEST(BooleanSolverTest, TriangleIsNotLinearizable) {
  const ConjunctiveQuery q =
      ParseQuery("Q() :- R1(A,B), R2(B,C), R3(C,A)");
  const Database db = MakeDb(q, {{"R1", {{1, 2}}},
                                 {"R2", {{2, 3}}},
                                 {"R3", {{3, 1}}}});
  EXPECT_FALSE(SolveBooleanExact(q, db).has_value());
}

// The decoded-value hub network, the oracle for SolveBooleanExact's hubs:
// the same tuple nodes and source and sink edges, and between consecutive
// atoms one hub per key value tuple of either atom, from a std::map (a key
// only the right atom holds gets a hub without inflow). Resilience and cut
// are read off as SolveBooleanExact reads them.
BooleanResult OracleHubNetwork(const ConjunctiveQuery& q, const Database& db,
                               const std::vector<int>& order) {
  const int p = q.num_relations();
  const std::vector<char> exo = ExogenousFlags(q);
  MaxFlow flow(2);
  std::vector<std::vector<int>> in_node(p), out_node(p);
  for (int pos = 0; pos < p; ++pos) {
    const RelationInstance& inst = db.rel(order[pos]);
    for (std::size_t t = 0; t < inst.size(); ++t) {
      in_node[pos].push_back(flow.AddNode());
      out_node[pos].push_back(flow.AddNode());
      flow.AddEdge(in_node[pos][t], out_node[pos][t],
                   exo[order[pos]] ? kInfCapacity : 1);
    }
  }
  for (int in : in_node[0]) flow.AddEdge(0, in, kInfCapacity);
  for (int out : out_node[p - 1]) flow.AddEdge(out, 1, kInfCapacity);
  for (int pos = 0; pos + 1 < p; ++pos) {
    const RelationSchema& ls = q.relation(order[pos]);
    const RelationSchema& rs = q.relation(order[pos + 1]);
    const AttrSet shared = ls.attr_set().Intersect(rs.attr_set());
    std::map<Tuple, int> hub;
    auto hub_of = [&](const RelationInstance& inst,
                      const RelationSchema& schema, std::size_t t) {
      Tuple key;
      for (AttrId a : shared) key.push_back(inst.ValueAt(t, schema.ColumnOf(a)));
      auto [it, inserted] = hub.try_emplace(key, -1);
      if (inserted) it->second = flow.AddNode();
      return it->second;
    };
    const RelationInstance& linst = db.rel(order[pos]);
    const RelationInstance& rinst = db.rel(order[pos + 1]);
    for (std::size_t t = 0; t < linst.size(); ++t) {
      flow.AddEdge(out_node[pos][t], hub_of(linst, ls, t), kInfCapacity);
    }
    for (std::size_t t = 0; t < rinst.size(); ++t) {
      flow.AddEdge(hub_of(rinst, rs, t), in_node[pos + 1][t], kInfCapacity);
    }
  }
  BooleanResult result;
  result.resilience = flow.Compute(0, 1);
  const std::vector<char> side = flow.SourceSide(0);
  for (int pos = 0; pos < p; ++pos) {
    for (std::size_t t = 0; t < db.rel(order[pos]).size(); ++t) {
      if (side[in_node[pos][t]] && !side[out_node[pos][t]]) {
        result.cut.push_back(TupleRef{order[pos], static_cast<TupleId>(t)});
      }
    }
  }
  return result;
}

// Random linearizable Boolean queries whose consecutive atoms' dictionaries
// disagree (each relation interns values in the order its own rows show
// them), with keys only the right atom holds, empty atoms (no columns, and
// no s-t path), and consecutive atoms sharing no attribute (one hub for the
// pair). SolveBooleanExact links a right row to its key's hub through
// dictionary codes, and creates no hub for a right-only key; resilience and
// cut must equal the decoded-value network's.
TEST(BooleanSolverTest, CodeHubsMatchTheDecodedValueNetwork) {
  Rng rng(9001);
  int solved = 0;
  int disagreeing = 0;
  int right_only = 0;
  int empty_atoms = 0;
  int unshared = 0;
  for (int iter = 0; iter < 600; ++iter) {
    ConjunctiveQuery q =
        testing::RandomQuery(rng, 4, 4, /*allow_vacuum=*/rng.Uniform(4) == 0);
    q.SetHead(AttrSet());
    const std::optional<std::vector<int>> order = FindLinearOrder(q);
    if (!order) continue;
    Database db = RandomDb(q, rng, 1 + static_cast<std::int64_t>(rng.Uniform(7)),
                           2 + static_cast<std::int64_t>(rng.Uniform(4)));
    if (rng.Uniform(8) == 0) {
      const int i = static_cast<int>(rng.Uniform(q.num_relations()));
      RelationInstance empty;
      empty.set_root_relation(i);
      db.rel(i) = std::move(empty);
    }
    for (int pos = 0; pos + 1 < q.num_relations(); ++pos) {
      const RelationSchema& ls = q.relation((*order)[pos]);
      const RelationSchema& rs = q.relation((*order)[pos + 1]);
      const RelationInstance& linst = db.rel((*order)[pos]);
      const RelationInstance& rinst = db.rel((*order)[pos + 1]);
      const AttrSet shared = ls.attr_set().Intersect(rs.attr_set());
      if (shared.Empty()) ++unshared;
      if (linst.empty() || rinst.empty()) {
        ++empty_atoms;
        continue;
      }
      for (AttrId a : shared) {
        const int lc = ls.ColumnOf(a);
        const int rc = rs.ColumnOf(a);
        for (std::size_t t = 0; t < rinst.size(); ++t) {
          const std::int64_t code = linst.dict(lc).Lookup(rinst.ValueAt(t, rc));
          if (code < 0) {
            ++right_only;
          } else if (code != rinst.CodeAt(t, rc)) {
            ++disagreeing;
          }
        }
      }
    }
    const auto res = SolveBooleanExact(q, db, nullptr, &*order);
    ASSERT_TRUE(res.has_value());
    const BooleanResult oracle = OracleHubNetwork(q, db, *order);
    EXPECT_EQ(res->resilience, oracle.resilience) << q.ToString();
    EXPECT_EQ(res->cut, oracle.cut) << q.ToString();
    ++solved;
  }
  EXPECT_GT(solved, 300);
  EXPECT_GT(disagreeing, 200);
  EXPECT_GT(right_only, 100);
  EXPECT_GT(empty_atoms, 20);
  EXPECT_GT(unshared, 20);
}

// A Boolean query over a disconnected body without a linear arrangement is
// false as soon as one component is, so the cheapest component answers: here
// deleting all of U, not the greedy fallback over the cross product of the
// triangle and U.
TEST(BooleanSolverTest, DisconnectedBodyAnswersWithTheCheapestComponent) {
  const ConjunctiveQuery q =
      ParseQuery("Q() :- R(A,B), S(B,C), T(C,A), U(D)");
  ASSERT_FALSE(FindLinearOrder(q).has_value());
  Rng rng(324);
  const Database db = RandomDb(q, rng, 400, 30);
  ASSERT_GT(OracleCount(q, db), 0);
  AdpStats stats;
  AdpOptions options;
  options.stats = &stats;
  const AdpSolution sol = ComputeAdp(q, db, 1, options);
  EXPECT_EQ(sol.cost, static_cast<std::int64_t>(db.rel(3).size()));
  EXPECT_EQ(sol.cost, 30);
  EXPECT_FALSE(sol.exact);  // the triangle's component is greedy
  EXPECT_EQ(CountRemovedOutputs(q, db, sol.tuples), 1);
  for (const TupleRef& t : sol.tuples) EXPECT_EQ(t.relation, 3);
  // The node and one Boolean node per component; the triangle falls back.
  EXPECT_EQ(stats.boolean_nodes, 3);
  EXPECT_EQ(stats.boolean_fallbacks, 1);
}

// On tiny disconnected instances: the answer is the cheapest component's,
// the witness falsifies the query, and it is exact exactly when every
// component is (never here: a body whose every component has a linear
// arrangement has one itself). The exhaustive optimum, never above the
// answer, is the minimum of the components' optima.
TEST(BooleanSolverTest, DisconnectedBodyMatchesBruteForceOverComponents) {
  const char* queries[] = {
      "Q() :- R(A,B), S(B,C), T(C,A), U(D)",
      "Q() :- R(A,B), S(B,C), T(C,A), U(D,E), V(E)",
      "Q() :- R(A,B), S(B,C), T(C,A), U(D,E), V(E,F), W(F,D)",
  };
  int checked = 0;
  for (const char* text : queries) {
    const ConjunctiveQuery q = ParseQuery(text);
    ASSERT_FALSE(FindLinearOrder(q).has_value()) << text;
    for (int seed = 0; seed < 12; ++seed) {
      Rng rng(700 + seed);
      const Database db = RandomDb(q, rng, 3, 2);
      if (OracleCount(q, db) == 0) continue;
      const AdpSolution sol = ComputeAdp(q, db, 1, AdpOptions());
      std::int64_t cheapest = kInfCost;
      std::int64_t cheapest_optimum = kInfCost;
      bool all_exact = true;
      for (const Subquery& sub : DecomposeQuery(q)) {
        const Database part = SubDatabase(sub.parent_relation, db);
        const AdpSolution own = ComputeAdp(sub.query, part, 1, AdpOptions());
        cheapest = std::min(cheapest, own.cost);
        all_exact = all_exact && own.exact;
        cheapest_optimum =
            std::min(cheapest_optimum, OracleAdp(sub.query, part, 1));
      }
      EXPECT_EQ(sol.cost, cheapest) << text << " seed " << seed;
      EXPECT_EQ(sol.exact, all_exact) << text << " seed " << seed;
      EXPECT_EQ(CountRemovedOutputs(q, db, sol.tuples), 1) << text;
      EXPECT_EQ(static_cast<std::int64_t>(sol.tuples.size()), sol.cost);
      const std::int64_t optimum = OracleAdp(q, db, 1);
      EXPECT_EQ(optimum, cheapest_optimum) << text << " seed " << seed;
      EXPECT_GE(sol.cost, optimum);
      ++checked;
    }
  }
  EXPECT_GT(checked, 15);
}

// Randomized sweep: on linearizable boolean queries, the min-cut resilience
// must equal the exhaustive optimum (ADP with k = 1 on a true query).
struct BooleanSweepCase {
  const char* query;
  int rows;
  int domain;
};

class BooleanOracleSweep
    : public ::testing::TestWithParam<std::tuple<BooleanSweepCase, int>> {};

TEST_P(BooleanOracleSweep, MatchesExhaustiveOptimum) {
  const auto& [c, seed] = GetParam();
  const ConjunctiveQuery q = ParseQuery(c.query);
  Rng rng(400 + seed);
  const Database db = RandomDb(q, rng, c.rows, c.domain);
  if (OracleCount(q, db) == 0) GTEST_SKIP() << "query already false";
  const auto res = SolveBooleanExact(q, db);
  ASSERT_TRUE(res.has_value()) << c.query;
  EXPECT_EQ(res->resilience, OracleAdp(q, db, 1)) << c.query;
  EXPECT_EQ(static_cast<std::int64_t>(res->cut.size()), res->resilience);
  EXPECT_EQ(CountRemovedOutputs(q, db, RootTuples(db, res->cut)), 1);
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, BooleanOracleSweep,
    ::testing::Combine(
        ::testing::Values(
            BooleanSweepCase{"Q() :- R1(A), R2(A,B), R3(B)", 4, 3},
            BooleanSweepCase{"Q() :- R1(A,B), R2(B,C)", 4, 2},
            BooleanSweepCase{"Q() :- R1(A,B), R2(B,C), R3(C,E)", 3, 2},
            BooleanSweepCase{"Q() :- R1(A), R2(A)", 4, 3},
            BooleanSweepCase{"Q() :- R1(A,B,C), R2(A), R3(B)", 4, 2}),
        ::testing::Range(0, 8)));

}  // namespace
}  // namespace adp
