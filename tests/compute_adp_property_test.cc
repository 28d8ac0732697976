// The central correctness property of the unified algorithm: on random
// poly-time queries and instances, ComputeADP's cost equals the exhaustive
// optimum for every feasible k; on NP-hard queries the reported tuple set
// is always feasible (removes >= k outputs). Exactness flags must agree
// with the dichotomy.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "dichotomy/is_ptime.h"
#include "query/parser.h"
#include "query/transform.h"
#include "relational/join.h"
#include "solver/compute_adp.h"
#include "solver/plan.h"
#include "solver/solution.h"
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

// One connected component of a random Decompose body, over relations and
// attributes suffixed with its index.
enum class Part {
  kSingleton,       // case 1: S(A) within T(A,B)
  kSingletonCase2,  // head within S(A,B), S within T(A,B,C)
  kUniverseOverDecompose,  // universal X; the residual S(A), T(B) splits
  kUniverseOverHeuristic,  // universal X over S(A), T(A,B), U(B)
  kHeuristic,       // S(A), T(A,B), U(B): NP-hard
  kVacuum,          // V(): a Boolean leaf of one vacuum relation
  kEmpty,           // S(A), T(A,B) with S empty: the fewest tuples
  kDangling,        // S(A), T(A,B) whose join is empty
};

struct RandomBody {
  std::vector<std::string> head;
  std::vector<std::string> atoms;
  std::set<std::string> empty;     // relations with no rows
  std::set<std::string> dangling;  // relations whose values join nothing
};

void AddPart(Part part, int c, RandomBody& body) {
  const std::string n = std::to_string(c);
  auto atom = [&](const char* rel, std::vector<const char*> attrs) {
    std::string a = std::string(rel) + n + "(";
    for (std::size_t i = 0; i < attrs.size(); ++i) {
      a += (i ? "," : "") + std::string(attrs[i]) + n;
    }
    body.atoms.push_back(a + ")");
  };
  auto head = [&](std::vector<const char*> attrs) {
    for (const char* a : attrs) body.head.push_back(std::string(a) + n);
  };
  switch (part) {
    case Part::kSingleton:
    case Part::kEmpty:
    case Part::kDangling:
      atom("S", {"A"});
      atom("T", {"A", "B"});
      head({"A", "B"});
      if (part == Part::kEmpty) body.empty.insert("S" + n);
      if (part == Part::kDangling) body.dangling.insert("S" + n);
      break;
    case Part::kSingletonCase2:
      atom("S", {"A", "B"});
      atom("T", {"A", "B", "C"});
      head({"A"});
      break;
    case Part::kUniverseOverDecompose:
      atom("S", {"X", "A"});
      atom("T", {"X", "B"});
      head({"X", "A", "B"});
      break;
    case Part::kUniverseOverHeuristic:
      atom("S", {"X", "A"});
      atom("T", {"X", "A", "B"});
      atom("U", {"X", "B"});
      head({"X", "A", "B"});
      break;
    case Part::kHeuristic:
      atom("S", {"A"});
      atom("T", {"A", "B"});
      atom("U", {"B"});
      head({"A", "B"});
      break;
    case Part::kVacuum:
      atom("V", {});
      break;
  }
}

// Rows over the domain {0, 1}: one or two random assignments of every
// attribute, each projected into every relation so that the components
// join, plus a random extra row in a third of the relations; no rows for an
// empty relation, one with value 7 (which nothing else holds) for a
// dangling one, and the empty tuple for a vacuum one.
Database PartsDb(const ConjunctiveQuery& q, const RandomBody& body, Rng& rng) {
  Database db(q.num_relations());
  auto random_row = [&](const RelationSchema& schema) {
    Tuple row(schema.attrs.size());
    for (Value& v : row) v = static_cast<Value>(rng.Uniform(2));
    return row;
  };
  std::vector<std::vector<Value>> assignments(1 + rng.Uniform(2));
  for (std::vector<Value>& values : assignments) {
    for (int a = 0; a < kMaxAttrs; ++a) {
      values.push_back(static_cast<Value>(rng.Uniform(2)));
    }
  }
  for (int i = 0; i < q.num_relations(); ++i) {
    const RelationSchema& schema = q.relation(i);
    if (body.empty.count(schema.name) != 0) continue;
    if (schema.vacuum()) {
      db.rel(i).Add({});
    } else if (body.dangling.count(schema.name) != 0) {
      db.rel(i).Add(Tuple(schema.attrs.size(), 7));
    } else {
      for (const std::vector<Value>& values : assignments) {
        Tuple row;
        for (AttrId a : schema.attrs) row.push_back(values[a]);
        db.rel(i).Add(std::move(row));
      }
      if (rng.Uniform(3) == 0) db.rel(i).Add(random_row(schema));
      db.rel(i).Dedup();
    }
  }
  return db;
}

// The reference for a capped Decompose root: its profile with every
// component solved at the full cap k, folded in ascending-outputs order.
CostProfile UncappedDecomposeProfile(const DispatchPlan& plan,
                                     const Database& db, std::int64_t k,
                                     const AdpOptions& options) {
  std::vector<AdpNode> children;
  for (std::size_t c = 0; c < plan.children.size(); ++c) {
    children.push_back(SolveNode(plan.children[c],
                                 SubDatabase(plan.components[c], db), k,
                                 options));
  }
  std::vector<std::size_t> order(children.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return children[a].outputs < children[b].outputs;
                   });
  std::int64_t total = 1;
  for (const AdpNode& c : children) total = SatMul(total, c.outputs);
  const std::int64_t cap = std::min(k, total);
  CostProfile fold = children[order[0]].profile;
  fold.TruncateTo(cap);
  std::int64_t m = children[order[0]].outputs;
  for (std::size_t i = 1; i < order.size(); ++i) {
    const AdpNode& c = children[order[i]];
    fold = CombineProduct(fold, m, c.profile, c.outputs, cap,
                          /*naive_inner=*/false, nullptr);
    m = SatMul(m, c.outputs);
  }
  return fold;
}

// A Decompose node solves its smallest component at the node's cap and
// every other one at ceil(cap / m), m the smallest one's outputs (0 when
// m = 0). Over random 2-4-component bodies (Singleton, Universe and
// heuristic components, a vacuum relation, empty components, Decompose
// under Universe), at k in {1, ceil(|Q(D)|/2), |Q(D)|}, every target
// j <= k the stream reports costs what the uncapped fold does, and what
// the oracle does when every component is exact; its witnesses remove
// >= j outputs, and output_count is the oracle's.
TEST(AdpDecomposeCapTest, CappedComponentsKeepEveryTargetUpToK) {
  const Part parts[] = {Part::kSingleton, Part::kSingletonCase2,
                        Part::kUniverseOverDecompose,
                        Part::kUniverseOverHeuristic, Part::kHeuristic,
                        Part::kVacuum};
  Rng rng(20261020);
  std::set<AdpCase> component_cases;
  int decompose_under_universe = 0;
  int checked = 0;
  int exact = 0;
  int empty = 0;
  for (int trial = 0; trial < 2000 && checked < 600; ++trial) {
    AdpOptions options;
    // A vacuum relation under the Singleton case would make the whole body
    // one Singleton node.
    options.use_singleton = trial % 4 != 3;
    options.heuristic = trial % 3 == 2 ? AdpOptions::Heuristic::kDrastic
                                       : AdpOptions::Heuristic::kGreedy;
    RandomBody body;
    const int components = 2 + static_cast<int>(rng.Uniform(3));
    // One body in five has an empty component, at a random position.
    const int empty_at =
        trial % 5 == 0 ? static_cast<int>(rng.Uniform(components)) : -1;
    for (int c = 0; c < components; ++c) {
      Part part = parts[rng.Uniform(std::size(parts))];
      if (part == Part::kVacuum && options.use_singleton) {
        part = Part::kSingleton;
      }
      if (c == empty_at) part = trial % 2 == 0 ? Part::kEmpty : Part::kDangling;
      AddPart(part, c, body);
    }
    if (body.head.empty()) continue;  // all vacuum: a Boolean root
    std::string text = "Q(";
    for (std::size_t i = 0; i < body.head.size(); ++i) {
      text += (i ? "," : "") + body.head[i];
    }
    text += ") :- ";
    for (std::size_t i = 0; i < body.atoms.size(); ++i) {
      text += (i ? ", " : "") + body.atoms[i];
    }
    const ConjunctiveQuery q = ParseQuery(text);
    const Database db = PartsDb(q, body, rng);
    // The oracle enumerates subsets of the tuples.
    if (db.TotalTuples() > 12) continue;
    const DispatchPlan plan = BuildDispatchPlan(q, options);
    ASSERT_EQ(plan.op, AdpCase::kDecompose) << text;
    PlanShapes shapes;
    shapes.Add(plan, false, false);
    decompose_under_universe += shapes.decompose_under_universe;
    for (const DispatchPlan& child : plan.children) {
      component_cases.insert(child.op);
    }
    ++checked;

    const std::int64_t total = OracleCount(q, db);
    if (total == 0) {
      ++empty;
      const AdpSolution sol = ComputeAdp(q, db, 1, options);
      EXPECT_EQ(sol.output_count, 0) << text;
      EXPECT_FALSE(sol.feasible) << text;
      continue;
    }
    std::map<std::int64_t, std::int64_t> oracle;
    bool all_exact = true;  // every solve of this body
    for (const std::int64_t k : {std::int64_t{1}, (total + 1) / 2, total}) {
      SCOPED_TRACE(text + " k=" + std::to_string(k));
      std::map<std::int64_t, std::int64_t> cost;
      std::map<std::int64_t, std::vector<TupleRef>> witnesses;
      AdpEmitter emit;
      emit.intermediate_witnesses = true;
      emit.profile = [&](std::int64_t j, std::int64_t c) { cost[j] = c; };
      emit.witnesses = [&](std::int64_t j, const std::vector<TupleRef>& t) {
        witnesses[j] = t;
      };
      const AdpSolution sol = ComputeAdp(q, db, k, options, &emit);
      ASSERT_TRUE(sol.feasible);
      EXPECT_EQ(sol.output_count, total);
      all_exact = all_exact && sol.exact;
      const CostProfile uncapped =
          UncappedDecomposeProfile(plan, db, k, options);
      ASSERT_EQ(static_cast<std::int64_t>(cost.size()), k);
      for (std::int64_t j = 1; j <= k; ++j) {
        EXPECT_EQ(cost[j], uncapped.At(j)) << "j=" << j;
        if (sol.exact) {
          if (oracle.count(j) == 0) oracle[j] = OracleAdp(q, db, j);
          EXPECT_EQ(cost[j], oracle[j]) << "j=" << j;
        }
        ASSERT_EQ(witnesses.count(j), 1u) << "j=" << j;
        EXPECT_GE(CountRemovedOutputs(q, db, witnesses[j]), j) << "j=" << j;
      }
    }
    exact += all_exact;
  }
  EXPECT_GE(checked, 500);
  EXPECT_GT(exact, 0);
  EXPECT_LT(exact, checked - empty);  // heuristic components took part
  EXPECT_GT(empty, 0);
  EXPECT_GT(decompose_under_universe, 0);
  for (const AdpCase c : {AdpCase::kBoolean, AdpCase::kSingleton,
                          AdpCase::kUniverse, AdpCase::kHeuristic}) {
    EXPECT_EQ(component_cases.count(c), 1u) << AdpCaseName(c);
  }
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
