// GreedyForCQ and DrasticGreedy tests: feasibility, trajectory shape, the
// paper's qualitative claims (greedy finds optimal on friendly
// distributions; drastic restricted to full CQs), and pick-for-pick
// agreement of the incremental greedy with the rescanning reference, also
// when it reads the join its own counting pass kept.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

#include "dichotomy/relations.h"
#include "query/parser.h"
#include "relational/join.h"
#include "solver/drastic.h"
#include "solver/greedy.h"
#include "solver/solution.h"
#include "test_util.h"

namespace adp {
namespace {

using testing::MakeDb;
using testing::OracleAdp;
using testing::OracleCount;
using testing::RandomDb;
using testing::RandomQuery;
using testing::RandomRestrictions;
using testing::RootTuples;

// The leaves over the counts SolveNode hands them: the node's own pass over
// (q, db), joins kept for GreedyForCQ, DrasticReads for DrasticGreedy.
AdpNode SolveGreedy(const ConjunctiveQuery& q, const Database& db,
                    std::int64_t cap, const AdpOptions& options) {
  CountReads reads;
  reads.joins = true;
  return GreedyNode(q, db, cap, options,
                    CountComponents(q.body(), q.head(), db, reads));
}

AdpNode SolveDrastic(const ConjunctiveQuery& q, const Database& db,
                     std::int64_t cap, const AdpOptions& options) {
  return DrasticNode(
      q, db, cap, options,
      CountComponents(q.body(), q.head(), db, DrasticReads(q, options)));
}

// The rescanning GreedyForCQ, kept as the reference the incremental one
// must match pick for pick: profits are recounted from the join rows on
// every call, and every pick scans every candidate tuple in order (candidate
// relations in order, tuples by id, strict improvement).
class ReferenceProvenance {
 public:
  ReferenceProvenance(const std::vector<RelationSchema>& body, AttrSet head,
                      const Database& db) {
    const JoinResult join = FullJoin(body, db);
    AttrSet all;
    for (AttrId a : join.attrs) all.Add(a);
    tuple_rows_.resize(body.size());
    for (std::size_t i = 0; i < body.size(); ++i) {
      tuple_rows_[i].resize(db.rel(i).size());
    }
    std::map<Tuple, std::uint32_t> group_of;
    for (std::size_t r = 0; r < join.NumRows(); ++r) {
      const auto [it, inserted] = group_of.try_emplace(
          join.Project(r, head.Intersect(all)),
          static_cast<std::uint32_t>(group_alive_.size()));
      if (inserted) group_alive_.push_back(0);
      row_group_.push_back(it->second);
      ++group_alive_[it->second];
      for (std::size_t i = 0; i < body.size(); ++i) {
        tuple_rows_[i][join.SupportOf(r, i)].push_back(
            static_cast<std::uint32_t>(r));
      }
    }
    row_alive_.assign(join.NumRows(), 1);
    alive_groups_ = static_cast<std::int64_t>(group_alive_.size());
  }

  std::int64_t total_outputs() const {
    return static_cast<std::int64_t>(group_alive_.size());
  }
  std::int64_t alive_outputs() const { return alive_groups_; }
  std::size_t NumTuples(int rel) const { return tuple_rows_[rel].size(); }

  std::int64_t Profit(int rel, TupleId t) const {
    std::map<std::uint32_t, std::uint32_t> alive_in_group;
    std::int64_t profit = 0;
    for (std::uint32_t r : tuple_rows_[rel][t]) {
      if (!row_alive_[r]) continue;
      const std::uint32_t g = row_group_[r];
      if (++alive_in_group[g] == group_alive_[g]) ++profit;
    }
    return profit;
  }

  bool IsRelevant(int rel, TupleId t) const {
    for (std::uint32_t r : tuple_rows_[rel][t]) {
      if (row_alive_[r]) return true;
    }
    return false;
  }

  std::int64_t Delete(int rel, TupleId t) {
    std::int64_t died = 0;
    for (std::uint32_t r : tuple_rows_[rel][t]) {
      if (!row_alive_[r]) continue;
      row_alive_[r] = 0;
      if (--group_alive_[row_group_[r]] == 0) ++died;
    }
    alive_groups_ -= died;
    return died;
  }

 private:
  std::vector<std::vector<std::vector<std::uint32_t>>> tuple_rows_;
  std::vector<std::uint32_t> row_group_;
  std::vector<char> row_alive_;
  std::vector<std::uint32_t> group_alive_;
  std::int64_t alive_groups_ = 0;
};

GreedyTrace ReferenceGreedy(const ConjunctiveQuery& q, const Database& db,
                            std::int64_t target,
                            const DeletionRestrictions* restrictions) {
  ReferenceProvenance index(q.body(), q.head(), db);
  GreedyTrace trace;
  trace.total_outputs = index.total_outputs();
  std::vector<int> candidates = EndogenousRelations(q);
  if (restrictions && !restrictions->Empty()) {
    candidates.clear();
    for (int i = 0; i < q.num_relations(); ++i) candidates.push_back(i);
  }
  std::int64_t removed = 0;
  while (removed < target && index.alive_outputs() > 0) {
    int best_rel = -1;
    TupleId best_tuple = 0;
    std::int64_t best_profit = -1;
    for (int rel : candidates) {
      for (TupleId t = 0; t < index.NumTuples(rel); ++t) {
        if (restrictions && restrictions->IsProtectedLocal(db.rel(rel), t)) {
          continue;
        }
        if (!index.IsRelevant(rel, t)) continue;
        const std::int64_t profit = index.Profit(rel, t);
        if (profit > best_profit) {
          best_profit = profit;
          best_rel = rel;
          best_tuple = t;
        }
      }
    }
    if (best_rel < 0) break;
    removed += index.Delete(best_rel, best_tuple);
    trace.picks.push_back(TupleRef{best_rel, best_tuple});
    trace.removed_after.push_back(removed);
  }
  return trace;
}

void ExpectTraceEq(const GreedyTrace& got, const GreedyTrace& want,
                   const ConjunctiveQuery& q) {
  EXPECT_EQ(got.total_outputs, want.total_outputs) << q.ToString();
  EXPECT_EQ(got.picks, want.picks) << q.ToString();
  EXPECT_EQ(got.removed_after, want.removed_after) << q.ToString();
}

// Runs both greedies to |Q(D)| and asserts identical traces, also for the
// greedy reading a counting pass's counts of (q, db), joins kept, as a
// Greedy leaf does; returns the number of picks. `kept` counts the runs
// whose counts held the join.
std::size_t ExpectSameTrace(const ConjunctiveQuery& q, const Database& db,
                            const DeletionRestrictions* restrictions,
                            int& kept) {
  const GreedyTrace want =
      ReferenceGreedy(q, db, OracleCount(q, db), restrictions);
  ExpectTraceEq(RunGreedyForCQ(q, db, OracleCount(q, db), restrictions),
                want, q);
  CountReads reads;
  reads.joins = true;
  const JoinCounts counts = CountComponents(q.body(), q.head(), db, reads);
  if (counts.WholeJoin() != nullptr) ++kept;
  ExpectTraceEq(
      RunGreedyForCQ(q, db, OracleCount(q, db), restrictions, &counts), want,
      q);
  return want.picks.size();
}

enum class HeadKind { kFull, kProjected, kBoolean };

class GreedyMatchesReference : public ::testing::TestWithParam<HeadKind> {};

TEST_P(GreedyMatchesReference, OnFixedAndRandomQueries) {
  std::vector<std::string> texts;
  switch (GetParam()) {
    case HeadKind::kFull:
      texts = {"Q(A,B) :- R1(A), R2(A,B), R3(B)",
               "Q(A,B,C) :- R1(A,B), R2(B,C), R3(C,A)"};
      break;
    case HeadKind::kProjected:
      texts = {"Q(A) :- R2(A,B), R3(B)", "Q(A,C) :- R1(A,B), R2(B,C)",
               "Q(A,C) :- R1(A,B), R2(B,C), R3(C,A)"};
      break;
    case HeadKind::kBoolean:
      texts = {"Q() :- R1(A), R2(A,B), R3(B)",
               "Q() :- R1(A,B), R2(B,C), R3(C,A)"};
      break;
  }
  Rng rng(61 + static_cast<int>(GetParam()));
  std::size_t picks = 0;
  std::size_t restricted_picks = 0;
  int kept = 0;
  for (int iter = 0; iter < 24; ++iter) {
    ConjunctiveQuery q = iter < 2 * static_cast<int>(texts.size())
                             ? ParseQuery(texts[iter % texts.size()])
                             : RandomQuery(rng, 4, 4);
    if (iter >= 2 * static_cast<int>(texts.size())) {
      switch (GetParam()) {
        case HeadKind::kFull:
          q.SetHead(q.all_attrs());
          break;
        case HeadKind::kProjected: {
          // Keep a nonempty head that misses at least one attribute.
          const AttrId first = *q.all_attrs().begin();
          AttrSet head = q.head().Minus(AttrSet::Of(first));
          if (head.Empty()) head = q.all_attrs().Minus(AttrSet::Of(first));
          q.SetHead(head.Empty() ? AttrSet::Of(first) : head);
          break;
        }
        case HeadKind::kBoolean:
          q.SetHead(AttrSet());
          break;
      }
    }
    const Database db =
        RandomDb(q, rng, rng.UniformInt(6, 30), rng.UniformInt(3, 6));
    picks += ExpectSameTrace(q, db, nullptr, kept);
    const DeletionRestrictions restrictions = RandomRestrictions(db, rng);
    restricted_picks += ExpectSameTrace(q, db, &restrictions, kept);
  }
  EXPECT_GT(picks, 50u);
  EXPECT_GT(restricted_picks, 50u);
  // Every param has a cyclic or projected fixed query, whose pass keeps its
  // join.
  EXPECT_GE(kept, 4);
}

INSTANTIATE_TEST_SUITE_P(Heads, GreedyMatchesReference,
                         ::testing::Values(HeadKind::kFull,
                                           HeadKind::kProjected,
                                           HeadKind::kBoolean));

TEST(GreedyTest, PicksHighestProfitFirst) {
  // Qpath with a hub: deleting R3(5) removes three outputs at once.
  const ConjunctiveQuery q = ParseQuery("Q(A,B) :- R1(A), R2(A,B), R3(B)");
  const Database db = MakeDb(q, {{"R1", {{1}, {2}, {3}}},
                                 {"R2", {{1, 5}, {2, 5}, {3, 5}, {1, 6}}},
                                 {"R3", {{5}, {6}}}});
  const GreedyTrace trace = RunGreedyForCQ(q, db, 3);
  ASSERT_GE(trace.picks.size(), 1u);
  EXPECT_EQ(trace.picks[0].relation, 2);  // R3
  EXPECT_EQ(trace.picks[0].row, 0u);      // tuple (5)
  EXPECT_EQ(trace.removed_after[0], 3);
}

TEST(GreedyTest, TrajectoryIsMonotone) {
  const ConjunctiveQuery q = ParseQuery("Q(A,B) :- R1(A), R2(A,B), R3(B)");
  Rng rng(41);
  const Database db = RandomDb(q, rng, 15, 5);
  const std::int64_t total = OracleCount(q, db);
  const GreedyTrace trace = RunGreedyForCQ(q, db, total);
  for (std::size_t i = 1; i < trace.removed_after.size(); ++i) {
    EXPECT_GE(trace.removed_after[i], trace.removed_after[i - 1]);
  }
  if (!trace.removed_after.empty()) {
    EXPECT_EQ(trace.removed_after.back(), total);
  }
}

TEST(GreedyTest, FeasibleOnProjections) {
  // Qswing — inapproximable in general, but greedy must still be feasible.
  const ConjunctiveQuery q = ParseQuery("Q(A) :- R2(A,B), R3(B)");
  Rng rng(43);
  for (int iter = 0; iter < 10; ++iter) {
    const Database db = RandomDb(q, rng, 10, 4);
    const std::int64_t total = OracleCount(q, db);
    if (total == 0) continue;
    const std::int64_t k = std::max<std::int64_t>(1, total / 2);
    const GreedyTrace trace = RunGreedyForCQ(q, db, k);
    ASSERT_FALSE(trace.removed_after.empty());
    EXPECT_GE(trace.removed_after.back(), k);
    // Verify against re-evaluation.
    EXPECT_GE(CountRemovedOutputs(q, db, RootTuples(db, trace.picks)), k);
  }
}

TEST(GreedyTest, ZeroProfitPlateauStillTerminates) {
  // Boolean-ish trap: every single deletion has profit 0 until a whole
  // output group is gone.
  const ConjunctiveQuery q = ParseQuery("Q(A) :- R2(A,B), R3(B)");
  const Database db = MakeDb(q, {{"R2", {{1, 5}, {1, 6}}},
                                 {"R3", {{5}, {6}}}});
  const GreedyTrace trace = RunGreedyForCQ(q, db, 1);
  EXPECT_GE(trace.removed_after.back(), 1);
  EXPECT_LE(trace.picks.size(), 4u);
}

TEST(GreedyNodeTest, ProfileMatchesTrajectory) {
  const ConjunctiveQuery q = ParseQuery("Q(A,B) :- R1(A), R2(A,B), R3(B)");
  Rng rng(47);
  const Database db = RandomDb(q, rng, 12, 4);
  const std::int64_t total = OracleCount(q, db);
  if (total == 0) GTEST_SKIP();
  AdpOptions options;
  const AdpNode node = SolveGreedy(q, db, total, options);
  EXPECT_FALSE(node.exact);
  EXPECT_EQ(node.profile.kmax(), total);
  for (std::int64_t k = 1; k <= total; ++k) {
    const auto tuples = node.report(k);
    EXPECT_EQ(static_cast<std::int64_t>(tuples.size()), node.profile.At(k));
    EXPECT_GE(CountRemovedOutputs(q, db, tuples), k);
  }
}

TEST(DrasticTest, SingleRelationPrefixIsChosen) {
  const ConjunctiveQuery q = ParseQuery("Q(A,B) :- R1(A), R2(A,B), R3(B)");
  const Database db = MakeDb(q, {{"R1", {{1}, {2}}},
                                 {"R2", {{1, 5}, {1, 6}, {2, 5}}},
                                 {"R3", {{5}, {6}}}});
  // Full join rows: (1,5),(1,6),(2,5). Profits: R1(1)=2, R3(5)=2.
  AdpOptions options;
  options.heuristic = AdpOptions::Heuristic::kDrastic;
  const AdpNode node = SolveDrastic(q, db, 3, options);
  EXPECT_EQ(node.profile.At(2), 1);
  EXPECT_EQ(node.profile.At(3), 2);
  const auto tuples = node.report(2);
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_GE(CountRemovedOutputs(q, db, tuples), 2);
}

TEST(DrasticTest, AllPicksFromOneRelation) {
  const ConjunctiveQuery q = ParseQuery("Q(A,B) :- R1(A), R2(A,B), R3(B)");
  Rng rng(53);
  const Database db = RandomDb(q, rng, 12, 4);
  const std::int64_t total = OracleCount(q, db);
  if (total < 3) GTEST_SKIP();
  AdpOptions options;
  const AdpNode node = SolveDrastic(q, db, total, options);
  const auto tuples = node.report(total / 2 + 1);
  ASSERT_FALSE(tuples.empty());
  for (const TupleRef& t : tuples) {
    EXPECT_EQ(t.relation, tuples[0].relation);
  }
  EXPECT_GE(CountRemovedOutputs(q, db, tuples), total / 2 + 1);
}

TEST(DrasticVsGreedyTest, GreedyNeverWorseOnSmallFullCqs) {
  // Greedy re-evaluates profits after every deletion; drastic does not.
  // On small instances both should land within a small factor of optimal.
  const ConjunctiveQuery q = ParseQuery("Q(A,B) :- R1(A), R2(A,B), R3(B)");
  Rng rng(59);
  for (int iter = 0; iter < 8; ++iter) {
    const Database db = RandomDb(q, rng, 5, 3);
    const std::int64_t total = OracleCount(q, db);
    if (total == 0) continue;
    const std::int64_t k = (total + 1) / 2;
    const std::int64_t opt = OracleAdp(q, db, k);
    AdpOptions options;
    const AdpNode greedy = SolveGreedy(q, db, total, options);
    const AdpNode drastic = SolveDrastic(q, db, total, options);
    EXPECT_GE(greedy.profile.At(k), opt);
    EXPECT_GE(drastic.profile.At(k), opt);
    // ln(k)+1 bound for greedy on full CQs (Theorem 5).
    const double bound =
        (std::log(static_cast<double>(k)) + 1.0) * static_cast<double>(opt);
    EXPECT_LE(static_cast<double>(greedy.profile.At(k)), bound + 1e-9);
  }
}

}  // namespace
}  // namespace adp
