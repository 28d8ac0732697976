// ProvenanceIndex tests: profits, incremental deletion, group accounting,
// and the profit/relevance invariants along random deletion sequences.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "query/parser.h"
#include "relational/join.h"
#include "relational/provenance.h"
#include "test_util.h"

namespace adp {
namespace {

using testing::MakeDb;
using testing::RandomDb;
using testing::RandomQuery;

TEST(ProvenanceTest, FullCqProfitsAreRowCounts) {
  const ConjunctiveQuery q = ParseQuery("Q(A,B) :- R1(A), R2(A,B)");
  const Database db = MakeDb(q, {{"R1", {{1}, {2}}},
                                 {"R2", {{1, 5}, {1, 6}, {2, 7}}}});
  ProvenanceIndex index(q.body(), q.head(), db);
  EXPECT_EQ(index.total_outputs(), 3);
  EXPECT_EQ(index.alive_outputs(), 3);
  // R1(1) supports rows (1,5) and (1,6).
  EXPECT_EQ(index.Profit(0, 0), 2);
  EXPECT_EQ(index.Profit(0, 1), 1);
  EXPECT_EQ(index.Profit(1, 2), 1);
}

TEST(ProvenanceTest, DeleteCascades) {
  const ConjunctiveQuery q = ParseQuery("Q(A,B) :- R1(A), R2(A,B)");
  const Database db = MakeDb(q, {{"R1", {{1}, {2}}},
                                 {"R2", {{1, 5}, {1, 6}, {2, 7}}}});
  ProvenanceIndex index(q.body(), q.head(), db);
  EXPECT_EQ(index.Delete(0, 0), 2);  // kills both R1(1) outputs
  EXPECT_EQ(index.alive_outputs(), 1);
  EXPECT_FALSE(index.IsRelevant(1, 0));  // R2(1,5) now irrelevant
  EXPECT_TRUE(index.IsRelevant(0, 1));
  EXPECT_EQ(index.Delete(1, 2), 1);
  EXPECT_EQ(index.alive_outputs(), 0);
}

TEST(ProvenanceTest, ProjectionProfitsCountDyingGroups) {
  // Q(A) :- R2(A,B), R3(B): output a dies only when all its rows die.
  const ConjunctiveQuery q = ParseQuery("Q(A) :- R2(A,B), R3(B)");
  const Database db = MakeDb(q, {{"R2", {{1, 10}, {1, 11}, {2, 10}}},
                                 {"R3", {{10}, {11}}}});
  ProvenanceIndex index(q.body(), q.head(), db);
  EXPECT_EQ(index.total_outputs(), 2);
  // Deleting R3(10) kills rows (1,10) and (2,10): output 2 dies, output 1
  // survives via (1,11).
  EXPECT_EQ(index.Profit(1, 0), 1);
  // Deleting R2(1,10) kills one of output 1's two rows: profit 0.
  EXPECT_EQ(index.Profit(0, 0), 0);
  EXPECT_EQ(index.Delete(1, 0), 1);
  // Now output 1 hangs on row (1,11) alone: R2(1,11) has profit 1.
  EXPECT_EQ(index.Profit(0, 1), 1);
  // And R2(1,10) is dead weight.
  EXPECT_FALSE(index.IsRelevant(0, 0));
}

TEST(ProvenanceTest, ProfitRisesAfterUnrelatedDeletion) {
  // Qswing: output 1 has rows (1,10) and (1,11). R3(10) shares no row with
  // R3(11), yet deleting R3(11) leaves R3(10) (and R2(1,10)) as the only
  // support of output 1.
  const ConjunctiveQuery q = ParseQuery("Q(A) :- R2(A,B), R3(B)");
  const Database db = MakeDb(q, {{"R2", {{1, 10}, {1, 11}}},
                                 {"R3", {{10}, {11}}}});
  ProvenanceIndex index(q.body(), q.head(), db);
  EXPECT_EQ(index.Profit(1, 0), 0);
  EXPECT_EQ(index.Profit(0, 0), 0);
  std::vector<std::pair<int, TupleId>> changed;
  EXPECT_EQ(index.Delete(1, 1, &changed), 0);
  EXPECT_EQ(index.Profit(1, 0), 1);
  EXPECT_EQ(index.Profit(0, 0), 1);
  // Both risers are reported as changed.
  auto reported = [&](int rel, TupleId t) {
    return std::find(changed.begin(), changed.end(),
                     std::make_pair(rel, t)) != changed.end();
  };
  EXPECT_TRUE(reported(1, 0));
  EXPECT_TRUE(reported(0, 0));
}

TEST(ProvenanceTest, DoubleDeleteIsIdempotent) {
  const ConjunctiveQuery q = ParseQuery("Q(A) :- R1(A)");
  const Database db = MakeDb(q, {{"R1", {{1}, {2}}}});
  ProvenanceIndex index(q.body(), q.head(), db);
  EXPECT_EQ(index.Delete(0, 0), 1);
  EXPECT_EQ(index.Delete(0, 0), 0);
  EXPECT_EQ(index.alive_outputs(), 1);
}

TEST(ProvenanceTest, BooleanQuerySingleGroup) {
  const ConjunctiveQuery q = ParseQuery("Q() :- R1(A), R2(A)");
  const Database db = MakeDb(q, {{"R1", {{1}, {2}}}, {"R2", {{1}, {2}}}});
  ProvenanceIndex index(q.body(), q.head(), db);
  EXPECT_EQ(index.total_outputs(), 1);
  // Deleting R1(1) leaves the (2,2) row: the single boolean output lives.
  EXPECT_EQ(index.Profit(0, 0), 0);
  index.Delete(0, 0);
  EXPECT_EQ(index.alive_outputs(), 1);
  EXPECT_EQ(index.Profit(0, 1), 1);
}

// After every step of a random deletion sequence S, each tuple's Profit is
// its exact marginal effect |Q(D-S)| - |Q(D-S-t)|, IsRelevant says whether
// it still supports a join row of D-S, and Delete reported every tuple
// whose answers changed.
enum class HeadKind { kFull, kProjected, kBoolean };

class ProvenanceInvariant : public ::testing::TestWithParam<HeadKind> {};

TEST_P(ProvenanceInvariant, HoldsAlongRandomDeletionSequences) {
  Rng rng(91 + static_cast<int>(GetParam()));
  int rises = 0;  // profits that grew after another tuple's deletion
  for (int iter = 0; iter < 16; ++iter) {
    ConjunctiveQuery q = iter < 2 ? ParseQuery("Q(A) :- R2(A,B), R3(B)")
                                  : RandomQuery(rng, 4, 3);
    const AttrSet all = q.all_attrs();
    const AttrSet rest = all.Minus(AttrSet::Of(*all.begin()));
    switch (GetParam()) {
      case HeadKind::kFull:
        q.SetHead(all);
        break;
      case HeadKind::kProjected:
        if (iter >= 2) {
          const AttrSet head = q.head().Intersect(rest);
          q.SetHead(head.Empty() ? rest : head);
        }
        break;
      case HeadKind::kBoolean:
        q.SetHead(AttrSet());
        break;
    }
    const Database db =
        RandomDb(q, rng, rng.UniformInt(4, 10), rng.UniformInt(2, 4));
    const int p = q.num_relations();
    ProvenanceIndex index(q.body(), q.head(), db);
    std::vector<std::vector<char>> removed(p);
    for (int i = 0; i < p; ++i) removed[i].assign(db.rel(i).size(), 0);
    auto count = [&](AttrSet head) {
      return static_cast<std::int64_t>(
          CountOutputs(q.body(), head, WithTuplesRemoved(db, removed)));
    };
    std::vector<std::vector<std::int64_t>> profit(p);
    std::vector<std::vector<char>> relevant(p);
    for (int step = 0; step < 6; ++step) {
      const std::int64_t alive = count(q.head());
      const std::int64_t rows = count(all);
      ASSERT_EQ(index.alive_outputs(), alive) << q.ToString();
      for (int i = 0; i < p; ++i) {
        profit[i].resize(db.rel(i).size(), 0);
        relevant[i].resize(db.rel(i).size(), 0);
        for (TupleId t = 0; t < db.rel(i).size(); ++t) {
          const char was = removed[i][t];
          removed[i][t] = 1;
          const std::int64_t want = alive - count(q.head());
          const bool live = rows - count(all) > 0;
          removed[i][t] = was;
          EXPECT_EQ(index.Profit(i, t), want)
              << q.ToString() << " R" << i + 1 << " t" << t << " step "
              << step;
          EXPECT_EQ(index.IsRelevant(i, t), live) << q.ToString();
          if (step > 0 && index.Profit(i, t) > profit[i][t]) ++rises;
          profit[i][t] = index.Profit(i, t);
          relevant[i][t] = index.IsRelevant(i, t);
        }
      }

      const int rel = static_cast<int>(rng.Uniform(p));
      if (db.rel(rel).empty()) continue;
      const TupleId t = static_cast<TupleId>(rng.Uniform(db.rel(rel).size()));
      std::vector<std::pair<int, TupleId>> changed;
      const std::int64_t died = index.Delete(rel, t, &changed);
      removed[rel][t] = 1;
      EXPECT_EQ(died, alive - count(q.head())) << q.ToString();
      for (int i = 0; i < p; ++i) {
        for (TupleId u = 0; u < db.rel(i).size(); ++u) {
          if (index.Profit(i, u) == profit[i][u] &&
              index.IsRelevant(i, u) == static_cast<bool>(relevant[i][u])) {
            continue;
          }
          EXPECT_NE(std::find(changed.begin(), changed.end(),
                              std::make_pair(i, u)),
                    changed.end())
              << q.ToString() << " R" << i + 1 << " t" << u;
        }
      }
    }
  }
  // Profits only fall under a full head (they count live rows); under a
  // projection or a Boolean head they can rise.
  if (GetParam() == HeadKind::kFull) {
    EXPECT_EQ(rises, 0);
  } else {
    EXPECT_GT(rises, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Heads, ProvenanceInvariant,
                         ::testing::Values(HeadKind::kFull,
                                           HeadKind::kProjected,
                                           HeadKind::kBoolean));

}  // namespace
}  // namespace adp
