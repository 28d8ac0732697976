// Join engine tests: the paper's Figure 1 instance, support/provenance,
// per-tuple row counts and dangling detection, plus a randomized sweep
// against the nested-loop oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "query/parser.h"
#include "relational/group_index.h"
#include "relational/join.h"
#include "relational/provenance.h"
#include "test_util.h"

namespace adp {
namespace {

using testing::DistinctOutputs;
using testing::MakeDb;
using testing::OracleCount;
using testing::OracleJoinRows;
using testing::OracleOutputs;
using testing::RandomDb;
using testing::RandomQuery;

// Figure 1: R1(A,B), R2(B,C), R3(C,E) with 10 tuples.
ConjunctiveQuery Fig1Query(const std::string& head) {
  return ParseQuery("Q(" + head + ") :- R1(A,B), R2(B,C), R3(C,E)");
}

Database Fig1Db(const ConjunctiveQuery& q) {
  // a_i -> 10+i, b_i -> 20+i, c_i -> 30+i, e_i -> 40+i.
  return MakeDb(q, {{"R1", {{11, 21}, {12, 22}, {13, 23}}},
                    {"R2", {{21, 31}, {22, 32}, {22, 33}, {23, 33}}},
                    {"R3", {{31, 41}, {32, 43}, {33, 43}}}});
}

TEST(JoinTest, Figure1FullJoinHasFourRows) {
  const ConjunctiveQuery q = Fig1Query("A,B,C,E");
  const Database db = Fig1Db(q);
  const JoinResult join = FullJoin(q.body(), db);
  EXPECT_EQ(join.NumRows(), 4u);
  EXPECT_EQ(CountOutputs(q.body(), q.head(), db), 4u);
}

TEST(JoinTest, Figure1ProjectionQ2HasThreeOutputs) {
  const ConjunctiveQuery q = Fig1Query("A,E");
  const Database db = Fig1Db(q);
  // Q2(D) = {(a1,e1), (a2,e3), (a3,e3)} — the (a2,*) duplicates collapse.
  EXPECT_EQ(CountOutputs(q.body(), q.head(), db), 3u);
  const std::vector<Tuple> outs = DistinctOutputs(q.body(), q.head(), db);
  const std::set<Tuple> got(outs.begin(), outs.end());
  const std::set<Tuple> want = {{11, 41}, {12, 43}, {13, 43}};
  EXPECT_EQ(got, want);
}

TEST(JoinTest, SupportIdentifiesContributingTuples) {
  const ConjunctiveQuery q = Fig1Query("A,B,C,E");
  const Database db = Fig1Db(q);
  const JoinResult join = FullJoin(q.body(), db);
  ASSERT_EQ(join.NumRows(), 4u);
  for (std::size_t r = 0; r < join.NumRows(); ++r) {
    // Reconstruct the row from its supports and compare attribute-wise.
    for (int rel = 0; rel < 3; ++rel) {
      const TupleId t = join.SupportOf(r, rel);
      const RelationSchema& schema = q.relation(rel);
      const Tuple& src = db.rel(rel).tuple(t);
      for (std::size_t c = 0; c < schema.attrs.size(); ++c) {
        const int col = join.ColumnOf(schema.attrs[c]);
        ASSERT_GE(col, 0);
        EXPECT_EQ(join.ValueAt(r, col), src[c]);
      }
    }
  }
}

TEST(JoinTest, RowsThroughEachTupleFigure1) {
  const ConjunctiveQuery q = Fig1Query("A,B,C,E");
  const Database db = Fig1Db(q);
  const JoinCounts counts =
      CountComponents(q.body(), q.all_attrs(), db, CountReads::AllRelations());
  EXPECT_EQ(counts.rows, 4);
  EXPECT_FALSE(counts.materialized);
  // Every tuple of Figure 1 participates in some join row; b2 fans out to
  // c2 and c3, and c3 is reached from both b2 and b3.
  EXPECT_EQ(counts.RowsThrough(0), (std::vector<std::int64_t>{1, 2, 1}));
  EXPECT_EQ(counts.RowsThrough(1), (std::vector<std::int64_t>{1, 1, 1, 1}));
  EXPECT_EQ(counts.RowsThrough(2), (std::vector<std::int64_t>{1, 1, 2}));
}

TEST(JoinTest, DanglingTupleCountsZeroRows) {
  const ConjunctiveQuery q = ParseQuery("Q(A,B) :- R1(A), R2(A,B)");
  const Database db = MakeDb(q, {{"R1", {{1}, {2}}},
                                 {"R2", {{1, 5}, {3, 6}}}});
  const JoinCounts counts =
      CountComponents(q.body(), q.all_attrs(), db, CountReads::AllRelations());
  EXPECT_EQ(counts.RowsThrough(0)[0], 1);  // R1(1) joins
  EXPECT_EQ(counts.RowsThrough(0)[1], 0);  // R1(2) dangling
  EXPECT_EQ(counts.RowsThrough(1)[0], 1);
  EXPECT_EQ(counts.RowsThrough(1)[1], 0);  // R2(3,6) dangling
}

TEST(JoinTest, EmptyRelationAnnihilates) {
  const ConjunctiveQuery q = ParseQuery("Q(A,B) :- R1(A), R2(A,B)");
  const Database db = MakeDb(q, {{"R1", {}}, {"R2", {{1, 2}}}});
  EXPECT_EQ(CountOutputs(q.body(), q.head(), db), 0u);
}

// An emptied instance annihilates the join before any column source is
// known: a projected head over it groups nothing and reads no column.
TEST(JoinTest, ProjectedHeadOverAnEmptiedInstance) {
  const ConjunctiveQuery q = ParseQuery("Q(A) :- R1(A,B), R2(B,C)");
  const Database db = MakeDb(q, {{"R1", {{1, 2}, {3, 4}}}, {"R2", {}}});
  const JoinResult join = FullJoin(q.body(), db);
  EXPECT_EQ(join.NumRows(), 0u);
  EXPECT_TRUE(join.attrs.empty());
  EXPECT_TRUE(join.sources.empty());
  EXPECT_EQ(GroupJoinRows(join, q.head()).num_groups(), 0u);
  EXPECT_TRUE(DistinctOutputs(q.body(), q.head(), db).empty());
  EXPECT_EQ(CountOutputs(q.body(), q.head(), db), 0u);
  const ProvenanceIndex index(q.body(), q.head(), db);
  EXPECT_EQ(index.total_outputs(), 0);
  EXPECT_FALSE(index.IsRelevant(0, 0));
}

TEST(JoinTest, CrossProductForDisconnectedBody) {
  const ConjunctiveQuery q = ParseQuery("Q(A,B) :- R1(A), R2(B)");
  const Database db = MakeDb(q, {{"R1", {{1}, {2}}}, {"R2", {{5}, {6}, {7}}}});
  EXPECT_EQ(CountOutputs(q.body(), q.head(), db), 6u);
}

TEST(JoinTest, VacuumRelationTrueJoinsAsIdentity) {
  const ConjunctiveQuery q = ParseQuery("Q(A) :- R1(A), R2()");
  Database db(2);
  db.Load(0, {{1}, {2}});
  db.rel(1).Add({});  // R2 = {∅} ("true")
  EXPECT_EQ(CountOutputs(q.body(), q.head(), db), 2u);
}

TEST(JoinTest, VacuumRelationFalseAnnihilates) {
  const ConjunctiveQuery q = ParseQuery("Q(A) :- R1(A), R2()");
  Database db(2);
  db.Load(0, {{1}, {2}});
  // R2 = ∅ ("false")
  EXPECT_EQ(CountOutputs(q.body(), q.head(), db), 0u);
}

TEST(JoinTest, BooleanHeadCountsZeroOrOne) {
  const ConjunctiveQuery q = ParseQuery("Q() :- R1(A), R2(A)");
  const Database yes = MakeDb(q, {{"R1", {{1}}}, {"R2", {{1}}}});
  const Database no = MakeDb(q, {{"R1", {{1}}}, {"R2", {{2}}}});
  EXPECT_EQ(CountOutputs(q.body(), q.head(), yes), 1u);
  EXPECT_EQ(CountOutputs(q.body(), q.head(), no), 0u);
}

TEST(JoinTest, SelfJoinKeyReuseAcrossColumns) {
  // Same attribute twice in different relations with swapped roles.
  const ConjunctiveQuery q = ParseQuery("Q(A,B,C) :- R1(A,B), R2(B,C)");
  const Database db = MakeDb(q, {{"R1", {{1, 2}, {2, 1}}},
                                 {"R2", {{1, 9}, {2, 8}}}});
  EXPECT_EQ(CountOutputs(q.body(), q.head(), db), 2u);
}

// --- HashGroupIndex (the columnar grouping/probe structure under the
// hash join, count propagation and PartitionByAttrs) ---

std::vector<TupleId> RowsOf(const HashGroupIndex& index, std::size_t g) {
  const auto rows = index.rows(g);
  return {rows.begin(), rows.end()};
}

TEST(HashGroupIndexTest, EmptyRelationHasNoGroupsAndAllProbesMiss) {
  RelationInstance inst;
  const HashGroupIndex index(inst, {});
  EXPECT_EQ(index.num_groups(), 0u);
  const Code probe[] = {0};
  EXPECT_EQ(index.FindByCodes(probe), -1);
}

TEST(HashGroupIndexTest, EmptyKeyColumnsPutAllRowsInOneGroup) {
  RelationInstance inst;
  inst.Add({1, 10});
  inst.Add({2, 20});
  inst.Add({3, 30});
  const HashGroupIndex index(inst, {});
  ASSERT_EQ(index.num_groups(), 1u);
  EXPECT_EQ(RowsOf(index, 0), (std::vector<TupleId>{0, 1, 2}));
  EXPECT_EQ(index.representative(0), 0u);
  EXPECT_EQ(index.FindByCodes(nullptr), 0);
}

TEST(HashGroupIndexTest, ConstantKeyColumnAlsoYieldsOneGroup) {
  RelationInstance inst;
  inst.Add({7, 1});
  inst.Add({7, 2});
  inst.Add({7, 3});
  const HashGroupIndex index(inst, {0});
  ASSERT_EQ(index.num_groups(), 1u);
  EXPECT_EQ(index.rows(0).size(), 3u);
  EXPECT_EQ(inst.ValueAt(index.representative(0), 0), 7);
}

TEST(HashGroupIndexTest, GroupsAreFirstSeenOrderWithAscendingRows) {
  RelationInstance inst;
  inst.Add({5, 1});
  inst.Add({9, 2});
  inst.Add({5, 3});
  inst.Add({9, 4});
  inst.Add({5, 5});
  const HashGroupIndex index(inst, {0});
  ASSERT_EQ(index.num_groups(), 2u);
  EXPECT_EQ(inst.ValueAt(index.representative(0), 0), 5);
  EXPECT_EQ(RowsOf(index, 0), (std::vector<TupleId>{0, 2, 4}));
  EXPECT_EQ(inst.ValueAt(index.representative(1), 0), 9);
  EXPECT_EQ(RowsOf(index, 1), (std::vector<TupleId>{1, 3}));
  EXPECT_EQ(index.representative(0), 0u);
  EXPECT_EQ(index.representative(1), 1u);
  for (TupleId r = 0; r < 5; ++r) EXPECT_EQ(index.group_of(r), r % 2);
}

// The same single-column data grouped two ways: a standalone instance,
// whose dictionary holds only its own values (the code-indexed array), and
// the same rows gathered from a root holding 10k values in that column
// (open addressing). Both must build the same index.
TEST(HashGroupIndexTest, DenseIndexMatchesHashedIndex) {
  const std::vector<Tuple> data = {{7, 0}, {3, 0}, {7, 1}, {9, 0},
                                   {3, 1}, {3, 2}, {12, 0}, {7, 2}};
  RelationInstance standalone;
  for (const Tuple& t : data) standalone.Add(t);
  // Root row j * 10000 + v holds (v, j).
  RelationInstance root;
  for (Value j = 0; j < 3; ++j) {
    for (Value v = 0; v < 10000; ++v) root.Add({v, j});
  }
  std::vector<TupleId> picked;
  for (const Tuple& t : data) {
    picked.push_back(static_cast<TupleId>(t[1] * 10000 + t[0]));
  }
  const RelationInstance gathered =
      RelationInstance::Gather(root, picked, {0, 1});
  ASSERT_TRUE(DenseKey(standalone.dict(0).size(), standalone.size()));
  ASSERT_FALSE(DenseKey(gathered.dict(0).size(), gathered.size()));

  const HashGroupIndex dense(standalone, {0});
  const HashGroupIndex hashed(gathered, {0});
  ASSERT_EQ(dense.num_groups(), 4u);
  ASSERT_EQ(hashed.num_groups(), dense.num_groups());
  for (std::size_t g = 0; g < dense.num_groups(); ++g) {
    EXPECT_EQ(gathered.ValueAt(hashed.representative(g), 0),
              standalone.ValueAt(dense.representative(g), 0));
    EXPECT_EQ(RowsOf(hashed, g), RowsOf(dense, g));
  }
  for (std::size_t r = 0; r < data.size(); ++r) {
    EXPECT_EQ(hashed.group_of(r), dense.group_of(r));
  }
  // Every code of either dictionary finds the same group as its value's
  // code in the other one, or none when the other lacks the value.
  auto expect_same_probe = [](const HashGroupIndex& a, const ColumnDict& in_a,
                              const HashGroupIndex& b, const ColumnDict& in_b) {
    for (std::size_t c = 0; c < in_a.size(); ++c) {
      const Code code = static_cast<Code>(c);
      const std::int64_t other = in_b.Lookup(in_a.values[c]);
      const Code other_code = static_cast<Code>(other);
      EXPECT_EQ(a.FindByCodes(&code),
                other < 0 ? -1 : b.FindByCodes(&other_code))
          << "value " << in_a.values[c];
    }
  };
  expect_same_probe(dense, standalone.dict(0), hashed, gathered.dict(0));
  expect_same_probe(hashed, gathered.dict(0), dense, standalone.dict(0));
  const Code past_dense[] = {static_cast<Code>(standalone.dict(0).size())};
  const Code past_hashed[] = {static_cast<Code>(gathered.dict(0).size())};
  EXPECT_EQ(dense.FindByCodes(past_dense), -1);
  EXPECT_EQ(hashed.FindByCodes(past_hashed), -1);
}

// Dictionary codes are assigned per column in first-intern order, so the
// same value generally has *different* codes in different relations — and
// the same code maps to different values. A probe must translate values
// through the build side's dictionary before calling FindByCodes; this
// test pins the collision scenario that would silently corrupt a join if
// codes were ever compared across relations directly.
TEST(HashGroupIndexTest, CrossRelationProbeRequiresDictionaryTranslation) {
  RelationInstance build;
  build.Add({100});  // code 0 -> 100
  build.Add({200});  // code 1 -> 200
  RelationInstance probe_side;
  probe_side.Add({200});  // code 0 -> 200: collides with build's code for 100
  probe_side.Add({300});  // code 1 -> 300: absent from the build side

  const HashGroupIndex index(build, {0});
  ASSERT_EQ(index.num_groups(), 2u);

  // Correct protocol: decode the probe row, re-encode via build's dict.
  const std::int64_t translated = build.dict(0).Lookup(probe_side.ValueAt(0, 0));
  ASSERT_GE(translated, 0);
  const Code probe_codes[] = {static_cast<Code>(translated)};
  const std::int64_t g = index.FindByCodes(probe_codes);
  ASSERT_GE(g, 0);
  EXPECT_EQ(build.ValueAt(index.representative(g), 0), 200);

  // The raw (untranslated) code would have found the *wrong* group.
  const Code raw[] = {probe_side.CodeAt(0, 0)};
  const std::int64_t wrong = index.FindByCodes(raw);
  ASSERT_GE(wrong, 0);
  EXPECT_NE(build.ValueAt(index.representative(wrong), 0), 200);

  // Values missing from the build dictionary are reported as absent
  // before any probe happens.
  EXPECT_EQ(build.dict(0).Lookup(probe_side.ValueAt(1, 0)), -1);
}

// Property: the hash-join engine agrees with the nested-loop oracle on
// random queries and instances.
class JoinOracleSweep : public ::testing::TestWithParam<int> {};

TEST_P(JoinOracleSweep, MatchesOracle) {
  Rng rng(1000 + GetParam());
  const ConjunctiveQuery q = RandomQuery(rng, 5, 4);
  const Database db = RandomDb(q, rng, 12, 4);
  const auto got = DistinctOutputs(q.body(), q.head(), db);
  const std::set<Tuple> got_set(got.begin(), got.end());
  EXPECT_EQ(got_set, OracleOutputs(q, db)) << q.ToString();
  EXPECT_EQ(static_cast<std::int64_t>(
                CountOutputs(q.body(), q.head(), db)),
            OracleCount(q, db));

  // The join's rows, as support, against the nested-loop join; every
  // column decodes to the value of the tuple it is read from.
  const JoinResult join = FullJoin(q.body(), db);
  const std::size_t p = join.num_relations;
  std::vector<std::vector<TupleId>> rows;
  for (std::size_t r = 0; r < join.NumRows(); ++r) {
    rows.emplace_back(join.support.begin() + r * p,
                      join.support.begin() + (r + 1) * p);
    for (int i = 0; i < q.num_relations(); ++i) {
      const RelationSchema& schema = q.relation(i);
      for (std::size_t c = 0; c < schema.attrs.size(); ++c) {
        ASSERT_EQ(join.ValueAt(r, join.ColumnOf(schema.attrs[c])),
                  db.rel(i).ValueAt(join.SupportOf(r, i), c))
            << q.ToString();
      }
    }
  }
  std::vector<std::vector<TupleId>> want = OracleJoinRows(q, db);
  std::sort(rows.begin(), rows.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(rows, want) << q.ToString();
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, JoinOracleSweep,
                         ::testing::Range(0, 60));

}  // namespace
}  // namespace adp
