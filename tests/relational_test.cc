// Unit tests for relational/: schemas, instances, origin tracking, the
// columnar storage surface (dictionaries, gathers, capacity), and database
// helpers.

#include <gtest/gtest.h>

#include <cstdint>

#include "relational/database.h"
#include "relational/relation.h"

namespace adp {
namespace {

// A root instance of `n` one-column rows {0}, ..., {n-1}: gathering its row
// r gives the derived row root origin r.
RelationInstance Numbered(Value n) {
  RelationInstance r;
  for (Value v = 0; v < n; ++v) r.Add({v});
  return r;
}

TEST(RelationSchemaTest, AttrSetAndColumns) {
  RelationSchema s{"R", {2, 0, 5}};
  EXPECT_EQ(s.attr_set(), AttrSet({0, 2, 5}));
  EXPECT_EQ(s.ColumnOf(2), 0);
  EXPECT_EQ(s.ColumnOf(0), 1);
  EXPECT_EQ(s.ColumnOf(5), 2);
  EXPECT_EQ(s.ColumnOf(7), -1);
  EXPECT_FALSE(s.vacuum());
}

TEST(RelationSchemaTest, Vacuum) {
  RelationSchema s{"V", {}};
  EXPECT_TRUE(s.vacuum());
  EXPECT_TRUE(s.attr_set().Empty());
}

TEST(RelationInstanceTest, IdentityOrigins) {
  RelationInstance r;
  r.Add({1, 2});
  r.Add({3, 4});
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.OriginOf(0), 0u);
  EXPECT_EQ(r.OriginOf(1), 1u);
}

TEST(RelationInstanceTest, ExplicitOrigins) {
  const RelationInstance r = RelationInstance::Gather(
      Numbered(10), std::vector<TupleId>{7, 9}, {0});
  EXPECT_EQ(r.OriginOf(0), 7u);
  EXPECT_EQ(r.OriginOf(1), 9u);
}

TEST(RelationInstanceTest, DedupKeepsFirstOrigin) {
  RelationInstance src;
  for (Value v = 0; v < 10; ++v) src.Add({v, -v});
  src.Add({1, 1});
  src.Add({2, 2});
  src.Add({1, 1});  // duplicate content
  RelationInstance r =
      RelationInstance::Gather(src, std::vector<TupleId>{10, 11, 12}, {0, 1});
  r.Dedup();
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.tuple(0), Tuple({1, 1}));
  EXPECT_EQ(r.OriginOf(0), 10u);
  EXPECT_EQ(r.OriginOf(1), 11u);
}

// One column over its own dictionary (the code-indexed grouping path) and a
// vacuum instance, whose rows all equal the empty tuple.
TEST(RelationInstanceTest, DedupKeepsFirstRowOfEachValue) {
  RelationInstance r;
  for (Value v : {5, 3, 5, 3, 7}) r.Add({v});
  r.Dedup();
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r.ValueAt(0, 0), 5);
  EXPECT_EQ(r.ValueAt(1, 0), 3);
  EXPECT_EQ(r.ValueAt(2, 0), 7);
  EXPECT_EQ(r.OriginOf(2), 4u);

  RelationInstance vacuum;
  for (int i = 0; i < 3; ++i) vacuum.Add({});
  vacuum.Dedup();
  EXPECT_EQ(vacuum.size(), 1u);
  EXPECT_EQ(vacuum.OriginOf(0), 0u);
}

TEST(RelationInstanceTest, DedupNoopWhenDistinct) {
  RelationInstance r;
  r.Add({1});
  r.Add({2});
  r.Dedup();
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.OriginOf(1), 1u);  // identity preserved
}

TEST(RelationInstanceTest, ColumnarAccessorsAgree) {
  RelationInstance r;
  r.Add({1, 10});
  r.Add({2, 10});
  r.Add({1, 20});
  EXPECT_EQ(r.arity(), 2u);
  EXPECT_EQ(r.ValueAt(1, 0), 2);
  EXPECT_EQ(r.ValueAt(2, 1), 20);
  EXPECT_EQ(r.tuple(2), Tuple({1, 20}));
  // Equal values share a code within a column; distinct values differ.
  EXPECT_EQ(r.CodeAt(0, 0), r.CodeAt(2, 0));
  EXPECT_NE(r.CodeAt(0, 0), r.CodeAt(1, 0));
}

TEST(RelationInstanceTest, DictionaryStatsAreExactDistinctCounts) {
  RelationInstance r;
  r.Add({1, 10});
  r.Add({2, 10});
  r.Add({1, 20});
  EXPECT_EQ(r.DistinctInColumn(0), 2u);  // {1, 2}
  EXPECT_EQ(r.DistinctInColumn(1), 2u);  // {10, 20}
  EXPECT_EQ(r.dict(0).size(), 2u);
  EXPECT_EQ(r.dict(0).Lookup(2), r.CodeAt(1, 0));
  EXPECT_EQ(r.dict(0).Lookup(999), -1);
}

TEST(RelationInstanceTest, GatherSharesDictsAndCarriesOrigins) {
  RelationInstance src;
  src.set_root_relation(5);
  src.Add({1, 10, 100});
  src.Add({2, 20, 200});
  src.Add({3, 30, 300});

  RelationInstance derived = RelationInstance::Gather(
      src, std::vector<TupleId>{2, 0}, {0, 2});  // rows 2,0; cols 0,2
  ASSERT_EQ(derived.size(), 2u);
  EXPECT_EQ(derived.root_relation(), 5);
  EXPECT_EQ(derived.tuple(0), Tuple({3, 300}));
  EXPECT_EQ(derived.tuple(1), Tuple({1, 100}));
  EXPECT_EQ(derived.OriginOf(0), 2u);
  EXPECT_EQ(derived.OriginOf(1), 0u);
  // The gather shared src's dictionaries: codes stay comparable.
  EXPECT_EQ(derived.CodeAt(0, 0), src.CodeAt(2, 0));
  // Appending to the derived instance copy-on-writes the shared dictionary:
  // the source's stats are unaffected.
  derived.Add({4, 400});
  EXPECT_EQ(src.DistinctInColumn(0), 3u);
  EXPECT_EQ(derived.DistinctInColumn(0), 4u);
}

// An empty root instance has no columns until its first row, so a gather
// of it has none either; it still takes the source's root relation.
TEST(RelationInstanceTest, GatherOfAnEmptyRootHasNoColumns) {
  RelationInstance src;
  src.set_root_relation(3);
  const RelationInstance derived =
      RelationInstance::Gather(src, std::vector<TupleId>{}, {0, 1});
  EXPECT_TRUE(derived.empty());
  EXPECT_EQ(derived.arity(), 0u);
  EXPECT_EQ(derived.root_relation(), 3);
}

TEST(RelationInstanceTest, CopyIsDeepForCodesAndCowForDicts) {
  RelationInstance a;
  a.Add({1});
  a.Add({2});
  RelationInstance b = a;
  b.Add({3});
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(a.DistinctInColumn(0), 2u);  // untouched by b's append
  EXPECT_EQ(b.DistinctInColumn(0), 3u);
  EXPECT_EQ(b.tuple(2), Tuple({3}));
}

TEST(RelationInstanceTest, AddPastMaxRowsThrows) {
  const std::uint64_t previous = RelationInstance::OverrideMaxRowsForTest(2);
  RelationInstance r;
  r.Add({1});
  r.Add({2});
  EXPECT_THROW(r.Add({3}), TupleLimitError);
  const Value row[] = {3};
  EXPECT_THROW(r.AppendRow(row, 1), TupleLimitError);
  EXPECT_THROW(
      RelationInstance::Gather(r, std::vector<TupleId>{0, 1, 0}, {0}),
      TupleLimitError);
  EXPECT_EQ(r.size(), 2u);  // failed appends left the instance untouched
  RelationInstance::OverrideMaxRowsForTest(previous);
  r.Add({3});  // ceiling restored
  EXPECT_EQ(r.size(), 3u);
}

TEST(DatabaseTest, RootRelationsNumbered) {
  Database db(3);
  EXPECT_EQ(db.num_relations(), 3u);
  EXPECT_EQ(db.rel(0).root_relation(), 0);
  EXPECT_EQ(db.rel(2).root_relation(), 2);
}

TEST(DatabaseTest, TotalTuples) {
  Database db(2);
  db.Load(0, {{1}, {2}});
  db.Load(1, {{1, 2}});
  EXPECT_EQ(db.TotalTuples(), 3u);
}

TEST(DatabaseTest, WithTuplesRemoved) {
  Database db(2);
  db.Load(0, {{1}, {2}, {3}});
  db.Load(1, {{4, 4}});
  std::vector<std::vector<char>> removed = {{0, 1, 0}, {0}};
  const Database after = WithTuplesRemoved(db, removed);
  EXPECT_EQ(after.rel(0).size(), 2u);
  EXPECT_EQ(after.rel(0).tuple(0), Tuple({1}));
  EXPECT_EQ(after.rel(0).tuple(1), Tuple({3}));
  // Origins must point at the root rows, not be renumbered.
  EXPECT_EQ(after.rel(0).OriginOf(1), 2u);
  EXPECT_EQ(after.rel(1).size(), 1u);
}

TEST(DatabaseTest, VacuumInstance) {
  Database db(1);
  db.rel(0).Add({});
  EXPECT_EQ(db.rel(0).size(), 1u);
  EXPECT_TRUE(db.rel(0).tuple(0).empty());
}

}  // namespace
}  // namespace adp
