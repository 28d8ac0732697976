// Transform tests: attribute removal, head joins, decomposition, selection
// pushdown, Universe partitioning — all with origin-tracking checks.

#include <gtest/gtest.h>

#include "query/parser.h"
#include "query/transform.h"
#include "relational/join.h"
#include "test_util.h"

namespace adp {
namespace {

using testing::MakeDb;
using testing::OracleCount;

TEST(TransformTest, RemoveAttributesFromSchemasAndHead) {
  const ConjunctiveQuery q = ParseQuery("Q(A,B) :- R1(A,B), R2(B,C)");
  const AttrId b = q.FindAttribute("B");
  const ConjunctiveQuery r = RemoveAttributes(q, AttrSet::Of(b));
  EXPECT_EQ(r.relation(0).attrs.size(), 1u);
  EXPECT_EQ(r.relation(1).attrs.size(), 1u);
  EXPECT_FALSE(r.head().Contains(b));
  EXPECT_EQ(r.head().Size(), 1);
  // Catalog ids remain stable.
  EXPECT_EQ(r.FindAttribute("A"), q.FindAttribute("A"));
}

TEST(TransformTest, HeadJoinDropsExistentialAttrs) {
  // Example 5's head join: Q1(A,C,F) over R1(A,C), R2(B), R3(B,C), R4(C,E,F)
  // becomes R1(A,C), R2(), R3(C), R4(C,F).
  const ConjunctiveQuery q =
      ParseQuery("Q(A,C,F) :- R1(A,C), R2(B), R3(B,C), R4(C,E,F)");
  const ConjunctiveQuery hj = HeadJoin(q);
  EXPECT_EQ(hj.relation(0).attrs.size(), 2u);
  EXPECT_TRUE(hj.relation(1).vacuum());
  EXPECT_EQ(hj.relation(2).attrs.size(), 1u);
  EXPECT_EQ(hj.relation(3).attrs.size(), 2u);
}

TEST(TransformTest, DecomposeQueryComponents) {
  const ConjunctiveQuery q =
      ParseQuery("Q(A,B,C) :- R1(A), R2(A,B), R3(C)");
  const auto subs = DecomposeQuery(q);
  ASSERT_EQ(subs.size(), 2u);
  EXPECT_EQ(subs[0].parent_relation, (std::vector<int>{0, 1}));
  EXPECT_EQ(subs[1].parent_relation, (std::vector<int>{2}));
  // Subquery heads restrict to their own attributes.
  EXPECT_EQ(subs[0].query.head().Size(), 2);
  EXPECT_EQ(subs[1].query.head().Size(), 1);
}

TEST(TransformTest, SubDatabaseAlignsInstances) {
  const ConjunctiveQuery q =
      ParseQuery("Q(A,B,C) :- R1(A), R2(A,B), R3(C)");
  const Database db = MakeDb(q, {{"R1", {{1}}},
                                 {"R2", {{1, 2}}},
                                 {"R3", {{9}, {8}}}});
  const auto subs = DecomposeQuery(q);
  const Database sub_db = SubDatabase(subs[1].parent_relation, db);
  ASSERT_EQ(sub_db.num_relations(), 1u);
  EXPECT_EQ(sub_db.rel(0).size(), 2u);
  EXPECT_EQ(sub_db.rel(0).root_relation(), 2);  // points at root R3
}

TEST(TransformTest, ApplySelectionsFiltersAndStrips) {
  const ConjunctiveQuery q = ParseQuery("Q(A,B) :- R1(A), R2(A,B=5)");
  const Database db = MakeDb(q, {{"R1", {{1}, {2}}},
                                 {"R2", {{1, 5}, {1, 6}, {2, 5}}}});
  const QueryDb out = ApplySelections(q, db);
  EXPECT_FALSE(out.query.HasSelections());
  // B stripped from schema and head.
  EXPECT_EQ(out.query.relation(1).attrs.size(), 1u);
  EXPECT_FALSE(out.query.head().Contains(q.FindAttribute("B")));
  // Only B=5 rows survive, projected to (A).
  ASSERT_EQ(out.db.rel(1).size(), 2u);
  EXPECT_EQ(out.db.rel(1).tuple(0), Tuple({1}));
  EXPECT_EQ(out.db.rel(1).tuple(1), Tuple({2}));
  // Origins point at the root rows 0 and 2.
  EXPECT_EQ(out.db.rel(1).OriginOf(0), 0u);
  EXPECT_EQ(out.db.rel(1).OriginOf(1), 2u);
}

TEST(TransformTest, ApplySelectionsPreservesOutputCount) {
  // Lemma 12: |σθQ(D)| computed directly equals |Q'(D')| on the residual.
  const ConjunctiveQuery q =
      ParseQuery("Q(A,B,C) :- R1(A,B), R2(B,C=3)");
  Rng rng(5);
  const Database db = testing::RandomDb(q, rng, 30, 4);
  const QueryDb out = ApplySelections(q, db);
  EXPECT_EQ(OracleCount(q, db),
            static_cast<std::int64_t>(CountOutputs(
                out.query.body(), out.query.head(), out.db)));
}

TEST(TransformTest, PartitionByAttrsSplitsAndProjects) {
  const ConjunctiveQuery q = ParseQuery("Q(A,B) :- R1(A,B), R2(A)");
  const AttrId a = q.FindAttribute("A");
  const Database db = MakeDb(q, {{"R1", {{1, 5}, {1, 6}, {2, 7}}},
                                 {"R2", {{1}, {2}, {3}}}});
  const auto groups = PartitionByAttrs(q, db, AttrSet::Of(a));
  // Key 3 has no R1 rows -> dropped. Keys 1 and 2 survive, in ascending
  // key order, which their rows' root origins show.
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].db.rel(0).size(), 2u);  // (5), (6)
  EXPECT_EQ(groups[0].db.rel(1).size(), 1u);  // ()
  EXPECT_TRUE(groups[0].db.rel(1).tuple(0).empty());
  // Key 1: R1 rows 0 and 1, R2 row 0.
  EXPECT_EQ(groups[0].db.rel(0).OriginOf(0), 0u);
  EXPECT_EQ(groups[0].db.rel(0).OriginOf(1), 1u);
  EXPECT_EQ(groups[0].db.rel(1).OriginOf(0), 0u);
  // Key 2: R1 row 2, R2 row 1.
  ASSERT_EQ(groups[1].db.rel(0).size(), 1u);
  EXPECT_EQ(groups[1].db.rel(0).OriginOf(0), 2u);
  EXPECT_EQ(groups[1].db.rel(1).OriginOf(0), 1u);
}

TEST(TransformTest, PartitionCoversAllOutputs) {
  // Sum of group outputs == |Q(D)|.
  const ConjunctiveQuery q = ParseQuery("Q(A,B,C) :- R1(A,B), R2(A,C)");
  Rng rng(17);
  const Database db = testing::RandomDb(q, rng, 25, 5);
  const AttrId a = q.FindAttribute("A");
  const ConjunctiveQuery residual = RemoveAttributes(q, AttrSet::Of(a));
  std::int64_t total = 0;
  for (const auto& g : PartitionByAttrs(q, db, AttrSet::Of(a))) {
    total += static_cast<std::int64_t>(
        CountOutputs(residual.body(), residual.head(), g.db));
  }
  EXPECT_EQ(total, OracleCount(q, db));
}

TEST(TransformTest, RestrictToKeepsSelections) {
  const ConjunctiveQuery q =
      ParseQuery("Q(A,C) :- R1(A,B=2), R2(C)");
  const Subquery sub = RestrictTo(q, {0});
  EXPECT_TRUE(sub.query.HasSelections());
  EXPECT_EQ(sub.query.num_relations(), 1);
}

}  // namespace
}  // namespace adp
