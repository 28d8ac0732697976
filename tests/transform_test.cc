// Transform tests: attribute removal, head joins, decomposition, selection
// pushdown, Universe partitioning — all with origin-tracking checks.

#include <gtest/gtest.h>

#include <map>
#include <vector>

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

// A root instance of `rows` (duplicates dropped) for body position `rel`.
// With `large_dict` the rows are gathered from a root whose dictionaries
// first intern 100 values no other relation holds, so they are far larger
// than the instance (as in a Universe group's), and a key is translated per
// row rather than through a per-code table.
RelationInstance Instance(int rel, const std::vector<Tuple>& rows,
                          std::size_t arity, bool large_dict) {
  RelationInstance root;
  root.set_root_relation(rel);
  if (large_dict) {
    for (Value v = 100; v < 200; ++v) root.Add(Tuple(arity, v));
  }
  for (const Tuple& t : rows) root.Add(t);
  if (large_dict) {
    std::vector<TupleId> picked;
    for (std::size_t t = 100; t < root.size(); ++t) {
      picked.push_back(static_cast<TupleId>(t));
    }
    std::vector<int> all(arity);
    for (std::size_t c = 0; c < arity; ++c) all[c] = static_cast<int>(c);
    root = RelationInstance::Gather(root, picked, all);
  }
  root.Dedup();
  return root;
}

// Universe partitioning matches keys across relations whose dictionaries
// disagree: each relation interns the key values in the order its rows
// first show them, so one value generally has different codes in different
// relations. The groups, their ascending key order and every row's values
// and origin must equal a decoded-value oracle's: a std::map from each key
// to the rows holding it, keeping the keys found in every relation.
TEST(TransformTest, PartitionMatchesKeysAcrossDictionaries) {
  Rng rng(2027);
  int disagreeing = 0;
  int dropped_keys = 0;
  int with_empty = 0;
  int large = 0;
  for (int iter = 0; iter < 300; ++iter) {
    const bool two_keys = iter % 2 == 1;
    const ConjunctiveQuery q =
        two_keys ? ParseQuery("Q(A,B,C,D) :- R1(A,B,C), R2(B,A), R3(D,A,B)")
                 : ParseQuery("Q(A,C,D) :- R1(A,C), R2(A), R3(D,A)");
    AttrSet keys = AttrSet::Of(q.FindAttribute("A"));
    if (two_keys) keys.Add(q.FindAttribute("B"));
    const int p = q.num_relations();
    Database db;
    for (int i = 0; i < p; ++i) {
      const std::size_t arity = q.relation(i).attrs.size();
      std::vector<Tuple> rows(rng.Uniform(10));
      for (Tuple& t : rows) {
        for (std::size_t c = 0; c < arity; ++c) {
          t.push_back(static_cast<Value>(rng.Uniform(5)));
        }
      }
      if (rng.Uniform(10) == 0) rows.clear();
      const bool large_dict = rng.Uniform(3) == 0;
      large += large_dict ? 1 : 0;
      db.Append(Instance(i, rows, arity, large_dict));
    }

    // The oracle: key values -> the rows of each relation holding them.
    std::vector<std::vector<int>> key_cols(p), kept_cols(p);
    for (int i = 0; i < p; ++i) {
      const RelationSchema& schema = q.relation(i);
      for (AttrId a : keys) key_cols[i].push_back(schema.ColumnOf(a));
      for (std::size_t c = 0; c < schema.attrs.size(); ++c) {
        if (!keys.Contains(schema.attrs[c])) {
          kept_cols[i].push_back(static_cast<int>(c));
        }
      }
    }
    std::map<Tuple, std::vector<std::vector<TupleId>>> oracle;
    for (int i = 0; i < p; ++i) {
      const RelationInstance& inst = db.rel(i);
      with_empty += inst.empty() ? 1 : 0;
      for (std::size_t t = 0; t < inst.size(); ++t) {
        Tuple key;
        for (int c : key_cols[i]) key.push_back(inst.ValueAt(t, c));
        auto [it, inserted] = oracle.try_emplace(key);
        if (inserted) it->second.resize(p);
        it->second[i].push_back(static_cast<TupleId>(t));
        // The same value under another code in an earlier relation.
        for (int o = 0; o < i; ++o) {
          if (db.rel(o).empty()) continue;
          const std::int64_t code =
              db.rel(o).dict(key_cols[o][0]).Lookup(key[0]);
          if (code >= 0 && code != inst.CodeAt(t, key_cols[i][0])) {
            ++disagreeing;
          }
        }
      }
    }

    const std::vector<UniverseGroup> groups = PartitionByAttrs(q, db, keys);
    std::size_t g = 0;
    for (const auto& [key, rows] : oracle) {
      bool complete = true;
      for (const std::vector<TupleId>& r : rows) complete &= !r.empty();
      if (!complete) {
        ++dropped_keys;
        continue;
      }
      ASSERT_LT(g, groups.size()) << q.ToString();
      for (int i = 0; i < p; ++i) {
        const RelationInstance& part = groups[g].db.rel(i);
        const RelationInstance& inst = db.rel(i);
        EXPECT_EQ(part.root_relation(), i);
        ASSERT_EQ(part.size(), rows[i].size()) << "key " << key[0];
        for (std::size_t r = 0; r < part.size(); ++r) {
          const TupleId t = rows[i][r];
          EXPECT_EQ(part.OriginOf(r), inst.OriginOf(t));
          for (std::size_t c = 0; c < kept_cols[i].size(); ++c) {
            EXPECT_EQ(part.ValueAt(r, c), inst.ValueAt(t, kept_cols[i][c]));
          }
        }
      }
      ++g;
    }
    EXPECT_EQ(g, groups.size()) << q.ToString();
  }
  EXPECT_GT(disagreeing, 100);
  EXPECT_GT(dropped_keys, 100);
  EXPECT_GT(with_empty, 10);
  EXPECT_GT(large, 100);
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
