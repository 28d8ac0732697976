// Join-free counting (relational/join.h): CountComponents' rows through
// each tuple and CountOutputs against the materializing join and the
// nested-loop oracle. Random bodies (vacuum relations, empty instances,
// disconnected and cyclic bodies) under full, Boolean and projected heads,
// with every relation read and under random read sets; fixed acyclic and
// cyclic shapes; code-keyed and hashed join-tree edges; the key translation
// on gathered sub-instances, for propagation and for the materializing
// join; and saturation.

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "query/graph.h"
#include "query/parser.h"
#include "relational/group_index.h"
#include "relational/join.h"
#include "test_util.h"
#include "util/saturating.h"
#include "workload/synthetic.h"

namespace adp {
namespace {

using testing::DistinctOutputs;
using testing::OracleCount;
using testing::OracleOutputs;
using testing::RandomDb;
using testing::RandomQuery;

using Counts = std::vector<std::vector<std::int64_t>>;

// Rows through each tuple, tallied over the materializing join's support.
Counts TalliedCounts(const ConjunctiveQuery& q, const Database& db) {
  const JoinResult join = FullJoin(q.body(), db);
  Counts tally(q.num_relations());
  for (int i = 0; i < q.num_relations(); ++i) {
    tally[i].assign(db.rel(i).size(), 0);
  }
  for (std::size_t r = 0; r < join.NumRows(); ++r) {
    for (int i = 0; i < q.num_relations(); ++i) {
      ++tally[i][join.SupportOf(r, i)];
    }
  }
  return tally;
}

// The full-head counting pass with the rows of the whole join through each
// tuple.
JoinCounts CountRowsThrough(const ConjunctiveQuery& q, const Database& db) {
  return CountComponents(q.body(), q.all_attrs(), db,
                         CountReads::AllRelations());
}

// Reads the per-tuple counts of the body positions in `rels` only.
CountReads ReadsOf(std::initializer_list<int> rels) {
  CountReads reads;
  for (int i : rels) reads.Add(static_cast<std::size_t>(i));
  return reads;
}

// Checks a pass under `reads` and `head` against the oracle: the rows and
// outputs, each read relation's rows through its tuples against the tally of
// the materializing join, no counts for an unread relation, and a kept join
// exactly when asked for. Returns whether the pass kept some join.
bool ExpectReadCountsMatchOracle(const ConjunctiveQuery& q, AttrSet head,
                                 const Database& db, const CountReads& reads,
                                 const Counts& tally) {
  ConjunctiveQuery under = q;
  under.SetHead(head);
  const JoinCounts counts = CountComponents(q.body(), head, db, reads);
  EXPECT_EQ(counts.rows,
            static_cast<std::int64_t>(FullJoin(q.body(), db).NumRows()))
      << q.ToString();
  EXPECT_EQ(counts.outputs, OracleCount(under, db)) << under.ToString();
  bool kept = false;
  for (int i = 0; i < q.num_relations(); ++i) {
    if (reads.Reads(static_cast<std::size_t>(i))) {
      EXPECT_EQ(counts.RowsThrough(i), tally[i]) << q.ToString() << " R" << i;
    } else {
      EXPECT_TRUE(counts.per_tuple.empty() || counts.per_tuple[i].empty())
          << q.ToString() << " R" << i;
    }
  }
  for (const JoinCounts::Component& comp : counts.components) {
    if (comp.join == nullptr) continue;
    kept = true;
    EXPECT_TRUE(reads.joins);
    EXPECT_EQ(counts.components.size(), 1u) << q.ToString();
    EXPECT_EQ(static_cast<std::int64_t>(comp.join->join.NumRows()),
              comp.rows);
    if (comp.join->outputs) {
      EXPECT_EQ(static_cast<std::int64_t>(comp.join->outputs->num_groups()),
                comp.outputs);
    }
  }
  return kept;
}

Counts RowsThroughEach(const JoinCounts& counts) {
  Counts rows(counts.per_tuple.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i] = counts.RowsThrough(static_cast<int>(i));
  }
  return rows;
}

// Checks the full-head counting pass against the materializing join and
// CountOutputs against the oracle under q's own head, the full head and the
// Boolean head. Returns whether the pass fell back to the materializing
// join.
bool ExpectCountsMatchOracle(ConjunctiveQuery q, const Database& db) {
  const JoinCounts counts = CountRowsThrough(q, db);
  EXPECT_EQ(counts.rows, static_cast<std::int64_t>(
                             FullJoin(q.body(), db).NumRows()))
      << q.ToString();
  EXPECT_EQ(RowsThroughEach(counts), TalliedCounts(q, db)) << q.ToString();
  for (const AttrSet head : {q.head(), q.all_attrs(), AttrSet()}) {
    q.SetHead(head);
    EXPECT_EQ(static_cast<std::int64_t>(CountOutputs(q.body(), head, db)),
              OracleCount(q, db))
        << q.ToString();
  }
  return counts.materialized;
}

TEST(JoinCountsTest, RandomBodiesMatchTheMaterializingJoin) {
  Rng rng(2024);
  int propagated = 0;
  int materialized = 0;
  int disconnected = 0;
  int with_vacuum = 0;
  int with_empty = 0;
  for (int iter = 0; iter < 500; ++iter) {
    const ConjunctiveQuery q =
        RandomQuery(rng, 5, 5, /*allow_vacuum=*/rng.Uniform(3) == 0);
    Database db = RandomDb(q, rng, 1 + static_cast<std::int64_t>(
                                           rng.Uniform(8)),
                           2 + static_cast<std::int64_t>(rng.Uniform(3)));
    if (rng.Uniform(10) == 0) {
      // Empty one instance (a vacuum one becomes "false").
      const int i = static_cast<int>(rng.Uniform(q.num_relations()));
      RelationInstance empty;
      empty.set_root_relation(i);
      db.rel(i) = std::move(empty);
      ++with_empty;
    }
    if (!IsConnected(q)) ++disconnected;
    for (const RelationSchema& r : q.body()) {
      if (r.vacuum()) {
        ++with_vacuum;
        break;
      }
    }
    ++(ExpectCountsMatchOracle(q, db) ? materialized : propagated);
  }
  // Both counting paths and every input kind were exercised.
  EXPECT_GE(propagated, 200);
  EXPECT_GE(materialized, 30);
  EXPECT_GE(disconnected, 50);
  EXPECT_GE(with_vacuum, 20);
  EXPECT_GE(with_empty, 20);
}

// Random bodies under random read sets and heads: each read relation's
// counts equal the oracle tally whatever the join tree's root (one read
// relation roots it), and an unread relation gets none.
TEST(JoinCountsTest, RandomReadSetsMatchTheOracleTally) {
  Rng rng(4049);
  int single_read = 0;
  int several_read = 0;
  int kept_joins = 0;
  for (int iter = 0; iter < 400; ++iter) {
    const ConjunctiveQuery q =
        RandomQuery(rng, 5, 5, /*allow_vacuum=*/rng.Uniform(4) == 0);
    Database db = RandomDb(q, rng, 1 + static_cast<std::int64_t>(
                                           rng.Uniform(8)),
                           2 + static_cast<std::int64_t>(rng.Uniform(3)));
    if (rng.Uniform(12) == 0) {
      const int i = static_cast<int>(rng.Uniform(q.num_relations()));
      RelationInstance empty;
      empty.set_root_relation(i);
      db.rel(i) = std::move(empty);
    }
    CountReads reads;
    int read = 0;
    for (int i = 0; i < q.num_relations(); ++i) {
      if (rng.Uniform(2) == 0) {
        reads.Add(static_cast<std::size_t>(i));
        ++read;
      }
    }
    reads.joins = rng.Uniform(2) == 0;
    (read == 1 ? single_read : several_read) += read > 0 ? 1 : 0;
    const Counts tally = TalliedCounts(q, db);
    for (const AttrSet head : {q.head(), q.all_attrs(), AttrSet()}) {
      kept_joins += ExpectReadCountsMatchOracle(q, head, db, reads, tally);
    }
  }
  EXPECT_GE(single_read, 80);
  EXPECT_GE(several_read, 150);
  EXPECT_GE(kept_joins, 50);
}

// Which path a join-tree edge takes: one key column over a dense child
// dictionary is code-keyed, any other key is hashed. The path R1(A,B),
// R2(B,C) has one edge, on B; reading one relation roots the tree there,
// so the other one is the edge's child.
TEST(JoinCountsTest, EdgesAreCodeKeyedOrHashed) {
  const ConjunctiveQuery q = ParseQuery("Q(A,B,C) :- R1(A,B), R2(B,C)");
  RelationInstance root;
  for (Value v = 0; v < 10000; ++v) root.Add({v, v % 4});
  Database db(2);
  // R1 is standalone, so dense on B; R2 is gathered over a 10k-value B.
  db.Load(0, {{0, 10}, {1, 20}, {1, 30}, {2, 20}, {3, 40}});
  db.rel(1) = RelationInstance::Gather(
      root, std::vector<TupleId>{20, 30, 40, 50}, {0, 1});
  ASSERT_TRUE(DenseKey(db.rel(0).dict(1).size(), db.rel(0).size()));
  ASSERT_FALSE(DenseKey(db.rel(1).dict(0).size(), db.rel(1).size()));
  const Counts tally = TalliedCounts(q, db);
  // Rooted at R2: the child R1 is code-keyed. Rooted at R1: the child R2 is
  // hashed. Both read, GYO's own root and the top-down pass.
  for (const CountReads& reads :
       {ReadsOf({1}), ReadsOf({0}), ReadsOf({0, 1})}) {
    ExpectReadCountsMatchOracle(q, q.head(), db, reads, tally);
  }
  EXPECT_EQ(CountComponents(q.body(), q.head(), db, ReadsOf({1})).per_tuple[1],
            (std::vector<std::int64_t>{2, 1, 1, 0}));

  // A two-column key is hashed whatever the dictionaries.
  const ConjunctiveQuery wide =
      ParseQuery("Q(A,B,C) :- R1(A,B), R2(A,B,C)");
  Database both(2);
  both.Load(0, {{0, 1}, {0, 2}, {1, 1}});
  both.Load(1, {{0, 1, 5}, {0, 1, 6}, {1, 1, 7}, {2, 2, 8}});
  const Counts wide_tally = TalliedCounts(wide, both);
  for (const CountReads& reads :
       {ReadsOf({1}), ReadsOf({0}), ReadsOf({0, 1})}) {
    ExpectReadCountsMatchOracle(wide, wide.head(), both, reads, wide_tally);
  }

  // A child code absent from the parent's dictionary, and a parent value
  // absent from the child's, match nothing on the code-keyed path.
  Database disjoint(2);
  disjoint.Load(0, {{0, 10}, {1, 20}});
  disjoint.Load(1, {{20, 1}, {99, 2}});
  ASSERT_TRUE(DenseKey(disjoint.rel(0).dict(1).size(),
                       disjoint.rel(0).size()));
  const JoinCounts counts =
      CountComponents(q.body(), q.head(), disjoint, ReadsOf({1}));
  EXPECT_EQ(counts.rows, 1);
  EXPECT_EQ(counts.per_tuple[1], (std::vector<std::int64_t>{1, 0}));
}

struct Shape {
  const char* name;
  ConjunctiveQuery query;
  bool cyclic;
};

TEST(JoinCountsTest, FixedShapesTakeTheirPathAndMatch) {
  const std::vector<Shape> shapes = {
      {"path", ParseQuery("Q(A,B,C,D) :- R1(A,B), R2(B,C), R3(C,D)"), false},
      {"star",
       ParseQuery("Q(K,X,Y,Z) :- R0(K), R1(K,X), R2(K,Y), R3(K,Z)"), false},
      {"q7", MakeQ7(), false},
      {"triangle", ParseQuery("Q(A,B,C) :- R1(A,B), R2(B,C), R3(C,A)"), true},
      {"4-cycle",
       ParseQuery("Q(A,B,C,D) :- R1(A,B), R2(B,C), R3(C,D), R4(D,A)"), true},
  };
  Rng rng(7);
  for (const Shape& shape : shapes) {
    for (int iter = 0; iter < 25; ++iter) {
      const Database db = RandomDb(shape.query, rng, 10, 3);
      EXPECT_EQ(ExpectCountsMatchOracle(shape.query, db), shape.cyclic)
          << shape.name;
    }
  }
}

// A Universe group: a few rows gathered from root relations whose key
// columns hold 10k values. The gathered instances share those dictionaries,
// so each has far more dictionary entries than rows.
TEST(JoinCountsTest, GatheredSubInstanceOverALargeDictionary) {
  const ConjunctiveQuery q = ParseQuery("Q(A,B,C) :- R1(A,B), R2(B,C)");
  RelationInstance root1;
  RelationInstance root2;
  for (Value v = 0; v < 10000; ++v) {
    root1.Add({v % 3, v});
    root2.Add({v, v % 5});
  }
  Database db(2);
  // R1 keeps B in {10, 20, 30}; R2 keeps B in {20, 30, 40}.
  db.rel(0) = RelationInstance::Gather(
      root1, std::vector<TupleId>{10, 20, 30}, {0, 1});
  db.rel(1) = RelationInstance::Gather(
      root2, std::vector<TupleId>{20, 30, 40}, {0, 1});
  ASSERT_GT(db.rel(0).dict(1).size(), db.rel(0).size());
  ASSERT_GT(db.rel(1).dict(0).size(), db.rel(1).size());

  const JoinCounts counts = CountRowsThrough(q, db);
  EXPECT_FALSE(counts.materialized);
  EXPECT_EQ(counts.rows, 2);
  EXPECT_EQ(counts.RowsThrough(0), (std::vector<std::int64_t>{0, 1, 1}));
  EXPECT_EQ(counts.RowsThrough(1), (std::vector<std::int64_t>{1, 1, 0}));
  EXPECT_FALSE(ExpectCountsMatchOracle(q, db));

  // Against a standalone instance with a dictionary of its own.
  Database mixed(2);
  mixed.rel(0) = RelationInstance::Gather(
      root1, std::vector<TupleId>{10, 20, 30}, {0, 1});
  mixed.Load(1, {{20, 1}, {30, 2}, {40, 3}});
  EXPECT_FALSE(ExpectCountsMatchOracle(q, mixed));

  // The join tree's edge runs from child R1 to parent R2 on B. Both sides
  // dense: standalone instances, whose dictionaries hold only their own
  // values, so the child is grouped through a code-indexed array and the
  // parent translated through a per-code table.
  Database dense(2);
  dense.Load(0, {{0, 10}, {1, 20}, {1, 30}, {2, 20}});
  dense.Load(1, {{20, 1}, {30, 2}, {40, 3}, {20, 4}});
  ASSERT_TRUE(DenseKey(dense.rel(0).dict(1).size(), dense.rel(0).size()));
  ASSERT_LE(dense.rel(1).dict(0).size(), dense.rel(1).size());
  EXPECT_FALSE(ExpectCountsMatchOracle(q, dense));

  // The child gathered over a larger dictionary (its array path off), under
  // a parent holding all of its own 10k values (translated per distinct
  // code).
  Database large_parent(2);
  large_parent.rel(0) = RelationInstance::Gather(
      root1, std::vector<TupleId>{10, 20, 30}, {0, 1});
  large_parent.rel(1) = root2;
  ASSERT_FALSE(DenseKey(large_parent.rel(0).dict(1).size(),
                        large_parent.rel(0).size()));
  ASSERT_LE(large_parent.rel(1).dict(0).size(), large_parent.rel(1).size());
  EXPECT_FALSE(ExpectCountsMatchOracle(q, large_parent));

  // Disjoint dictionaries: no parent value is in the child's, so every
  // translation misses and nothing joins.
  Database disjoint(2);
  disjoint.Load(0, {{0, 10}, {1, 20}, {1, 30}});
  disjoint.Load(1, {{11, 1}, {21, 2}, {31, 3}});
  EXPECT_FALSE(ExpectCountsMatchOracle(q, disjoint));
  EXPECT_EQ(CountRowsThrough(q, disjoint).rows, 0);

  // A projected head takes the materializing join and the grouping routine.
  // The join starts from R1 (ties go to the first relation), so R1's rows
  // probe R2 on B: through the per-row Lookup when R1 was gathered over
  // 10k values, through a table when its dictionary is its own.
  const ConjunctiveQuery projected =
      ParseQuery("Q(A,C) :- R1(A,B), R2(B,C)");
  const std::pair<const Database*, bool> inputs[] = {
      {&db, false}, {&mixed, false}, {&dense, true},
      {&large_parent, false}, {&disjoint, true}};
  for (const auto& [input, tabled] : inputs) {
    const RelationInstance& r1 = input->rel(0);
    EXPECT_EQ(TranslatesByTable(r1.dict(1).size(), r1.size()), tabled);
    EXPECT_EQ(static_cast<std::int64_t>(
                  CountOutputs(projected.body(), projected.head(), *input)),
              OracleCount(projected, *input));
    const std::vector<Tuple> outs =
        DistinctOutputs(projected.body(), projected.head(), *input);
    EXPECT_EQ(std::set<Tuple>(outs.begin(), outs.end()),
              OracleOutputs(projected, *input));
    EXPECT_EQ(outs.size(), OracleOutputs(projected, *input).size());
  }

  // The triangle over gathered sub-instances: cyclic, so materialized. The
  // join starts from R2, the smallest, whose B column holds 10k values, so
  // its rows probe R1 per row.
  const ConjunctiveQuery triangle =
      ParseQuery("Q(A,B,C) :- R1(A,B), R2(B,C), R3(C,A)");
  RelationInstance root3;
  for (Value v = 0; v < 10000; ++v) root3.Add({v, v % 3});
  Database cyclic(3);
  cyclic.rel(0) = RelationInstance::Gather(
      root1, std::vector<TupleId>{10, 20, 30, 31}, {0, 1});
  cyclic.rel(1) = RelationInstance::Gather(
      root2, std::vector<TupleId>{20, 30, 40}, {0, 1});
  cyclic.rel(2) = RelationInstance::Gather(
      root3, std::vector<TupleId>{0, 1, 2, 3, 4}, {0, 1});
  EXPECT_FALSE(
      TranslatesByTable(cyclic.rel(1).dict(0).size(), cyclic.rel(1).size()));
  EXPECT_TRUE(ExpectCountsMatchOracle(triangle, cyclic));
  EXPECT_GT(CountOutputs(triangle.body(), triangle.head(), cyclic), 0u);
  for (const char* head : {"A", "A,B"}) {
    const ConjunctiveQuery q_head =
        ParseQuery(std::string("Q(") + head + ") :- R1(A,B), R2(B,C), R3(C,A)");
    EXPECT_EQ(static_cast<std::int64_t>(
                  CountOutputs(q_head.body(), q_head.head(), cyclic)),
              OracleCount(q_head, cyclic))
        << head;
  }
}

// A star of `arms` arms of 2^13 rows each around a one-row hub. With
// `shared_key` the hub is R0(K) = {0} and every arm Ri(K, Xi) joins it on K,
// so the join tree is a chain of arms. Otherwise arm i joins on a hub column
// of its own, Ri(Ki, Xi) with R0(K1, ..., Kn) = {(0, ..., 0)}, so the hub is
// the parent of every arm and its count is one product over all arms.
std::pair<ConjunctiveQuery, Database> HugeStar(int arms, bool shared_key) {
  auto key = [&](int i) {
    return shared_key ? std::string("K") : "K" + std::to_string(i);
  };
  std::string hub;
  for (int i = 1; i <= (shared_key ? 1 : arms); ++i) {
    hub += (i > 1 ? "," : "") + key(i);
  }
  std::string text = "Q() :- R0(" + hub + ")";
  for (int i = 1; i <= arms; ++i) {
    text += ", R" + std::to_string(i) + "(" + key(i) + ",X" +
            std::to_string(i) + ")";
  }
  const ConjunctiveQuery q = ParseQuery(text);
  Database db(q.num_relations());
  db.rel(0).Add(Tuple(q.relation(0).attrs.size(), 0));
  for (int i = 1; i <= arms; ++i) {
    for (Value x = 0; x < (Value{1} << 13); ++x) {
      const Value row[] = {0, x};
      db.rel(i).AppendRow(row, 2);
    }
  }
  return {q, db};
}

TEST(JoinCountsTest, CountsSaturateWithoutOverflow) {
  for (const bool shared_key : {true, false}) {
    SCOPED_TRACE(shared_key ? "shared key" : "key per arm");
    // Five arms: |join| = 2^65. The hub tuple is in every row; an arm tuple
    // pairs with the other four arms, 2^52 rows.
    {
      auto [q, db] = HugeStar(5, shared_key);
      q.SetHead(q.all_attrs());
      EXPECT_EQ(CountOutputs(q.body(), q.head(), db),
                static_cast<std::uint64_t>(kMaxOutputs));
      const JoinCounts counts = CountRowsThrough(q, db);
      EXPECT_FALSE(counts.materialized);
      EXPECT_EQ(counts.rows, kMaxOutputs);
      EXPECT_EQ(counts.RowsThrough(0), std::vector<std::int64_t>{kMaxOutputs});
      for (int i = 1; i <= 5; ++i) {
        for (std::int64_t n : counts.RowsThrough(i)) {
          ASSERT_EQ(n, std::int64_t{1} << 52);
        }
      }
      q.SetHead(AttrSet());
      EXPECT_EQ(CountOutputs(q.body(), q.head(), db), 1u);
    }
    // Six arms: 2^65 rows through every arm tuple too, so every count
    // saturates.
    {
      const auto [q, db] = HugeStar(6, shared_key);
      const JoinCounts counts = CountRowsThrough(q, db);
      EXPECT_EQ(counts.rows, kMaxOutputs);
      for (const std::vector<std::int64_t>& rel : RowsThroughEach(counts)) {
        for (std::int64_t n : rel) ASSERT_EQ(n, kMaxOutputs);
      }
    }
  }
}

// Joins are kept only when one join covers the body. A disconnected body's
// components are counted as if no joins were asked for: none keeps its join
// (a reader could not use it), and the counts are a join-free pass's.
TEST(JoinCountsTest, DisconnectedBodyKeepsNoJoin) {
  const ConjunctiveQuery q =
      ParseQuery("Q() :- R(A,B), S(B,C), T(C,A), U(D)");
  Rng rng(11);
  const Database db = RandomDb(q, rng, 30, 4);
  CountReads reads;
  reads.joins = true;
  const JoinCounts counts = CountComponents(q.body(), q.head(), db, reads);
  ASSERT_EQ(counts.components.size(), 2u);
  ASSERT_GT(counts.rows, 0);
  for (const JoinCounts::Component& comp : counts.components) {
    EXPECT_EQ(comp.join, nullptr);
  }
  EXPECT_EQ(counts.WholeJoin(), nullptr);
  const JoinCounts plain =
      CountComponents(q.body(), q.head(), db, CountReads{});
  EXPECT_EQ(counts.rows, plain.rows);
  EXPECT_EQ(counts.outputs, plain.outputs);

  // The triangle alone is one component: its join is kept.
  const ConjunctiveQuery triangle =
      ParseQuery("Q() :- R(A,B), S(B,C), T(C,A)");
  Database tri;
  for (int i = 0; i < 3; ++i) tri.Append(db.rel(i));
  const JoinCounts kept =
      CountComponents(triangle.body(), triangle.head(), tri, reads);
  ASSERT_NE(kept.WholeJoin(), nullptr);
  EXPECT_EQ(static_cast<std::int64_t>(kept.WholeJoin()->join.NumRows()),
            kept.rows);
}

}  // namespace
}  // namespace adp
