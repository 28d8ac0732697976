// Shared helpers for the adp test suite: declarative database construction,
// a naive nested-loop evaluation oracle, and random query / instance
// generators for property tests.

#ifndef ADP_TESTS_TEST_UTIL_H_
#define ADP_TESTS_TEST_UTIL_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "query/query.h"
#include "relational/database.h"
#include "relational/join.h"
#include "solver/restrictions.h"
#include "solver/solution.h"
#include "util/rng.h"

namespace adp::testing {

/// Builds a root database for `q` from rows keyed by relation name.
inline Database MakeDb(
    const ConjunctiveQuery& q,
    const std::map<std::string, std::vector<Tuple>>& rows) {
  Database db(q.num_relations());
  for (int i = 0; i < q.num_relations(); ++i) {
    auto it = rows.find(q.relation(i).name);
    if (it == rows.end()) continue;
    for (const Tuple& t : it->second) db.rel(i).Add(t);
  }
  return db;
}

/// `tuples`, given in the coordinates of `db` (body position, local row) as
/// SolveBooleanExact's cut and RunGreedyForCQ's picks are, in root
/// coordinates: they differ once Dedup has dropped rows, as in RandomDb.
inline std::vector<TupleRef> RootTuples(const Database& db,
                                        std::vector<TupleRef> tuples) {
  for (TupleRef& t : tuples) {
    const RelationInstance& inst = db.rel(static_cast<std::size_t>(t.relation));
    t = TupleRef{inst.root_relation(), inst.OriginOf(t.row)};
  }
  return tuples;
}

/// Oracle: evaluates Q(D) by brute-force nested loops (selections honored),
/// returning the set of distinct head projections.
inline std::set<Tuple> OracleOutputs(const ConjunctiveQuery& q,
                                     const Database& db) {
  std::set<Tuple> outputs;
  const int p = q.num_relations();
  std::vector<std::size_t> idx(p, 0);

  // Assignment of values to attributes, -1-marked via a presence mask.
  std::vector<Value> assign(kMaxAttrs, 0);

  // Recursive enumeration over tuples per relation.
  std::vector<int> order(p);
  for (int i = 0; i < p; ++i) order[i] = i;

  struct Frame {
    int rel;
    std::size_t next = 0;
  };

  // Simple recursive lambda.
  auto rec = [&](auto&& self, int depth, AttrSet bound) -> void {
    if (depth == p) {
      Tuple head;
      for (AttrId a : q.head()) head.push_back(assign[a]);
      outputs.insert(head);
      return;
    }
    const int rel = order[depth];
    const RelationSchema& schema = q.relation(rel);
    const RelationInstance& inst = db.rel(rel);
    for (std::size_t t = 0; t < inst.size(); ++t) {
      const Tuple& row = inst.tuple(t);
      bool ok = true;
      for (const Selection& s : q.selections()[rel]) {
        if (row[schema.ColumnOf(s.attr)] != s.value) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      for (std::size_t c = 0; c < schema.attrs.size() && ok; ++c) {
        const AttrId a = schema.attrs[c];
        if (bound.Contains(a) && assign[a] != row[c]) ok = false;
      }
      if (!ok) continue;
      AttrSet nbound = bound;
      std::vector<std::pair<AttrId, Value>> saved;
      for (std::size_t c = 0; c < schema.attrs.size(); ++c) {
        const AttrId a = schema.attrs[c];
        if (!bound.Contains(a)) {
          saved.emplace_back(a, assign[a]);
          assign[a] = row[c];
          nbound.Add(a);
        }
      }
      self(self, depth + 1, nbound);
      for (const auto& [a, v] : saved) assign[a] = v;
    }
  };
  rec(rec, 0, AttrSet());
  return outputs;
}

/// The distinct head projections of the full join, in first-seen order: one
/// per group of its rows.
inline std::vector<Tuple> DistinctOutputs(
    const std::vector<RelationSchema>& body, AttrSet head,
    const Database& db) {
  const JoinResult join = FullJoin(body, db);
  AttrSet all;
  for (AttrId a : join.attrs) all.Add(a);
  std::vector<Tuple> out;
  for (std::uint32_t r : GroupJoinRows(join, head).first_row) {
    out.push_back(join.Project(r, head.Intersect(all)));
  }
  return out;
}

/// Oracle: the rows of the natural join of q's body (selections not
/// applied), by nested loops over every choice of one tuple per relation
/// that agrees on shared attributes. Each row is its support: entry i is
/// the tuple of relation i.
inline std::vector<std::vector<TupleId>> OracleJoinRows(
    const ConjunctiveQuery& q, const Database& db) {
  const int p = q.num_relations();
  std::vector<std::vector<TupleId>> rows;
  std::vector<TupleId> support(p);
  auto agree = [&](int depth) {
    const RelationSchema& schema = q.relation(depth);
    for (int prev = 0; prev < depth; ++prev) {
      const RelationSchema& other = q.relation(prev);
      for (std::size_t c = 0; c < schema.attrs.size(); ++c) {
        const int oc = other.ColumnOf(schema.attrs[c]);
        if (oc >= 0 && db.rel(depth).ValueAt(support[depth], c) !=
                           db.rel(prev).ValueAt(support[prev], oc)) {
          return false;
        }
      }
    }
    return true;
  };
  auto rec = [&](auto&& self, int depth) -> void {
    if (depth == p) {
      rows.push_back(support);
      return;
    }
    for (std::size_t t = 0; t < db.rel(depth).size(); ++t) {
      support[depth] = static_cast<TupleId>(t);
      if (agree(depth)) self(self, depth + 1);
    }
  };
  if (p > 0) rec(rec, 0);
  return rows;
}

/// |Q(D)| by the oracle.
inline std::int64_t OracleCount(const ConjunctiveQuery& q,
                                const Database& db) {
  return static_cast<std::int64_t>(OracleOutputs(q, db).size());
}

/// Exact ADP optimum by exhaustive subset search over all input tuples
/// (oracle for solver tests). Returns the minimum number of deletions
/// removing >= k outputs, or -1 if infeasible.
inline std::int64_t OracleAdp(const ConjunctiveQuery& q, const Database& db,
                              std::int64_t k) {
  const std::int64_t total = OracleCount(q, db);
  if (k > total) return -1;
  if (k <= 0) return 0;
  struct Candidate {
    int rel;
    std::size_t row;
  };
  std::vector<Candidate> cands;
  for (int r = 0; r < q.num_relations(); ++r) {
    for (std::size_t t = 0; t < db.rel(r).size(); ++t) {
      cands.push_back({r, t});
    }
  }
  const int n = static_cast<int>(cands.size());
  for (int c = 1; c <= n; ++c) {
    std::vector<int> combo(c);
    for (int i = 0; i < c; ++i) combo[i] = i;
    while (true) {
      std::vector<std::vector<char>> removed(q.num_relations());
      for (int r = 0; r < q.num_relations(); ++r) {
        removed[r].assign(db.rel(r).size(), 0);
      }
      for (int i : combo) removed[cands[i].rel][cands[i].row] = 1;
      const Database after = WithTuplesRemoved(db, removed);
      if (total - OracleCount(q, after) >= k) return c;
      int i = c - 1;
      while (i >= 0 && combo[i] == n - (c - i)) --i;
      if (i < 0) break;
      ++combo[i];
      for (int jj = i + 1; jj < c; ++jj) combo[jj] = combo[jj - 1] + 1;
    }
  }
  return -1;
}

/// Random self-join-free CQ: up to `max_rels` relations over `num_attrs`
/// attributes, random head. Ensures every relation is nonempty-or-vacuum
/// and attribute sets are distinct (the paper's standing assumption).
inline ConjunctiveQuery RandomQuery(Rng& rng, int num_attrs, int max_rels,
                                    bool allow_vacuum = false) {
  ConjunctiveQuery q;
  for (int a = 0; a < num_attrs; ++a) {
    q.AddAttribute(std::string(1, static_cast<char>('A' + a)));
  }
  const int p = 1 + static_cast<int>(rng.Uniform(max_rels));
  std::set<std::uint64_t> used_sets;
  for (int i = 0; i < p; ++i) {
    for (int attempt = 0; attempt < 50; ++attempt) {
      AttrSet set;
      for (int a = 0; a < num_attrs; ++a) {
        if (rng.UniformDouble() < 0.45) set.Add(a);
      }
      if (set.Empty() && !allow_vacuum) continue;
      if (!used_sets.insert(set.mask()).second) continue;
      std::vector<AttrId> attrs;
      for (AttrId a : set) attrs.push_back(a);
      q.AddRelation("R" + std::to_string(i + 1), attrs);
      break;
    }
  }
  AttrSet head;
  for (AttrId a : q.all_attrs()) {
    if (rng.UniformDouble() < 0.5) head.Add(a);
  }
  q.SetHead(head);
  return q;
}

/// Protects each tuple of `db` with probability 1/4.
inline DeletionRestrictions RandomRestrictions(const Database& db, Rng& rng) {
  DeletionRestrictions restrictions;
  for (std::size_t i = 0; i < db.num_relations(); ++i) {
    for (TupleId t = 0; t < db.rel(i).size(); ++t) {
      if (rng.Uniform(4) == 0) restrictions.Protect(static_cast<int>(i), t);
    }
  }
  return restrictions;
}

/// Random small instance for `q`: each relation gets `rows` tuples over a
/// domain of `domain` values.
inline Database RandomDb(const ConjunctiveQuery& q, Rng& rng,
                         std::int64_t rows, std::int64_t domain) {
  Database db(q.num_relations());
  for (int i = 0; i < q.num_relations(); ++i) {
    const std::size_t arity = q.relation(i).attrs.size();
    if (arity == 0) {
      db.rel(i).Add({});  // vacuum instance {∅}
      continue;
    }
    for (std::int64_t t = 0; t < rows; ++t) {
      Tuple row(arity);
      for (std::size_t c = 0; c < arity; ++c) {
        row[c] = static_cast<Value>(rng.Uniform(domain));
      }
      db.rel(i).Add(std::move(row));
    }
    db.rel(i).Dedup();
  }
  return db;
}

}  // namespace adp::testing

#endif  // ADP_TESTS_TEST_UTIL_H_
