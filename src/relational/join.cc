#include "relational/join.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "relational/group_index.h"
#include "util/saturating.h"

namespace adp {
namespace {

using Counts = std::vector<std::vector<std::int64_t>>;

// Chooses a join order over the body positions `pos` (returned as indices
// into `pos`): start from the smallest relation; repeatedly append the
// relation sharing the most attributes with what has been joined so far
// (ties broken by smaller instance), falling back to any remaining relation
// (cross product) when the relations are disconnected.
std::vector<int> JoinOrder(const std::vector<RelationSchema>& body,
                           const Database& db, const std::vector<int>& pos) {
  const int m = static_cast<int>(pos.size());
  auto size_of = [&](int i) { return db.rel(pos[i]).size(); };
  std::vector<int> order;
  std::vector<char> used(m, 0);
  int first = 0;
  for (int i = 1; i < m; ++i) {
    if (size_of(i) < size_of(first)) first = i;
  }
  order.push_back(first);
  used[first] = 1;
  AttrSet seen = body[pos[first]].attr_set();
  for (int step = 1; step < m; ++step) {
    int best = -1;
    int best_shared = -1;
    for (int i = 0; i < m; ++i) {
      if (used[i]) continue;
      int shared = body[pos[i]].attr_set().Intersect(seen).Size();
      if (shared > best_shared ||
          (shared == best_shared && size_of(i) < size_of(best))) {
        best = i;
        best_shared = shared;
      }
    }
    order.push_back(best);
    used[best] = 1;
    seen = seen.Union(body[pos[best]].attr_set());
  }
  return order;
}

// The natural join of the relations at body positions `pos`. Support column
// `i` of the result refers to relation `pos[i]`. Rows, intermediate or
// final, are support vectors; key codes are read through them.
JoinResult JoinPositions(const std::vector<RelationSchema>& body,
                         const Database& db, const std::vector<int>& pos) {
  const std::size_t p = pos.size();
  JoinResult result;
  result.num_relations = p;

  // An empty instance annihilates the join.
  for (int rel : pos) {
    if (db.rel(rel).empty()) return result;
  }

  // Start from one row with no columns; the first relation joins it as a
  // cross product.
  result.support.assign(p, 0);
  std::vector<TupleId> next;
  for (const int local : JoinOrder(body, db, pos)) {
    const RelationSchema& schema = body[pos[local]];
    const RelationInstance& inst = db.rel(pos[local]);
    const std::size_t rows = result.NumRows();

    // Shared attributes define the join key; new attributes get appended.
    std::vector<JoinResult::ColumnSource> key_left;  // read through a row
    std::vector<int> key_right;                      // columns of `inst`
    std::vector<const ColumnDict*> from, to;
    std::vector<JoinResult::ColumnSource> added;
    for (std::size_t c = 0; c < schema.attrs.size(); ++c) {
      const int col = result.ColumnOf(schema.attrs[c]);
      if (col < 0) {
        added.push_back({static_cast<std::size_t>(local), c, &inst});
        continue;
      }
      const JoinResult::ColumnSource& src = result.sources[col];
      key_left.push_back(src);
      key_right.push_back(static_cast<int>(c));
      from.push_back(&src.inst->dict(src.col));
      to.push_back(&inst.dict(c));
    }

    // Build: group the new relation's rows by their key codes. Probe: read
    // each row's key codes through its support and find their group.
    const HashGroupIndex build(inst, key_right);
    KeyProbe probe(&build, std::move(from), std::move(to), rows);
    next.clear();
    next.reserve(rows * p);
    auto code_of = [&](std::size_t r, std::size_t j) {
      const JoinResult::ColumnSource& k = key_left[j];
      return k.inst->CodeAt(result.support[r * p + k.rel], k.col);
    };
    probe.ForEachRow(rows, code_of, [&](std::size_t r, std::uint32_t g) {
      if (g == kNoGroup) return;
      const TupleId* sup = &result.support[r * p];
      for (TupleId t : build.rows(g)) {
        next.insert(next.end(), sup, sup + p);
        next[next.size() - p + local] = t;
      }
    });
    result.support.swap(next);
    for (const JoinResult::ColumnSource& src : added) {
      result.attrs.push_back(schema.attrs[src.col]);
      result.sources.push_back(src);
    }
  }
  return result;
}

// A join tree of one connected component, found by GYO ear removal: a
// relation is an ear when one other remaining relation (its parent) holds
// every attribute it shares with the rest. Every attribute's relations then
// form a connected subtree, which is what makes counts factor over edges.
struct JoinTree {
  // Body positions, children before parents; the root comes last.
  std::vector<int> order;
  // parent[i]: the body position of order[i]'s parent (-1 for the root).
  std::vector<int> parent;
};

// The join tree of `comp`, or nullopt when the component is cyclic. A
// `root` in `comp` is never removed as an ear, so it becomes the tree's
// root: an acyclic hypergraph of two or more relations has at least two
// ears (the leaves of any join tree), so another one is always left.
// Otherwise (-1) the root is the relation GYO removes last.
std::optional<JoinTree> BuildJoinTree(const std::vector<RelationSchema>& body,
                                      std::vector<int> comp, int root) {
  JoinTree tree;
  while (comp.size() > 1) {
    bool removed = false;
    for (std::size_t e = 0; e < comp.size() && !removed; ++e) {
      if (comp[e] == root) continue;
      AttrSet rest;
      for (std::size_t o = 0; o < comp.size(); ++o) {
        if (o != e) rest = rest.Union(body[comp[o]].attr_set());
      }
      const AttrSet shared = body[comp[e]].attr_set().Intersect(rest);
      for (std::size_t w = 0; w < comp.size(); ++w) {
        if (w == e || !shared.SubsetOf(body[comp[w]].attr_set())) continue;
        tree.order.push_back(comp[e]);
        tree.parent.push_back(comp[w]);
        comp.erase(comp.begin() + static_cast<std::ptrdiff_t>(e));
        removed = true;
        break;
      }
    }
    if (!removed) return std::nullopt;
  }
  tree.order.push_back(comp[0]);
  tree.parent.push_back(-1);
  return tree;
}

// One join-tree edge after the bottom-up pass: a key id per child row, the
// sum of the child's subtree counts per key id, and each parent row's key
// id. A key of one column over a dense child dictionary (DenseKey) is
// code-keyed: a child row's key id is its code in that column. Any other key
// groups the child's rows (HashGroupIndex), and a row's key id is its group.
struct TreeEdge {
  int child;
  int parent;
  int code_col = -1;  // the child's key column when code-keyed
  std::optional<HashGroupIndex> groups;  // set unless code-keyed
  std::vector<std::int64_t> sum;     // per key id
  std::vector<std::uint32_t> match;  // per parent row; kNoGroup = no match

  // Calls f(s, key id of row s) for every row s of the edge's child.
  template <typename F>
  void ForEachChildKey(const RelationInstance& child, F f) const {
    if (code_col >= 0) {
      for (std::size_t s = 0; s < child.size(); ++s) {
        f(s, child.CodeAt(s, code_col));
      }
    } else {
      for (std::size_t s = 0; s < child.size(); ++s) f(s, groups->group_of(s));
    }
  }
};

// The key id of every parent row on the key columns `pcols`/`ccols`
// (`groups` null: code-keyed), translated as the materializing join's probe
// does (KeyProbe).
std::vector<std::uint32_t> MatchParentRows(const RelationInstance& parent,
                                           const std::vector<int>& pcols,
                                           const RelationInstance& child,
                                           const std::vector<int>& ccols,
                                           const HashGroupIndex* groups) {
  std::vector<const ColumnDict*> from, to;
  for (std::size_t j = 0; j < pcols.size(); ++j) {
    from.push_back(&parent.dict(pcols[j]));
    to.push_back(&child.dict(ccols[j]));
  }
  KeyProbe probe(groups, std::move(from), std::move(to), parent.size());
  std::vector<std::uint32_t> match(parent.size());
  probe.ForEachRow(
      parent.size(),
      [&](std::size_t t, std::size_t j) { return parent.CodeAt(t, pcols[j]); },
      [&](std::size_t t, std::uint32_t g) { match[t] = g; });
  return match;
}

// Bottom-up pass: `up[i][t]` becomes the number of rows of the join of
// relation i's subtree that extend its tuple t. Returns the tree's edges,
// children before parents.
std::vector<TreeEdge> PropagateUp(const std::vector<RelationSchema>& body,
                                  const Database& db, const JoinTree& tree,
                                  Counts& up) {
  for (int i : tree.order) up[i].assign(db.rel(i).size(), 1);
  std::vector<TreeEdge> edges;
  edges.reserve(tree.order.size() - 1);
  for (std::size_t k = 0; k + 1 < tree.order.size(); ++k) {
    const int c = tree.order[k];
    const int pr = tree.parent[k];
    std::vector<int> ccols, pcols;
    for (AttrId a : body[c].attr_set().Intersect(body[pr].attr_set())) {
      ccols.push_back(body[c].ColumnOf(a));
      pcols.push_back(body[pr].ColumnOf(a));
    }
    const RelationInstance& child = db.rel(c);
    TreeEdge& e = edges.emplace_back();
    e.child = c;
    e.parent = pr;
    if (ccols.size() == 1 &&
        DenseKey(child.DistinctInColumn(ccols[0]), child.size())) {
      e.code_col = ccols[0];
      e.sum.assign(child.DistinctInColumn(e.code_col), 0);
    } else {
      e.groups.emplace(child, ccols);
      e.sum.assign(e.groups->num_groups(), 0);
    }
    const std::vector<std::int64_t>& up_c = up[c];
    e.ForEachChildKey(child, [&](std::size_t s, std::uint32_t key) {
      e.sum[key] = SatAdd(e.sum[key], up_c[s]);
    });
    e.match = MatchParentRows(db.rel(pr), pcols, child, ccols,
                              e.groups ? &*e.groups : nullptr);
    std::vector<std::int64_t>& up_pr = up[pr];
    for (std::size_t t = 0; t < up_pr.size(); ++t) {
      up_pr[t] = e.match[t] == kNoGroup ? 0 : SatMul(up_pr[t],
                                                     e.sum[e.match[t]]);
    }
  }
  return edges;
}

// Top-down pass: `down[i][t]` becomes the number of ways to extend tuple t
// of relation i to the relations outside i's subtree. A child's tuple is
// reached through the parent rows of its key, each extended outside the
// parent's subtree and through the parent's other children.
void PropagateDown(const Database& db, const JoinTree& tree,
                   const std::vector<TreeEdge>& edges, Counts& down) {
  const int root = tree.order.back();
  down[root].assign(db.rel(root).size(), 1);
  std::vector<std::int64_t> acc;
  std::vector<const TreeEdge*> siblings;
  for (std::size_t k = edges.size(); k-- > 0;) {
    const TreeEdge& e = edges[k];
    siblings.clear();
    for (const TreeEdge& f : edges) {
      if (f.parent == e.parent && &f != &e) siblings.push_back(&f);
    }
    const std::vector<std::int64_t>& down_pr = down[e.parent];
    acc.assign(e.sum.size(), 0);
    for (std::size_t t = 0; t < down_pr.size(); ++t) {
      if (e.match[t] == kNoGroup) continue;
      std::int64_t ways = down_pr[t];
      for (const TreeEdge* f : siblings) {
        ways = f->match[t] == kNoGroup ? 0 : SatMul(ways, f->sum[f->match[t]]);
      }
      acc[e.match[t]] = SatAdd(acc[e.match[t]], ways);
    }
    std::vector<std::int64_t>& down_c = down[e.child];
    down_c.resize(db.rel(e.child).size());
    e.ForEachChildKey(db.rel(e.child), [&](std::size_t s, std::uint32_t key) {
      down_c[s] = acc[key];
    });
  }
}

// Join rows of one acyclic component over its join tree, and the rows
// through each tuple of its relations that `reads` reads, into `per_tuple`
// (sized by the body when some position is read, else empty). The root's
// bottom-up counts are its per-tuple counts; the top-down pass runs only
// for a read relation below the root.
std::int64_t PropagateCounts(const std::vector<RelationSchema>& body,
                             const Database& db, const JoinTree& tree,
                             const CountReads& reads, Counts& per_tuple) {
  // The bottom-up counts go straight into `per_tuple` when it has room; an
  // unread relation's are dropped after.
  Counts local(per_tuple.empty() ? body.size() : 0);
  Counts& up = per_tuple.empty() ? local : per_tuple;
  const std::vector<TreeEdge> edges = PropagateUp(body, db, tree, up);
  const int root = tree.order.back();
  std::int64_t rows = 0;
  for (std::int64_t n : up[root]) rows = SatAdd(rows, n);
  Counts down;
  for (int i : tree.order) {
    if (!reads.Reads(i)) {
      std::vector<std::int64_t>().swap(up[i]);
    } else if (i != root) {
      if (down.empty()) {
        down.resize(body.size());
        PropagateDown(db, tree, edges, down);
      }
      for (std::size_t t = 0; t < up[i].size(); ++t) {
        up[i][t] = SatMul(up[i][t], down[i][t]);
      }
    }
  }
  return rows;
}

// Counts one connected component: its join rows and its distinct
// projections onto `head`, plus what `reads` asks for: the rows through each
// tuple of its read relations, into `per_tuple`, and the join. This is the
// one place that chooses the counting path: propagation over the
// component's join tree when it has one, for the rows of a full or Boolean
// head and for per-tuple counts; the materializing join for a component
// without a join tree (which sets `materialized`), for the distinct outputs
// of a head keeping some but not all of its attributes, and whenever the
// reads ask for joins, which the reader would otherwise build again. The
// join tree is rooted at the component's read relation when it has exactly
// one.
void CountComponent(const std::vector<RelationSchema>& body,
                    const Database& db, AttrSet head, const CountReads& reads,
                    JoinCounts::Component& comp, Counts& per_tuple,
                    bool& materialized) {
  AttrSet attrs;
  int read = 0;
  int last_read = -1;
  for (int i : comp.rels) {
    attrs = attrs.Union(body[i].attr_set());
    if (reads.Reads(i)) {
      ++read;
      last_read = i;
    }
  }
  const bool full = attrs.SubsetOf(head);
  const bool projected = !full && attrs.Intersects(head);
  const std::optional<JoinTree> tree =
      BuildJoinTree(body, comp.rels, read == 1 ? last_read : -1);
  const bool propagate = tree && !reads.joins && (!projected || read > 0);
  if (propagate) {
    comp.rows = PropagateCounts(body, db, *tree, reads, per_tuple);
  }
  if (!tree || projected || reads.joins) {
    JoinResult join = JoinPositions(body, db, comp.rels);
    comp.rows = static_cast<std::int64_t>(join.NumRows());
    if (!tree) materialized = true;
    if (!propagate) {
      for (std::size_t j = 0; j < comp.rels.size(); ++j) {
        const int i = comp.rels[j];
        if (!reads.Reads(i)) continue;
        per_tuple[i].assign(db.rel(i).size(), 0);
        for (std::size_t r = 0; r < join.NumRows(); ++r) {
          ++per_tuple[i][join.SupportOf(r, j)];
        }
      }
    }
    std::optional<JoinGroups> outputs;
    if (projected) {
      outputs = GroupJoinRows(join, head.Intersect(attrs));
      comp.outputs = static_cast<std::int64_t>(outputs->num_groups());
    }
    if (reads.joins) {
      comp.join = std::make_shared<const ComponentJoin>(
          ComponentJoin{std::move(join), std::move(outputs)});
    }
  }
  if (!projected) comp.outputs = full ? comp.rows : (comp.rows > 0 ? 1 : 0);
}

bool AnyEmpty(const std::vector<RelationSchema>& body, const Database& db) {
  for (std::size_t i = 0; i < body.size(); ++i) {
    if (db.rel(i).empty()) return true;
  }
  return false;
}

}  // namespace

int JoinResult::ColumnOf(AttrId a) const {
  for (std::size_t i = 0; i < attrs.size(); ++i) {
    if (attrs[i] == a) return static_cast<int>(i);
  }
  return -1;
}

Tuple JoinResult::Project(std::size_t row, AttrSet set) const {
  Tuple out;
  out.reserve(set.Size());
  for (AttrId a : set) out.push_back(ValueAt(row, ColumnOf(a)));
  return out;
}

JoinResult FullJoin(const std::vector<RelationSchema>& body,
                    const Database& db) {
  std::vector<int> all(body.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  return JoinPositions(body, db, all);
}

JoinGroups GroupJoinRows(const JoinResult& join, AttrSet key) {
  std::vector<int> cols;
  for (AttrId a : key) {
    const int c = join.ColumnOf(a);
    if (c >= 0) cols.push_back(c);
  }
  const std::size_t rows = join.NumRows();
  if (rows >= kNoGroup) throw std::length_error("join too large to group");
  JoinGroups groups;
  groups.group_of.resize(rows);
  GroupByCodes(
      rows, cols.size(),
      [&](std::size_t r, std::size_t j) { return join.CodeAt(r, cols[j]); },
      [&](std::size_t r, TupleId first) {
        if (first == r) {
          groups.group_of[r] = static_cast<std::uint32_t>(groups.num_groups());
          groups.first_row.push_back(first);
        } else {
          groups.group_of[r] = groups.group_of[first];
        }
      });
  return groups;
}

std::vector<std::int64_t> JoinCounts::RowsThrough(int rel) const {
  std::int64_t outside = 1;
  for (const Component& comp : components) {
    if (!std::binary_search(comp.rels.begin(), comp.rels.end(), rel)) {
      outside = SatMul(outside, comp.rows);
    }
  }
  std::vector<std::int64_t> rows = per_tuple[rel];
  if (outside != 1) {
    for (std::int64_t& n : rows) n = SatMul(n, outside);
  }
  return rows;
}

JoinCounts CountComponents(const std::vector<RelationSchema>& body,
                           AttrSet head, const Database& db,
                           const CountReads& reads) {
  JoinCounts counts;
  for (std::vector<int>& rels :
       BodyComponents(body, AttrSet::FirstN(kMaxAttrs))) {
    counts.components.push_back(JoinCounts::Component{std::move(rels)});
  }
  if (reads.rels != 0) counts.per_tuple.resize(body.size());
  // Joins are kept only when one join covers the body: no reader can use
  // the components' joins of a body with several.
  CountReads own = reads;
  own.joins = reads.joins && counts.components.size() == 1;
  bool empty = AnyEmpty(body, db);
  counts.rows = 1;
  counts.outputs = 1;
  for (JoinCounts::Component& comp : counts.components) {
    if (empty) break;
    CountComponent(body, db, head, own, comp, counts.per_tuple,
                   counts.materialized);
    empty = comp.rows == 0;
    counts.rows = SatMul(counts.rows, comp.rows);
    counts.outputs = SatMul(counts.outputs, comp.outputs);
  }
  if (empty) {
    // The join is empty, so every count is zero; the components after an
    // empty one were never counted.
    counts.rows = 0;
    counts.outputs = 0;
    for (JoinCounts::Component& comp : counts.components) {
      comp.rows = 0;
      comp.outputs = 0;
      comp.join.reset();
    }
    for (std::size_t i = 0; i < counts.per_tuple.size(); ++i) {
      if (reads.Reads(i)) counts.per_tuple[i].assign(db.rel(i).size(), 0);
    }
  }
  return counts;
}

std::uint64_t CountOutputs(const std::vector<RelationSchema>& body,
                           AttrSet head, const Database& db) {
  return static_cast<std::uint64_t>(
      CountComponents(body, head, db, CountReads{}).outputs);
}

}  // namespace adp
