#include "relational/join.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <unordered_set>

#include "relational/group_index.h"
#include "util/hash.h"
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
// `i` of the result refers to relation `pos[i]`.
JoinResult JoinPositions(const std::vector<RelationSchema>& body,
                         const Database& db, const std::vector<int>& pos,
                         bool with_support) {
  const std::size_t p = pos.size();
  JoinResult result;
  result.num_relations = p;

  // An empty instance annihilates the join.
  for (int rel : pos) {
    if (db.rel(rel).empty()) return result;
  }

  const std::vector<int> order = JoinOrder(body, db, pos);

  // Seed with the first relation (materialized row-major: intermediate join
  // results are wide and short-lived, so they stay rows).
  {
    const int l0 = order[0];
    result.attrs = body[pos[l0]].attrs;
    const RelationInstance& inst = db.rel(pos[l0]);
    result.rows.reserve(inst.size());
    for (std::size_t t = 0; t < inst.size(); ++t) {
      result.rows.push_back(inst.tuple(t));
    }
    if (with_support) {
      result.support.assign(result.rows.size() * p, 0);
      for (std::size_t i = 0; i < result.rows.size(); ++i) {
        result.support[i * p + l0] = static_cast<TupleId>(i);
      }
    }
  }

  for (std::size_t step = 1; step < p; ++step) {
    const int local = order[step];
    const RelationSchema& schema = body[pos[local]];
    const RelationInstance& inst = db.rel(pos[local]);

    // Shared attributes define the join key; new attributes get appended.
    AttrSet cur_set;
    for (AttrId a : result.attrs) cur_set.Add(a);
    const AttrSet shared = cur_set.Intersect(schema.attr_set());

    std::vector<int> key_cols_left;   // column positions in current rows
    std::vector<int> key_cols_right;  // column positions in `inst` tuples
    for (AttrId a : shared) {
      key_cols_left.push_back(result.ColumnOf(a));
      key_cols_right.push_back(schema.ColumnOf(a));
    }
    std::vector<int> new_cols;  // columns of `inst` not yet in the join
    std::vector<AttrId> new_attrs;
    for (std::size_t c = 0; c < schema.attrs.size(); ++c) {
      if (!shared.Contains(schema.attrs[c])) {
        new_cols.push_back(static_cast<int>(c));
        new_attrs.push_back(schema.attrs[c]);
      }
    }

    // Build: group the new relation's rows by their key-code combination —
    // no key tuples are materialized, collisions resolve by 32-bit code
    // compares against each group's representative row.
    const HashGroupIndex build(inst, key_cols_right);

    // Probe: translate each current row's key values into `inst`'s
    // dictionary codes (a value absent from a dictionary cannot match any
    // row, so the probe short-circuits), then look the code combination up.
    std::vector<Tuple> next_rows;
    std::vector<TupleId> next_support;
    next_rows.reserve(result.rows.size());
    std::vector<Code> probe(key_cols_left.size());
    for (std::size_t r = 0; r < result.rows.size(); ++r) {
      const Tuple& row = result.rows[r];
      bool translatable = true;
      for (std::size_t j = 0; j < key_cols_left.size(); ++j) {
        const std::int64_t code =
            inst.dict(key_cols_right[j]).Lookup(row[key_cols_left[j]]);
        if (code < 0) {
          translatable = false;
          break;
        }
        probe[j] = static_cast<Code>(code);
      }
      if (!translatable) continue;
      const std::int64_t g = build.FindByCodes(probe.data());
      if (g < 0) continue;
      for (TupleId t : build.rows(static_cast<std::size_t>(g))) {
        Tuple out = row;
        for (int c : new_cols) out.push_back(inst.ValueAt(t, c));
        next_rows.push_back(std::move(out));
        if (with_support) {
          const std::size_t base = next_support.size();
          next_support.resize(base + p);
          std::copy(result.support.begin() + r * p,
                    result.support.begin() + (r + 1) * p,
                    next_support.begin() + base);
          next_support[base + local] = t;
        }
      }
    }

    result.rows = std::move(next_rows);
    result.support = std::move(next_support);
    for (AttrId a : new_attrs) result.attrs.push_back(a);
  }

  return result;
}

// Connected components of the body, as ascending lists of body positions.
// Relations connect when they share an attribute, so every vacuum relation
// is a component of its own.
std::vector<std::vector<int>> Components(
    const std::vector<RelationSchema>& body) {
  const int p = static_cast<int>(body.size());
  std::vector<std::vector<int>> comps;
  std::vector<char> seen(p, 0);
  for (int start = 0; start < p; ++start) {
    if (seen[start]) continue;
    seen[start] = 1;
    std::vector<int>& comp = comps.emplace_back(1, start);
    for (std::size_t k = 0; k < comp.size(); ++k) {
      const AttrSet attrs = body[comp[k]].attr_set();
      for (int v = 0; v < p; ++v) {
        if (!seen[v] && attrs.Intersects(body[v].attr_set())) {
          seen[v] = 1;
          comp.push_back(v);
        }
      }
    }
    std::sort(comp.begin(), comp.end());
  }
  return comps;
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

// The join tree of `comp`, or nullopt when the component is cyclic.
std::optional<JoinTree> BuildJoinTree(const std::vector<RelationSchema>& body,
                                      std::vector<int> comp) {
  JoinTree tree;
  while (comp.size() > 1) {
    bool removed = false;
    for (std::size_t e = 0; e < comp.size() && !removed; ++e) {
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

constexpr std::uint32_t kNoGroup = std::numeric_limits<std::uint32_t>::max();

// One join-tree edge after the bottom-up pass: the child's rows grouped by
// the edge key (the attributes child and parent share), the sum of the
// child's subtree counts per group, and each parent row's child group.
struct TreeEdge {
  int child;
  int parent;
  HashGroupIndex groups;
  std::vector<std::int64_t> sum;     // per child group
  std::vector<std::uint32_t> match;  // per parent row; kNoGroup = no match
};

// The child group of every parent row on the key columns `pcols`/`ccols`.
// Parent key values are translated into the child's dictionary codes, as
// the materializing join's probe does (a value absent from a dictionary
// matches no child row). On a single-column key whose parent dictionary has
// no more entries than the parent has rows, each distinct parent code is
// translated once into a table, and a parent row's match is one read of it:
// never more translations than rows. Otherwise (a gathered parent over a
// larger shared dictionary, or a wider key) every parent row is translated
// on its own.
std::vector<std::uint32_t> MatchParentRows(const RelationInstance& parent,
                                           const std::vector<int>& pcols,
                                           const RelationInstance& child,
                                           const std::vector<int>& ccols,
                                           const HashGroupIndex& groups) {
  std::vector<std::uint32_t> match(parent.size(), kNoGroup);
  if (pcols.size() == 1 && parent.dict(pcols[0]).size() <= parent.size()) {
    const ColumnDict& from = parent.dict(pcols[0]);
    const ColumnDict& to = child.dict(ccols[0]);
    std::vector<std::uint32_t> group_of_code(from.size(), kNoGroup);
    for (std::size_t c = 0; c < from.size(); ++c) {
      const std::int64_t code = to.Lookup(from.values[c]);
      if (code < 0) continue;
      const Code probe = static_cast<Code>(code);
      const std::int64_t g = groups.FindByCodes(&probe);
      if (g >= 0) group_of_code[c] = static_cast<std::uint32_t>(g);
    }
    for (std::size_t t = 0; t < parent.size(); ++t) {
      match[t] = group_of_code[parent.CodeAt(t, pcols[0])];
    }
    return match;
  }
  std::vector<Code> probe(pcols.size());
  for (std::size_t t = 0; t < parent.size(); ++t) {
    bool present = true;
    for (std::size_t j = 0; j < pcols.size() && present; ++j) {
      const std::int64_t code =
          child.dict(ccols[j]).Lookup(parent.ValueAt(t, pcols[j]));
      present = code >= 0;
      probe[j] = static_cast<Code>(code);
    }
    if (!present) continue;
    const std::int64_t g = groups.FindByCodes(probe.data());
    if (g >= 0) match[t] = static_cast<std::uint32_t>(g);
  }
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
    TreeEdge& e = edges.emplace_back(
        TreeEdge{c, pr, HashGroupIndex(child, ccols), {}, {}});
    e.sum.assign(e.groups.num_groups(), 0);
    for (std::size_t s = 0; s < child.size(); ++s) {
      std::int64_t& sum = e.sum[e.groups.group_of(s)];
      sum = SatAdd(sum, up[c][s]);
    }
    e.match = MatchParentRows(db.rel(pr), pcols, child, ccols, e.groups);
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
// reached through the parent rows of its group, each extended outside the
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
    acc.assign(e.groups.num_groups(), 0);
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
    for (std::size_t s = 0; s < down_c.size(); ++s) {
      down_c[s] = acc[e.groups.group_of(s)];
    }
  }
}

// Join rows of one acyclic component over its join tree; with `per_tuple`,
// also the rows through each of its tuples.
std::int64_t PropagateCounts(const std::vector<RelationSchema>& body,
                             const Database& db, const JoinTree& tree,
                             Counts* per_tuple) {
  Counts local(per_tuple != nullptr ? 0 : body.size());
  Counts& up = per_tuple != nullptr ? *per_tuple : local;
  const std::vector<TreeEdge> edges = PropagateUp(body, db, tree, up);
  std::int64_t rows = 0;
  for (std::int64_t n : up[tree.order.back()]) rows = SatAdd(rows, n);
  if (per_tuple != nullptr && tree.order.size() > 1) {
    Counts down(body.size());
    PropagateDown(db, tree, edges, down);
    for (int i : tree.order) {
      for (std::size_t t = 0; t < up[i].size(); ++t) {
        up[i][t] = SatMul(up[i][t], down[i][t]);
      }
    }
  }
  return rows;
}

// Counts one connected component: its join rows and its distinct
// projections onto `head`, plus, with `per_tuple`, the rows through each of
// its tuples. This is the one place that chooses the counting path:
// propagation over the component's join tree when it has one, for the rows
// of a full or Boolean head and for per-tuple counts; the materializing
// join for a component without a join tree (which sets `materialized`) and
// for the distinct outputs of a head keeping some but not all of its
// attributes.
void CountComponent(const std::vector<RelationSchema>& body,
                    const Database& db, AttrSet head,
                    JoinCounts::Component& comp, Counts* per_tuple,
                    bool& materialized) {
  AttrSet attrs;
  for (int i : comp.rels) attrs = attrs.Union(body[i].attr_set());
  const bool full = attrs.SubsetOf(head);
  const bool projected = !full && attrs.Intersects(head);
  const std::optional<JoinTree> tree = BuildJoinTree(body, comp.rels);
  if (tree && (!projected || per_tuple != nullptr)) {
    comp.rows = PropagateCounts(body, db, *tree, per_tuple);
  }
  if (!tree || projected) {
    const bool tally = !tree && per_tuple != nullptr;
    const JoinResult join = JoinPositions(body, db, comp.rels, tally);
    comp.rows = static_cast<std::int64_t>(join.NumRows());
    if (!tree) materialized = true;
    if (tally) {
      for (int i : comp.rels) (*per_tuple)[i].assign(db.rel(i).size(), 0);
      for (std::size_t r = 0; r < join.NumRows(); ++r) {
        for (std::size_t j = 0; j < comp.rels.size(); ++j) {
          ++(*per_tuple)[comp.rels[j]][join.SupportOf(r, j)];
        }
      }
    }
    if (projected) {
      const AttrSet proj = head.Intersect(attrs);
      std::unordered_set<Tuple, VecHash> distinct;
      distinct.reserve(join.NumRows() * 2);
      for (std::size_t r = 0; r < join.NumRows(); ++r) {
        distinct.insert(join.Project(r, proj));
      }
      comp.outputs = static_cast<std::int64_t>(distinct.size());
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
  for (AttrId a : set) {
    out.push_back(rows[row][ColumnOf(a)]);
  }
  return out;
}

JoinResult FullJoin(const std::vector<RelationSchema>& body,
                    const Database& db, bool with_support) {
  std::vector<int> all(body.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  return JoinPositions(body, db, all, with_support);
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
                           AttrSet head, const Database& db, bool per_tuple) {
  JoinCounts counts;
  for (std::vector<int>& rels : Components(body)) {
    counts.components.push_back(JoinCounts::Component{std::move(rels)});
  }
  if (per_tuple) counts.per_tuple.resize(body.size());
  bool empty = AnyEmpty(body, db);
  counts.rows = 1;
  counts.outputs = 1;
  for (JoinCounts::Component& comp : counts.components) {
    if (empty) break;
    CountComponent(body, db, head, comp,
                   per_tuple ? &counts.per_tuple : nullptr,
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
    }
    for (std::size_t i = 0; i < counts.per_tuple.size(); ++i) {
      counts.per_tuple[i].assign(db.rel(i).size(), 0);
    }
  }
  return counts;
}

JoinCounts CountJoinRows(const std::vector<RelationSchema>& body,
                         const Database& db) {
  AttrSet all;
  for (const RelationSchema& r : body) all = all.Union(r.attr_set());
  JoinCounts counts = CountComponents(body, all, db, /*per_tuple=*/true);
  if (counts.components.size() > 1) {
    for (std::size_t i = 0; i < body.size(); ++i) {
      counts.per_tuple[i] = counts.RowsThrough(static_cast<int>(i));
    }
  }
  return counts;
}

std::uint64_t CountOutputs(const std::vector<RelationSchema>& body,
                           AttrSet head, const Database& db) {
  return static_cast<std::uint64_t>(
      CountComponents(body, head, db, /*per_tuple=*/false).outputs);
}

std::vector<Tuple> DistinctOutputs(const std::vector<RelationSchema>& body,
                                   AttrSet head, const Database& db) {
  const JoinResult join = FullJoin(body, db, /*with_support=*/false);
  AttrSet all;
  for (AttrId a : join.attrs) all.Add(a);
  const AttrSet proj = head.Intersect(all);
  std::vector<Tuple> out;
  std::unordered_set<Tuple, VecHash> seen;
  seen.reserve(join.rows.size() * 2);
  for (std::size_t r = 0; r < join.rows.size(); ++r) {
    Tuple t = join.Project(r, proj);
    if (seen.insert(t).second) out.push_back(std::move(t));
  }
  return out;
}

}  // namespace adp
