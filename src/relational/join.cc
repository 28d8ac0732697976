#include "relational/join.h"

#include <algorithm>
#include <unordered_set>

#include "relational/group_index.h"
#include "util/hash.h"
#include "util/saturating.h"

namespace adp {
namespace {

// Chooses a join order: start from the smallest relation; repeatedly append
// the relation sharing the most attributes with what has been joined so far
// (ties broken by smaller instance), falling back to any remaining relation
// (cross product) when the body is disconnected.
std::vector<int> JoinOrder(const std::vector<RelationSchema>& body,
                           const Database& db) {
  const int p = static_cast<int>(body.size());
  std::vector<int> order;
  std::vector<char> used(p, 0);
  int first = 0;
  for (int i = 1; i < p; ++i) {
    if (db.rel(i).size() < db.rel(first).size()) first = i;
  }
  order.push_back(first);
  used[first] = 1;
  AttrSet seen = body[first].attr_set();
  for (int step = 1; step < p; ++step) {
    int best = -1;
    int best_shared = -1;
    for (int i = 0; i < p; ++i) {
      if (used[i]) continue;
      int shared = body[i].attr_set().Intersect(seen).Size();
      if (shared > best_shared ||
          (shared == best_shared &&
           db.rel(i).size() < db.rel(best).size())) {
        best = i;
        best_shared = shared;
      }
    }
    order.push_back(best);
    used[best] = 1;
    seen = seen.Union(body[best].attr_set());
  }
  return order;
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
  const std::size_t p = body.size();
  JoinResult result;
  result.num_relations = p;

  // An empty instance annihilates the join.
  for (std::size_t i = 0; i < p; ++i) {
    if (db.rel(i).empty()) return result;
  }

  const std::vector<int> order = JoinOrder(body, db);

  // Seed with the first relation (materialized row-major: intermediate join
  // results are wide and short-lived, so they stay rows).
  {
    const int r0 = order[0];
    result.attrs = body[r0].attrs;
    const RelationInstance& inst = db.rel(r0);
    result.rows.reserve(inst.size());
    for (std::size_t t = 0; t < inst.size(); ++t) {
      result.rows.push_back(inst.tuple(t));
    }
    if (with_support) {
      result.support.assign(result.rows.size() * p, 0);
      for (std::size_t i = 0; i < result.rows.size(); ++i) {
        result.support[i * p + r0] = static_cast<TupleId>(i);
      }
    }
  }

  for (std::size_t step = 1; step < p; ++step) {
    const int rel = order[step];
    const RelationSchema& schema = body[rel];
    const RelationInstance& inst = db.rel(rel);

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
          next_support[base + rel] = t;
        }
      }
    }

    result.rows = std::move(next_rows);
    result.support = std::move(next_support);
    for (AttrId a : new_attrs) result.attrs.push_back(a);
  }

  return result;
}

namespace {

// Count for a *connected* body (or one treated as a unit).
std::uint64_t CountOutputsConnected(const std::vector<RelationSchema>& body,
                                    AttrSet head, const Database& db) {
  JoinResult join = FullJoin(body, db, /*with_support=*/false);
  AttrSet all;
  for (AttrId a : join.attrs) all.Add(a);
  if (all.SubsetOf(head)) {
    // Full CQ (w.r.t. the attributes actually present): rows are distinct.
    return join.rows.size();
  }
  std::unordered_set<Tuple, VecHash> distinct;
  distinct.reserve(join.rows.size() * 2);
  const AttrSet proj = head.Intersect(all);
  for (std::size_t r = 0; r < join.rows.size(); ++r) {
    distinct.insert(join.Project(r, proj));
  }
  return distinct.size();
}

}  // namespace

std::uint64_t CountOutputs(const std::vector<RelationSchema>& body,
                           AttrSet head, const Database& db) {
  // A disconnected body joins by cross product, so the distinct head
  // projections multiply across connected components — counting them never
  // requires materializing the product.
  const int p = static_cast<int>(body.size());
  std::vector<int> comp(p, -1);
  int next = 0;
  for (int start = 0; start < p; ++start) {
    if (comp[start] >= 0) continue;
    comp[start] = next;
    std::vector<int> stack = {start};
    while (!stack.empty()) {
      const int u = stack.back();
      stack.pop_back();
      for (int v = 0; v < p; ++v) {
        if (comp[v] < 0 &&
            body[u].attr_set().Intersects(body[v].attr_set())) {
          comp[v] = next;
          stack.push_back(v);
        }
      }
    }
    ++next;
  }
  if (next <= 1) return CountOutputsConnected(body, head, db);

  std::uint64_t product = 1;
  for (int c = 0; c < next; ++c) {
    std::vector<RelationSchema> sub_body;
    Database sub_db;
    for (int i = 0; i < p; ++i) {
      if (comp[i] != c) continue;
      sub_body.push_back(body[i]);
      sub_db.Append(db.rel(i));
    }
    const std::uint64_t count = CountOutputsConnected(
        sub_body, head, sub_db);
    if (count == 0) return 0;
    product = static_cast<std::uint64_t>(
        SatMul(static_cast<std::int64_t>(product),
               static_cast<std::int64_t>(count)));
  }
  return product;
}

std::vector<Tuple> DistinctOutputs(const std::vector<RelationSchema>& body,
                                   AttrSet head, const Database& db) {
  JoinResult join = FullJoin(body, db, /*with_support=*/false);
  AttrSet all;
  for (AttrId a : join.attrs) all.Add(a);
  const AttrSet proj = head.Intersect(all);
  std::vector<Tuple> out;
  if (all.SubsetOf(head)) {
    // Full CQ: rows are distinct, so every projection is first-seen. A
    // projection onto every attribute lists a row's values in AttrId order,
    // which is the row itself when the join's columns are in that order.
    if (std::is_sorted(join.attrs.begin(), join.attrs.end())) {
      return std::move(join.rows);
    }
    out.reserve(join.rows.size());
    for (std::size_t r = 0; r < join.rows.size(); ++r) {
      out.push_back(join.Project(r, proj));
    }
    return out;
  }
  std::unordered_set<Tuple, VecHash> seen;
  seen.reserve(join.rows.size() * 2);
  for (std::size_t r = 0; r < join.rows.size(); ++r) {
    Tuple t = join.Project(r, proj);
    if (seen.insert(t).second) out.push_back(std::move(t));
  }
  return out;
}

std::vector<std::vector<char>> NonDanglingFlags(
    const std::vector<RelationSchema>& body, const Database& db) {
  JoinResult join = FullJoin(body, db, /*with_support=*/true);
  std::vector<std::vector<char>> flags(body.size());
  for (std::size_t i = 0; i < body.size(); ++i) {
    flags[i].assign(db.rel(i).size(), 0);
  }
  const std::size_t p = body.size();
  for (std::size_t r = 0; r < join.NumRows(); ++r) {
    for (std::size_t i = 0; i < p; ++i) {
      flags[i][join.SupportOf(r, i)] = 1;
    }
  }
  return flags;
}

}  // namespace adp
