#include "query/transform.h"

#include <algorithm>
#include <map>
#include <optional>

#include "query/graph.h"
#include "relational/group_index.h"

namespace adp {
namespace {

// Copies the attribute catalog of `q` into a fresh query (ids stay stable).
ConjunctiveQuery CloneCatalog(const ConjunctiveQuery& q) {
  ConjunctiveQuery out;
  for (const std::string& name : q.attr_names()) out.AddAttribute(name);
  return out;
}

}  // namespace

ConjunctiveQuery RemoveAttributes(const ConjunctiveQuery& q, AttrSet attrs) {
  ConjunctiveQuery out = CloneCatalog(q);
  for (int i = 0; i < q.num_relations(); ++i) {
    const RelationSchema& r = q.relation(i);
    std::vector<AttrId> kept;
    for (AttrId a : r.attrs) {
      if (!attrs.Contains(a)) kept.push_back(a);
    }
    int rel = out.AddRelation(r.name, std::move(kept));
    for (const Selection& s : q.selections()[i]) {
      if (!attrs.Contains(s.attr)) out.AddSelection(rel, s.attr, s.value);
    }
  }
  out.SetHead(q.head().Minus(attrs));
  return out;
}

ConjunctiveQuery HeadJoin(const ConjunctiveQuery& q) {
  return RemoveAttributes(q, q.all_attrs().Minus(q.head()));
}

Subquery RestrictTo(const ConjunctiveQuery& q, const std::vector<int>& rels) {
  Subquery sub;
  sub.query = CloneCatalog(q);
  AttrSet sub_attrs;
  for (int i : rels) {
    const RelationSchema& r = q.relation(i);
    int idx = sub.query.AddRelation(r.name, r.attrs);
    for (const Selection& s : q.selections()[i]) {
      sub.query.AddSelection(idx, s.attr, s.value);
    }
    sub.parent_relation.push_back(i);
    sub_attrs = sub_attrs.Union(r.attr_set());
  }
  sub.query.SetHead(q.head().Intersect(sub_attrs));
  return sub;
}

std::vector<Subquery> DecomposeQuery(const ConjunctiveQuery& q) {
  std::vector<Subquery> out;
  for (const std::vector<int>& comp : ConnectedComponents(q)) {
    out.push_back(RestrictTo(q, comp));
  }
  return out;
}

Database SubDatabase(const std::vector<int>& rels, const Database& db) {
  Database out;
  for (int parent : rels) {
    out.Append(db.rel(parent));
  }
  return out;
}

QueryDb ApplySelections(const ConjunctiveQuery& q, const Database& db) {
  const AttrSet selected = q.SelectedAttrs();
  QueryDb out;
  out.query = RemoveAttributes(q, selected);
  // A natural join equates an attribute across its atoms, so a predicate on
  // A, whichever atom states it, filters every atom that holds A. Each
  // selected attribute maps to its required value, or to nullopt when two
  // predicates require different values (nothing is selected then).
  std::map<AttrId, std::optional<Value>> required;
  for (const std::vector<Selection>& preds : q.selections()) {
    for (const Selection& s : preds) {
      auto [it, inserted] = required.try_emplace(s.attr, s.value);
      if (!inserted && it->second != s.value) it->second.reset();
    }
  }
  // RemoveAttributes keeps predicates on surviving attributes; none survive
  // because every selected attribute was removed. Rebuild the instances.
  for (int i = 0; i < q.num_relations(); ++i) {
    const RelationSchema& schema = q.relation(i);
    const RelationInstance& inst = db.rel(i);
    std::vector<int> kept_cols;
    for (std::size_t c = 0; c < schema.attrs.size(); ++c) {
      if (!selected.Contains(schema.attrs[c])) {
        kept_cols.push_back(static_cast<int>(c));
      }
    }

    // Translate each required value into the column's dictionary code
    // once; a value absent from the dictionary matches no row and empties
    // the instance without scanning.
    std::vector<std::pair<int, Code>> preds;  // (column, required code)
    bool satisfiable = !inst.empty();
    for (auto it = required.begin(); satisfiable && it != required.end();
         ++it) {
      const int col = schema.ColumnOf(it->first);
      if (col < 0) continue;
      const std::int64_t code =
          it->second ? inst.dict(col).Lookup(*it->second) : -1;
      satisfiable = code >= 0;
      preds.emplace_back(col, static_cast<Code>(code));
    }

    // Columnar scan: integer code compares only, then one gather of the
    // passing rows over the kept columns (dictionaries are shared, codes
    // copied, origins carried). Every dropped column holds one value across
    // the passing rows, so distinct rows stay distinct.
    std::vector<TupleId> pass;
    if (satisfiable) {
      pass.reserve(inst.size());
      for (std::size_t t = 0; t < inst.size(); ++t) {
        bool ok = true;
        for (const auto& [col, code] : preds) {
          if (inst.CodeAt(t, col) != code) {
            ok = false;
            break;
          }
        }
        if (ok) pass.push_back(static_cast<TupleId>(t));
      }
    }
    out.db.Append(RelationInstance::Gather(inst, pass, kept_cols));
  }
  return out;
}

std::vector<UniverseGroup> PartitionByAttrs(const ConjunctiveQuery& q,
                                            const Database& db,
                                            AttrSet attrs) {
  const int p = q.num_relations();
  // An empty relation holds no key, so no group has rows in every relation
  // (and an empty root instance has no columns to probe).
  for (int i = 0; i < p; ++i) {
    if (db.rel(i).empty()) return {};
  }
  // Column positions of the partition attributes (increasing AttrId order)
  // and of the surviving attributes, per relation.
  std::vector<std::vector<int>> key_cols(p), kept_cols(p);
  for (int i = 0; i < p; ++i) {
    const RelationSchema& schema = q.relation(i);
    for (AttrId a : attrs) key_cols[i].push_back(schema.ColumnOf(a));
    for (std::size_t c = 0; c < schema.attrs.size(); ++c) {
      if (!attrs.Contains(schema.attrs[c])) {
        kept_cols[i].push_back(static_cast<int>(c));
      }
    }
  }

  // Group each relation's rows by their key codes, then probe each group of
  // the relation with the fewest (`base`) into every other relation's index,
  // translating its key through their dictionaries (KeyProbe). Only the
  // keys found in every relation are kept: the others produce no outputs,
  // and removing their tuples is never useful.
  std::vector<HashGroupIndex> index;
  index.reserve(p);
  int base = 0;
  for (int i = 0; i < p; ++i) {
    index.emplace_back(db.rel(i), key_cols[i]);
    if (index[i].num_groups() < index[base].num_groups()) base = i;
  }
  const RelationInstance& base_inst = db.rel(base);
  const HashGroupIndex& base_index = index[base];
  const std::size_t n = base_index.num_groups();
  auto key_code = [&](std::size_t g, std::size_t j) {
    return base_inst.CodeAt(base_index.representative(g), key_cols[base][j]);
  };
  // gids[g * p + i]: relation i's group of base group g's key.
  std::vector<std::uint32_t> gids(n * p);
  for (std::size_t g = 0; g < n; ++g) {
    gids[g * p + base] = static_cast<std::uint32_t>(g);
  }
  for (int i = 0; i < p; ++i) {
    if (i == base) continue;
    std::vector<const ColumnDict*> from, to;
    for (std::size_t j = 0; j < key_cols[i].size(); ++j) {
      from.push_back(&base_inst.dict(key_cols[base][j]));
      to.push_back(&db.rel(i).dict(key_cols[i][j]));
    }
    KeyProbe(&index[i], std::move(from), std::move(to), n)
        .ForEachRow(n, key_code, [&](std::size_t g, std::uint32_t gi) {
          gids[g * p + i] = gi;
        });
  }
  std::vector<std::uint32_t> kept;
  for (std::size_t g = 0; g < n; ++g) {
    const std::uint32_t* row = &gids[g * p];
    if (std::find(row, row + p, kNoGroup) == row + p) {
      kept.push_back(static_cast<std::uint32_t>(g));
    }
  }
  // Ascending key order: keys are distinct, so the order is total.
  std::sort(kept.begin(), kept.end(), [&](std::uint32_t a, std::uint32_t b) {
    const TupleId ra = base_index.representative(a);
    const TupleId rb = base_index.representative(b);
    for (int col : key_cols[base]) {
      const Value va = base_inst.ValueAt(ra, col);
      const Value vb = base_inst.ValueAt(rb, col);
      if (va != vb) return va < vb;
    }
    return false;
  });

  std::vector<UniverseGroup> out;
  out.reserve(kept.size());
  for (std::uint32_t g : kept) {
    UniverseGroup group;
    for (int i = 0; i < p; ++i) {
      // Gather the group's rows over the surviving columns: shared
      // dictionaries, code copies, origins carried.
      group.db.Append(RelationInstance::Gather(
          db.rel(i), index[i].rows(gids[g * p + i]), kept_cols[i]));
    }
    out.push_back(std::move(group));
  }
  return out;
}

}  // namespace adp
