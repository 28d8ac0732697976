#include "query/transform.h"

#include <algorithm>
#include <map>
#include <optional>

#include "query/graph.h"
#include "relational/group_index.h"
#include "util/hash.h"

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
    RelationInstance derived;
    derived.set_root_relation(inst.root_relation());

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

    if (satisfiable) {
      // Columnar scan: integer code compares only, then one gather of the
      // passing rows over the kept columns (dictionaries are shared, codes
      // copied, origins carried). Every dropped column holds one value
      // across the passing rows, so distinct rows stay distinct.
      std::vector<TupleId> pass;
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
      derived.AppendGathered(inst, pass, kept_cols);
    }
    out.db.Append(std::move(derived));
  }
  return out;
}

std::vector<UniverseGroup> PartitionByAttrs(const ConjunctiveQuery& q,
                                            const Database& db,
                                            AttrSet attrs) {
  const int p = q.num_relations();
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

  // Group each relation's rows by key codes — one hash-group pass per
  // relation, no key tuples materialized — then merge the per-relation
  // groups across relations by decoded key value. The merge map costs one
  // entry per DISTINCT key (not per row), and std::map keeps the group
  // order deterministic (ascending key, as before).
  std::vector<HashGroupIndex> index;
  index.reserve(p);
  for (int i = 0; i < p; ++i) {
    index.emplace_back(db.rel(i), key_cols[i]);
  }
  std::map<Tuple, std::vector<std::int64_t>> merged;  // key -> group per rel
  for (int i = 0; i < p; ++i) {
    for (std::size_t g = 0; g < index[i].num_groups(); ++g) {
      auto [it, inserted] = merged.try_emplace(index[i].KeyValues(g));
      if (inserted) it->second.assign(p, -1);
      it->second[i] = static_cast<std::int64_t>(g);
    }
  }

  std::vector<UniverseGroup> out;
  for (const auto& [key, gids] : merged) {
    // Keys missing from some relation yield zero outputs; skip them.
    bool complete = true;
    for (int i = 0; i < p; ++i) {
      if (gids[i] < 0) {
        complete = false;
        break;
      }
    }
    if (!complete) continue;

    UniverseGroup group;
    for (int i = 0; i < p; ++i) {
      const RelationInstance& inst = db.rel(i);
      RelationInstance derived;
      derived.set_root_relation(inst.root_relation());
      // Gather the group's rows over the surviving columns: shared
      // dictionaries, code copies, origins carried.
      derived.AppendGathered(inst, index[i].rows(gids[i]), kept_cols[i]);
      group.db.Append(std::move(derived));
    }
    out.push_back(std::move(group));
  }
  return out;
}

}  // namespace adp
