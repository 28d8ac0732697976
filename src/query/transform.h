// Hardness/complexity-preserving query rewrites (§4.1, §7), with and without
// carrying the database instance along.
//
// Every instance-carrying transform preserves origin tracking: tuples of the
// derived database know which root-database row they came from, so solutions
// computed downstream are reported in root coordinates.

#ifndef ADP_QUERY_TRANSFORM_H_
#define ADP_QUERY_TRANSFORM_H_

#include <vector>

#include "query/query.h"
#include "relational/database.h"

namespace adp {

/// A derived (query, instance) pair.
struct QueryDb {
  ConjunctiveQuery query;
  Database db;
};

/// A connected subquery with the mapping from its body indices back to the
/// parent query's body indices.
struct Subquery {
  ConjunctiveQuery query;
  std::vector<int> parent_relation;  // parent body index per subquery index
};

/// One class of the Universe partition: all tuples sharing one key on the
/// universal attributes, with those attributes projected away.
struct UniverseGroup {
  Database db;  // instance of the residual query (attributes removed)
};

/// Q^{-attrs}: removes `attrs` from every relation schema and from the head.
/// The attribute catalog is shared with `q` (ids stay stable).
ConjunctiveQuery RemoveAttributes(const ConjunctiveQuery& q, AttrSet attrs);

/// The head join Q_head (§4.2.3): removes all non-output attributes from
/// every relation.
ConjunctiveQuery HeadJoin(const ConjunctiveQuery& q);

/// Restriction of `q` to the body indices in `rels` (used for connected
/// subqueries, Lemma 3). Selections on kept relations are preserved.
Subquery RestrictTo(const ConjunctiveQuery& q, const std::vector<int>& rels);

/// Connected subqueries of `q` (Lemma 3), in component order.
std::vector<Subquery> DecomposeQuery(const ConjunctiveQuery& q);

/// Builds the database of the subquery over body positions `rels` (a
/// Subquery's parent_relation) by copying those instances from `db` (root
/// bookkeeping is inherited).
Database SubDatabase(const std::vector<int>& rels, const Database& db);

/// Selection pushdown (Lemma 12): filters every relation instance by every
/// predicate on an attribute it holds, whichever atom states the predicate,
/// removes the selected attributes Aθ from schemas, head and instances, and
/// clears the predicates. The result is an ordinary CQ whose ADP solutions
/// coincide with the original's. Duplicate-free instances stay so.
QueryDb ApplySelections(const ConjunctiveQuery& q, const Database& db);

/// Universe partitioning (Algorithm 4): splits `db` into groups by the value
/// combination on `attrs` (which must occur in every relation), projecting
/// those attributes away. Only keys present in *every* relation are
/// returned, in ascending key order — other groups produce no outputs and
/// removing their tuples is never useful. Keys are matched on dictionary
/// codes: each relation is grouped by a HashGroupIndex, and the groups of
/// the relation with the fewest are probed into the others through KeyProbe
/// (relational/group_index.h). An empty relation yields no groups. The
/// residual query is RemoveAttributes(q, attrs).
std::vector<UniverseGroup> PartitionByAttrs(const ConjunctiveQuery& q,
                                            const Database& db, AttrSet attrs);

}  // namespace adp

#endif  // ADP_QUERY_TRANSFORM_H_
