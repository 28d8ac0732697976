// The query graph GQ (§3.1): relations are vertices; two relations are
// adjacent iff they share an attribute. The dichotomy results additionally
// need *restricted* connectivity — paths whose consecutive relations share an
// attribute outside a forbidden set (triad and triad-like detection).

#ifndef ADP_QUERY_GRAPH_H_
#define ADP_QUERY_GRAPH_H_

#include <vector>

#include "query/query.h"
#include "util/attr_set.h"

namespace adp {

/// Connected components of GQ, each a sorted list of body indices.
/// Components are ordered by their smallest relation index
/// (BodyComponents, relational/relation.h).
std::vector<std::vector<int>> ConnectedComponents(const ConjunctiveQuery& q);

/// True if GQ is connected (or the body has at most one relation).
bool IsConnected(const ConjunctiveQuery& q);

/// True if there is a path of relations from `from` to `to` such that each
/// consecutive pair shares at least one attribute in `allowed`. `from == to`
/// counts as connected iff `from`'s attributes intersect `allowed` or the
/// trivial path is acceptable (we return true).
bool ConnectedVia(const ConjunctiveQuery& q, int from, int to,
                  AttrSet allowed);

/// Connected components of GQ when only edges with a shared attribute in
/// `allowed` are kept, in ConnectedComponents' order.
std::vector<std::vector<int>> ComponentsVia(const ConjunctiveQuery& q,
                                            AttrSet allowed);

}  // namespace adp

#endif  // ADP_QUERY_GRAPH_H_
