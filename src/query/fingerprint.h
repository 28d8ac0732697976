// Canonical query keys: a query's structure as text.
//
// Two queries share a canonical key iff they are structurally identical:
// the same number of relations in the same body order, the same attribute
// incidence pattern (up to renaming — attributes are numbered by first
// occurrence scanning the body left to right), the same head, and the same
// selection predicates. Relation and attribute *names* do not participate:
// every data-independent decision of Algorithm 2 (dichotomy verdict,
// linearization, dispatch case) depends only on this structure, so a
// dispatch plan compiled for one query serves any query with its key
// (ComputeAdp asserts as much of AdpOptions::plan in debug builds).
//
// Note that body order is part of the key. Databases are positionally
// aligned with the body, and linear arrangements are permutations of body
// indices, so reordering atoms produces a different (equally valid) plan.

#ifndef ADP_QUERY_FINGERPRINT_H_
#define ADP_QUERY_FINGERPRINT_H_

#include <string>

#include "query/query.h"

namespace adp {

/// Canonical textual key of `q`, e.g. "R(0,1)R(1,2;1=5)->0,2".
std::string CanonicalQueryKey(const ConjunctiveQuery& q);

}  // namespace adp

#endif  // ADP_QUERY_FINGERPRINT_H_
