// Multiway natural-join engine with provenance.
//
// This is the substrate standing in for the paper's PostgreSQL backend: it
// computes full join results, counts distinct head projections (|Q(D)|),
// identifies dangling tuples, and records per-row support (which input tuple
// of each relation produced a row) for the greedy heuristics and the Partial
// Set Cover reduction.
//
// The engine performs a sequence of hash joins in a greedily chosen connected
// order (falling back to cross products for disconnected bodies). Vacuum
// relations participate trivially: an empty vacuum instance annihilates the
// result; a {∅} instance joins as a 1-row cross product.

#ifndef ADP_RELATIONAL_JOIN_H_
#define ADP_RELATIONAL_JOIN_H_

#include <cstdint>
#include <vector>

#include "relational/database.h"
#include "relational/relation.h"
#include "util/attr_set.h"

namespace adp {

/// Full join output.
struct JoinResult {
  /// Column order of `rows`: the union of body attributes, in join order.
  std::vector<AttrId> attrs;

  /// One row per full-join result, over `attrs`.
  std::vector<Tuple> rows;

  /// If requested: flattened support matrix with stride `num_relations`.
  /// `support[r * num_relations + i]` is the index (within relation `i`'s
  /// instance) of the tuple that produced row `r`.
  std::vector<TupleId> support;
  std::size_t num_relations = 0;

  std::size_t NumRows() const { return rows.size(); }
  TupleId SupportOf(std::size_t row, std::size_t rel) const {
    return support[row * num_relations + rel];
  }

  /// Column position of attribute `a` in `attrs`, or -1.
  int ColumnOf(AttrId a) const;

  /// Projects row `row` onto the attributes in `set` (increasing AttrId
  /// order).
  Tuple Project(std::size_t row, AttrSet set) const;
};

/// Computes the full natural join of `body` over `db`.
/// If `with_support` is set, records the contributing tuple of every relation
/// for every row (costs O(rows * body.size()) extra memory).
JoinResult FullJoin(const std::vector<RelationSchema>& body,
                    const Database& db, bool with_support);

/// |Q(D)|: the number of distinct projections of the full join onto `head`.
/// If `head` covers all body attributes this is simply the number of full
/// join rows (instances are duplicate-free).
std::uint64_t CountOutputs(const std::vector<RelationSchema>& body,
                           AttrSet head, const Database& db);

/// The distinct head projections themselves, in first-seen order. A head
/// covering every body attribute needs no dedup: the join rows are the
/// outputs.
std::vector<Tuple> DistinctOutputs(const std::vector<RelationSchema>& body,
                                   AttrSet head, const Database& db);

/// Per-relation flags: `flags[i][t]` is 1 iff tuple `t` of relation `i`
/// participates in at least one full join row ("non-dangling", §7.2).
std::vector<std::vector<char>> NonDanglingFlags(
    const std::vector<RelationSchema>& body, const Database& db);

}  // namespace adp

#endif  // ADP_RELATIONAL_JOIN_H_
