// Multiway natural-join engine with provenance, and join-free counting.
//
// This is the substrate standing in for the paper's PostgreSQL backend: it
// computes full join results, counts distinct head projections (|Q(D)|),
// counts the full-join rows through every input tuple (profits, dangling
// tuples), and records per-row support (which input tuple of each relation
// produced a row) for the greedy heuristics and the Partial Set Cover
// reduction.
//
// Counting splits the body into connected components (a disconnected body
// joins by cross product, so counts multiply) and picks, per component, one
// of two paths. This file is the only place that chooses:
//
// - Propagation, for acyclic components (a GYO join tree exists), in
//   CountJoinRows and, when the head keeps every attribute of the component
//   or none of them (full or Boolean), in CountOutputs: counts flow over the
//   join tree, bottom-up for |Q(D)| and back down for per-tuple counts.
//   O(Σ|Rᵢ| + distinct keys) time; no join row is built.
// - The materializing join, for cyclic components (e.g. the triangle) and
//   for heads that keep some but not all of a component's attributes. A
//   sequence of hash joins in a greedily chosen connected order builds every
//   row: O(|join|) time and memory.
//
// Vacuum relations participate trivially: an empty vacuum instance
// annihilates the result; a {∅} instance joins as a 1-row cross product.
// Counts saturate at kMaxOutputs (util/saturating.h).

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

/// Full-join row counts, overall and through every input tuple.
struct JoinCounts {
  /// |join|, saturated at kMaxOutputs.
  std::int64_t rows = 0;

  /// `per_tuple[i][t]`: the number of full-join rows whose relation-`i`
  /// tuple is `t`, saturated at kMaxOutputs. Zero exactly for the dangling
  /// tuples (§7.2).
  std::vector<std::vector<std::int64_t>> per_tuple;

  /// True when some component had no join tree and was counted by
  /// materializing its join.
  bool materialized = false;
};

/// Counts the full join of `body` over `db` without building it where the
/// body allows (see the file comment).
JoinCounts CountJoinRows(const std::vector<RelationSchema>& body,
                         const Database& db);

/// |Q(D)|: the number of distinct projections of the full join onto `head`,
/// saturated at kMaxOutputs. Full and Boolean components of an acyclic body
/// only need the bottom-up counting pass.
std::uint64_t CountOutputs(const std::vector<RelationSchema>& body,
                           AttrSet head, const Database& db);

/// The distinct head projections themselves, in first-seen order, from the
/// materializing join.
std::vector<Tuple> DistinctOutputs(const std::vector<RelationSchema>& body,
                                   AttrSet head, const Database& db);

}  // namespace adp

#endif  // ADP_RELATIONAL_JOIN_H_
