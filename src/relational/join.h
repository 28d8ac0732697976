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
// of two paths. CountComponents, the one counting routine, is the only place
// that chooses; CountOutputs is a thin wrapper over it:
//
// - Propagation, for acyclic components (a GYO join tree exists) whose head
//   keeps every attribute of the component or none of them (full or
//   Boolean), and for the per-tuple counts of any acyclic component: counts
//   flow over the join tree bottom-up, for the join rows. O(Σ|Rᵢ| + distinct
//   keys) time; no join row is built. An edge whose key is one column over a
//   dense child dictionary (DenseKey, relational/group_index.h) sums the
//   child's counts into an array indexed by the child's code; any other key
//   groups the child's rows (KeyGroups: group ids, no row lists).
// - The materializing join, for cyclic components (e.g. the triangle), for
//   the distinct outputs of heads that keep some but not all of a
//   component's attributes, and for a connected body when the reads ask for
//   joins. A sequence of hash joins in a greedily chosen connected order
//   builds every row.
//
// A pass computes only what its reads (CountReads) ask for beyond the rows
// and outputs. Per-tuple counts are filled for the read body positions
// only. A component with exactly one read relation roots its join tree
// there, so the bottom-up counts of that relation are its counts and no
// top-down pass runs; with two or more, the tree keeps GYO's root and the
// top-down pass runs, multiplied in for the read relations only. Saturating
// addition and multiplication are monotone, so every count is
// min(kMaxOutputs, true count) whatever the root. When the reads ask for
// joins and the body is connected, its one component is materialized and
// keeps its join and output groups, for the leaf that would otherwise build
// them again (ProvenanceIndex, projected Singleton profits); its read
// relations' counts are then counted off the join's rows. A body with
// several components is counted as if no joins were asked for: no one of
// their joins covers it.
//
// The materializing join works on dictionary codes. A row, intermediate or
// final, is just its support, one TupleId per relation, and each result
// column names the instance column it is read from: O(|join|·p) words, no
// allocation per row, no value copied. Its build side is a HashGroupIndex
// and its probe, like the propagation's parent match, is a KeyProbe
// (relational/group_index.h). GroupJoinRows groups join rows by their head
// codes through the same build loop (GroupByCodes), over one mixed-radix
// word per row when the key dictionaries' sizes multiply to less than 2^64:
// the distinct outputs of a projected component, ProvenanceIndex's output
// groups and the Singleton case-1 profits under a projected head.
//
// Each leaf of a solve's plan counts its own body with one call
// (SolveNode, solver/compute_adp.h), and its solver reads only that pass;
// Universe and Decompose nodes count nothing. The counts stay per
// component so that a disconnected leaf body's rows through a tuple
// (RowsThrough) multiply in the other components' rows.
//
// Vacuum relations participate trivially: an empty vacuum instance
// annihilates the result; a {∅} instance joins as a 1-row cross product.
// Counts saturate at kMaxOutputs (util/saturating.h).

#ifndef ADP_RELATIONAL_JOIN_H_
#define ADP_RELATIONAL_JOIN_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "relational/database.h"
#include "relational/relation.h"
#include "util/attr_set.h"

namespace adp {

/// Full join output: every row as its support, with the columns read
/// through it. The instances joined must outlive the result.
struct JoinResult {
  /// Where a column is read: column `col` of `inst` (the first joined
  /// relation holding the attribute), at the tuple support slot `rel` names.
  struct ColumnSource {
    std::size_t rel;
    std::size_t col;
    const RelationInstance* inst;
  };

  /// The union of body attributes, in join order, and where each is read.
  /// Both are empty when an empty instance annihilated the join.
  std::vector<AttrId> attrs;
  std::vector<ColumnSource> sources;

  /// Flattened support matrix with stride `num_relations`:
  /// `support[r * num_relations + i]` is the index (within relation `i`'s
  /// instance) of the tuple that produced row `r`.
  std::vector<TupleId> support;
  std::size_t num_relations = 0;

  std::size_t NumRows() const {
    return num_relations == 0 ? 0 : support.size() / num_relations;
  }
  TupleId SupportOf(std::size_t row, std::size_t rel) const {
    return support[row * num_relations + rel];
  }

  /// Code and value of row `row` in column `col`. An attribute's codes are
  /// comparable across rows: they always come from one instance column.
  Code CodeAt(std::size_t row, std::size_t col) const {
    const ColumnSource& s = sources[col];
    return s.inst->CodeAt(SupportOf(row, s.rel), s.col);
  }
  Value ValueAt(std::size_t row, std::size_t col) const {
    const ColumnSource& s = sources[col];
    return s.inst->ValueAt(SupportOf(row, s.rel), s.col);
  }

  /// Column position of attribute `a` in `attrs`, or -1.
  int ColumnOf(AttrId a) const;

  /// Projects row `row` onto the attributes in `set` (increasing AttrId
  /// order).
  Tuple Project(std::size_t row, AttrSet set) const;
};

/// Computes the full natural join of `body` over `db`, support included.
JoinResult FullJoin(const std::vector<RelationSchema>& body,
                    const Database& db);

/// Join rows grouped by their codes on some attributes (GroupJoinRows).
struct JoinGroups {
  /// Per join row: its group, numbered in first-seen row order.
  std::vector<std::uint32_t> group_of;
  /// Per group: its first row.
  std::vector<std::uint32_t> first_row;

  std::size_t num_groups() const { return first_row.size(); }
};

/// Groups the rows of `join` by their codes on the attributes of `key` that
/// the join has, through GroupByCodes (relational/group_index.h): over one
/// word per row, the codes in mixed radix, when the key columns'
/// dictionary sizes multiply to less than 2^64, else over the codes. Groups
/// are numbered in first-seen row order either way. Under a head, the
/// groups are the distinct outputs. Throws std::length_error when the join
/// has 2^32 - 1 rows or more.
JoinGroups GroupJoinRows(const JoinResult& join, AttrSet key);

/// What a counting pass keeps besides the rows and outputs
/// (CountComponents): the per-tuple counts of some body positions, and the
/// joins it materializes.
struct CountReads {
  /// Bit i: the per-tuple counts of body position i. Bit 63 stands for
  /// position 63 and every later one.
  std::uint64_t rels = 0;
  /// Materialize the body's join and keep it with its output groups, when
  /// the body is connected (CountComponents ignores it otherwise).
  bool joins = false;

  /// The per-tuple counts of every body position.
  static CountReads AllRelations() { return {~std::uint64_t{0}, false}; }

  bool Reads(std::size_t i) const {
    return ((rels >> std::min<std::size_t>(i, 63)) & 1) != 0;
  }
  void Add(std::size_t i) {
    rels |= std::uint64_t{1} << std::min<std::size_t>(i, 63);
  }
};

/// A component's join as the counting pass materialized it, kept for the
/// leaf that reads it (CountReads::joins).
struct ComponentJoin {
  /// Support column j is the component's j-th relation (Component::rels).
  JoinResult join;
  /// Its rows grouped by their head codes (GroupJoinRows), when the head
  /// keeps some but not all of the component's attributes.
  std::optional<JoinGroups> outputs;
};

/// Join-row and output counts of a body, per connected component and
/// overall (CountComponents).
struct JoinCounts {
  /// One connected component of the body, counted on its own.
  struct Component {
    /// Its body positions, ascending.
    std::vector<int> rels;
    /// Rows of the component's own join, saturated at kMaxOutputs.
    std::int64_t rows = 0;
    /// Its distinct projections onto the head, saturated: `rows` when the
    /// head keeps every attribute of the component, 0 or 1 when it keeps
    /// none of them.
    std::int64_t outputs = 0;
    /// The join the pass materialized to count the component, kept when
    /// the reads ask for joins, the body is this one component and its join
    /// is nonempty; null otherwise.
    std::shared_ptr<const ComponentJoin> join = nullptr;
  };

  /// The components, in order of their smallest body position
  /// (BodyComponents, relational/relation.h).
  std::vector<Component> components;

  /// |join|: the product of the components' rows, saturated.
  std::int64_t rows = 0;

  /// |Q(D)|: the product of the components' outputs, saturated.
  std::int64_t outputs = 0;

  /// `per_tuple[i][t]`, for a read position i: the number of rows of the
  /// join of relation `i`'s own component whose relation-`i` tuple is `t`,
  /// saturated. Zero exactly for the dangling tuples (§7.2). For a
  /// connected body these are rows of the whole join; RowsThrough gives
  /// them for any body. Empty for an unread i, and wholly empty when no
  /// position is read.
  std::vector<std::vector<std::int64_t>> per_tuple;

  /// True when some component had no join tree and was counted by
  /// materializing its join.
  bool materialized = false;

  /// Rows of the whole join through each tuple of relation `rel`, which
  /// must be read: its per-tuple counts times the rows of every other
  /// component (a disconnected body joins by cross product), saturated.
  std::vector<std::int64_t> RowsThrough(int rel) const;

  /// The kept join of the whole body: that of its one component, or null
  /// when the body has several or the pass kept none.
  std::shared_ptr<const ComponentJoin> WholeJoin() const {
    return components.size() == 1 ? components[0].join : nullptr;
  }
};

/// The counting pass: splits `body` into connected components and counts
/// each one's join rows and its distinct projections onto `head` (see the
/// file comment for the path each takes), plus what `reads` asks for: the
/// rows through each tuple of a read relation within its component, and
/// the join of a connected body. When the join is empty (an empty
/// instance, or a component without rows) every count is zero, and the
/// components after the first empty one are not counted.
JoinCounts CountComponents(const std::vector<RelationSchema>& body,
                           AttrSet head, const Database& db,
                           const CountReads& reads);

/// |Q(D)|: the number of distinct projections of the full join onto `head`,
/// saturated at kMaxOutputs (CountComponents' `outputs`, reading nothing more).
std::uint64_t CountOutputs(const std::vector<RelationSchema>& body,
                           AttrSet head, const Database& db);

}  // namespace adp

#endif  // ADP_RELATIONAL_JOIN_H_
