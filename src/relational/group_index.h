// Hash-group index over dictionary-code columns.
//
// Groups the rows of ONE RelationInstance by their code combination on a
// set of key columns. Because codes biject values within a column, grouping
// by codes is grouping by values — but only within the instance (or a
// dictionary-sharing derivative) the index was built over. Probing from
// another instance must translate values through this instance's
// dictionaries first (ColumnDict::Lookup); raw codes are NOT comparable
// across relations.
//
// A single-column key whose dictionary has no more entries than the
// open-addressing table would have slots (DenseKey) maps code -> group
// through a code-indexed array: no hashing, and a probe is one
// bounds-checked read. Every other key (several columns, or one column over
// a dictionary much larger than the instance, as in Universe groups gathered
// from a large root) goes through open addressing over 32-bit
// representative row ids, with collisions resolved by comparing key codes
// against the representative, so no key tuples are ever materialized. The
// choice is made from the dictionary size against the row count alone, and
// both paths build the same index: groups are numbered in first-seen row
// order and each group's row list is in ascending row order.
//
// Storage is CSR (compressed sparse row), three flat arrays and no
// per-group allocation: `rows_` holds every row id grouped by group,
// `offsets_[g] .. offsets_[g + 1]` delimits group g inside it, and
// `group_of_[r]` names the group of row r. This is the substrate of Universe
// partitioning (Algorithm 4), of the join build side, and of count
// propagation (relational/join.h), which folds per-row values into per-group
// sums through `group_of`.

#ifndef ADP_RELATIONAL_GROUP_INDEX_H_
#define ADP_RELATIONAL_GROUP_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "relational/relation.h"

namespace adp {

/// True when a single-column key over a dictionary of `dict_size` entries,
/// on an instance of `rows` rows, is grouped or translated through a
/// code-indexed array: when the dictionary has no more entries than the
/// open-addressing table would have slots (the power of two >=
/// max(16, 2 * rows)), so the array is no larger than the table it
/// replaces.
bool DenseKey(std::size_t dict_size, std::size_t rows);

class HashGroupIndex {
 public:
  /// Builds the index over `inst` grouped by `key_cols` (column positions).
  /// With no key columns every row lands in one group. `inst` must outlive
  /// the index and must not be appended to while the index is in use.
  HashGroupIndex(const RelationInstance& inst, std::vector<int> key_cols);

  std::size_t num_groups() const { return offsets_.size() - 1; }

  /// Rows of group `g`, in ascending row order.
  std::span<const TupleId> rows(std::size_t g) const {
    return {rows_.data() + offsets_[g], rows_.data() + offsets_[g + 1]};
  }

  /// Group of row `r` of the indexed instance.
  std::uint32_t group_of(std::size_t r) const { return group_of_[r]; }

  /// A row carrying the group's key (the first one seen).
  TupleId representative(std::size_t g) const { return rows_[offsets_[g]]; }

  /// The group key decoded to values, in `key_cols` order.
  Tuple KeyValues(std::size_t g) const;

  /// Group holding key code combination `codes` (one code per key column,
  /// in `key_cols` order, expressed in THIS instance's dictionaries), or -1
  /// (also for a code past the end of the dictionary).
  std::int64_t FindByCodes(const Code* codes) const;

 private:
  const RelationInstance* inst_;
  std::vector<int> key_cols_;
  std::vector<TupleId> rows_;            // row ids, grouped by group
  std::vector<std::uint32_t> offsets_;   // group g = rows_[offsets_[g]..[g+1])
  std::vector<std::uint32_t> group_of_;  // row -> group
  // Dense single-column keys: code -> group (kNoGroup when absent), and
  // table_ stays empty. Otherwise: slot -> representative row (kEmptySlot
  // when free), and group_of_code_ stays empty.
  std::vector<std::uint32_t> group_of_code_;
  std::vector<TupleId> table_;
  std::size_t mask_ = 0;
};

}  // namespace adp

#endif  // ADP_RELATIONAL_GROUP_INDEX_H_
