// Grouping rows by dictionary codes, and matching keys across dictionaries:
// the one path for both (docs/RELATIONAL.md, "Grouping").
//
// HashGroupIndex groups the rows of ONE RelationInstance by their code
// combination on a set of key columns. Because codes biject values within a
// column, grouping by codes is grouping by values — but only within the
// instance (or a dictionary-sharing derivative) the index was built over.
// Raw codes are NOT comparable across relations: KeyProbe matches the keys
// of another instance's rows (or of join rows) against an index by
// translating their values through the index's dictionaries
// (ColumnDict::Lookup), once per code when the probing dictionary has no
// more entries than the rows probing (TranslatesByTable), else per row.
//
// A single-column key whose dictionary has no more entries than the
// open-addressing table would have slots (DenseKey) maps code -> group
// through a code-indexed array: no hashing, and a probe is one
// bounds-checked read. Every other key (several columns, or one column over
// a dictionary much larger than the instance, as in Universe groups gathered
// from a large root) goes through GroupByCodes, the one open-addressing
// build loop: a table over 32-bit representative row ids, with collisions
// resolved by comparing key codes against the representative, so no key
// tuples are ever materialized. The choice is made from the dictionary size
// against the row count alone, and both paths build the same index: groups
// are numbered in first-seen row order and each group's row list is in
// ascending row order.
//
// Storage is CSR (compressed sparse row), three flat arrays and no
// per-group allocation: `rows_` holds every row id grouped by group,
// `offsets_[g] .. offsets_[g + 1]` delimits group g inside it, and
// `group_of_[r]` names the group of row r.
//
// Users: the materializing join (build side and probe), count propagation
// (each tree edge's child groups and parent match, relational/join.h),
// Universe partitioning (PartitionByAttrs, query/transform.h), the Boolean
// solver's hubs (solver/boolean.h), and through GroupByCodes alone
// GroupJoinRows (over join rows) and RelationInstance::Dedup (over every
// column).

#ifndef ADP_RELATIONAL_GROUP_INDEX_H_
#define ADP_RELATIONAL_GROUP_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "relational/relation.h"
#include "util/hash.h"

namespace adp {

/// No group: a key an index does not hold (KeyProbe), or a free slot of the
/// open-addressing table.
inline constexpr std::uint32_t kNoGroup =
    std::numeric_limits<std::uint32_t>::max();

/// Slots of the open-addressing table over `rows` rows: the power of two >=
/// max(16, 2 * rows).
std::size_t TableSlots(std::size_t rows);

/// True when a single-column key over a dictionary of `dict_size` entries,
/// on an instance of `rows` rows, is grouped or translated through a
/// code-indexed array: when the dictionary has no more entries than the
/// open-addressing table would have slots, so the array is no larger than
/// the table it replaces.
bool DenseKey(std::size_t dict_size, std::size_t rows);

/// True when a probing key column over a dictionary of `dict_size` entries,
/// probed by `probing_rows` rows, is translated into the index's dictionary
/// once per code, through a table (never more translations than rows),
/// rather than once per row through ColumnDict::Lookup.
inline bool TranslatesByTable(std::size_t dict_size, std::size_t probing_rows) {
  return dict_size <= probing_rows;
}

/// Hash of a key of `width` codes, code j being `code(j)`.
template <typename CodeOf>
std::uint64_t HashCodes(std::size_t width, CodeOf code) {
  std::uint64_t h = 0x2545f4914f6cdd1dULL;
  for (std::size_t j = 0; j < width; ++j) h = HashMix(h, code(j));
  return h;
}

/// The open-addressing build loop: for each row r < `rows`, whose key is
/// the `width` codes `code_at(r, j)`, calls `found(r, first)` with `first`
/// the first row whose codes equal r's (r itself when no earlier row's do).
/// Numbering the groups is the caller's. Returns the table, slot -> first
/// row (kNoGroup when free), whose size is TableSlots(rows). Rows must
/// number fewer than kNoGroup.
template <typename CodeAt, typename Found>
std::vector<TupleId> GroupByCodes(std::size_t rows, std::size_t width,
                                  CodeAt code_at, Found found) {
  std::vector<TupleId> table(TableSlots(rows), kNoGroup);
  const std::size_t mask = table.size() - 1;
  for (std::size_t r = 0; r < rows; ++r) {
    const std::uint64_t h =
        HashCodes(width, [&](std::size_t j) { return code_at(r, j); });
    for (std::size_t slot = h & mask;; slot = (slot + 1) & mask) {
      const TupleId first = table[slot];
      if (first == kNoGroup) {
        table[slot] = static_cast<TupleId>(r);
        found(r, static_cast<TupleId>(r));
        break;
      }
      bool eq = true;
      for (std::size_t j = 0; j < width && eq; ++j) {
        eq = code_at(first, j) == code_at(r, j);
      }
      if (eq) {
        found(r, first);
        break;
      }
    }
  }
  return table;
}

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

  /// A row carrying the group's key (the first one seen), so
  /// representatives ascend with the group number.
  TupleId representative(std::size_t g) const { return rows_[offsets_[g]]; }

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
  // table_ stays empty. Otherwise: GroupByCodes' table, and group_of_code_
  // stays empty.
  std::vector<std::uint32_t> group_of_code_;
  std::vector<TupleId> table_;
  std::size_t mask_ = 0;
};

/// Finds the group of an index holding each probing row's key (kNoGroup:
/// none). Key column j holds codes of dictionary `from[j]`, translated into
/// the index's `to[j]` (a value absent there matches no group): once per
/// code, into a table, when TranslatesByTable holds, and a one-column key's
/// table maps each code straight to its group; else once per row (Lookup).
/// Without a `build` index the key has one column, and its group is its
/// code in `to[0]` (a code-keyed tree edge, relational/join.h). No
/// dictionary may belong to an empty instance without columns.
class KeyProbe {
 public:
  KeyProbe(const HashGroupIndex* build, std::vector<const ColumnDict*> from,
           std::vector<const ColumnDict*> to, std::size_t probing_rows);

  /// Calls `emit(r, g)` for every probing row r < `rows`, with g the group
  /// holding its key; row r's column-j code is `code_of(r, j)`.
  template <typename CodeOf, typename Emit>
  void ForEachRow(std::size_t rows, CodeOf code_of, Emit emit) {
    if (table_.size() == 1 && !table_[0].empty()) {
      for (std::size_t r = 0; r < rows; ++r) emit(r, table_[0][code_of(r, 0)]);
      return;
    }
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t j = 0; j < probe_.size(); ++j) {
        const Code c = code_of(r, j);
        const std::int64_t code =
            table_[j].empty() ? to_[j]->Lookup(from_[j]->values[c])
                              : static_cast<std::int64_t>(table_[j][c]);
        probe_[j] = code < 0 ? kNoGroup : static_cast<Code>(code);
      }
      emit(r, Group(probe_.data()));
    }
  }

 private:
  std::uint32_t Group(const Code* codes) const {
    for (std::size_t j = 0; j < probe_.size(); ++j) {
      if (codes[j] == kNoGroup) return kNoGroup;
    }
    if (build_ == nullptr) return codes[0];
    const std::int64_t g = build_->FindByCodes(codes);
    return g < 0 ? kNoGroup : static_cast<std::uint32_t>(g);
  }

  const HashGroupIndex* build_;  // null: the key's code is its group
  std::vector<const ColumnDict*> from_;
  std::vector<const ColumnDict*> to_;
  std::vector<std::vector<Code>> table_;  // per key column; empty: Lookup
  std::vector<Code> probe_;
};

}  // namespace adp

#endif  // ADP_RELATIONAL_GROUP_INDEX_H_
