// Grouping rows by dictionary codes, and matching keys across dictionaries:
// the one path for both (docs/RELATIONAL.md, "Grouping").
//
// KeyGroups groups the rows of ONE RelationInstance by their code
// combination on a set of key columns: each row's group, and the lookup from
// a key to its group. HashGroupIndex adds each group's rows, for the readers
// that walk them. Because codes biject values within a column, grouping by
// codes is grouping by values — but only within the instance (or a
// dictionary-sharing derivative) the groups were built over. Raw codes are
// NOT comparable across relations: KeyProbe matches the keys of another
// instance's rows (or of join rows) against the groups by translating their
// codes into the groups' dictionaries through the translation table kept
// per dictionary pair (ColumnDict::TranslationTo, relational/relation.h).
// A one-column key probed by at least as many rows as its dictionary has
// entries (TranslatesByTable) also composes that table with the lookup, so
// a probe is one read.
//
// A single-column key whose dictionary has no more entries than the
// open-addressing table would have slots (DenseKey) maps code -> group
// through a code-indexed array: no hashing, and a lookup is one
// bounds-checked read. Every other key (several columns, or one column over
// a dictionary much larger than the instance, as in Universe groups gathered
// from a large root) goes through GroupByCodes, the one open-addressing
// build loop: a table over 32-bit representative row ids, with collisions
// resolved by comparing key codes against the representative, so no key
// tuples are ever materialized. The choice is made from the dictionary size
// against the row count alone, and both paths build the same groups,
// numbered in first-seen row order.
//
// HashGroupIndex's row lists are CSR (compressed sparse row), two flat
// arrays and no per-group allocation: `rows_` holds every row id grouped by
// group, in ascending row order within a group, and `offsets_[g] ..
// offsets_[g + 1]` delimits group g inside it.
//
// Users: the materializing join's build side and Universe partitioning
// (PartitionByAttrs, query/transform.h) and Singleton case 2 read the rows
// (HashGroupIndex); count propagation's tree edges (relational/join.h) and
// the Boolean solver's hubs (solver/boolean.h) read group ids only
// (KeyGroups). Through GroupByCodes alone: GroupJoinRows (over one packed
// word per join row, or over the codes of a key that does not pack) and
// RelationInstance::Dedup (over every column).

#ifndef ADP_RELATIONAL_GROUP_INDEX_H_
#define ADP_RELATIONAL_GROUP_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "relational/relation.h"
#include "util/hash.h"

namespace adp {

/// No group: a key the groups do not hold (KeyProbe), or a free slot of the
/// open-addressing table. Equal to kNoCode, so a translation table is a
/// code -> group table for a key whose code is its group.
inline constexpr std::uint32_t kNoGroup =
    std::numeric_limits<std::uint32_t>::max();
static_assert(kNoGroup == kNoCode);

/// Slots of the open-addressing table over `rows` rows: the power of two >=
/// max(16, 2 * rows).
std::size_t TableSlots(std::size_t rows);

/// True when a single-column key over a dictionary of `dict_size` entries,
/// on an instance of `rows` rows, is grouped or translated through a
/// code-indexed array: when the dictionary has no more entries than the
/// open-addressing table would have slots, so the array is no larger than
/// the table it replaces.
bool DenseKey(std::size_t dict_size, std::size_t rows);

/// True when a one-column key over a dictionary of `dict_size` entries,
/// probed by `probing_rows` rows, composes its translation table with the
/// groups' lookup into one code -> group table per probe (never more
/// lookups than rows), rather than looking up each row's translated code.
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

/// Rows of one instance grouped by their codes on some key columns: each
/// row's group, numbered in first-seen row order, and the lookup from a key
/// to its group. No row lists (HashGroupIndex adds them).
class KeyGroups {
 public:
  /// Groups the rows of `inst` by `key_cols` (column positions). With no
  /// key columns every row lands in one group. `inst` must outlive the
  /// groups and must not be appended to while they are in use.
  KeyGroups(const RelationInstance& inst, std::vector<int> key_cols);

  std::size_t num_groups() const { return num_groups_; }

  /// Group of row `r` of the grouped instance.
  std::uint32_t group_of(std::size_t r) const { return group_of_[r]; }

  /// Group holding key code combination `codes` (one code per key column,
  /// in `key_cols` order, expressed in THIS instance's dictionaries), or -1
  /// (also for a code past the end of the dictionary).
  std::int64_t FindByCodes(const Code* codes) const;

 private:
  const RelationInstance* inst_;
  std::vector<int> key_cols_;
  std::vector<std::uint32_t> group_of_;  // row -> group
  std::size_t num_groups_ = 0;
  // Dense single-column keys: code -> group (kNoGroup when absent), and
  // table_ stays empty. Otherwise: GroupByCodes' table, and group_of_code_
  // stays empty.
  std::vector<std::uint32_t> group_of_code_;
  std::vector<TupleId> table_;
  std::size_t mask_ = 0;
};

/// KeyGroups with each group's rows, for the readers that walk them.
class HashGroupIndex : public KeyGroups {
 public:
  /// Builds the index over `inst` grouped by `key_cols`, as KeyGroups.
  HashGroupIndex(const RelationInstance& inst, std::vector<int> key_cols);

  /// Rows of group `g`, in ascending row order.
  std::span<const TupleId> rows(std::size_t g) const {
    return {rows_.data() + offsets_[g], rows_.data() + offsets_[g + 1]};
  }

  /// A row carrying the group's key (the first one seen), so
  /// representatives ascend with the group number.
  TupleId representative(std::size_t g) const { return rows_[offsets_[g]]; }

 private:
  std::vector<TupleId> rows_;           // row ids, grouped by group
  std::vector<std::uint32_t> offsets_;  // group g = rows_[offsets_[g]..[g+1])
};

/// Finds the group holding each probing row's key (kNoGroup: none). Key
/// column j holds codes of dictionary `from[j]`, translated into the
/// groups' `to[j]` through the pair's translation table
/// (ColumnDict::TranslationTo; a value absent there matches no group). A
/// one-column key composes its table with the lookup when TranslatesByTable
/// holds. Without `groups` the key has one column, and its group is its code
/// in `to[0]` (a code-keyed tree edge, relational/join.h). No dictionary may
/// belong to an empty instance without columns.
class KeyProbe {
 public:
  KeyProbe(const KeyGroups* groups, std::vector<const ColumnDict*> from,
           std::vector<const ColumnDict*> to, std::size_t probing_rows);
  // direct_ may point into composed_, which a copy would not own.
  KeyProbe(const KeyProbe&) = delete;
  KeyProbe& operator=(const KeyProbe&) = delete;

  /// Calls `emit(r, g)` for every probing row r < `rows`, with g the group
  /// holding its key; row r's column-j code is `code_of(r, j)`.
  template <typename CodeOf, typename Emit>
  void ForEachRow(std::size_t rows, CodeOf code_of, Emit emit) {
    if (direct_ != nullptr) {
      for (std::size_t r = 0; r < rows; ++r) emit(r, direct_[code_of(r, 0)]);
      return;
    }
    for (std::size_t r = 0; r < rows; ++r) {
      bool absent = false;
      for (std::size_t j = 0; j < probe_.size(); ++j) {
        probe_[j] = (*tables_[j])[code_of(r, j)];
        absent |= probe_[j] == kNoCode;
      }
      const std::int64_t g = absent ? -1 : groups_->FindByCodes(probe_.data());
      emit(r, g < 0 ? kNoGroup : static_cast<std::uint32_t>(g));
    }
  }

 private:
  const KeyGroups* groups_;  // null: the key's code is its group
  // Per key column: the translation table of its dictionary pair.
  std::vector<std::shared_ptr<const std::vector<Code>>> tables_;
  // A one-column key's code -> group table when TranslatesByTable holds.
  std::vector<std::uint32_t> composed_;
  // code -> group for every probe, when one read answers it: the composed
  // table, or the translation itself without groups; else null.
  const std::uint32_t* direct_ = nullptr;
  std::vector<Code> probe_;
};

}  // namespace adp

#endif  // ADP_RELATIONAL_GROUP_INDEX_H_
