// Relation schemas and columnar relation instances.
//
// Storage layout (docs/RELATIONAL.md): a RelationInstance is column-major.
// Each column holds dictionary codes (`Code`, uint32) in a std::vector
// sized by its rows; the per-column dictionary maps codes to the original
// values.
// Equality, grouping, and deduplication therefore compare 32-bit codes
// instead of materialized rows, and the dictionary size of a column is its
// exact distinct count — per-column stats the planner can read for free.
// (Plan choice by those stats stays on ROADMAP: plans are cached per query
// text and option bits, not per binding, so a cached plan cannot depend on
// them.)
//
// Dictionaries are append-only and shared: deriving an instance by gather
// (selection, partition, tuple removal) copies code columns and bumps the
// dictionary refcount instead of re-interning values. Existing codes never
// change meaning, so sharing is safe across the sharded solver's threads as
// long as nobody appends to the source instance mid-solve (bound snapshots
// are immutable by contract). Mutating appends copy-on-write a dictionary
// that is still shared. Codes are only comparable within one column of one
// instance-chain — never compare raw codes across relations.

#ifndef ADP_RELATIONAL_RELATION_H_
#define ADP_RELATIONAL_RELATION_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "relational/tuple.h"
#include "util/attr_set.h"

namespace adp {

/// Schema of one relation appearing in a query body: a name plus an ordered
/// list of attribute ids (the column order of its instances).
struct RelationSchema {
  std::string name;
  std::vector<AttrId> attrs;

  /// The (unordered) set of attributes.
  AttrSet attr_set() const {
    AttrSet s;
    for (AttrId a : attrs) s.Add(a);
    return s;
  }

  /// True if the relation has no attributes (a "vacuum" relation, §3.1).
  bool vacuum() const { return attrs.empty(); }

  /// Position of attribute `a` in the column order, or -1 if absent.
  int ColumnOf(AttrId a) const {
    for (std::size_t i = 0; i < attrs.size(); ++i) {
      if (attrs[i] == a) return static_cast<int>(i);
    }
    return -1;
  }
};

/// Connected components of a query body: two relations are adjacent when
/// they share an attribute in `allowed`. Each component lists its body
/// positions in ascending order, and the components come in order of their
/// smallest position; a relation sharing nothing in `allowed` (a vacuum one,
/// say) is a component of its own.
std::vector<std::vector<int>> BodyComponents(
    const std::vector<RelationSchema>& body, AttrSet allowed);

/// Dictionary code of a value within one column. 32 bits: a column cannot
/// hold more distinct values than rows, and rows are capped by TupleId.
using Code = std::uint32_t;

/// Append-only value dictionary of one column: `values[code]` is the
/// original value, `index` the reverse map. Codes are assigned in first-seen
/// order and never change meaning, which is what makes sharing a dictionary
/// across derived instances sound.
struct ColumnDict {
  std::vector<Value> values;
  std::unordered_map<Value, Code> index;

  std::size_t size() const { return values.size(); }

  /// Code of `v`, interning it if new.
  Code Intern(Value v) {
    auto [it, inserted] = index.try_emplace(v, static_cast<Code>(values.size()));
    if (inserted) values.push_back(v);
    return it->second;
  }

  /// Code of `v`, or -1 if `v` was never interned (a probe against a value
  /// absent from the dictionary can skip the data scan entirely).
  std::int64_t Lookup(Value v) const {
    auto it = index.find(v);
    return it == index.end() ? -1 : static_cast<std::int64_t>(it->second);
  }
};

/// Thrown when an append would push an instance past MaxRows() — TupleId is
/// 32-bit and silently truncated row ids would corrupt origin tracking. The
/// engine surfaces this as Status kInvalidArgument from BindDatabase.
class TupleLimitError : public std::length_error {
 public:
  using std::length_error::length_error;
};

/// An instance of one relation, stored column-major with per-column
/// dictionary encoding. Transforms that derive sub-instances (selection
/// pushdown, universal-attribute removal, Universe partitioning) carry
/// `origin` ids so that any solution computed on the transformed instance
/// can be reported against the root database.
class RelationInstance {
 public:
  /// Number of tuples.
  std::size_t size() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  /// Number of columns (0 until the first append fixes it).
  std::size_t arity() const { return cols_.size(); }

  /// Materializes row `i` as a row-major Tuple. Compatibility shim for cold
  /// paths and tests; hot loops should use ValueAt/CodeAt.
  Tuple tuple(std::size_t i) const;

  /// Value at (row, col), decoded through the column dictionary.
  Value ValueAt(std::size_t row, std::size_t col) const;

  /// Dictionary code at (row, col). Only comparable against codes of the
  /// same column of this instance (or one sharing its dictionary).
  Code CodeAt(std::size_t row, std::size_t col) const;

  /// The dictionary of column `col` (probe with ColumnDict::Lookup).
  const ColumnDict& dict(std::size_t col) const;

  /// Exact number of distinct values in column `col` — the dictionary size,
  /// maintained for free by interning. NOTE: cached plans are keyed per
  /// query text and option bits, not per binding, so plan choice cannot
  /// consume this yet (see ROADMAP: cost-based linearization).
  std::size_t DistinctInColumn(std::size_t col) const;

  /// Root-database row id of local tuple `i` (identity in a root instance).
  TupleId OriginOf(std::size_t i) const {
    return origin_.empty() ? static_cast<TupleId>(i) : origin_[i];
  }

  /// Index of the corresponding relation in the root query's body.
  int root_relation() const { return root_relation_; }
  void set_root_relation(int r) { root_relation_ = r; }

  /// Appends a tuple whose origin is itself (root instances).
  void Add(Tuple t);

  /// Appends one row from a caller-owned buffer of `n` values with identity
  /// origin — the bulk-load path (CSV, workload builders): no per-row Tuple
  /// allocation, one dictionary probe per value.
  void AppendRow(const Value* vals, std::size_t n);

  /// A new instance of `rows` of `src`, keeping only `kept_cols` (source
  /// column positions, in output order): the one derivation (selection
  /// pushdown, Universe partitioning, tuple removal, Dedup). Shares the
  /// source dictionaries and gathers the raw codes — no re-interning, no
  /// value materialization; origins follow the source rows and the root
  /// relation is the source's. A source without columns (an empty root
  /// instance) gives one without columns. `src` must not be appended to
  /// concurrently.
  static RelationInstance Gather(const RelationInstance& src,
                                 std::span<const TupleId> rows,
                                 const std::vector<int>& kept_cols);

  /// Removes duplicate tuples, keeping the first occurrence (and its
  /// origin): the first row of each group of rows equal on every column's
  /// code, grouped by HashGroupIndex's build loop (codes biject values
  /// within a column, so code-row equality is value-row equality).
  /// Instances handed to the solvers must be duplicate-free.
  void Dedup();

  /// Current append capacity: appends that would exceed it throw
  /// TupleLimitError. Defaults to the TupleId ceiling (2^32 - 1).
  static std::uint64_t MaxRows();

  /// Test hook: lowers/restores the MaxRows ceiling; returns the previous
  /// value so tests can RAII-restore it.
  static std::uint64_t OverrideMaxRowsForTest(std::uint64_t n);

 private:
  // A copy of the instance copies the codes and shares the dictionary. That
  // is sound because dictionaries are append-only and a mutating append
  // clones a shared one first (MutableDict).
  struct Column {
    std::vector<Code> codes;
    std::shared_ptr<ColumnDict> dict;
  };

  // Fixes the column count on first append; throws on arity mismatch.
  void EnsureArity(std::size_t n);
  // Throws TupleLimitError if `extra` more rows would pass MaxRows().
  void CheckCapacity(std::size_t extra) const;
  // Dictionary of column `c`, cloned first if still shared (copy-on-write);
  // only mutating appends call this.
  ColumnDict& MutableDict(std::size_t c);

  std::vector<Column> cols_;
  std::vector<TupleId> origin_;  // empty => identity mapping
  std::size_t num_rows_ = 0;
  int root_relation_ = -1;
};

// Instances live in growing vectors (Database, Universe groups): those must
// move them when they reallocate, not copy them.
static_assert(std::is_nothrow_move_constructible_v<RelationInstance>);

inline Value RelationInstance::ValueAt(std::size_t row,
                                       std::size_t col) const {
  const Column& c = cols_[col];
  return c.dict->values[c.codes[row]];
}

inline Code RelationInstance::CodeAt(std::size_t row, std::size_t col) const {
  return cols_[col].codes[row];
}

inline const ColumnDict& RelationInstance::dict(std::size_t col) const {
  return *cols_[col].dict;
}

inline std::size_t RelationInstance::DistinctInColumn(std::size_t col) const {
  return cols_[col].dict->values.size();
}

}  // namespace adp

#endif  // ADP_RELATIONAL_RELATION_H_
