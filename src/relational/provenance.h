// ProvenanceIndex: incremental deletion propagation over a materialized full
// join. This is the data structure behind GreedyForCQ (Algorithm 6) and the
// DeletionMonitor: it answers "how many output tuples would disappear if
// this input tuple were deleted right now?" exactly, and applies deletions
// incrementally.
//
// Model: each full-join row belongs to one output *group* (its projection
// onto the head). An output tuple is alive while its group has at least one
// alive row; deleting an input tuple kills every alive row it supports.
//
// Profits are maintained, not recomputed. Call a tuple of relation i a live
// supporter of group g when it supports at least one alive row of g.
// Deleting t kills g exactly when t is relation i's only live supporter of
// g, so t's profit is the number of groups it supports alone. Per (group,
// relation) the index keeps the number of distinct live supporters and the
// XOR of their ids, which names the survivor when the count drops to one.
// A profit can therefore *rise* after a deletion elsewhere (under a
// projected head, a group's other supporter loses its last row there).
//
// Cost model (rows = |join|, p = body size, tuples = Σ |instances|):
//   build:      O(rows·p + tuples) time and words: the join's rows are
//               already support, which the index holds and reads in place,
//               grouped by head codes (GroupJoinRows, relational/join.h).
//               Built from a body, the index runs FullJoin and that grouping
//               itself; built from the join a counting pass kept
//               (ComponentJoin), it shares the join, copies its output
//               groups and joins nothing;
//   Delete:     O(p) per join row it kills — each row dies once, so a whole
//               deletion sequence costs O(rows·p);
//   Profit, IsRelevant: O(1) reads.
// When every group is a single row (a full head), a tuple's profit is its
// live-row count and the supporter counts are not built.

#ifndef ADP_RELATIONAL_PROVENANCE_H_
#define ADP_RELATIONAL_PROVENANCE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "relational/database.h"
#include "relational/join.h"
#include "util/attr_set.h"

namespace adp {

class ProvenanceIndex {
 public:
  /// Builds the index over `join`, the full join of a body over `db`
  /// (support column i is relation i of `db`), which it holds and reads in
  /// place, its rows grouped by their head codes: `join->outputs` when set
  /// (GroupJoinRows(join->join, head)), else grouped here. Throws
  /// std::length_error when the join has 2^32 or more (row, relation)
  /// support entries.
  ProvenanceIndex(std::shared_ptr<const ComponentJoin> join, AttrSet head,
                  const Database& db);

  /// Builds the index by materializing the full join of `body` over `db`,
  /// as above.
  ProvenanceIndex(const std::vector<RelationSchema>& body, AttrSet head,
                  const Database& db);

  /// Number of relations in the body.
  std::size_t num_relations() const { return p_; }

  /// Number of output tuples initially / still alive.
  std::int64_t total_outputs() const { return total_outputs_; }
  std::int64_t alive_outputs() const { return alive_outputs_; }

  /// Exact current profit of deleting tuple `t` of relation `rel`:
  /// |Q(D - S)| - |Q(D - S - t)| where S is the set already deleted.
  std::int64_t Profit(int rel, TupleId t) const {
    const std::size_t s = base_[rel] + t;
    return row_group_.empty() ? live_rows_[s] : profit_[s];
  }

  /// True if the tuple still supports at least one alive row (deleting it
  /// can change the output).
  bool IsRelevant(int rel, TupleId t) const {
    return live_rows_[base_[rel] + t] > 0;
  }

  /// Deletes tuple `t` of relation `rel`; returns the number of output
  /// tuples that died as a consequence. When `changed` is set, appends
  /// (relation, tuple) for every tuple whose Profit or IsRelevant changed;
  /// a tuple may appear more than once.
  std::int64_t Delete(int rel, TupleId t,
                      std::vector<std::pair<int, TupleId>>* changed = nullptr);

  /// Number of tuples of relation `rel` tracked by the index (== instance
  /// size at construction).
  std::size_t NumTuples(int rel) const { return base_[rel + 1] - base_[rel]; }

 private:
  // Live supporters of one (group, relation) pair.
  struct Supporters {
    std::uint32_t count = 0;  // distinct tuples with an alive row in the group
    TupleId xor_ids = 0;      // XOR of their tuple ids
  };

  // Kills alive row `r`; returns 1 if its group died with it.
  std::int64_t KillRow(std::uint32_t r,
                       std::vector<std::pair<int, TupleId>>* changed);

  std::size_t p_ = 0;
  std::int64_t total_outputs_ = 0;
  std::int64_t alive_outputs_ = 0;

  // Tuple slots: tuple t of relation i is slot base_[i] + t.
  std::vector<std::size_t> base_;
  // CSR over slots: the rows slot s supports are
  // tuple_rows_[row_begin_[s] .. row_begin_[s + 1]), ascending.
  std::vector<std::uint32_t> row_begin_;
  std::vector<std::uint32_t> tuple_rows_;
  // Per slot: alive rows it supports.
  std::vector<std::uint32_t> live_rows_;

  // The join the index reads; per row: support (stride p_, the join's
  // matrix) and alive flag.
  std::shared_ptr<const ComponentJoin> join_;
  const TupleId* support_ = nullptr;
  std::vector<char> row_alive_;

  // Grouped mode only (some group has several rows); all empty otherwise.
  std::vector<std::uint32_t> row_group_;    // row -> group
  std::vector<std::uint32_t> group_alive_;  // group -> alive rows
  std::vector<Supporters> supporters_;      // group * p_ + relation
  // Row r's entry for relation i is row_entry_[r * p_ + i]: the CSR position
  // of the first row that tuple supports in r's group. entry_live_, indexed
  // by that position, counts the tuple's alive rows in the group.
  std::vector<std::uint32_t> row_entry_;
  std::vector<std::uint32_t> entry_live_;
  std::vector<std::uint32_t> profit_;  // per slot: groups supported alone
};

}  // namespace adp

#endif  // ADP_RELATIONAL_PROVENANCE_H_
