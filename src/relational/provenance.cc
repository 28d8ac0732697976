#include "relational/provenance.h"

#include <limits>
#include <stdexcept>

#include "relational/join.h"

namespace adp {
namespace {

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

}  // namespace

ProvenanceIndex::ProvenanceIndex(const std::vector<RelationSchema>& body,
                                 AttrSet head, const Database& db)
    : ProvenanceIndex(std::make_shared<const ComponentJoin>(
                          ComponentJoin{FullJoin(body, db), std::nullopt}),
                      head, db) {}

ProvenanceIndex::ProvenanceIndex(std::shared_ptr<const ComponentJoin> join,
                                 AttrSet head, const Database& db)
    : p_(join->join.num_relations), join_(std::move(join)) {
  const JoinResult& full_join = join_->join;
  const std::size_t rows = full_join.NumRows();
  if (rows * p_ >= kNone) {
    throw std::length_error("provenance index: join too large");
  }

  // Rows of a full join are distinct (instances are duplicate-free), so a
  // head covering every joined attribute makes each row its own group.
  AttrSet all;
  for (AttrId a : full_join.attrs) all.Add(a);
  std::size_t groups = rows;
  if (!all.SubsetOf(head)) {
    JoinGroups own;
    const JoinGroups* outputs =
        join_->outputs ? &*join_->outputs : nullptr;
    if (outputs == nullptr) {
      own = GroupJoinRows(full_join, head);
      outputs = &own;
    }
    groups = outputs->num_groups();
    if (groups != rows) row_group_ = outputs->group_of;
  }
  support_ = full_join.support.data();
  total_outputs_ = alive_outputs_ = static_cast<std::int64_t>(groups);
  row_alive_.assign(rows, 1);

  base_.assign(p_ + 1, 0);
  for (std::size_t i = 0; i < p_; ++i) {
    base_[i + 1] = base_[i] + db.rel(i).size();
  }
  const std::size_t tuples = base_[p_];

  // CSR fill: count into row_begin_[s + 1], prefix-sum to starts, place each
  // row at its slot's cursor (which ends on the next slot's start), shift.
  row_begin_.assign(tuples + 1, 0);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t i = 0; i < p_; ++i) {
      ++row_begin_[base_[i] + support_[r * p_ + i] + 1];
    }
  }
  live_rows_.resize(tuples);
  for (std::size_t s = 0; s < tuples; ++s) {
    live_rows_[s] = row_begin_[s + 1];
    row_begin_[s + 1] += row_begin_[s];
  }
  tuple_rows_.resize(rows * p_);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t i = 0; i < p_; ++i) {
      tuple_rows_[row_begin_[base_[i] + support_[r * p_ + i]]++] =
          static_cast<std::uint32_t>(r);
    }
  }
  for (std::size_t s = tuples; s > 0; --s) row_begin_[s] = row_begin_[s - 1];
  row_begin_[0] = 0;

  if (row_group_.empty()) return;

  group_alive_.assign(groups, 0);
  for (std::uint32_t g : row_group_) ++group_alive_[g];
  supporters_.assign(groups * p_, Supporters{});
  row_entry_.resize(rows * p_);
  entry_live_.assign(rows * p_, 0);
  // Entry ids are CSR positions, which grow with the slot: an id below the
  // current slot's first position belongs to an earlier tuple.
  std::vector<std::uint32_t> entry_of(groups, kNone);
  for (std::size_t i = 0; i < p_; ++i) {
    for (std::size_t t = 0; t < NumTuples(static_cast<int>(i)); ++t) {
      const std::size_t s = base_[i] + t;
      for (std::uint32_t k = row_begin_[s]; k < row_begin_[s + 1]; ++k) {
        const std::uint32_t r = tuple_rows_[k];
        const std::uint32_t g = row_group_[r];
        std::uint32_t& e = entry_of[g];
        if (e == kNone || e < row_begin_[s]) {
          e = k;
          Supporters& sup = supporters_[g * p_ + i];
          ++sup.count;
          sup.xor_ids ^= static_cast<TupleId>(t);
        }
        ++entry_live_[e];
        row_entry_[r * p_ + i] = e;
      }
    }
  }
  profit_.assign(tuples, 0);
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t i = 0; i < p_; ++i) {
      const Supporters& sup = supporters_[g * p_ + i];
      if (sup.count == 1) ++profit_[base_[i] + sup.xor_ids];
    }
  }
}

std::int64_t ProvenanceIndex::Delete(
    int rel, TupleId t, std::vector<std::pair<int, TupleId>>* changed) {
  const std::size_t s = base_[rel] + t;
  std::int64_t died = 0;
  for (std::uint32_t k = row_begin_[s]; k < row_begin_[s + 1]; ++k) {
    const std::uint32_t r = tuple_rows_[k];
    if (!row_alive_[r]) continue;
    row_alive_[r] = 0;
    died += KillRow(r, changed);
  }
  alive_outputs_ -= died;
  return died;
}

std::int64_t ProvenanceIndex::KillRow(
    std::uint32_t r, std::vector<std::pair<int, TupleId>>* changed) {
  const TupleId* sup = &support_[std::size_t{r} * p_];
  auto note = [changed](std::size_t i, TupleId u) {
    if (changed) changed->emplace_back(static_cast<int>(i), u);
  };
  if (row_group_.empty()) {
    for (std::size_t i = 0; i < p_; ++i) {
      --live_rows_[base_[i] + sup[i]];
      note(i, sup[i]);
    }
    return 1;
  }
  const std::uint32_t g = row_group_[r];
  for (std::size_t i = 0; i < p_; ++i) {
    const TupleId u = sup[i];
    if (--live_rows_[base_[i] + u] == 0) note(i, u);
    if (--entry_live_[row_entry_[std::size_t{r} * p_ + i]] > 0) continue;
    // u just lost its last alive row in g.
    Supporters& group_sup = supporters_[std::size_t{g} * p_ + i];
    --group_sup.count;
    group_sup.xor_ids ^= u;
    if (group_sup.count == 0) {  // u supported g alone
      --profit_[base_[i] + u];
      note(i, u);
    } else if (group_sup.count == 1) {  // the survivor now supports g alone
      ++profit_[base_[i] + group_sup.xor_ids];
      note(i, group_sup.xor_ids);
    }
  }
  return --group_alive_[g] == 0 ? 1 : 0;
}

}  // namespace adp
