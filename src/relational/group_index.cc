#include "relational/group_index.h"

namespace adp {

std::size_t TableSlots(std::size_t rows) {
  std::size_t cap = 16;
  while (cap < rows * 2) cap <<= 1;
  return cap;
}

bool DenseKey(std::size_t dict_size, std::size_t rows) {
  return dict_size <= TableSlots(rows);
}

KeyGroups::KeyGroups(const RelationInstance& inst, std::vector<int> key_cols)
    : inst_(&inst), key_cols_(std::move(key_cols)) {
  const std::size_t n = inst.size();
  group_of_.resize(n);
  if (key_cols_.size() == 1 && n > 0 &&
      DenseKey(inst.DistinctInColumn(key_cols_[0]), n)) {
    const std::size_t col = key_cols_[0];
    group_of_code_.assign(inst.DistinctInColumn(col), kNoGroup);
    for (std::size_t r = 0; r < n; ++r) {
      std::uint32_t& g = group_of_code_[inst.CodeAt(r, col)];
      if (g == kNoGroup) g = static_cast<std::uint32_t>(num_groups_++);
      group_of_[r] = g;
    }
    return;
  }
  table_ = GroupByCodes(
      n, key_cols_.size(),
      [&](std::size_t r, std::size_t j) {
        return inst.CodeAt(r, key_cols_[j]);
      },
      [&](std::size_t r, TupleId first) {
        group_of_[r] = first == r ? static_cast<std::uint32_t>(num_groups_++)
                                  : group_of_[first];
      });
  mask_ = table_.size() - 1;
}

std::int64_t KeyGroups::FindByCodes(const Code* codes) const {
  if (table_.empty()) {
    // Dense path: one key column, codes index the array directly.
    if (codes[0] >= group_of_code_.size()) return -1;
    const std::uint32_t g = group_of_code_[codes[0]];
    return g == kNoGroup ? -1 : static_cast<std::int64_t>(g);
  }
  const std::size_t kw = key_cols_.size();
  std::size_t slot =
      HashCodes(kw, [&](std::size_t j) { return codes[j]; }) & mask_;
  for (;; slot = (slot + 1) & mask_) {
    const TupleId rep = table_[slot];
    if (rep == kNoGroup) return -1;
    bool eq = true;
    for (std::size_t j = 0; j < kw && eq; ++j) {
      eq = inst_->CodeAt(rep, key_cols_[j]) == codes[j];
    }
    if (eq) return static_cast<std::int64_t>(group_of_[rep]);
  }
}

HashGroupIndex::HashGroupIndex(const RelationInstance& inst,
                               std::vector<int> key_cols)
    : KeyGroups(inst, std::move(key_cols)) {
  // A counting sort: count each group's rows, turn the counts into each
  // group's end, then place rows last to first, moving each group's end
  // down to its start. Rows stay ascending within a group and no cursor
  // copy is needed.
  const std::size_t n = inst.size();
  offsets_.assign(num_groups() + 1, 0);
  for (std::size_t r = 0; r < n; ++r) ++offsets_[group_of(r)];
  std::uint32_t end = 0;
  for (std::uint32_t& o : offsets_) {
    end += o;
    o = end;
  }
  rows_.resize(n);
  for (std::size_t r = n; r-- > 0;) {
    rows_[--offsets_[group_of(r)]] = static_cast<TupleId>(r);
  }
}

KeyProbe::KeyProbe(const KeyGroups* groups,
                   std::vector<const ColumnDict*> from,
                   std::vector<const ColumnDict*> to, std::size_t probing_rows)
    : groups_(groups), probe_(from.size()) {
  for (std::size_t j = 0; j < from.size(); ++j) {
    tables_.push_back(from[j]->TranslationTo(*to[j]));
  }
  if (from.size() != 1) return;
  const std::vector<Code>& table = *tables_[0];
  if (groups_ == nullptr) {
    direct_ = table.data();
  } else if (TranslatesByTable(table.size(), probing_rows)) {
    composed_.assign(table.size(), kNoGroup);
    for (std::size_t c = 0; c < table.size(); ++c) {
      if (table[c] == kNoCode) continue;
      const std::int64_t g = groups_->FindByCodes(&table[c]);
      if (g >= 0) composed_[c] = static_cast<std::uint32_t>(g);
    }
    direct_ = composed_.data();
  }
}

}  // namespace adp
