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

HashGroupIndex::HashGroupIndex(const RelationInstance& inst,
                               std::vector<int> key_cols)
    : inst_(&inst), key_cols_(std::move(key_cols)) {
  const std::size_t n = inst.size();
  group_of_.resize(n);

  // Pass 1: name every row's group in first-seen order; offsets_[g] counts
  // the rows of group g for now.
  auto grouped = [&](std::size_t r, std::uint32_t g) {
    group_of_[r] = g;
    if (g == offsets_.size()) offsets_.push_back(0);
    ++offsets_[g];
  };
  if (key_cols_.size() == 1 && n > 0 &&
      DenseKey(inst.DistinctInColumn(key_cols_[0]), n)) {
    const std::size_t col = key_cols_[0];
    group_of_code_.assign(inst.DistinctInColumn(col), kNoGroup);
    for (std::size_t r = 0; r < n; ++r) {
      std::uint32_t& g = group_of_code_[inst.CodeAt(r, col)];
      if (g == kNoGroup) g = static_cast<std::uint32_t>(offsets_.size());
      grouped(r, g);
    }
  } else {
    table_ = GroupByCodes(
        n, key_cols_.size(),
        [&](std::size_t r, std::size_t j) {
          return inst.CodeAt(r, key_cols_[j]);
        },
        [&](std::size_t r, TupleId first) {
          grouped(r, first == r ? static_cast<std::uint32_t>(offsets_.size())
                                : group_of_[first]);
        });
    mask_ = table_.size() - 1;
  }

  // Pass 2, a counting sort in place: turn the counts into each group's end,
  // then place rows last to first, moving each group's end down to its
  // start. Rows stay ascending within a group and no cursor copy is needed.
  std::uint32_t end = 0;
  for (std::uint32_t& o : offsets_) {
    end += o;
    o = end;
  }
  rows_.resize(n);
  for (std::size_t r = n; r-- > 0;) {
    rows_[--offsets_[group_of_[r]]] = static_cast<TupleId>(r);
  }
  offsets_.push_back(static_cast<std::uint32_t>(n));
}

std::int64_t HashGroupIndex::FindByCodes(const Code* codes) const {
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

KeyProbe::KeyProbe(const HashGroupIndex* build,
                   std::vector<const ColumnDict*> from,
                   std::vector<const ColumnDict*> to, std::size_t probing_rows)
    : build_(build), from_(std::move(from)), to_(std::move(to)),
      table_(from_.size()), probe_(from_.size()) {
  for (std::size_t j = 0; j < from_.size(); ++j) {
    const ColumnDict& dict = *from_[j];
    if (!TranslatesByTable(dict.size(), probing_rows)) continue;
    table_[j].assign(dict.size(), kNoGroup);
    for (std::size_t c = 0; c < dict.size(); ++c) {
      const std::int64_t code = to_[j]->Lookup(dict.values[c]);
      if (code < 0) continue;
      const Code to_code = static_cast<Code>(code);
      const std::int64_t g = from_.size() == 1 && build_ != nullptr
                                 ? build_->FindByCodes(&to_code)
                                 : to_code;
      if (g >= 0) table_[j][c] = static_cast<Code>(g);
    }
  }
}

}  // namespace adp
