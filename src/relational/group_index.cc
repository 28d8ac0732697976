#include "relational/group_index.h"

#include <limits>

#include "util/hash.h"

namespace adp {
namespace {

constexpr TupleId kEmptySlot = std::numeric_limits<TupleId>::max();

}  // namespace

HashGroupIndex::HashGroupIndex(const RelationInstance& inst,
                               std::vector<int> key_cols)
    : inst_(&inst), key_cols_(std::move(key_cols)) {
  const std::size_t n = inst.size();
  std::size_t cap = 16;
  while (cap < n * 2) cap <<= 1;
  mask_ = cap - 1;
  table_.assign(cap, kEmptySlot);
  group_of_.resize(n);

  // Pass 1: name every row's group in first-seen order; offsets_[g] counts
  // the rows of group g for now.
  const std::size_t kw = key_cols_.size();
  for (std::size_t r = 0; r < n; ++r) {
    std::uint64_t h = 0x2545f4914f6cdd1dULL;
    for (std::size_t j = 0; j < kw; ++j) {
      h = HashMix(h, inst.CodeAt(r, key_cols_[j]));
    }
    std::size_t slot = h & mask_;
    for (;;) {
      const TupleId rep = table_[slot];
      if (rep == kEmptySlot) {
        table_[slot] = static_cast<TupleId>(r);
        group_of_[r] = static_cast<std::uint32_t>(offsets_.size());
        offsets_.push_back(1);
        break;
      }
      bool eq = true;
      for (std::size_t j = 0; j < kw; ++j) {
        if (inst.CodeAt(rep, key_cols_[j]) != inst.CodeAt(r, key_cols_[j])) {
          eq = false;
          break;
        }
      }
      if (eq) {
        group_of_[r] = group_of_[rep];
        ++offsets_[group_of_[rep]];
        break;
      }
      slot = (slot + 1) & mask_;
    }
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

Tuple HashGroupIndex::KeyValues(std::size_t g) const {
  Tuple out;
  out.reserve(key_cols_.size());
  for (int c : key_cols_) out.push_back(inst_->ValueAt(representative(g), c));
  return out;
}

std::int64_t HashGroupIndex::FindByCodes(const Code* codes) const {
  const std::size_t kw = key_cols_.size();
  std::uint64_t h = 0x2545f4914f6cdd1dULL;
  for (std::size_t j = 0; j < kw; ++j) h = HashMix(h, codes[j]);
  std::size_t slot = h & mask_;
  for (;;) {
    const TupleId rep = table_[slot];
    if (rep == kEmptySlot) return -1;
    bool eq = true;
    for (std::size_t j = 0; j < kw; ++j) {
      if (inst_->CodeAt(rep, key_cols_[j]) != codes[j]) {
        eq = false;
        break;
      }
    }
    if (eq) return static_cast<std::int64_t>(group_of_[rep]);
    slot = (slot + 1) & mask_;
  }
}

}  // namespace adp
