#include "relational/group_index.h"

#include <limits>

#include "util/hash.h"

namespace adp {
namespace {

constexpr TupleId kEmptySlot = std::numeric_limits<TupleId>::max();
constexpr std::uint32_t kNoGroup = std::numeric_limits<std::uint32_t>::max();

// Slots of the open-addressing table over `rows` rows.
std::size_t TableSlots(std::size_t rows) {
  std::size_t cap = 16;
  while (cap < rows * 2) cap <<= 1;
  return cap;
}

}  // namespace

bool DenseKey(std::size_t dict_size, std::size_t rows) {
  return dict_size <= TableSlots(rows);
}

HashGroupIndex::HashGroupIndex(const RelationInstance& inst,
                               std::vector<int> key_cols)
    : inst_(&inst), key_cols_(std::move(key_cols)) {
  const std::size_t n = inst.size();
  const std::size_t kw = key_cols_.size();
  group_of_.resize(n);

  // Pass 1: name every row's group in first-seen order; offsets_[g] counts
  // the rows of group g for now.
  if (kw == 1 && n > 0 && DenseKey(inst.DistinctInColumn(key_cols_[0]), n)) {
    const std::size_t col = key_cols_[0];
    group_of_code_.assign(inst.DistinctInColumn(col), kNoGroup);
    for (std::size_t r = 0; r < n; ++r) {
      std::uint32_t& g = group_of_code_[inst.CodeAt(r, col)];
      if (g == kNoGroup) {
        g = static_cast<std::uint32_t>(offsets_.size());
        offsets_.push_back(0);
      }
      group_of_[r] = g;
      ++offsets_[g];
    }
  } else {
    table_.assign(TableSlots(n), kEmptySlot);
    mask_ = table_.size() - 1;
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
          if (inst.CodeAt(rep, key_cols_[j]) !=
              inst.CodeAt(r, key_cols_[j])) {
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
  if (table_.empty()) {
    // Dense path: one key column, codes index the array directly.
    if (codes[0] >= group_of_code_.size()) return -1;
    const std::uint32_t g = group_of_code_[codes[0]];
    return g == kNoGroup ? -1 : static_cast<std::int64_t>(g);
  }
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
