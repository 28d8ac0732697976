#include "relational/relation.h"

#include <atomic>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>

#include "util/hash.h"

namespace adp {
namespace {

std::atomic<std::uint64_t> g_max_rows{
    static_cast<std::uint64_t>(std::numeric_limits<TupleId>::max())};

}  // namespace

Tuple RelationInstance::tuple(std::size_t i) const {
  Tuple out(cols_.size());
  for (std::size_t c = 0; c < cols_.size(); ++c) out[c] = ValueAt(i, c);
  return out;
}

void RelationInstance::EnsureArity(std::size_t n) {
  if (num_rows_ > 0 || !cols_.empty()) {
    if (n != cols_.size()) {
      throw std::invalid_argument("tuple arity mismatch: instance has " +
                                  std::to_string(cols_.size()) +
                                  " columns, row has " + std::to_string(n));
    }
    return;
  }
  cols_.resize(n);
  for (Column& c : cols_) c.dict = std::make_shared<ColumnDict>();
}

void RelationInstance::CheckCapacity(std::size_t extra) const {
  const std::uint64_t limit = g_max_rows.load(std::memory_order_relaxed);
  if (static_cast<std::uint64_t>(num_rows_) + extra > limit) {
    throw TupleLimitError("relation instance would exceed the TupleId row "
                          "capacity (MaxRows() = " +
                          std::to_string(limit) + ")");
  }
}

ColumnDict& RelationInstance::MutableDict(std::size_t c) {
  std::shared_ptr<ColumnDict>& d = cols_[c].dict;
  if (d.use_count() > 1) d = std::make_shared<ColumnDict>(*d);
  return *d;
}

void RelationInstance::MaterializeOrigins() {
  if (!origin_.empty() || num_rows_ == 0) return;
  origin_.resize(num_rows_);
  std::iota(origin_.begin(), origin_.end(), TupleId{0});
}

void RelationInstance::Add(Tuple t) { AppendRow(t.data(), t.size()); }

void RelationInstance::AppendRow(const Value* vals, std::size_t n) {
  CheckCapacity(1);
  EnsureArity(n);
  for (std::size_t c = 0; c < n; ++c) {
    cols_[c].codes.push_back(MutableDict(c).Intern(vals[c]));
  }
  if (!origin_.empty()) origin_.push_back(static_cast<TupleId>(num_rows_));
  ++num_rows_;
}

void RelationInstance::AppendGathered(const RelationInstance& src,
                                      std::span<const TupleId> rows,
                                      const std::vector<int>& kept_cols) {
  CheckCapacity(rows.size());
  if (num_rows_ == 0 && cols_.empty()) {
    // Adopt the source layout: share its dictionaries outright.
    cols_.resize(kept_cols.size());
    for (std::size_t j = 0; j < kept_cols.size(); ++j) {
      cols_[j].dict = src.cols_[kept_cols[j]].dict;
    }
  } else if (cols_.size() != kept_cols.size()) {
    throw std::invalid_argument("gather arity mismatch: instance has " +
                                std::to_string(cols_.size()) +
                                " columns, gather has " +
                                std::to_string(kept_cols.size()));
  }
  // resize() sizes an empty column exactly (a fresh derived instance) and
  // grows a filled one geometrically.
  for (std::size_t j = 0; j < cols_.size(); ++j) {
    const Column& sc = src.cols_[kept_cols[j]];
    Column& dc = cols_[j];
    const std::size_t base = dc.codes.size();
    dc.codes.resize(base + rows.size());
    Code* out = dc.codes.data() + base;
    if (dc.dict == sc.dict) {
      // Same dictionary: codes transfer verbatim.
      for (TupleId r : rows) *out++ = sc.codes[r];
    } else {
      // Different dictionary (destination was populated another way):
      // decode and re-intern.
      ColumnDict& dict = MutableDict(j);
      for (TupleId r : rows) *out++ = dict.Intern(sc.dict->values[sc.codes[r]]);
    }
  }
  MaterializeOrigins();
  const std::size_t base = origin_.size();
  origin_.resize(base + rows.size());
  TupleId* out = origin_.data() + base;
  for (TupleId r : rows) *out++ = src.OriginOf(r);
  num_rows_ += rows.size();
}

void RelationInstance::AppendGathered(const RelationInstance& src,
                                      std::span<const TupleId> rows) {
  std::vector<int> all(src.cols_.size());
  for (std::size_t c = 0; c < all.size(); ++c) all[c] = static_cast<int>(c);
  AppendGathered(src, rows, all);
}

void RelationInstance::Dedup() {
  if (num_rows_ <= 1) return;
  const std::size_t w = cols_.size();

  // Open-addressing set of surviving row ids, compared by code rows (codes
  // biject values within a column, so this is value equality).
  std::size_t cap = 16;
  while (cap < num_rows_ * 2) cap <<= 1;
  constexpr std::uint32_t kEmpty = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> slots(cap, kEmpty);
  std::vector<TupleId> kept;
  kept.reserve(num_rows_);
  for (std::size_t r = 0; r < num_rows_; ++r) {
    std::uint64_t h = 0x2545f4914f6cdd1dULL;
    for (std::size_t c = 0; c < w; ++c) h = HashMix(h, cols_[c].codes[r]);
    std::size_t slot = h & (cap - 1);
    bool dup = false;
    while (slots[slot] != kEmpty) {
      const std::size_t other = slots[slot];
      bool eq = true;
      for (std::size_t c = 0; c < w; ++c) {
        if (cols_[c].codes[other] != cols_[c].codes[r]) {
          eq = false;
          break;
        }
      }
      if (eq) {
        dup = true;
        break;
      }
      slot = (slot + 1) & (cap - 1);
    }
    if (!dup) {
      slots[slot] = static_cast<std::uint32_t>(r);
      kept.push_back(static_cast<TupleId>(r));
    }
  }
  if (kept.size() == num_rows_) return;

  // Fresh vectors of the kept size, so dropped rows hold no storage.
  for (Column& c : cols_) {
    std::vector<Code> codes(kept.size());
    for (std::size_t i = 0; i < kept.size(); ++i) codes[i] = c.codes[kept[i]];
    c.codes = std::move(codes);
  }
  bool identity_after = true;
  std::vector<TupleId> origins(kept.size());
  for (std::size_t i = 0; i < kept.size(); ++i) {
    origins[i] = OriginOf(kept[i]);
    if (origins[i] != i) identity_after = false;
  }
  // Keep the cheap identity representation when the kept origins are still
  // the identity.
  origin_ = identity_after ? std::vector<TupleId>() : std::move(origins);
  num_rows_ = kept.size();
}

std::uint64_t RelationInstance::MaxRows() {
  return g_max_rows.load(std::memory_order_relaxed);
}

std::uint64_t RelationInstance::OverrideMaxRowsForTest(std::uint64_t n) {
  return g_max_rows.exchange(n, std::memory_order_relaxed);
}

}  // namespace adp
