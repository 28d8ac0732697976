#include "relational/relation.h"

#include <atomic>
#include <cstdint>
#include <limits>
#include <utility>

#include "util/hash.h"

namespace adp {
namespace {

std::atomic<std::uint64_t> g_max_rows{
    static_cast<std::uint64_t>(std::numeric_limits<TupleId>::max())};

}  // namespace

RelationInstance::RelationInstance() = default;
RelationInstance::~RelationInstance() = default;
RelationInstance::RelationInstance(RelationInstance&&) noexcept = default;
RelationInstance& RelationInstance::operator=(RelationInstance&&) noexcept =
    default;

RelationInstance::RelationInstance(const RelationInstance& other)
    : num_rows_(other.num_rows_),
      reserve_hint_(other.reserve_hint_),
      root_relation_(other.root_relation_) {
  if (other.cols_.empty() && other.origin_.empty()) return;
  Arena& a = ArenaRef();
  cols_.reserve(other.cols_.size());
  for (const Column& c : other.cols_) {
    Column copy;
    // Dictionaries are append-only, so sharing them across copies is sound;
    // a later mutating append clones its column dictionary first
    // (copy-on-write in MutableDict).
    copy.dict = c.dict;
    copy.codes.AppendN(a, c.codes.data(), c.codes.size());
    cols_.push_back(std::move(copy));
  }
  if (!other.origin_.empty()) {
    origin_.AppendN(a, other.origin_.data(), other.origin_.size());
  }
}

RelationInstance& RelationInstance::operator=(const RelationInstance& other) {
  if (this != &other) {
    RelationInstance tmp(other);
    *this = std::move(tmp);
  }
  return *this;
}

Arena& RelationInstance::ArenaRef() {
  if (arena_ == nullptr) arena_ = std::make_unique<Arena>();
  return *arena_;
}

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
  Arena& a = ArenaRef();
  for (Column& c : cols_) {
    c.dict = std::make_shared<ColumnDict>();
    if (reserve_hint_ > 0) c.codes.Reserve(a, reserve_hint_);
  }
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

void RelationInstance::AppendRowImpl(const Value* vals, std::size_t n,
                                     TupleId origin, bool explicit_origin) {
  CheckCapacity(1);
  EnsureArity(n);
  Arena& a = ArenaRef();
  for (std::size_t c = 0; c < n; ++c) {
    cols_[c].codes.PushBack(a, MutableDict(c).Intern(vals[c]));
  }
  if (explicit_origin) {
    if (origin_.empty() && num_rows_ > 0) {
      // Promote the identity mapping to an explicit one.
      origin_.Reserve(a, num_rows_ + 1);
      for (std::size_t i = 0; i < num_rows_; ++i) {
        origin_.PushBack(a, static_cast<TupleId>(i));
      }
    }
    origin_.PushBack(a, origin);
  } else if (!origin_.empty()) {
    origin_.PushBack(a, static_cast<TupleId>(num_rows_));
  }
  ++num_rows_;
}

void RelationInstance::Add(Tuple t) { AppendRowImpl(t.data(), t.size(), 0, false); }

void RelationInstance::AddWithOrigin(Tuple t, TupleId origin) {
  AppendRowImpl(t.data(), t.size(), origin, true);
}

void RelationInstance::AppendRow(const Value* vals, std::size_t n) {
  AppendRowImpl(vals, n, 0, false);
}

void RelationInstance::AppendGathered(const RelationInstance& src,
                                      std::span<const TupleId> rows,
                                      const std::vector<int>& kept_cols) {
  CheckCapacity(rows.size());
  Arena& a = ArenaRef();
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
  for (std::size_t j = 0; j < cols_.size(); ++j) {
    const Column& sc = src.cols_[kept_cols[j]];
    Column& dc = cols_[j];
    if (dc.dict.get() == sc.dict.get()) {
      // Same dictionary: codes transfer verbatim.
      dc.codes.Reserve(a, dc.codes.size() + rows.size());
      for (TupleId r : rows) dc.codes.PushBack(a, sc.codes[r]);
    } else {
      // Different dictionary (destination was populated another way):
      // decode and re-intern.
      ColumnDict& dict = MutableDict(j);
      dc.codes.Reserve(a, dc.codes.size() + rows.size());
      for (TupleId r : rows) {
        dc.codes.PushBack(a, dict.Intern(sc.dict->values[sc.codes[r]]));
      }
    }
  }
  if (origin_.empty() && num_rows_ > 0) {
    origin_.Reserve(a, num_rows_ + rows.size());
    for (std::size_t i = 0; i < num_rows_; ++i) {
      origin_.PushBack(a, static_cast<TupleId>(i));
    }
  }
  origin_.Reserve(a, origin_.size() + rows.size());
  for (TupleId r : rows) origin_.PushBack(a, src.OriginOf(r));
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

  // Compact into a fresh arena so dropped rows do not pin old storage.
  auto fresh = std::make_unique<Arena>();
  for (Column& c : cols_) {
    ArenaVec<Code> codes;
    codes.Reserve(*fresh, kept.size());
    for (TupleId r : kept) codes.PushBack(*fresh, c.codes[r]);
    c.codes = codes;
  }
  const bool identity = origin_.empty();
  bool identity_after = true;
  ArenaVec<TupleId> origins;
  origins.Reserve(*fresh, kept.size());
  for (std::size_t i = 0; i < kept.size(); ++i) {
    const TupleId o = identity ? kept[i] : origin_[kept[i]];
    if (o != i) identity_after = false;
    origins.PushBack(*fresh, o);
  }
  // Keep the cheap identity representation when the kept origins are still
  // the identity.
  origin_ = identity_after ? ArenaVec<TupleId>() : origins;
  arena_ = std::move(fresh);
  num_rows_ = kept.size();
}

void RelationInstance::Reserve(std::size_t n) {
  reserve_hint_ = n;
  if (cols_.empty()) return;
  Arena& a = ArenaRef();
  for (Column& c : cols_) c.codes.Reserve(a, n);
}

std::uint64_t RelationInstance::MaxRows() {
  return g_max_rows.load(std::memory_order_relaxed);
}

std::uint64_t RelationInstance::OverrideMaxRowsForTest(std::uint64_t n) {
  return g_max_rows.exchange(n, std::memory_order_relaxed);
}

}  // namespace adp
