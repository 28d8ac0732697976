#include "relational/relation.h"

#include <atomic>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>

#include "relational/group_index.h"

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

RelationInstance RelationInstance::Gather(const RelationInstance& src,
                                          std::span<const TupleId> rows,
                                          const std::vector<int>& kept_cols) {
  RelationInstance out;
  out.root_relation_ = src.root_relation_;
  out.CheckCapacity(rows.size());
  // Each column is sized for the gathered rows at once and shares its
  // source's dictionary, so codes transfer verbatim.
  if (!src.cols_.empty()) {
    out.cols_.resize(kept_cols.size());
    for (std::size_t j = 0; j < kept_cols.size(); ++j) {
      const Column& sc = src.cols_[kept_cols[j]];
      Column& dc = out.cols_[j];
      dc.dict = sc.dict;
      dc.codes.resize(rows.size());
      Code* codes = dc.codes.data();
      for (TupleId r : rows) *codes++ = sc.codes[r];
    }
  }
  out.origin_.resize(rows.size());
  TupleId* origin = out.origin_.data();
  for (TupleId r : rows) *origin++ = src.OriginOf(r);
  out.num_rows_ = rows.size();
  return out;
}

void RelationInstance::Dedup() {
  if (num_rows_ <= 1) return;
  // The first row of each group of equal code rows, through HashGroupIndex's
  // build loop; the index's row lists would go unread.
  std::vector<TupleId> kept;
  kept.reserve(num_rows_);
  GroupByCodes(
      num_rows_, cols_.size(),
      [&](std::size_t r, std::size_t c) { return cols_[c].codes[r]; },
      [&](std::size_t r, TupleId first) {
        if (first == r) kept.push_back(first);
      });
  if (kept.size() == num_rows_) return;
  std::vector<int> all(cols_.size());
  std::iota(all.begin(), all.end(), 0);
  // A fresh instance of the kept size, so dropped rows hold no storage.
  *this = Gather(*this, kept, all);
}

std::vector<std::vector<int>> BodyComponents(
    const std::vector<RelationSchema>& body, AttrSet allowed) {
  const int p = static_cast<int>(body.size());
  std::vector<int> comp(p, -1);
  int comps = 0;
  std::vector<int> stack;
  for (int start = 0; start < p; ++start) {
    if (comp[start] >= 0) continue;
    comp[start] = comps;
    stack.assign(1, start);
    while (!stack.empty()) {
      const AttrSet au = body[stack.back()].attr_set().Intersect(allowed);
      stack.pop_back();
      for (int v = 0; v < p; ++v) {
        if (comp[v] < 0 && au.Intersects(body[v].attr_set())) {
          comp[v] = comps;
          stack.push_back(v);
        }
      }
    }
    ++comps;
  }
  std::vector<std::vector<int>> out(comps);
  for (int i = 0; i < p; ++i) out[comp[i]].push_back(i);
  return out;
}

std::uint64_t RelationInstance::MaxRows() {
  return g_max_rows.load(std::memory_order_relaxed);
}

std::uint64_t RelationInstance::OverrideMaxRowsForTest(std::uint64_t n) {
  return g_max_rows.exchange(n, std::memory_order_relaxed);
}

}  // namespace adp
