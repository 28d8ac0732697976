// Heap footprint of derived relation instances: gathering, copying and
// partitioning request bytes in proportion to the rows they keep, not a
// fixed block per instance. One request derives hundreds of small instances
// (a Universe node's groups, a Decompose node's components), so a fixed
// block per instance would dominate its cost.
//
// This binary replaces the global allocation functions with counting ones.
// Every tests/*.cc links into its own binary, so the replacement stays here.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include "query/parser.h"
#include "query/transform.h"
#include "relational/database.h"
#include "relational/relation.h"

namespace {

std::atomic<std::size_t> g_requested{0};  // bytes asked of operator new

void* CountedAlloc(std::size_t n) noexcept {
  g_requested.fetch_add(n, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* CountedAllocOrThrow(std::size_t n) {
  if (void* p = CountedAlloc(n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return CountedAllocOrThrow(n); }
void* operator new[](std::size_t n) { return CountedAllocOrThrow(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace adp {
namespace {

// Bytes requested from operator new while `fn` runs.
template <typename Fn>
std::size_t BytesRequestedBy(Fn fn) {
  const std::size_t before = g_requested.load(std::memory_order_relaxed);
  fn();
  return g_requested.load(std::memory_order_relaxed) - before;
}

RelationInstance TwoColumns(Value rows) {
  RelationInstance inst;
  for (Value v = 0; v < rows; ++v) inst.Add({v, v + rows});
  return inst;
}

TEST(FootprintTest, GatherRequestsBytesForItsRows) {
  const RelationInstance src = TwoColumns(1000);
  const std::vector<TupleId> rows = {3, 500, 999};
  RelationInstance gathered;
  const std::size_t bytes = BytesRequestedBy(
      [&] { gathered = RelationInstance::Gather(src, rows, {0, 1}); });
  ASSERT_EQ(gathered.size(), 3u);
  EXPECT_EQ(gathered.ValueAt(1, 1), 1500);
  EXPECT_LT(bytes, 1024u);
}

TEST(FootprintTest, CopyRequestsBytesForItsRows) {
  const RelationInstance src = TwoColumns(1000);
  const std::vector<TupleId> rows = {3, 500, 999};
  const RelationInstance gathered = RelationInstance::Gather(src, rows, {0, 1});
  std::optional<RelationInstance> copy;
  const std::size_t bytes = BytesRequestedBy([&] { copy.emplace(gathered); });
  EXPECT_EQ(copy->OriginOf(2), 999u);
  EXPECT_LT(bytes, 1024u);
  // The copy shares the source's dictionaries rather than re-interning.
  EXPECT_EQ(&copy->dict(0), &src.dict(0));
}

TEST(FootprintTest, PartitionRequestsBytesForItsGroups) {
  // 100 keys, one row per key in each relation: 100 groups of two one-row
  // instances.
  const ConjunctiveQuery q = ParseQuery("Q(A,B,C) :- R(A,B), S(A,C)");
  Database db(2);
  for (Value a = 0; a < 100; ++a) {
    db.rel(0).Add({a, a + 1000});
    db.rel(1).Add({a, a + 2000});
  }
  std::vector<UniverseGroup> groups;
  const std::size_t bytes = BytesRequestedBy([&] {
    groups = PartitionByAttrs(q, db, AttrSet::Of(q.FindAttribute("A")));
  });
  ASSERT_EQ(groups.size(), 100u);
  EXPECT_EQ(groups[42].db.rel(1).ValueAt(0, 0), 2042);
  // Under 1 KiB per derived instance, group bookkeeping included.
  EXPECT_LT(bytes, 200u * 1024u);
}

}  // namespace
}  // namespace adp
