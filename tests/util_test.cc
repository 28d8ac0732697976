// Unit tests for util/: AttrSet algebra, RNG determinism, Zipf sampling,
// stable ordering by key, saturating arithmetic.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/attr_set.h"
#include "util/parse_int.h"
#include "util/rng.h"
#include "util/saturating.h"
#include "util/stable_order.h"

namespace adp {
namespace {

TEST(AttrSetTest, EmptyByDefault) {
  AttrSet s;
  EXPECT_TRUE(s.Empty());
  EXPECT_EQ(s.Size(), 0);
}

TEST(AttrSetTest, AddRemoveContains) {
  AttrSet s;
  s.Add(3);
  s.Add(17);
  s.Add(63);
  EXPECT_TRUE(s.Contains(3));
  EXPECT_TRUE(s.Contains(17));
  EXPECT_TRUE(s.Contains(63));
  EXPECT_FALSE(s.Contains(4));
  EXPECT_EQ(s.Size(), 3);
  s.Remove(17);
  EXPECT_FALSE(s.Contains(17));
  EXPECT_EQ(s.Size(), 2);
}

TEST(AttrSetTest, InitializerList) {
  AttrSet s{0, 2, 5};
  EXPECT_EQ(s.Size(), 3);
  EXPECT_TRUE(s.Contains(0));
  EXPECT_TRUE(s.Contains(2));
  EXPECT_TRUE(s.Contains(5));
}

TEST(AttrSetTest, SetAlgebra) {
  const AttrSet a{0, 1, 2};
  const AttrSet b{2, 3};
  EXPECT_EQ(a.Union(b), AttrSet({0, 1, 2, 3}));
  EXPECT_EQ(a.Intersect(b), AttrSet({2}));
  EXPECT_EQ(a.Minus(b), AttrSet({0, 1}));
  EXPECT_TRUE(AttrSet({0, 1}).SubsetOf(a));
  EXPECT_TRUE(AttrSet({0, 1}).StrictSubsetOf(a));
  EXPECT_FALSE(a.StrictSubsetOf(a));
  EXPECT_TRUE(a.SubsetOf(a));
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(AttrSet({4, 5})));
}

TEST(AttrSetTest, FirstN) {
  EXPECT_EQ(AttrSet::FirstN(0).Size(), 0);
  EXPECT_EQ(AttrSet::FirstN(5), AttrSet({0, 1, 2, 3, 4}));
  EXPECT_EQ(AttrSet::FirstN(64).Size(), 64);
}

TEST(AttrSetTest, IterationInOrder) {
  const AttrSet s{5, 1, 40};
  std::vector<AttrId> seen;
  for (AttrId a : s) seen.push_back(a);
  EXPECT_EQ(seen, (std::vector<AttrId>{1, 5, 40}));
}

TEST(AttrSetTest, OfSingleton) {
  EXPECT_EQ(AttrSet::Of(7), AttrSet({7}));
}

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool differ = false;
  for (int i = 0; i < 10; ++i) differ |= (a.Next() != b.Next());
  EXPECT_TRUE(differ);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.Uniform(10);
    EXPECT_LT(v, 10u);
  }
}

TEST(RngTest, UniformIntInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.UniformInt(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(ZipfTest, AlphaZeroIsNearUniform) {
  Rng rng(11);
  ZipfSampler zipf(10, 0.0);
  std::map<int, int> counts;
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Sample(rng)];
  for (const auto& [rank, c] : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.02) << "rank " << rank;
  }
}

TEST(ZipfTest, HigherAlphaSkewsToLowRanks) {
  Rng rng(13);
  ZipfSampler zipf(100, 1.0);
  int low = 0, high = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const int r = zipf.Sample(rng);
    if (r < 10) ++low;
    if (r >= 90) ++high;
  }
  EXPECT_GT(low, high * 5);  // rank 0..9 must dominate rank 90..99
}

TEST(ZipfTest, SamplesInRange) {
  Rng rng(17);
  ZipfSampler zipf(7, 0.5);
  for (int i = 0; i < 1000; ++i) {
    const int r = zipf.Sample(rng);
    EXPECT_GE(r, 0);
    EXPECT_LT(r, 7);
  }
}

// The value ParseInt64 gives `text`, or the failure; `out` is untouched on
// failure.
std::int64_t ParsedOr(std::string_view text, IntParse want_status) {
  std::int64_t out = 42;
  EXPECT_EQ(ParseInt64(text, &out), want_status) << "'" << text << "'";
  if (want_status != IntParse::kOk) {
    EXPECT_EQ(out, 42) << text;
  }
  return out;
}

TEST(ParseInt64Test, SignForms) {
  EXPECT_EQ(ParsedOr("0", IntParse::kOk), 0);
  EXPECT_EQ(ParsedOr("17", IntParse::kOk), 17);
  EXPECT_EQ(ParsedOr("+17", IntParse::kOk), 17);
  EXPECT_EQ(ParsedOr("-17", IntParse::kOk), -17);
  EXPECT_EQ(ParsedOr("-0", IntParse::kOk), 0);
  EXPECT_EQ(ParsedOr("+0", IntParse::kOk), 0);
  for (const char* text : {"+", "-", "+-1", "-+1", "++1", "--1"}) {
    ParsedOr(text, IntParse::kMalformed);
  }
}

TEST(ParseInt64Test, BoundsAndOverflow) {
  EXPECT_EQ(ParsedOr("9223372036854775807", IntParse::kOk),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(ParsedOr("-9223372036854775808", IntParse::kOk),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(ParsedOr("+9223372036854775807", IntParse::kOk),
            std::numeric_limits<std::int64_t>::max());
  ParsedOr("9223372036854775808", IntParse::kOutOfRange);
  ParsedOr("-9223372036854775809", IntParse::kOutOfRange);
  ParsedOr("99999999999999999999", IntParse::kOutOfRange);
}

TEST(ParseInt64Test, RejectsTrailingJunkAndEmpty) {
  for (const char* text : {"", "2x", "1 ", " 1", "1.5", "0x10", "1e3", "x"}) {
    ParsedOr(text, IntParse::kMalformed);
  }
}

TEST(ParseUint32Test, AcceptsTheUint32RangeOnly) {
  std::uint32_t out = 7;
  EXPECT_TRUE(ParseUint32("0", &out));
  EXPECT_EQ(out, 0u);
  EXPECT_TRUE(ParseUint32("4294967295", &out));
  EXPECT_EQ(out, 4294967295u);
  for (const char* text : {"-1", "4294967296", "4294967297", "2x", ""}) {
    out = 7;
    EXPECT_FALSE(ParseUint32(text, &out)) << text;
    EXPECT_EQ(out, 7u) << text;
  }
}

// StableSortByKey against a std::stable_sort oracle: same keys in the same
// order, and equal keys in input order (each item carries its input index).
struct Keyed {
  std::uint64_t key = 0;
  std::uint32_t id = 0;
};

void ExpectStableSortMatches(std::vector<Keyed> items, SortOrder order,
                             const std::string& what) {
  std::vector<Keyed> want = items;
  std::stable_sort(want.begin(), want.end(),
                   [order](const Keyed& a, const Keyed& b) {
                     return order == SortOrder::kAscending ? a.key < b.key
                                                           : a.key > b.key;
                   });
  StableSortByKey(items, [](const Keyed& x) { return x.key; }, order);
  ASSERT_EQ(items.size(), want.size()) << what;
  for (std::size_t i = 0; i < items.size(); ++i) {
    ASSERT_EQ(items[i].key, want[i].key) << what << " at " << i;
    ASSERT_EQ(items[i].id, want[i].id) << what << " at " << i;
  }
}

std::vector<Keyed> KeyedItems(std::size_t n, Rng& rng,
                              std::uint64_t (*draw)(Rng&)) {
  std::vector<Keyed> items(n);
  for (std::size_t i = 0; i < n; ++i) {
    items[i] = Keyed{draw(rng), static_cast<std::uint32_t>(i)};
  }
  return items;
}

TEST(StableSortByKeyTest, MatchesStableSortAcrossSizesAndKeyRanges) {
  struct Draw {
    const char* name;
    std::uint64_t (*draw)(Rng&);
  };
  const Draw draws[] = {
      // Few distinct values: long runs of ties.
      {"ties", [](Rng& r) { return r.Uniform(4); }},
      // Profit-like counts over two bytes.
      {"small", [](Rng& r) { return 1 + r.Uniform(50000); }},
      // Every byte significant, the top one included.
      {"wide", [](Rng& r) { return r.Next(); }},
      // At or above 2^56, with ties in the low bytes.
      {"high", [](Rng& r) {
         return (std::uint64_t{1} << 56) + (r.Uniform(8) << 56) +
                r.Uniform(3);
       }},
  };
  Rng rng(2718);
  for (const std::size_t n : {0u, 1u, 2u, 31u, 32u, 33u, 1000u, 100000u}) {
    for (const Draw& d : draws) {
      const std::vector<Keyed> items = KeyedItems(n, rng, d.draw);
      for (const SortOrder order :
           {SortOrder::kAscending, SortOrder::kDescending}) {
        ExpectStableSortMatches(
            items, order,
            std::string(d.name) + " n=" + std::to_string(n) +
                (order == SortOrder::kAscending ? " asc" : " desc"));
      }
    }
  }
}

TEST(StableSortByKeyTest, AllEqualKeysKeepInputOrder) {
  Rng rng(3);
  for (const std::size_t n : {2u, 31u, 32u, 33u, 1000u}) {
    for (const std::uint64_t key :
         {std::uint64_t{0}, std::uint64_t{7}, ~std::uint64_t{0}}) {
      std::vector<Keyed> items =
          KeyedItems(n, rng, [](Rng&) { return std::uint64_t{0}; });
      for (Keyed& x : items) x.key = key;
      for (const SortOrder order :
           {SortOrder::kAscending, SortOrder::kDescending}) {
        std::vector<Keyed> sorted = items;
        StableSortByKey(sorted, [](const Keyed& x) { return x.key; }, order);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(sorted[i].id, i) << "n=" << n << " key=" << key;
        }
      }
    }
  }
}

// Items are moved, not copied: vectors keyed by their size (Singleton's
// case-2 groups) come out whole, in the oracle's order.
TEST(StableSortByKeyTest, MovesNonTrivialItems) {
  Rng rng(5);
  for (const std::size_t n : {20u, 500u}) {
    std::vector<std::vector<std::uint32_t>> groups(n);
    for (std::size_t g = 0; g < n; ++g) {
      groups[g].assign(1 + rng.Uniform(6), static_cast<std::uint32_t>(g));
    }
    std::vector<std::vector<std::uint32_t>> want = groups;
    std::stable_sort(want.begin(), want.end(),
                     [](const auto& a, const auto& b) {
                       return a.size() < b.size();
                     });
    StableSortByKey(
        groups,
        [](const std::vector<std::uint32_t>& g) {
          return static_cast<std::uint64_t>(g.size());
        },
        SortOrder::kAscending);
    EXPECT_EQ(groups, want) << "n=" << n;
  }
}

// The division form of the saturating product, the reference for SatMul:
// a * b > kMaxOutputs exactly when a > floor(kMaxOutputs / b).
std::int64_t SatMulByDivision(std::int64_t a, std::int64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a > kMaxOutputs / b) return kMaxOutputs;
  return a * b;
}

TEST(SatMulTest, MatchesTheDivisionFormAtTheEdges) {
  constexpr std::int64_t kMax = kMaxOutputs;
  constexpr std::int64_t kRoot = std::int64_t{1} << 31;  // sqrt(kMax)
  constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();
  std::vector<std::int64_t> values = {0, 1, 2, 3, 5, kMax - 1, kMax, kMax + 1,
                                      kInt64Max / 2, kInt64Max - 1, kInt64Max};
  for (std::int64_t d = -3; d <= 3; ++d) values.push_back(kRoot + d);
  for (std::int64_t a : values) {
    for (std::int64_t b : values) {
      EXPECT_EQ(SatMul(a, b), SatMulByDivision(a, b)) << a << " * " << b;
    }
  }
  // Products just below, at and just above kMaxOutputs.
  EXPECT_EQ(SatMul(kRoot - 1, kRoot + 1), kMax - 1);  // 2^62 - 1
  EXPECT_EQ(SatMul(kRoot, kRoot), kMax);
  EXPECT_EQ(SatMul(5, (kMax + 1) / 5), kMax);  // 2^62 + 1 saturates
  EXPECT_EQ((kMax + 1) % 5, 0);
  // Products past 2^63, which overflow 64-bit signed arithmetic.
  EXPECT_EQ(SatMul(2, kMax), kMax);  // exactly 2^63
  EXPECT_EQ(SatMul(3, kMax), kMax);
  EXPECT_EQ(SatMul(kRoot * 2, kRoot * 2), kMax);  // 2^64
  EXPECT_EQ(SatMul(kInt64Max, kInt64Max), kMax);
}

TEST(SatMulTest, MatchesTheDivisionFormOnRandomPairs) {
  Rng rng(62);
  // Each operand is drawn below a random power of two (capped at
  // kMaxOutputs), so products land on both sides of the bound.
  auto draw = [&rng] {
    const int bits = static_cast<int>(rng.Uniform(63));
    const std::uint64_t bound = std::uint64_t{1} << bits;
    return static_cast<std::int64_t>(rng.Uniform(bound + 1));
  };
  int saturated = 0;
  for (int i = 0; i < 1000000; ++i) {
    const std::int64_t a = draw();
    const std::int64_t b = draw();
    ASSERT_LE(a, kMaxOutputs);
    ASSERT_LE(b, kMaxOutputs);
    const std::int64_t want = SatMulByDivision(a, b);
    ASSERT_EQ(SatMul(a, b), want) << a << " * " << b;
    saturated += want == kMaxOutputs;
  }
  EXPECT_GT(saturated, 100000);
  EXPECT_LT(saturated, 900000);
}

}  // namespace
}  // namespace adp
