// CostProfile tests: invariants, convexity, and both combination semantics
// against brute-force convolutions and the dense k-indexed DPs
// (profile_oracle.h).

#include <gtest/gtest.h>

#include "profile_oracle.h"
#include "solver/profile.h"
#include "util/rng.h"

namespace adp {
namespace {

using testing::DenseAt;
using testing::DenseProfile;

// Random dense profile with kmax `len` and increments in [0, max_step]; about
// a third of them get an unreachable (kInfCost) tail from a random target on.
DenseProfile RandomDense(Rng& rng, std::int64_t len, std::int64_t max_step) {
  DenseProfile d = {0};
  for (std::int64_t j = 1; j <= len; ++j) {
    d.push_back(d.back() + rng.UniformInt(0, max_step));
  }
  if (len > 0 && rng.Uniform(3) == 0) {
    for (std::int64_t j = rng.UniformInt(1, len); j <= len; ++j) {
      d[static_cast<std::size_t>(j)] = kInfCost;
    }
  }
  return d;
}

// Every output breakpoint's split must cost exactly its budget and remove
// at least its outputs.
template <typename Removed>
void ExpectSplitsReproduce(const CostProfile& out,
                           const std::vector<StepSplit>& split,
                           const CostProfile& a, const CostProfile& b,
                           Removed removed) {
  ASSERT_EQ(split.size(), out.steps().size());
  for (std::size_t s = 0; s < split.size(); ++s) {
    const auto [ra, rb] = split[s];
    EXPECT_EQ(a.At(ra) + b.At(rb), out.steps()[s].budget) << "step " << s;
    EXPECT_GE(removed(ra, rb), out.steps()[s].removed) << "step " << s;
  }
}

TEST(ProfileTest, TrivialProfile) {
  CostProfile p;
  EXPECT_EQ(p.kmax(), 0);
  EXPECT_EQ(p.At(0), 0);
  EXPECT_EQ(p.At(1), kInfCost);
  EXPECT_FALSE(p.Feasible(1));
}

TEST(ProfileTest, AtAndMaxRemovedWithin) {
  CostProfile p({0, 1, 1, 3, 7});
  EXPECT_EQ(p.kmax(), 4);
  EXPECT_EQ(p.At(2), 1);
  EXPECT_EQ(p.MaxRemovedWithin(0), 0);
  EXPECT_EQ(p.MaxRemovedWithin(1), 2);
  EXPECT_EQ(p.MaxRemovedWithin(3), 3);
  EXPECT_EQ(p.MaxRemovedWithin(100), 4);
}

TEST(ProfileTest, ConvexityDetection) {
  EXPECT_TRUE(CostProfile({0, 1, 2, 3}).IsConvex());
  EXPECT_TRUE(CostProfile({0, 0, 1, 3, 6}).IsConvex());
  EXPECT_FALSE(CostProfile({0, 3, 3, 4}).IsConvex());  // inc 3 then 0
  EXPECT_TRUE(CostProfile({0}).IsConvex());
}

TEST(ProfileTest, TruncateTo) {
  CostProfile p({0, 1, 2, 3});
  p.TruncateTo(2);
  EXPECT_EQ(p.kmax(), 2);
  p.TruncateTo(10);  // no-op
  EXPECT_EQ(p.kmax(), 2);
}

TEST(ProfileTest, SaturatingArithmetic) {
  EXPECT_EQ(SatMul(kMaxOutputs, 2), kMaxOutputs);
  EXPECT_EQ(SatMul(3, 4), 12);
  EXPECT_EQ(SatMul(0, kMaxOutputs), 0);
  EXPECT_EQ(SatAdd(kMaxOutputs, 1), kMaxOutputs);
  EXPECT_EQ(SatAdd(3, 4), 7);
}

TEST(CombineDisjointTest, SimpleMerge) {
  // a removes outputs at cost 1 each; b removes 2 outputs for cost 1.
  const CostProfile a({0, 1, 2});
  const CostProfile b({0, 1, 1});
  std::vector<StepSplit> choice;
  const CostProfile c = CombineDisjoint(a, b, 4, &choice);
  EXPECT_EQ(c.At(1), 1);
  EXPECT_EQ(c.At(2), 1);  // take b's pair
  EXPECT_EQ(c.At(3), 2);  // b pair + one from a
  EXPECT_EQ(c.At(4), 3);
  EXPECT_EQ(choice[c.StepOf(2)].second, 2);  // 2 outputs from b
}

TEST(CombineDisjointTest, MatchesBruteForce) {
  Rng rng(77);
  for (int iter = 0; iter < 50; ++iter) {
    auto random_profile = [&](int len) {
      std::vector<std::int64_t> c = {0};
      for (int i = 1; i <= len; ++i) {
        c.push_back(c.back() + static_cast<std::int64_t>(rng.Uniform(4)));
      }
      return CostProfile(c);
    };
    const CostProfile a = random_profile(static_cast<int>(rng.Uniform(6)));
    const CostProfile b = random_profile(static_cast<int>(rng.Uniform(6)));
    const std::int64_t cap = a.kmax() + b.kmax();
    const CostProfile c = CombineDisjoint(a, b, cap, nullptr);
    for (std::int64_t j = 0; j <= cap; ++j) {
      std::int64_t want = kInfCost;
      for (std::int64_t m = 0; m <= j; ++m) {
        if (a.Feasible(j - m) && b.Feasible(m)) {
          want = std::min(want, a.At(j - m) + b.At(m));
        }
      }
      EXPECT_EQ(c.At(j), want) << "j=" << j;
    }
  }
}

TEST(CombineProductTest, TwoByTwoCrossProduct) {
  // Two factors with 2 outputs each, unit cost per removed output.
  const CostProfile a({0, 1, 2});
  const CostProfile b({0, 1, 2});
  const CostProfile c =
      CombineProduct(a, 2, b, 2, 4, /*naive_inner=*/false, nullptr);
  // Removing 1 of a's outputs removes 2 products.
  EXPECT_EQ(c.At(1), 1);
  EXPECT_EQ(c.At(2), 1);
  // 3 products: kill one whole factor output (2 products) + one more needs
  // k1=1,k2=1 -> removed = 1*2+1*2-1 = 3, cost 2.
  EXPECT_EQ(c.At(3), 2);
  // All 4: cheapest is both outputs of one factor (cost 2).
  EXPECT_EQ(c.At(4), 2);
}

TEST(CombineProductTest, ImprovedMatchesNaive) {
  Rng rng(99);
  for (int iter = 0; iter < 60; ++iter) {
    auto random_profile = [&](std::int64_t m) {
      std::vector<std::int64_t> c = {0};
      for (std::int64_t i = 1; i <= m; ++i) {
        c.push_back(c.back() + 1 +
                    static_cast<std::int64_t>(rng.Uniform(3)));
      }
      return CostProfile(c);
    };
    const std::int64_t ma = 1 + static_cast<std::int64_t>(rng.Uniform(5));
    const std::int64_t mb = 1 + static_cast<std::int64_t>(rng.Uniform(5));
    const CostProfile a = random_profile(ma);
    const CostProfile b = random_profile(mb);
    const std::int64_t cap = ma * mb;
    const CostProfile fast =
        CombineProduct(a, ma, b, mb, cap, /*naive_inner=*/false, nullptr);
    const CostProfile slow =
        CombineProduct(a, ma, b, mb, cap, /*naive_inner=*/true, nullptr);
    for (std::int64_t j = 0; j <= cap; ++j) {
      EXPECT_EQ(fast.At(j), slow.At(j)) << "iter " << iter << " j=" << j;
    }
  }
}

TEST(CombineProductTest, MatchesExhaustivePairEnumeration) {
  Rng rng(123);
  for (int iter = 0; iter < 40; ++iter) {
    auto random_profile = [&](std::int64_t m) {
      std::vector<std::int64_t> c = {0};
      for (std::int64_t i = 1; i <= m; ++i) {
        c.push_back(c.back() + static_cast<std::int64_t>(rng.Uniform(4)));
      }
      return CostProfile(c);
    };
    const std::int64_t ma = 1 + static_cast<std::int64_t>(rng.Uniform(4));
    const std::int64_t mb = 1 + static_cast<std::int64_t>(rng.Uniform(4));
    const CostProfile a = random_profile(ma);
    const CostProfile b = random_profile(mb);
    const std::int64_t cap = ma * mb;
    const CostProfile got =
        CombineProduct(a, ma, b, mb, cap, /*naive_inner=*/false, nullptr);
    for (std::int64_t j = 0; j <= cap; ++j) {
      std::int64_t want = kInfCost;
      for (std::int64_t k1 = 0; k1 <= ma; ++k1) {
        for (std::int64_t k2 = 0; k2 <= mb; ++k2) {
          if (!a.Feasible(k1) || !b.Feasible(k2)) continue;
          if (k1 * mb + k2 * ma - k1 * k2 >= j) {
            want = std::min(want, a.At(k1) + b.At(k2));
          }
        }
      }
      EXPECT_EQ(got.At(j), want) << "iter " << iter << " j=" << j;
    }
  }
}

TEST(CombineProductTest, ChoiceReconstructsCost) {
  const CostProfile a({0, 2, 5});
  const CostProfile b({0, 1, 4, 6});
  std::vector<StepSplit> choice;
  const CostProfile c = CombineProduct(a, 2, b, 3, 6, false, &choice);
  for (std::int64_t j = 1; j <= c.kmax(); ++j) {
    const auto [k1, k2] = choice[c.StepOf(j)];
    EXPECT_EQ(a.At(k1) + b.At(k2), c.At(j)) << j;
    EXPECT_GE(k1 * 3 + k2 * 2 - k1 * k2, j) << j;
  }
}

// An unreachable tail is not part of a staircase: kmax() is the last
// reachable target, so the dense definitions run over d[0..kmax].
TEST(ProfileTest, VectorConstructorRoundTrips) {
  Rng rng(2028);
  for (int iter = 0; iter < 400; ++iter) {
    const DenseProfile d =
        RandomDense(rng, rng.UniformInt(0, 9), rng.UniformInt(1, 3));
    const CostProfile p(d);
    std::int64_t last = 0;
    while (last + 1 < static_cast<std::int64_t>(d.size()) &&
           d[static_cast<std::size_t>(last) + 1] < kInfCost) {
      ++last;
    }
    const DenseProfile reach(d.begin(), d.begin() + last + 1);
    ASSERT_EQ(p.kmax(), last) << "iter " << iter;
    EXPECT_EQ(p.Dense(), reach);
    for (std::int64_t j = -1; j <= last + 2; ++j) {
      EXPECT_EQ(p.At(j), DenseAt(reach, j)) << "iter " << iter << " j=" << j;
    }
    // MaxRemovedWithin(c): the largest j with cost[j] <= c.
    auto max_within = [&](std::int64_t c) {
      std::int64_t j = -1;
      while (j + 1 <= last && reach[static_cast<std::size_t>(j) + 1] <= c) ++j;
      return j;
    };
    for (std::int64_t c = -1; c <= reach.back() + 2; ++c) {
      EXPECT_EQ(p.MaxRemovedWithin(c), max_within(c))
          << "iter " << iter << " c=" << c;
    }
    // IsConvex: the increments cost[j+1]-cost[j] are nondecreasing.
    bool convex = true;
    for (std::int64_t j = 2; j <= last; ++j) {
      convex &= reach[j] - reach[j - 1] >= reach[j - 1] - reach[j - 2];
    }
    EXPECT_EQ(p.IsConvex(), convex) << "iter " << iter;
    // HasConcaveGains: g_c = MaxRemovedWithin(c) - MaxRemovedWithin(c-1)
    // is nonincreasing over c = 1..cost[kmax].
    bool concave = true;
    for (std::int64_t c = 2; c <= reach.back(); ++c) {
      concave &= max_within(c) - max_within(c - 1) <=
                 max_within(c - 1) - max_within(c - 2);
    }
    EXPECT_EQ(p.HasConcaveGains(), concave) << "iter " << iter;

    const std::int64_t cap = rng.UniformInt(0, last);
    CostProfile cut = p;
    cut.TruncateTo(cap);
    EXPECT_EQ(cut.kmax(), cap);
    for (std::int64_t j = 0; j <= last; ++j) {
      EXPECT_EQ(cut.At(j), j <= cap ? reach[j] : kInfCost)
          << "iter " << iter << " j=" << j;
    }
  }
}

TEST(DenseOracleTest, DisjointMatchesOracle) {
  Rng rng(2029);
  for (int iter = 0; iter < 400; ++iter) {
    const DenseProfile da =
        RandomDense(rng, rng.UniformInt(0, 8), rng.UniformInt(1, 4));
    const DenseProfile db =
        RandomDense(rng, rng.UniformInt(0, 8), rng.UniformInt(1, 4));
    const CostProfile a(da);
    const CostProfile b(db);
    // Caps from 0 to past both operands combined.
    const std::int64_t cap = rng.UniformInt(
        0, static_cast<std::int64_t>(da.size() + db.size()));
    std::vector<StepSplit> split;
    const CostProfile got = CombineDisjoint(a, b, cap, &split);
    const DenseProfile want = testing::DenseCombineDisjoint(da, db, cap);
    for (std::int64_t j = 0; j <= cap + 1; ++j) {
      EXPECT_EQ(got.At(j), DenseAt(want, j)) << "iter " << iter << " j=" << j;
    }
    ExpectSplitsReproduce(got, split, a, b,
                          [](std::int64_t ra, std::int64_t rb) {
                            return SatAdd(ra, rb);
                          });
  }
}

TEST(DenseOracleTest, ProductMatchesOracle) {
  Rng rng(2030);
  constexpr std::int64_t kHalf = std::int64_t{1} << 31;
  for (int iter = 0; iter < 600; ++iter) {
    std::int64_t ma = rng.UniformInt(1, 8);
    std::int64_t mb = rng.UniformInt(1, 8);
    if (iter % 4 == 2) {
      // ma * mb at or just below kMaxOutputs = 2^62.
      ma = kHalf;
      mb = kHalf - rng.UniformInt(0, 2);
    } else if (iter % 4 == 3) {
      ma = std::int64_t{1} << 40;  // one huge factor
    }
    const DenseProfile da = RandomDense(
        rng, std::min<std::int64_t>(ma, rng.UniformInt(0, 8)),
        rng.UniformInt(1, 4));
    const DenseProfile db = RandomDense(
        rng, std::min<std::int64_t>(mb, rng.UniformInt(0, 8)),
        rng.UniformInt(1, 4));
    const CostProfile a(da);
    const CostProfile b(db);
    // Caps from 0 to past ma * mb where that is small.
    const std::int64_t cap =
        rng.UniformInt(0, std::min<std::int64_t>(SatMul(ma, mb) + 1, 70));
    const DenseProfile want =
        testing::DenseCombineProduct(da, ma, db, mb, cap);
    for (const bool naive : {false, true}) {
      std::vector<StepSplit> split;
      const CostProfile got = CombineProduct(a, ma, b, mb, cap, naive, &split);
      for (std::int64_t j = 0; j <= cap + 1; ++j) {
        EXPECT_EQ(got.At(j), DenseAt(want, j))
            << "iter " << iter << " naive " << naive << " j=" << j;
      }
      ExpectSplitsReproduce(got, split, a, b,
                            [&](std::int64_t ra, std::int64_t rb) {
                              return SatAdd(SatMul(ra, mb - rb),
                                            SatMul(rb, ma));
                            });
    }
  }
}

}  // namespace
}  // namespace adp
