// PlanCache: single-flight semantics, LRU eviction, and the failure /
// eviction races guarded by generation-tagged entries.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/plan_cache.h"

namespace adp {
namespace {

std::shared_ptr<const CachedPlan> TrivialPlan() {
  return std::make_shared<const CachedPlan>();
}

TEST(PlanCacheTest, BuildsOnceThenHits) {
  PlanCache cache(4);
  int builds = 0;
  bool hit = true;
  auto first = cache.GetOrBuild(
      "k", [&] { ++builds; return TrivialPlan(); }, &hit);
  EXPECT_FALSE(hit);
  auto second = cache.GetOrBuild(
      "k", [&] { ++builds; return TrivialPlan(); }, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(first.get(), second.get());
}

TEST(PlanCacheTest, FailedBuildIsRetried) {
  PlanCache cache(4);
  EXPECT_THROW(
      cache.GetOrBuild(
          "k", []() -> std::shared_ptr<const CachedPlan> {
            throw std::runtime_error("boom");
          }),
      std::runtime_error);
  bool hit = true;
  auto plan = cache.GetOrBuild("k", [] { return TrivialPlan(); }, &hit);
  EXPECT_FALSE(hit);
  EXPECT_NE(plan, nullptr);
}

// Regression for the generation guard: while a build for key X is in
// flight, X's entry is evicted (capacity pressure) and the key rebuilt
// successfully by another thread. The original build then fails — its
// cleanup must remove only its *own* insertion, not the successor's good
// entry.
TEST(PlanCacheTest, FailedBuildDoesNotEvictRebuiltSuccessor) {
  PlanCache cache(/*capacity=*/1);
  std::promise<void> started;
  std::promise<void> release;

  std::thread doomed([&] {
    EXPECT_THROW(
        cache.GetOrBuild(
            "X", [&]() -> std::shared_ptr<const CachedPlan> {
              started.set_value();
              release.get_future().wait();
              throw std::runtime_error("slow failure");
            }),
        std::runtime_error);
  });
  started.get_future().wait();

  // Capacity 1: inserting Y evicts X's in-flight entry...
  cache.GetOrBuild("Y", [] { return TrivialPlan(); });
  // ...and a fresh build of X succeeds under a new generation.
  auto good = cache.GetOrBuild("X", [] { return TrivialPlan(); });

  release.set_value();
  doomed.join();

  // The failed build's cleanup ran after the successor was inserted; the
  // good entry must still be served.
  bool hit = false;
  auto again = cache.GetOrBuild(
      "X",
      []() -> std::shared_ptr<const CachedPlan> {
        ADD_FAILURE() << "good entry was evicted by the failed build";
        return TrivialPlan();
      },
      &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(again.get(), good.get());
}

TEST(PlanCacheTest, ConcurrentGetOrBuildSingleFlights) {
  PlanCache cache(8);
  std::atomic<int> builds{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const CachedPlan>> results(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      results[static_cast<std::size_t>(t)] = cache.GetOrBuild("shared", [&] {
        builds.fetch_add(1);
        return TrivialPlan();
      });
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(builds.load(), 1);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(results[static_cast<std::size_t>(t)].get(), results[0].get());
  }
}

// Builders that throw intermittently under eviction pressure: the cache
// must never serve a stale failure or lose a good rebuild.
TEST(PlanCacheTest, MixedFailureEvictionStress) {
  PlanCache cache(2);
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 300; ++i) {
        const int which = (t * 7 + i) % 5;
        const std::string key = "k" + std::to_string(which);
        const bool fail = (t + i) % 3 == 0;
        try {
          auto plan = cache.GetOrBuild(
              key, [&]() -> std::shared_ptr<const CachedPlan> {
                if (fail) throw std::runtime_error("flaky");
                return TrivialPlan();
              });
          if (plan == nullptr) wrong.fetch_add(1);
        } catch (const std::runtime_error&) {
          // Propagated failure of our own (or a joined) build: expected.
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
  // After the dust settles every key must be buildable again.
  for (int which = 0; which < 5; ++which) {
    auto plan = cache.GetOrBuild("k" + std::to_string(which),
                                 [] { return TrivialPlan(); });
    EXPECT_NE(plan, nullptr);
  }
}

}  // namespace
}  // namespace adp
