// AdpEngine: plan-cache accounting, equivalence with the direct ComputeAdp
// path, database interning, typed Status errors, PreparedQuery hot path,
// cancellation/deadline tickets, coalescing admission, and multi-threaded
// smoke tests.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "engine/grouped_workload.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "query/parser.h"
#include "solver/compute_adp.h"
#include "test_util.h"
#include "util/cancel.h"
#include "util/rng.h"

namespace adp {
namespace {

using testing::MakeDb;
using testing::RandomDb;
using testing::RandomQuery;

constexpr char kChainText[] = "Q(A,B,C,E) :- R1(A,B), R2(B,C), R3(C,E)";

NamedDatabase Fig1NamedDb() {
  const ConjunctiveQuery q = ParseQuery(kChainText);
  NamedDatabase named;
  named.relation_names = {"R1", "R2", "R3"};
  named.db = MakeDb(q, {{"R1", {{11, 21}, {12, 22}, {13, 23}}},
                        {"R2", {{21, 31}, {22, 32}, {22, 33}, {23, 33}}},
                        {"R3", {{31, 41}, {32, 43}, {33, 43}}}});
  return named;
}

/// Occupies the single worker of `engine` until `release` is satisfied, and
/// resolves `plugged` once the worker is provably busy. Used to make "still
/// queued" states deterministic.
struct WorkerPlug {
  std::promise<void> plugged;
  std::promise<void> release;

  void Install(AdpEngine& engine, DbId db) {
    AdpRequest plug;
    plug.query_text = "Q() :- R1(A,B)";
    plug.db = db;
    plug.k = 0;
    auto released = std::make_shared<std::future<void>>(release.get_future());
    engine.SubmitAsync(plug, [this, released](AdpResponse) {
      plugged.set_value();
      released->wait();
    });
    plugged.get_future().wait();
  }
};

TEST(AdpEngineTest, PlanCacheHitAndMissCounting) {
  AdpEngine engine(EngineConfig{.num_workers = 1});
  const DbId db = engine.RegisterDatabase(Fig1NamedDb());

  AdpRequest req;
  req.query_text = kChainText;
  req.db = db;
  req.k = 2;

  AdpResponse first = engine.Execute(req);
  ASSERT_TRUE(first.ok()) << first.status.ToString();
  EXPECT_FALSE(first.plan_cache_hit);

  AdpResponse second = engine.Execute(req);
  ASSERT_TRUE(second.ok()) << second.status.ToString();
  EXPECT_TRUE(second.plan_cache_hit);
  ASSERT_NE(first.plan, nullptr);
  EXPECT_EQ(second.plan, first.plan);  // the cached object itself

  const EngineCounters c = engine.counters();
  EXPECT_EQ(c.requests, 2u);
  EXPECT_EQ(c.failures, 0u);
  EXPECT_EQ(c.plan_misses, 1u);
  EXPECT_EQ(c.plan_hits, 1u);
  EXPECT_EQ(c.plan_cache_size, 1u);

  // A structurally different query is a fresh miss.
  AdpRequest other = req;
  other.query_text = "Q() :- R1(A,B), R2(B,C), R3(C,E)";
  ASSERT_TRUE(engine.Execute(other).ok());
  EXPECT_EQ(engine.counters().plan_misses, 2u);
}

TEST(AdpEngineTest, MatchesDirectComputeAdp) {
  AdpEngine engine(EngineConfig{.num_workers = 2});
  const DbId db = engine.RegisterDatabase(Fig1NamedDb());
  const ConjunctiveQuery q = ParseQuery(kChainText);
  const Database direct_db = MakeDb(
      q, {{"R1", {{11, 21}, {12, 22}, {13, 23}}},
          {"R2", {{21, 31}, {22, 32}, {22, 33}, {23, 33}}},
          {"R3", {{31, 41}, {32, 43}, {33, 43}}}});

  for (std::int64_t k = 0; k <= 5; ++k) {
    AdpRequest req;
    req.query_text = kChainText;
    req.db = db;
    req.k = k;
    req.options.verify = true;
    const AdpResponse resp = engine.Execute(req);
    ASSERT_TRUE(resp.ok()) << resp.status.ToString();

    AdpOptions options;
    options.verify = true;
    const AdpSolution direct = ComputeAdp(q, direct_db, k, options);
    EXPECT_EQ(resp.solution.cost, direct.cost) << "k=" << k;
    EXPECT_EQ(resp.solution.exact, direct.exact) << "k=" << k;
    EXPECT_EQ(resp.solution.feasible, direct.feasible) << "k=" << k;
    EXPECT_EQ(resp.solution.output_count, direct.output_count) << "k=" << k;
    EXPECT_EQ(resp.solution.tuples, direct.tuples) << "k=" << k;
    EXPECT_EQ(resp.solution.removed_outputs, direct.removed_outputs)
        << "k=" << k;
  }
}

TEST(AdpEngineTest, StructurallyIdenticalQueriesOverDifferentRelationsDoNotShareBindings) {
  // Regression: named-database binding goes by relation name, so a plan
  // cached for R1/R2 must not serve the same shape over S1/S2.
  AdpEngine engine(EngineConfig{.num_workers = 1});

  NamedDatabase r_db;
  r_db.relation_names = {"R1", "R2"};
  r_db.db.Append({});
  r_db.db.rel(0).Add({1, 2});
  r_db.db.Append({});
  r_db.db.rel(1).Add({2, 3});
  const DbId r_id = engine.RegisterDatabase(std::move(r_db));

  NamedDatabase s_db;
  s_db.relation_names = {"S1", "S2"};
  s_db.db.Append({});
  s_db.db.rel(0).Add({1, 2});
  s_db.db.Append({});
  s_db.db.rel(1).Add({2, 3});
  const DbId s_id = engine.RegisterDatabase(std::move(s_db));

  AdpRequest r_req;
  r_req.query_text = "Q(A,B) :- R1(A,B), R2(B,C)";
  r_req.db = r_id;
  r_req.k = 1;
  const AdpResponse r_resp = engine.Execute(r_req);
  ASSERT_TRUE(r_resp.ok()) << r_resp.status.ToString();
  EXPECT_EQ(r_resp.solution.output_count, 1);

  AdpRequest s_req;
  s_req.query_text = "Q(A,B) :- S1(A,B), S2(B,C)";
  s_req.db = s_id;
  s_req.k = 1;
  const AdpResponse s_resp = engine.Execute(s_req);
  ASSERT_TRUE(s_resp.ok()) << s_resp.status.ToString();
  // Before the fix this hit R1/R2's plan, bound empty instances, and
  // reported output_count == 0.
  EXPECT_EQ(s_resp.solution.output_count, 1);
  EXPECT_EQ(s_resp.solution.cost, r_resp.solution.cost);
  EXPECT_FALSE(s_resp.plan_cache_hit);
}

TEST(AdpEngineTest, DatabaseInterningSharesBindings) {
  AdpEngine engine(EngineConfig{.num_workers = 1});
  const DbId db = engine.RegisterDatabase(Fig1NamedDb());

  AdpRequest req;
  req.query_text = kChainText;
  req.db = db;
  req.k = 1;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(engine.Execute(req).ok());

  const EngineCounters c = engine.counters();
  EXPECT_EQ(c.binding_misses, 1u);
  EXPECT_EQ(c.binding_hits, 4u);
  EXPECT_EQ(c.databases, 1u);
}

TEST(AdpEngineTest, UnregisterDatabaseReleasesAndNeverReusesIds) {
  AdpEngine engine(EngineConfig{.num_workers = 1});
  const DbId db = engine.RegisterDatabase(Fig1NamedDb());
  ASSERT_NE(engine.database(db), nullptr);

  AdpRequest req;
  req.query_text = kChainText;
  req.db = db;
  req.k = 1;
  ASSERT_TRUE(engine.Execute(req).ok());

  EXPECT_TRUE(engine.UnregisterDatabase(db));
  EXPECT_EQ(engine.database(db), nullptr);
  EXPECT_FALSE(engine.UnregisterDatabase(db));  // already released
  EXPECT_EQ(engine.counters().databases, 0u);

  // A released id stays dead: requests against it fail typed, and a fresh
  // registration gets a new id (never aliasing the old handle).
  EXPECT_EQ(engine.Execute(req).status.code(), StatusCode::kUnknownDatabase);
  const DbId fresh = engine.RegisterDatabase(Fig1NamedDb());
  EXPECT_NE(fresh, db);
  EXPECT_EQ(engine.counters().databases, 1u);

  // The new instance answers correctly — its bindings were not poisoned by
  // the released database's cache entries.
  req.db = fresh;
  const AdpResponse r = engine.Execute(req);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.solution.feasible);
}

TEST(AdpEngineTest, ErrorsCarryTypedStatusCodes) {
  AdpEngine engine(EngineConfig{.num_workers = 1});
  const DbId db = engine.RegisterDatabase(Fig1NamedDb());

  AdpRequest bad_query;
  bad_query.query_text = "this is not datalog";
  bad_query.db = db;
  const AdpResponse r1 = engine.Execute(bad_query);
  EXPECT_EQ(r1.status.code(), StatusCode::kParseError);
  EXPECT_FALSE(r1.status.message().empty());

  AdpRequest bad_db;
  bad_db.query_text = kChainText;
  bad_db.db = 999;
  const AdpResponse r2 = engine.Execute(bad_db);
  EXPECT_EQ(r2.status.code(), StatusCode::kUnknownDatabase);
  EXPECT_NE(r2.status.message().find("database"), std::string::npos);

  AdpRequest bad_rel;
  bad_rel.query_text = "Q(A,B,C) :- R1(A,B), R9(B,C)";  // R9 does not exist
  bad_rel.db = db;
  bad_rel.k = 1;
  const AdpResponse r3 = engine.Execute(bad_rel);
  EXPECT_EQ(r3.status.code(), StatusCode::kUnknownRelation);
  EXPECT_NE(r3.status.message().find("R9"), std::string::npos)
      << r3.status.ToString();

  // A failed parse is not cached: the next occurrence fails afresh.
  const AdpResponse r4 = engine.Execute(bad_query);
  EXPECT_EQ(r4.status.code(), StatusCode::kParseError);
  EXPECT_EQ(engine.counters().failures, 4u);

  // Correctly named atoms still bind.
  bad_rel.query_text = kChainText;
  EXPECT_TRUE(engine.Execute(bad_rel).ok());

  // Every code has a distinct name and exit code.
  EXPECT_STREQ(StatusCodeName(StatusCode::kDeadlineExceeded),
               "DEADLINE_EXCEEDED");
  EXPECT_EQ(StatusExitCode(StatusCode::kOk), 0);
  EXPECT_NE(StatusExitCode(StatusCode::kParseError),
            StatusExitCode(StatusCode::kCancelled));
}

// >= 100 mixed requests across >= 4 workers: every response must be
// bit-identical to the direct single-threaded path.
TEST(AdpEngineTest, ConcurrentMixedWorkloadSmoke) {
  AdpEngine engine(EngineConfig{.num_workers = 4});
  ASSERT_GE(engine.num_workers(), 4);

  Rng rng(987654321);
  struct Case {
    ConjunctiveQuery query;
    DbId db;
    std::int64_t k;
  };
  std::vector<Case> cases;
  for (int i = 0; i < 12; ++i) {
    Case c;
    c.query = RandomQuery(rng, 4, 3);
    c.db = engine.RegisterDatabase(RandomDb(c.query, rng, 4, 3));
    c.k = static_cast<std::int64_t>(rng.Uniform(4));
    cases.push_back(std::move(c));
  }

  std::vector<std::future<AdpResponse>> futures;
  for (int i = 0; i < 120; ++i) {
    const Case& c = cases[static_cast<std::size_t>(i) % cases.size()];
    AdpRequest req;
    req.query_text = c.query.ToString();
    req.db = c.db;
    req.k = c.k;
    futures.push_back(engine.Submit(std::move(req)));
  }

  for (int i = 0; i < 120; ++i) {
    const Case& c = cases[static_cast<std::size_t>(i) % cases.size()];
    const AdpResponse resp = futures[static_cast<std::size_t>(i)].get();
    ASSERT_TRUE(resp.ok()) << resp.status.ToString();
    const AdpSolution direct =
        ComputeAdp(c.query, engine.database(c.db)->db, c.k, AdpOptions{});
    ASSERT_EQ(resp.solution.cost, direct.cost) << "request " << i;
    ASSERT_EQ(resp.solution.exact, direct.exact) << "request " << i;
    ASSERT_EQ(resp.solution.feasible, direct.feasible) << "request " << i;
    ASSERT_EQ(resp.solution.tuples, direct.tuples) << "request " << i;
  }

  const EngineCounters c = engine.counters();
  EXPECT_EQ(c.requests, 120u);
  EXPECT_EQ(c.failures, 0u);
  // 12 distinct structures (at most; random queries may collide), 120
  // requests: every repeat was served either from the plan cache or by
  // joining an identical in-flight solve (single-flight dedup).
  EXPECT_LE(c.plan_misses, 12u);
  EXPECT_GE(c.plan_hits + c.dedup_hits, 108u);
}

// N identical concurrent requests must perform exactly one solve: the first
// becomes the leader, the rest join its in-flight entry and receive copies.
TEST(AdpEngineTest, IdenticalConcurrentRequestsShareOneSolve) {
  AdpEngine engine(EngineConfig{.num_workers = 1});
  const DbId db = engine.RegisterDatabase(Fig1NamedDb());

  WorkerPlug plug;
  plug.Install(engine, db);

  AdpRequest req;
  req.query_text = kChainText;
  req.db = db;
  req.k = 2;
  constexpr int kIdentical = 8;
  std::vector<std::future<AdpResponse>> futures;
  for (int i = 0; i < kIdentical; ++i) futures.push_back(engine.Submit(req));
  plug.release.set_value();

  int deduped = 0;
  for (auto& fut : futures) {
    const AdpResponse resp = fut.get();
    ASSERT_TRUE(resp.ok()) << resp.status.ToString();
    EXPECT_EQ(resp.solution.cost, 1);
    if (resp.deduped) ++deduped;
  }
  EXPECT_EQ(deduped, kIdentical - 1);

  const EngineCounters c = engine.counters();
  EXPECT_EQ(c.requests, 1u + kIdentical);
  EXPECT_EQ(c.dedup_hits, kIdentical - 1u);
  // Exactly one solve of the chain query: one plan build and one binding
  // for it (the other miss of each is the plug request) and zero lookups
  // from the followers.
  EXPECT_EQ(c.plan_misses, 2u);
  EXPECT_EQ(c.plan_hits, 0u);
  EXPECT_EQ(c.binding_misses, 2u);
  EXPECT_EQ(c.binding_hits, 0u);
}

TEST(AdpEngineTest, SubmitAsyncInvokesCallback) {
  AdpEngine engine(EngineConfig{.num_workers = 2});
  const DbId db = engine.RegisterDatabase(Fig1NamedDb());

  AdpRequest req;
  req.query_text = kChainText;
  req.db = db;
  req.k = 2;
  std::promise<AdpResponse> done;
  const AdpTicket ticket = engine.SubmitAsync(
      req, [&](AdpResponse r) { done.set_value(std::move(r)); });
  EXPECT_TRUE(ticket.valid());
  auto fut = done.get_future();
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  const AdpResponse resp = fut.get();
  ASSERT_TRUE(resp.ok()) << resp.status.ToString();
  EXPECT_EQ(resp.solution.cost, 1);
}

/// Records every SubmitAsync callback by submission tag, so a test can
/// check that each submission got exactly one, and which.
struct Callbacks {
  std::mutex mu;
  std::condition_variable cv;
  std::map<int, std::vector<AdpResponse>> got;

  AdpTicket Submit(AdpEngine& engine, AdpRequest req, int tag) {
    return engine.SubmitAsync(std::move(req), [this, tag](AdpResponse r) {
      std::lock_guard<std::mutex> lock(mu);
      got[tag].push_back(std::move(r));
      cv.notify_all();
    });
  }

  /// Waits until `n` distinct submissions have called back.
  bool WaitFor(std::size_t n) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::seconds(30),
                       [&] { return got.size() >= n; });
  }
};

// Each submission's callback carries that submission's own answer.
TEST(AdpEngineTest, SubmitAsyncDeliversEachSubmissionsAnswer) {
  AdpEngine engine(EngineConfig{.num_workers = 2});
  const DbId db = engine.RegisterDatabase(Fig1NamedDb());
  const ConjunctiveQuery q = ParseQuery(kChainText);
  const Database direct_db = Fig1NamedDb().db;

  Callbacks callbacks;
  for (int k = 0; k <= 5; ++k) {
    AdpRequest req;
    req.query_text = kChainText;
    req.db = db;
    req.k = k;
    callbacks.Submit(engine, std::move(req), k);
  }
  ASSERT_TRUE(callbacks.WaitFor(6));
  std::lock_guard<std::mutex> lock(callbacks.mu);
  ASSERT_EQ(callbacks.got.size(), 6u);
  for (const auto& [k, responses] : callbacks.got) {
    ASSERT_EQ(responses.size(), 1u) << "k=" << k;
    ASSERT_TRUE(responses[0].ok()) << responses[0].status.ToString();
    EXPECT_EQ(responses[0].solution.cost, ComputeAdp(q, direct_db, k, {}).cost)
        << "k=" << k;
  }
}

// One callback per submission whatever the outcome, each carrying the code
// the synchronous path would have reported.
TEST(AdpEngineTest, StatusRoundTripsThroughSubmitAsync) {
  AdpEngine engine(EngineConfig{.num_workers = 1});
  const DbId db = engine.RegisterDatabase(Fig1NamedDb());

  Callbacks callbacks;
  AdpRequest good;
  good.query_text = kChainText;
  good.db = db;
  good.k = 2;
  callbacks.Submit(engine, good, 1);

  AdpRequest bad_parse;
  bad_parse.query_text = "not datalog";
  bad_parse.db = db;
  callbacks.Submit(engine, bad_parse, 2);

  AdpRequest bad_db;
  bad_db.query_text = kChainText;
  bad_db.db = 999;
  callbacks.Submit(engine, bad_db, 3);

  ASSERT_TRUE(callbacks.WaitFor(3));
  {
    std::lock_guard<std::mutex> lock(callbacks.mu);
    const std::map<int, StatusCode> expected = {
        {1, StatusCode::kOk},
        {2, StatusCode::kParseError},
        {3, StatusCode::kUnknownDatabase}};
    for (const auto& [tag, code] : expected) {
      ASSERT_EQ(callbacks.got[tag].size(), 1u) << "tag " << tag;
      EXPECT_EQ(callbacks.got[tag][0].status.code(), code) << "tag " << tag;
    }
  }

  // A cancellation round-trips too: delivered from inside Cancel(), while
  // the request is still queued behind the plugged worker.
  WorkerPlug plug;
  plug.Install(engine, db);
  AdpRequest queued;
  queued.query_text = kChainText;
  queued.db = db;
  queued.k = 3;
  AdpTicket ticket = callbacks.Submit(engine, queued, 4);
  EXPECT_TRUE(ticket.Cancel());
  {
    std::lock_guard<std::mutex> lock(callbacks.mu);
    ASSERT_EQ(callbacks.got[4].size(), 1u);
    EXPECT_EQ(callbacks.got[4][0].status.code(), StatusCode::kCancelled);
  }
  plug.release.set_value();
  // The dropped request never calls back a second time.
  AdpRequest after = good;
  after.k = 1;
  callbacks.Submit(engine, after, 5);
  ASSERT_TRUE(callbacks.WaitFor(5));
  std::lock_guard<std::mutex> lock(callbacks.mu);
  EXPECT_EQ(callbacks.got[4].size(), 1u);
}

// Regression: a batch of Submit futures awaited from inside a pool worker
// used to park every worker on futures whose tasks nobody was left to run.
// With one worker this deadlocked deterministically; nested submissions now
// run inline.
TEST(AdpEngineTest, NestedBatchFromWorkerRunsInline) {
  AdpEngine engine(EngineConfig{.num_workers = 1});
  const DbId db = engine.RegisterDatabase(Fig1NamedDb());

  AdpRequest outer;
  outer.query_text = "Q() :- R1(A,B)";
  outer.db = db;
  outer.k = 0;
  std::promise<std::vector<AdpResponse>> done;
  engine.SubmitAsync(outer, [&](AdpResponse) {
    // Runs on the engine's only worker thread.
    std::vector<std::future<AdpResponse>> futures;
    for (std::int64_t k = 0; k <= 2; ++k) {
      AdpRequest req;
      req.query_text = kChainText;
      req.db = db;
      req.k = k;
      futures.push_back(engine.Submit(std::move(req)));
    }
    std::vector<AdpResponse> out;
    for (auto& f : futures) out.push_back(f.get());
    done.set_value(std::move(out));
  });
  auto fut = done.get_future();
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(30)),
            std::future_status::ready)
      << "nested Submit batch deadlocked";
  const std::vector<AdpResponse> out = fut.get();
  ASSERT_EQ(out.size(), 3u);
  for (const AdpResponse& r : out) EXPECT_TRUE(r.ok()) << r.status.ToString();
}

// Intra-request sharding must be invisible in the results: a sharded solve
// of a Universe-heavy request is bitwise-identical to the sequential one.
TEST(AdpEngineTest, IntraRequestShardingMatchesSequential) {
  EngineConfig sharded_cfg;
  sharded_cfg.num_workers = 4;
  sharded_cfg.min_shard_groups = 2;
  AdpEngine sharded(sharded_cfg);

  EngineConfig sequential_cfg;
  sequential_cfg.num_workers = 4;
  sequential_cfg.min_shard_groups = 0;  // sharding off
  AdpEngine sequential(sequential_cfg);

  Rng rng(4242);
  const ConjunctiveQuery q = ParseQuery("Q(A,B,C) :- R1(A,B), R2(A,C)");
  int sharded_nodes = 0;
  for (int iter = 0; iter < 10; ++iter) {
    Database db = RandomDb(q, rng, 12, 5);
    AdpRequest req;
    req.query_text = q.ToString();
    req.db = sharded.RegisterDatabase(db);
    req.k = 1 + static_cast<std::int64_t>(rng.Uniform(6));
    req.options.verify = true;
    const AdpResponse a = sharded.Execute(req);

    req.db = sequential.RegisterDatabase(std::move(db));
    const AdpResponse b = sequential.Execute(req);

    ASSERT_EQ(a.ok(), b.ok()) << "iter " << iter << ": "
                              << a.status.ToString() << b.status.ToString();
    if (!a.ok()) continue;
    EXPECT_EQ(a.solution.cost, b.solution.cost) << "iter " << iter;
    EXPECT_EQ(a.solution.exact, b.solution.exact) << "iter " << iter;
    EXPECT_EQ(a.solution.feasible, b.solution.feasible) << "iter " << iter;
    EXPECT_EQ(a.solution.output_count, b.solution.output_count)
        << "iter " << iter;
    EXPECT_EQ(a.solution.tuples, b.solution.tuples) << "iter " << iter;
    EXPECT_EQ(a.solution.removed_outputs, b.solution.removed_outputs)
        << "iter " << iter;
    // The recursion trace must also match: sharding may only differ in the
    // sharded_* engagement markers, never in which cases ran how often.
    EXPECT_TRUE(StatsAgreeModuloSharding(a.stats, b.stats))
        << "iter " << iter;
    sharded_nodes += a.stats.sharded_universe_nodes;
    EXPECT_EQ(b.stats.sharded_universe_nodes, 0) << "iter " << iter;
  }
  // The workload is Universe-shaped: sharding must actually have engaged.
  EXPECT_GT(sharded_nodes, 0);
}

// Decompose-axis twin of the test above: sharding the connected-component
// sub-solves must be invisible in the results, and the engine must roll the
// per-solve engagement up into EngineCounters::sharded_decompose_nodes.
TEST(AdpEngineTest, DecomposeShardingMatchesSequential) {
  EngineConfig sharded_cfg;
  sharded_cfg.num_workers = 4;
  sharded_cfg.min_shard_components = 2;
  sharded_cfg.min_shard_groups = 0;  // isolate the Decompose axis
  AdpEngine sharded(sharded_cfg);

  EngineConfig sequential_cfg;
  sequential_cfg.num_workers = 4;
  sequential_cfg.min_shard_components = 0;
  sequential_cfg.min_shard_groups = 0;
  AdpEngine sequential(sequential_cfg);

  Rng rng(4343);
  // Three connected components ({R1,R2}, {R3,R4} and {R5,R6}), combined by
  // the cross-product DP. The smallest is solved before the fan-out, so the
  // other two make it shard.
  const ConjunctiveQuery q = ParseQuery(
      "Q(A,B,C,E,F,G) :- R1(A), R2(A,B), R3(C), R4(C,E), R5(F), R6(F,G)");
  std::uint64_t sharded_nodes = 0;
  for (int iter = 0; iter < 10; ++iter) {
    Database db = RandomDb(q, rng, 12, 5);
    AdpRequest req;
    req.query_text = q.ToString();
    req.db = sharded.RegisterDatabase(db);
    req.k = 1 + static_cast<std::int64_t>(rng.Uniform(6));
    req.options.verify = true;
    const AdpResponse a = sharded.Execute(req);

    req.db = sequential.RegisterDatabase(std::move(db));
    const AdpResponse b = sequential.Execute(req);

    ASSERT_EQ(a.ok(), b.ok()) << "iter " << iter << ": "
                              << a.status.ToString() << b.status.ToString();
    if (!a.ok()) continue;
    EXPECT_EQ(a.solution.cost, b.solution.cost) << "iter " << iter;
    EXPECT_EQ(a.solution.exact, b.solution.exact) << "iter " << iter;
    EXPECT_EQ(a.solution.feasible, b.solution.feasible) << "iter " << iter;
    EXPECT_EQ(a.solution.output_count, b.solution.output_count)
        << "iter " << iter;
    EXPECT_EQ(a.solution.tuples, b.solution.tuples) << "iter " << iter;
    EXPECT_EQ(a.solution.removed_outputs, b.solution.removed_outputs)
        << "iter " << iter;
    // Case-mix equality modulo the engagement markers (see the Universe
    // twin above).
    EXPECT_TRUE(StatsAgreeModuloSharding(a.stats, b.stats))
        << "iter " << iter;
    sharded_nodes +=
        static_cast<std::uint64_t>(a.stats.sharded_decompose_nodes);
    EXPECT_EQ(b.stats.sharded_decompose_nodes, 0) << "iter " << iter;
  }
  // The workload is Decompose-shaped: sharding must actually have engaged,
  // and the engine-level rollup must agree with the per-response stats.
  EXPECT_GT(sharded_nodes, 0u);
  EXPECT_EQ(sharded.counters().sharded_decompose_nodes, sharded_nodes);
  EXPECT_EQ(sequential.counters().sharded_decompose_nodes, 0u);
}

// Cancelling a sharded Decompose request mid-solve must surface kCancelled
// with no partial results — the default-constructed solution, not a
// half-combined profile. The race with solve completion is inherent
// (Cancel may lose), so OK is tolerated; a hang, crash, or partially
// filled kCancelled response is not. Run under TSan in CI.
TEST(AdpEngineTest, CancelledShardedDecomposeHasNoPartialResults) {
  EngineConfig config;
  config.num_workers = 2;
  config.min_shard_components = 2;
  config.min_shard_groups = 0;
  AdpEngine engine(config);

  // Three heavyweight components, each the bench's universe workload: the
  // smallest is solved before the fan-out, the other two shard.
  constexpr std::int64_t kGroups = 16;
  constexpr std::int64_t kRows = 3000;
  NamedDatabase named;
  Rng rng(17);
  for (int comp = 0; comp < 3; ++comp) {
    const std::string n = std::to_string(comp + 1);
    AppendGroupedComponent(named, rng, kRows, kGroups, "S" + n, "T" + n,
                           "U" + n);
  }
  const DbId db = engine.RegisterDatabase(std::move(named));

  AdpRequest req;
  req.query_text =
      "Q(A1,A2,A3) :- S1(A1,B1), T1(A1,B1,C1), U1(A1,C1), "
      "S2(A2,B2), T2(A2,B2,C2), U2(A2,C2), "
      "S3(A3,B3), T3(A3,B3,C3), U3(A3,C3)";
  req.db = db;
  req.k = 4;
  req.options.counting_only = true;

  AdpTicket ticket;
  std::future<AdpResponse> fut = engine.Submit(req, &ticket);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ticket.Cancel();

  ASSERT_EQ(fut.wait_for(std::chrono::seconds(60)),
            std::future_status::ready)
      << "cancelled sharded Decompose solve hung";
  const AdpResponse resp = fut.get();
  if (resp.status.code() == StatusCode::kCancelled) {
    // No partial results may leak out of an aborted solve.
    EXPECT_TRUE(resp.solution.tuples.empty());
    EXPECT_EQ(resp.solution.cost, 0);
    EXPECT_EQ(resp.solution.output_count, 0);
    EXPECT_GE(engine.counters().cancelled, 1u);
  } else {
    ASSERT_EQ(resp.status.code(), StatusCode::kOk) << resp.status.ToString();
  }

  // The engine stays fully usable afterwards.
  const AdpResponse clean = engine.Execute(req);
  ASSERT_TRUE(clean.ok()) << clean.status.ToString();
  EXPECT_GT(clean.stats.sharded_decompose_nodes, 0);
}

// Plans and bindings dropped under load — one-entry caches and two queries
// evicting each other — never change an answer: in-flight solves keep the
// plans and bindings they hold, and later requests rebuild.
TEST(AdpEngineTest, EvictionUnderLoadStaysCorrect) {
  EngineConfig config;
  config.num_workers = 4;
  config.plan_cache_capacity = 1;
  config.binding_cache_capacity = 1;
  AdpEngine engine(config);
  const DbId db = engine.RegisterDatabase(Fig1NamedDb());

  // Precompute the expected answers for k = 0..4 of both queries.
  const std::string texts[] = {kChainText, "Q(A,B) :- R1(A,B), R2(B,C)"};
  const Database direct_db = Fig1NamedDb().db;
  std::vector<std::int64_t> expected[2];
  for (int t = 0; t < 2; ++t) {
    const ConjunctiveQuery q = ParseQuery(texts[t]);
    for (std::int64_t k = 0; k <= 4; ++k) {
      expected[t].push_back(ComputeAdp(q, direct_db, k, {}).cost);
    }
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 100; ++i) {
        const int which = (t + i) % 2;
        const std::int64_t k = (t + i / 2) % 5;
        AdpRequest req;
        req.query_text = texts[which];
        req.db = db;
        req.k = k;
        const AdpResponse resp = engine.Execute(req);
        if (!resp.ok() || resp.solution.cost !=
                              expected[which][static_cast<std::size_t>(k)]) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_LE(engine.counters().plan_cache_size, 1u);
  EXPECT_GE(engine.counters().plan_misses, 2u);
}

TEST(AdpEngineTest, LruEvictionBoundsCacheSize) {
  EngineConfig config;
  config.num_workers = 1;
  config.plan_cache_capacity = 2;
  AdpEngine engine(config);
  const DbId db = engine.RegisterDatabase(Fig1NamedDb());

  const char* texts[] = {
      "Q() :- R1(A,B)",
      "Q(A) :- R1(A,B)",
      "Q(A,B) :- R1(A,B)",
  };
  for (const char* text : texts) {
    AdpRequest req;
    req.query_text = text;
    req.db = db;
    req.k = 0;
    ASSERT_TRUE(engine.Execute(req).ok());
  }
  EXPECT_LE(engine.counters().plan_cache_size, 2u);
}

// --- PreparedQuery -----------------------------------------------------------

// The acceptance bar of the prepared hot path: after Prepare + Bind, a
// request performs ZERO plan-cache and ZERO binding-cache probes, while the
// text path pays one of each per request.
TEST(AdpEngineTest, PreparedHotPathSkipsCacheProbes) {
  AdpEngine engine(EngineConfig{.num_workers = 1});
  const DbId db = engine.RegisterDatabase(Fig1NamedDb());

  StatusOr<PreparedQuery> prepared = engine.Prepare(kChainText);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ASSERT_TRUE(prepared->valid());
  ASSERT_TRUE(prepared->Bind(db).ok());
  ASSERT_TRUE(prepared->bound());
  EXPECT_EQ(prepared->bound_db(), db);

  const ConjunctiveQuery q = ParseQuery(kChainText);
  const Database direct_db = Fig1NamedDb().db;

  constexpr int kRequests = 10;
  const EngineCounters before = engine.counters();
  for (int i = 0; i < kRequests; ++i) {
    const AdpResponse resp = engine.Execute(*prepared, /*k=*/2);
    ASSERT_TRUE(resp.ok()) << resp.status.ToString();
    EXPECT_TRUE(resp.plan_cache_hit);  // static work pinned
    EXPECT_EQ(resp.solution.cost, ComputeAdp(q, direct_db, 2, {}).cost);
    EXPECT_EQ(resp.plan, prepared->plan());
  }
  const EngineCounters after = engine.counters();
  EXPECT_EQ(after.requests, before.requests + kRequests);
  // Zero per-request cache traffic on the prepared path.
  EXPECT_EQ(after.plan_hits, before.plan_hits);
  EXPECT_EQ(after.plan_misses, before.plan_misses);
  EXPECT_EQ(after.binding_hits, before.binding_hits);
  EXPECT_EQ(after.binding_misses, before.binding_misses);

  // Text path: one plan probe and one binding probe per request.
  for (int i = 0; i < kRequests; ++i) {
    AdpRequest req;
    req.query_text = kChainText;
    req.db = db;
    req.k = 2;
    ASSERT_TRUE(engine.Execute(req).ok());
  }
  const EngineCounters text = engine.counters();
  EXPECT_EQ(text.plan_hits + text.plan_misses,
            after.plan_hits + after.plan_misses + kRequests);
  EXPECT_EQ(text.binding_hits + text.binding_misses,
            after.binding_hits + after.binding_misses + kRequests);
}

TEST(AdpEngineTest, PreparedUnboundResolvesDatabasePerRequest) {
  AdpEngine engine(EngineConfig{.num_workers = 1});
  const DbId db = engine.RegisterDatabase(Fig1NamedDb());

  StatusOr<PreparedQuery> prepared = engine.Prepare(kChainText);
  ASSERT_TRUE(prepared.ok());
  ASSERT_FALSE(prepared->bound());

  AdpRequest req;
  req.prepared = *prepared;
  req.db = db;
  req.k = 2;
  const EngineCounters before = engine.counters();
  const AdpResponse resp = engine.Execute(req);
  ASSERT_TRUE(resp.ok()) << resp.status.ToString();
  EXPECT_EQ(resp.solution.cost, 1);
  const EngineCounters after = engine.counters();
  // Plan pinned (no plan probe), but the binding resolves per request.
  EXPECT_EQ(after.plan_hits + after.plan_misses,
            before.plan_hits + before.plan_misses);
  EXPECT_EQ(after.binding_hits + after.binding_misses,
            before.binding_hits + before.binding_misses + 1);

  // Unknown database id still fails typed.
  req.db = 777;
  EXPECT_EQ(engine.Execute(req).status.code(), StatusCode::kUnknownDatabase);
}

TEST(AdpEngineTest, PreparedSubmitAndDedupAcrossHandleAndCopies) {
  AdpEngine engine(EngineConfig{.num_workers = 1});
  const DbId db = engine.RegisterDatabase(Fig1NamedDb());

  StatusOr<PreparedQuery> prepared = engine.Prepare(kChainText);
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared->Bind(db).ok());
  const PreparedQuery copy = *prepared;  // handles are cheap value types

  WorkerPlug plug;
  plug.Install(engine, db);

  std::vector<std::future<AdpResponse>> futures;
  futures.push_back(engine.Submit(*prepared, /*k=*/2));
  futures.push_back(engine.Submit(copy, /*k=*/2));  // same pinned identity
  plug.release.set_value();

  int deduped = 0;
  for (auto& fut : futures) {
    const AdpResponse resp = fut.get();
    ASSERT_TRUE(resp.ok()) << resp.status.ToString();
    EXPECT_EQ(resp.solution.cost, 1);
    if (resp.deduped) ++deduped;
  }
  EXPECT_EQ(deduped, 1);
  EXPECT_EQ(engine.counters().dedup_hits, 1u);
}

TEST(AdpEngineTest, PreparedValidationIsTyped) {
  AdpEngine engine(EngineConfig{.num_workers = 1});
  AdpEngine other(EngineConfig{.num_workers = 1});
  const DbId db = engine.RegisterDatabase(Fig1NamedDb());

  // Parse failure comes back as a Status, not an exception.
  EXPECT_EQ(engine.Prepare("not a query").status().code(),
            StatusCode::kParseError);
  // So does a 65th distinct attribute, which the 64-bit attribute sets
  // cannot hold.
  std::string wide = "Q(A0,A64) :- R(A0";
  for (int a = 1; a <= 64; ++a) wide += ",A" + std::to_string(a);
  EXPECT_EQ(engine.Prepare(wide + ")").status().code(),
            StatusCode::kParseError);

  StatusOr<PreparedQuery> prepared = engine.Prepare(kChainText);
  ASSERT_TRUE(prepared.ok());

  // Binding to a database the engine doesn't know.
  EXPECT_EQ(prepared->Bind(123).code(), StatusCode::kUnknownDatabase);
  // Binding a handle that was never prepared.
  PreparedQuery blank;
  EXPECT_EQ(blank.Bind(db).code(), StatusCode::kInvalidArgument);

  ASSERT_TRUE(prepared->Bind(db).ok());

  // A handle is only valid with the engine that prepared it.
  EXPECT_EQ(other.Execute(*prepared, 2).status.code(),
            StatusCode::kInvalidArgument);

  // Classification-relevant option knobs must match Prepare's.
  AdpOptions mismatched;
  mismatched.use_singleton = false;
  EXPECT_EQ(engine.Execute(*prepared, 2, mismatched).status.code(),
            StatusCode::kInvalidArgument);

  // Solve-only knobs (heuristic choice, counting) are free to vary.
  AdpOptions counting;
  counting.counting_only = true;
  EXPECT_TRUE(engine.Execute(*prepared, 2, counting).ok());
}

// A prepared query naming a relation the database lacks fails at Bind time
// with kUnknownRelation — not at execute time, and never silently.
TEST(AdpEngineTest, PreparedBindReportsUnknownRelation) {
  AdpEngine engine(EngineConfig{.num_workers = 1});
  const DbId db = engine.RegisterDatabase(Fig1NamedDb());

  StatusOr<PreparedQuery> prepared =
      engine.Prepare("Q(A,B) :- R1(A,B), R9(B,C)");
  ASSERT_TRUE(prepared.ok());  // static work is data-independent
  const Status bind = prepared->Bind(db);
  EXPECT_EQ(bind.code(), StatusCode::kUnknownRelation);
  EXPECT_NE(bind.message().find("R9"), std::string::npos);
}

// --- Cancellation and deadlines ----------------------------------------------

// A Cancel() issued before the worker dequeues the request must (a) deliver
// kCancelled immediately, (b) drop the queued work without ever running the
// solve — zero plan-cache and binding-cache probes.
TEST(AdpEngineTest, CancelBeforeDequeueNeverRunsSolve) {
  AdpEngine engine(EngineConfig{.num_workers = 1});
  const DbId db = engine.RegisterDatabase(Fig1NamedDb());

  WorkerPlug plug;
  plug.Install(engine, db);
  const EngineCounters before = engine.counters();

  AdpRequest req;
  req.query_text = kChainText;
  req.db = db;
  req.k = 2;
  AdpTicket ticket;
  std::future<AdpResponse> fut = engine.Submit(req, &ticket);
  ASSERT_TRUE(ticket.valid());
  EXPECT_FALSE(ticket.done());

  EXPECT_TRUE(ticket.Cancel());
  // Delivery happens at Cancel() time, not when the worker gets around to
  // the queue entry.
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const AdpResponse resp = fut.get();
  EXPECT_EQ(resp.status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(ticket.done());
  EXPECT_FALSE(ticket.Cancel());  // second cancel is a no-op

  plug.release.set_value();
  // Let the worker drain the dropped entry before reading counters.
  AdpRequest sync;
  sync.query_text = "Q() :- R1(A,B)";
  sync.db = db;
  sync.k = 0;
  ASSERT_TRUE(engine.Execute(sync).ok());

  const EngineCounters after = engine.counters();
  EXPECT_EQ(after.cancelled, before.cancelled + 1);
  // The cancelled request itself never touched either cache. (The drain
  // request above accounts for exactly one plan probe and one binding
  // share; the chain query's entries stay untouched.)
  EXPECT_EQ(after.plan_hits + after.plan_misses,
            before.plan_hits + before.plan_misses + 1);
  EXPECT_EQ(after.failures, before.failures);
}

// Cancelling one of N deduped waiters only cancels that waiter's delivery;
// the shared solve still runs for the others. Cancelling every participant
// cancels the solve itself.
TEST(AdpEngineTest, CancelOneOfNDedupedWaiters) {
  AdpEngine engine(EngineConfig{.num_workers = 1});
  const DbId db = engine.RegisterDatabase(Fig1NamedDb());

  WorkerPlug plug;
  plug.Install(engine, db);

  AdpRequest req;
  req.query_text = kChainText;
  req.db = db;
  req.k = 2;
  AdpTicket t0, t1, t2;
  std::future<AdpResponse> f0 = engine.Submit(req, &t0);  // leader
  std::future<AdpResponse> f1 = engine.Submit(req, &t1);  // follower
  std::future<AdpResponse> f2 = engine.Submit(req, &t2);  // follower

  // Cancel one follower: its future completes kCancelled right away...
  EXPECT_TRUE(t1.Cancel());
  ASSERT_EQ(f1.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(f1.get().status.code(), StatusCode::kCancelled);

  plug.release.set_value();

  // ...while the leader and the other follower still get the real answer.
  const AdpResponse r0 = f0.get();
  const AdpResponse r2 = f2.get();
  ASSERT_TRUE(r0.ok()) << r0.status.ToString();
  ASSERT_TRUE(r2.ok()) << r2.status.ToString();
  EXPECT_EQ(r0.solution.cost, 1);
  EXPECT_EQ(r2.solution.cost, 1);
  EXPECT_FALSE(r0.deduped);
  EXPECT_TRUE(r2.deduped);

  const EngineCounters c = engine.counters();
  EXPECT_EQ(c.cancelled, 1u);
  EXPECT_EQ(c.dedup_hits, 2u);
}

TEST(AdpEngineTest, AllDedupedWaitersCancelledDropsSolve) {
  AdpEngine engine(EngineConfig{.num_workers = 1});
  const DbId db = engine.RegisterDatabase(Fig1NamedDb());

  WorkerPlug plug;
  plug.Install(engine, db);
  const EngineCounters before = engine.counters();

  AdpRequest req;
  req.query_text = kChainText;
  req.db = db;
  req.k = 2;
  constexpr int kWaiters = 3;
  std::vector<AdpTicket> tickets(kWaiters);
  std::vector<std::future<AdpResponse>> futures;
  for (int i = 0; i < kWaiters; ++i) {
    futures.push_back(engine.Submit(req, &tickets[i]));
  }
  for (AdpTicket& t : tickets) EXPECT_TRUE(t.Cancel());
  for (auto& fut : futures) {
    EXPECT_EQ(fut.get().status.code(), StatusCode::kCancelled);
  }

  plug.release.set_value();
  AdpRequest sync;
  sync.query_text = "Q() :- R1(A,B)";
  sync.db = db;
  sync.k = 0;
  ASSERT_TRUE(engine.Execute(sync).ok());

  const EngineCounters after = engine.counters();
  EXPECT_EQ(after.cancelled, before.cancelled + kWaiters);
  // With every participant cancelled, the solve was dropped at dequeue:
  // only the drain request touched the plan cache.
  EXPECT_EQ(after.plan_hits + after.plan_misses,
            before.plan_hits + before.plan_misses + 1);
}

// A new identical request arriving after every participant of an in-flight
// solve cancelled must not join the torn-down solve: it becomes a fresh
// leader and gets a real answer.
TEST(AdpEngineTest, JoinAfterFullCancelStartsFreshSolve) {
  AdpEngine engine(EngineConfig{.num_workers = 1});
  const DbId db = engine.RegisterDatabase(Fig1NamedDb());

  WorkerPlug plug;
  plug.Install(engine, db);

  AdpRequest req;
  req.query_text = kChainText;
  req.db = db;
  req.k = 2;
  AdpTicket t0, t1;
  std::future<AdpResponse> f0 = engine.Submit(req, &t0);
  std::future<AdpResponse> f1 = engine.Submit(req, &t1);
  EXPECT_TRUE(t0.Cancel());
  EXPECT_TRUE(t1.Cancel());

  // Arrives while the cancelled leader's task is still queued.
  std::future<AdpResponse> f2 = engine.Submit(req);
  plug.release.set_value();

  EXPECT_EQ(f0.get().status.code(), StatusCode::kCancelled);
  EXPECT_EQ(f1.get().status.code(), StatusCode::kCancelled);
  const AdpResponse fresh = f2.get();
  ASSERT_TRUE(fresh.ok()) << fresh.status.ToString();
  EXPECT_FALSE(fresh.deduped);
  EXPECT_EQ(fresh.solution.cost, 1);
  EXPECT_EQ(engine.counters().cancelled, 2u);
}

// A request rejected before admission (prepared handle from a different
// engine) still counts as a request and a failure.
TEST(AdpEngineTest, PreparedRejectionCountsAsFailure) {
  AdpEngine engine(EngineConfig{.num_workers = 1});
  AdpEngine other(EngineConfig{.num_workers = 1});
  const DbId db = engine.RegisterDatabase(Fig1NamedDb());

  StatusOr<PreparedQuery> prepared = engine.Prepare(kChainText);
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared->Bind(db).ok());

  EXPECT_EQ(other.Execute(*prepared, 2).status.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(other.Submit(*prepared, 2).get().status.code(),
            StatusCode::kInvalidArgument);
  const EngineCounters c = other.counters();
  EXPECT_EQ(c.requests, 2u);
  EXPECT_EQ(c.failures, 2u);
}

// An already-expired deadline beats a coalesced result on every entry
// point: the sync path must not hand back a ring hit the caller's deadline
// disowned (the async path substitutes at delivery).
TEST(AdpEngineTest, ExpiredDeadlineBeatsCoalescedResult) {
  EngineConfig config;
  config.num_workers = 1;
  config.coalesce_window_ms = 60'000;
  AdpEngine engine(config);
  const DbId db = engine.RegisterDatabase(Fig1NamedDb());

  AdpRequest req;
  req.query_text = kChainText;
  req.db = db;
  req.k = 2;
  ASSERT_TRUE(engine.Execute(req).ok());  // warm the ring

  req.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  const AdpResponse sync = engine.Execute(req);
  EXPECT_EQ(sync.status.code(), StatusCode::kDeadlineExceeded);
  const AdpResponse async_resp = engine.Submit(req).get();
  EXPECT_EQ(async_resp.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(engine.counters().deadline_expired, 2u);
}

// A deadline that passes while the request is still queued drops the solve
// the same way an explicit cancel does.
TEST(AdpEngineTest, DeadlineExpiryWhileQueuedSkipsSolve) {
  AdpEngine engine(EngineConfig{.num_workers = 1});
  const DbId db = engine.RegisterDatabase(Fig1NamedDb());

  WorkerPlug plug;
  plug.Install(engine, db);
  const EngineCounters before = engine.counters();

  AdpRequest req;
  req.query_text = kChainText;
  req.db = db;
  req.k = 2;
  req.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(1);
  std::future<AdpResponse> fut = engine.Submit(req);

  // Hold the worker until the deadline is decisively in the past.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  plug.release.set_value();

  const AdpResponse resp = fut.get();
  EXPECT_EQ(resp.status.code(), StatusCode::kDeadlineExceeded);

  AdpRequest sync;
  sync.query_text = "Q() :- R1(A,B)";
  sync.db = db;
  sync.k = 0;
  ASSERT_TRUE(engine.Execute(sync).ok());

  const EngineCounters after = engine.counters();
  EXPECT_EQ(after.deadline_expired, before.deadline_expired + 1);
  EXPECT_EQ(after.plan_hits + after.plan_misses,
            before.plan_hits + before.plan_misses + 1);
  EXPECT_EQ(after.failures, before.failures);
}

TEST(AdpEngineTest, SyncDeadlineAlreadyExpiredFailsFast) {
  AdpEngine engine(EngineConfig{.num_workers = 1});
  const DbId db = engine.RegisterDatabase(Fig1NamedDb());

  AdpRequest req;
  req.query_text = kChainText;
  req.db = db;
  req.k = 2;
  req.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  const EngineCounters before = engine.counters();
  const AdpResponse resp = engine.Execute(req);
  EXPECT_EQ(resp.status.code(), StatusCode::kDeadlineExceeded);
  const EngineCounters after = engine.counters();
  EXPECT_EQ(after.deadline_expired, before.deadline_expired + 1);
  // The pre-solve check fires before any cache traffic.
  EXPECT_EQ(after.plan_hits + after.plan_misses,
            before.plan_hits + before.plan_misses);
}

// Solver-level: a fired token aborts the recursion with the right reason.
TEST(AdpEngineTest, CancelTokenAbortsComputeAdp) {
  const ConjunctiveQuery q = ParseQuery(kChainText);
  const Database db = Fig1NamedDb().db;

  const CancelToken cancelled = CancelToken::Make();
  cancelled.Cancel();
  AdpOptions options;
  options.cancel = &cancelled;
  try {
    ComputeAdp(q, db, 2, options);
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.reason(), CancelReason::kCancelled);
  }

  const CancelToken expired = CancelToken::Make();
  expired.SetDeadline(std::chrono::steady_clock::now() -
                      std::chrono::milliseconds(1));
  options.cancel = &expired;
  try {
    ComputeAdp(q, db, 2, options);
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.reason(), CancelReason::kDeadlineExceeded);
  }
}

// Solver-level, deterministic: a cancel landing mid-fan-out stops the
// remaining sharded sub-solves at their node boundary.
TEST(AdpEngineTest, CancelMidSolveStopsShardedSubSolves) {
  // A is universal: Algorithm 4 partitions into one group per A value.
  const ConjunctiveQuery q = ParseQuery("Q(A,B,C) :- R1(A,B), R2(A,C)");
  Database db(2);
  for (Value a = 0; a < 8; ++a) {
    db.rel(0).Add({a, 100 + a});
    db.rel(1).Add({a, 200 + a});
  }
  db.rel(0).set_root_relation(0);
  db.rel(1).set_root_relation(1);

  const CancelToken token = CancelToken::Make();
  std::atomic<int> ran{0};
  Parallelism par;
  par.min_groups = 2;
  // Run the first shard, then cancel; every later shard must abort before
  // doing its work.
  par.run_all = [&](std::vector<std::function<void()>> tasks) {
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      tasks[i]();
      ++ran;
      if (i == 0) token.Cancel();
    }
  };

  AdpOptions options;
  options.cancel = &token;
  options.parallelism = &par;
  try {
    ComputeAdp(q, db, 4, options);
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.reason(), CancelReason::kCancelled);
  }
  // All tasks were invoked (run_all contract) but only the first solved.
  EXPECT_EQ(ran.load(), 8);
}

// Engine-level: cancel a large sharded request racing the solve. The
// outcome is either kCancelled (cancel landed mid-solve — the common case
// with this workload) or OK (the solve won); what must never happen is a
// hang, a crash, or a corrupted response. Run under TSan in CI.
TEST(AdpEngineTest, CancelMidSolveUnderShardingIsClean) {
  EngineConfig config;
  config.num_workers = 2;
  config.min_shard_groups = 2;
  AdpEngine engine(config);

  // The bench's sharding workload, shrunk: kGroups universe groups with
  // real work per group.
  constexpr std::int64_t kGroups = 16;
  constexpr std::int64_t kRows = 6000;
  NamedDatabase named;
  Rng rng(11);
  AppendGroupedComponent(named, rng, kRows, kGroups, "R1", "R2", "R3");
  const DbId db = engine.RegisterDatabase(std::move(named));

  AdpRequest req;
  req.query_text = "Q(A) :- R1(A,B), R2(A,B,C), R3(A,C)";
  req.db = db;
  req.k = kGroups / 2;
  req.options.counting_only = true;

  AdpTicket ticket;
  std::future<AdpResponse> fut = engine.Submit(req, &ticket);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ticket.Cancel();

  ASSERT_EQ(fut.wait_for(std::chrono::seconds(60)),
            std::future_status::ready)
      << "cancelled sharded solve hung";
  const AdpResponse resp = fut.get();
  EXPECT_TRUE(resp.status.code() == StatusCode::kCancelled ||
              resp.status.code() == StatusCode::kOk)
      << resp.status.ToString();

  // The engine stays fully usable afterwards.
  AdpRequest again = req;
  const AdpResponse clean = engine.Execute(again);
  ASSERT_TRUE(clean.ok()) << clean.status.ToString();
}

// --- Coalescing admission ----------------------------------------------------

TEST(AdpEngineTest, CoalesceWindowServesRecentResults) {
  EngineConfig config;
  config.num_workers = 1;
  config.coalesce_window_ms = 60'000;  // anything this test does is "recent"
  AdpEngine engine(config);
  const DbId db = engine.RegisterDatabase(Fig1NamedDb());

  AdpRequest req;
  req.query_text = kChainText;
  req.db = db;
  req.k = 2;
  const AdpResponse first = engine.Execute(req);
  ASSERT_TRUE(first.ok()) << first.status.ToString();
  EXPECT_FALSE(first.coalesced);

  const EngineCounters before = engine.counters();
  const AdpResponse second = engine.Execute(req);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.coalesced);
  EXPECT_EQ(second.solution.cost, first.solution.cost);
  EXPECT_EQ(second.solution.tuples, first.solution.tuples);
  const EngineCounters mid = engine.counters();
  EXPECT_EQ(mid.coalesce_hits, before.coalesce_hits + 1);
  EXPECT_EQ(mid.requests, before.requests + 1);
  // Served from the ring: no cache traffic, no solve.
  EXPECT_EQ(mid.plan_hits + mid.plan_misses,
            before.plan_hits + before.plan_misses);
  EXPECT_EQ(mid.binding_hits + mid.binding_misses,
            before.binding_hits + before.binding_misses);

  // The async path coalesces too.
  const AdpResponse async_resp = engine.Submit(req).get();
  ASSERT_TRUE(async_resp.ok());
  EXPECT_TRUE(async_resp.coalesced);
  EXPECT_EQ(engine.counters().coalesce_hits, before.coalesce_hits + 2);

  // A different target is a different request — no coalescing.
  req.k = 3;
  const AdpResponse other_k = engine.Execute(req);
  ASSERT_TRUE(other_k.ok());
  EXPECT_FALSE(other_k.coalesced);
}

TEST(AdpEngineTest, CoalescingDisabledByDefault) {
  AdpEngine engine(EngineConfig{.num_workers = 1});
  const DbId db = engine.RegisterDatabase(Fig1NamedDb());

  AdpRequest req;
  req.query_text = kChainText;
  req.db = db;
  req.k = 2;
  ASSERT_TRUE(engine.Execute(req).ok());
  const AdpResponse second = engine.Execute(req);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.coalesced);
  EXPECT_EQ(engine.counters().coalesce_hits, 0u);
}

// --- TupleId capacity guard --------------------------------------------------

// RAII guard so a lowered MaxRows ceiling never leaks into other tests.
struct MaxRowsOverride {
  explicit MaxRowsOverride(std::uint64_t n)
      : previous(RelationInstance::OverrideMaxRowsForTest(n)) {}
  ~MaxRowsOverride() { RelationInstance::OverrideMaxRowsForTest(previous); }
  std::uint64_t previous;
};

TEST(AdpEngineTest, BindRejectsInstancesPastTupleIdCapacity) {
  AdpEngine engine(EngineConfig{.num_workers = 1});
  const DbId db = engine.RegisterDatabase(Fig1NamedDb());  // R2 has 4 rows

  StatusOr<PreparedQuery> prepared = engine.Prepare(kChainText);
  ASSERT_TRUE(prepared.ok());

  {
    MaxRowsOverride guard(3);
    // Binding surfaces the oversized instance as kInvalidArgument instead of
    // letting a truncated 32-bit row id corrupt solution coordinates.
    EXPECT_EQ(prepared->Bind(db).code(), StatusCode::kInvalidArgument);

    // The text path fails the same way.
    AdpRequest req;
    req.query_text = kChainText;
    req.db = db;
    req.k = 1;
    EXPECT_EQ(engine.Execute(req).status.code(),
              StatusCode::kInvalidArgument);
  }

  // With the ceiling restored the same bind succeeds.
  EXPECT_TRUE(prepared->Bind(db).ok());
}

// --- Arity check -------------------------------------------------------------

// A non-empty instance binds only to an atom with as many attributes as it
// has columns — for named and positional databases, on the request path and
// through PreparedQuery::Bind. An empty instance binds to any atom.
TEST(AdpEngineTest, BindingChecksEachAtomsArity) {
  AdpEngine engine(EngineConfig{.num_workers = 1});
  NamedDatabase named;
  named.relation_names = {"R", "E"};
  named.db.Append({});
  named.db.rel(0).Add({1, 2});
  named.db.rel(0).Add({3, 4});
  named.db.Append({});  // E stays empty: arity 0 until a first row
  Database single;
  single.Append(named.db.rel(0));
  const DbId by_name = engine.RegisterDatabase(named);
  const DbId positional = engine.RegisterDatabase(std::move(single));

  for (const DbId db : {by_name, positional}) {
    for (const char* text : {"Q(A,B,C) :- R(A,B,C)", "Q(A) :- R(A)"}) {
      AdpRequest req;
      req.query_text = text;
      req.db = db;
      req.k = 1;
      const AdpResponse resp = engine.Execute(req);
      EXPECT_EQ(resp.status.code(), StatusCode::kInvalidArgument) << text;
      EXPECT_NE(resp.status.message().find("'R' has arity 2"),
                std::string::npos)
          << resp.status.message();
      StatusOr<PreparedQuery> prepared = engine.Prepare(text);
      ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
      EXPECT_EQ(prepared->Bind(db).code(), StatusCode::kInvalidArgument)
          << text;
    }
    AdpRequest good;
    good.query_text = "Q(A,B) :- R(A,B)";
    good.db = db;
    good.k = 1;
    const AdpResponse resp = engine.Execute(good);
    ASSERT_TRUE(resp.ok()) << resp.status.ToString();
    EXPECT_EQ(resp.solution.output_count, 2);
  }

  // A failed named bind caches nothing: the repeat binds afresh.
  AdpRequest bad;
  bad.query_text = "Q(A) :- R(A)";
  bad.db = by_name;
  bad.k = 1;
  const EngineCounters before = engine.counters();
  EXPECT_EQ(engine.Execute(bad).status.code(), StatusCode::kInvalidArgument);
  const EngineCounters after = engine.counters();
  EXPECT_EQ(after.binding_hits, before.binding_hits);
  EXPECT_EQ(after.binding_misses, before.binding_misses + 1);

  AdpRequest with_empty;
  with_empty.query_text = "Q(A,B) :- R(A,B), E(B,C,D)";
  with_empty.db = by_name;
  with_empty.k = 0;
  const AdpResponse resp = engine.Execute(with_empty);
  ASSERT_TRUE(resp.ok()) << resp.status.ToString();
  EXPECT_EQ(resp.solution.output_count, 0);
}

// --- Shutdown ----------------------------------------------------------------

TEST(AdpEngineTest, ShutdownRejectsNewWorkTyped) {
  AdpEngine engine(EngineConfig{.num_workers = 2});
  const DbId db = engine.RegisterDatabase(Fig1NamedDb());

  AdpRequest req;
  req.query_text = kChainText;
  req.db = db;
  req.k = 2;
  ASSERT_TRUE(engine.Execute(req).ok());

  engine.Shutdown();
  EXPECT_EQ(engine.Execute(req).status.code(), StatusCode::kShutdown);
  EXPECT_EQ(engine.Submit(req).get().status.code(), StatusCode::kShutdown);
  EXPECT_EQ(engine.Prepare(kChainText).status().code(),
            StatusCode::kShutdown);

  std::promise<AdpResponse> done;
  engine.SubmitAsync(req,
                     [&](AdpResponse r) { done.set_value(std::move(r)); });
  EXPECT_EQ(done.get_future().get().status.code(), StatusCode::kShutdown);
  engine.Shutdown();  // idempotent
}

TEST(AdpEngineTest, QueueDepthBoundShedsWithTypedError) {
  // One worker, pinned; one queue slot. The second distinct async request
  // must be rejected kOverloaded while the admitted one completes normally.
  AdpEngine engine(
      EngineConfig{.num_workers = 1, .max_queue_depth = 1});
  const DbId db = engine.RegisterDatabase(Fig1NamedDb());
  WorkerPlug plug;
  plug.Install(engine, db);

  AdpRequest admitted;
  admitted.query_text = kChainText;
  admitted.db = db;
  admitted.k = 2;
  std::future<AdpResponse> admitted_fut = engine.Submit(admitted);

  AdpRequest shed;
  shed.query_text = "Q(A,B) :- R1(A,B), R2(B)";  // distinct: no dedup join
  shed.db = db;
  shed.k = 1;
  std::promise<AdpResponse> shed_done;
  engine.SubmitAsync(
      shed, [&](AdpResponse r) { shed_done.set_value(std::move(r)); });
  const AdpResponse shed_resp = shed_done.get_future().get();
  EXPECT_EQ(shed_resp.status.code(), StatusCode::kOverloaded);

  plug.release.set_value();
  const AdpResponse ok = admitted_fut.get();
  EXPECT_TRUE(ok.ok()) << ok.status.ToString();

  const EngineCounters c = engine.counters();
  EXPECT_EQ(c.shed, 1u);
  EXPECT_EQ(c.failures, 0u);  // shedding is admission control, not failure
}

TEST(AdpEngineTest, OverloadStillJoinsInflightSolve) {
  // A duplicate of an in-flight request costs no queue slot: under
  // overload it joins the leader's solve instead of being shed.
  AdpEngine engine(
      EngineConfig{.num_workers = 1, .max_queue_depth = 1});
  const DbId db = engine.RegisterDatabase(Fig1NamedDb());
  WorkerPlug plug;
  plug.Install(engine, db);

  AdpRequest req;
  req.query_text = kChainText;
  req.db = db;
  req.k = 2;
  std::future<AdpResponse> leader = engine.Submit(req);
  std::future<AdpResponse> joiner = engine.Submit(req);  // queue is full

  plug.release.set_value();
  const AdpResponse lead_resp = leader.get();
  const AdpResponse join_resp = joiner.get();
  ASSERT_TRUE(lead_resp.ok()) << lead_resp.status.ToString();
  ASSERT_TRUE(join_resp.ok()) << join_resp.status.ToString();
  EXPECT_TRUE(join_resp.deduped);
  EXPECT_EQ(engine.counters().shed, 0u);
}

TEST(AdpEngineTest, SyncExecuteIsNeverShed) {
  AdpEngine engine(
      EngineConfig{.num_workers = 1, .max_queue_depth = 1});
  const DbId db = engine.RegisterDatabase(Fig1NamedDb());
  WorkerPlug plug;
  plug.Install(engine, db);

  AdpRequest filler;
  filler.query_text = "Q(A,B) :- R1(A,B), R2(B,C)";
  filler.db = db;
  filler.k = 1;
  std::future<AdpResponse> filler_fut = engine.Submit(filler);

  // Queue is at the bound; sync Execute runs on this thread regardless.
  AdpRequest req;
  req.query_text = kChainText;
  req.db = db;
  req.k = 2;
  const AdpResponse resp = engine.Execute(req);
  EXPECT_TRUE(resp.ok()) << resp.status.ToString();

  plug.release.set_value();
  EXPECT_TRUE(filler_fut.get().ok());
  EXPECT_EQ(engine.counters().shed, 0u);
}

TEST(AdpEngineTest, StreamAdpShedsWithTerminalOverloaded) {
  AdpEngine engine(
      EngineConfig{.num_workers = 1, .max_queue_depth = 1});
  const DbId db = engine.RegisterDatabase(Fig1NamedDb());
  WorkerPlug plug;
  plug.Install(engine, db);

  AdpRequest filler;
  filler.query_text = "Q(A,B) :- R1(A,B), R2(B,C)";
  filler.db = db;
  filler.k = 1;
  std::future<AdpResponse> filler_fut = engine.Submit(filler);

  AdpRequest req;
  req.query_text = kChainText;
  req.db = db;
  req.k = 2;
  ResultStream stream = engine.StreamAdp(req);
  std::optional<StreamItem> item = stream.Next();
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(item->kind, StreamItem::Kind::kEnd);
  EXPECT_EQ(item->status.code(), StatusCode::kOverloaded);

  plug.release.set_value();
  EXPECT_TRUE(filler_fut.get().ok());
  EXPECT_EQ(engine.counters().shed, 1u);
}

TEST(AdpEngineTest, RequestPriorityOrdersSaturatedQueue) {
  // Three distinct requests queued behind a plugged single worker drain in
  // priority order, not arrival order.
  AdpEngine engine(EngineConfig{.num_workers = 1});
  const DbId db = engine.RegisterDatabase(Fig1NamedDb());
  WorkerPlug plug;
  plug.Install(engine, db);

  const char* texts[] = {
      "Q(A,B) :- R1(A,B), R2(B,C)",
      "Q(B,C) :- R2(B,C), R3(C,E)",
      "Q(A) :- R1(A,B), R2(B,C)",
  };
  std::vector<int> completion_order;
  std::mutex mu;
  std::promise<void> all;
  for (int i = 0; i < 3; ++i) {
    AdpRequest req;
    req.query_text = texts[i];
    req.db = db;
    req.k = 1;
    req.priority = i;  // later submissions more urgent
    engine.SubmitAsync(req, [&, i](AdpResponse r) {
      ASSERT_TRUE(r.ok()) << r.status.ToString();
      std::lock_guard<std::mutex> lock(mu);
      completion_order.push_back(i);
      if (completion_order.size() == 3) all.set_value();
    });
  }
  plug.release.set_value();
  ASSERT_EQ(all.get_future().wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_EQ(completion_order, (std::vector<int>{2, 1, 0}));
}

// --- Result table: stable keys ---------------------------------------------

// A completed slot must not outlive its database: once the database is
// unregistered, an identical request fails typed instead of being answered
// from the slot, on the sync and the async path.
TEST(AdpEngineTest, CoalescedResultDoesNotOutliveItsDatabase) {
  EngineConfig config;
  config.num_workers = 1;
  config.coalesce_window_ms = 60'000;
  AdpEngine engine(config);
  const DbId db = engine.RegisterDatabase(Fig1NamedDb());

  AdpRequest req;
  req.query_text = kChainText;
  req.db = db;
  req.k = 2;
  ASSERT_TRUE(engine.Execute(req).ok());
  ASSERT_TRUE(engine.UnregisterDatabase(db));

  const AdpResponse sync = engine.Execute(req);
  EXPECT_EQ(sync.status.code(), StatusCode::kUnknownDatabase);
  EXPECT_FALSE(sync.coalesced);
  const AdpResponse async_resp = engine.Submit(req).get();
  EXPECT_EQ(async_resp.status.code(), StatusCode::kUnknownDatabase);
  EXPECT_FALSE(async_resp.coalesced);
  EXPECT_EQ(engine.counters().coalesce_hits, 0u);
}

// A text request and a prepared request for the same query, options,
// database and target share one result slot: the prepared one is served
// from the text one's completed slot.
TEST(AdpEngineTest, PreparedExecuteCoalescesWithIdenticalText) {
  EngineConfig config;
  config.num_workers = 1;
  config.coalesce_window_ms = 60'000;
  AdpEngine engine(config);
  const DbId db = engine.RegisterDatabase(Fig1NamedDb());

  AdpRequest req;
  req.query_text = kChainText;
  req.db = db;
  req.k = 2;
  const AdpResponse text = engine.Execute(req);
  ASSERT_TRUE(text.ok()) << text.status.ToString();
  EXPECT_FALSE(text.coalesced);

  StatusOr<PreparedQuery> prepared = engine.Prepare(kChainText);
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared->Bind(db).ok());
  const AdpResponse again = engine.Execute(*prepared, /*k=*/2);
  ASSERT_TRUE(again.ok()) << again.status.ToString();
  EXPECT_TRUE(again.coalesced);
  EXPECT_EQ(again.solution.tuples, text.solution.tuples);
  EXPECT_EQ(engine.counters().coalesce_hits, 1u);
}

// The in-flight side of the same key: a text Submit and a prepared Submit
// queued behind a busy worker share one solve.
TEST(AdpEngineTest, TextAndPreparedSubmitShareOneSolve) {
  AdpEngine engine(EngineConfig{.num_workers = 1});
  const DbId db = engine.RegisterDatabase(Fig1NamedDb());
  StatusOr<PreparedQuery> prepared = engine.Prepare(kChainText);
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared->Bind(db).ok());

  WorkerPlug plug;
  plug.Install(engine, db);
  const EngineCounters before = engine.counters();

  AdpRequest req;
  req.query_text = kChainText;
  req.db = db;
  req.k = 2;
  std::vector<std::future<AdpResponse>> futures;
  futures.push_back(engine.Submit(req));
  futures.push_back(engine.Submit(*prepared, /*k=*/2));
  plug.release.set_value();

  int deduped = 0;
  for (auto& fut : futures) {
    const AdpResponse resp = fut.get();
    ASSERT_TRUE(resp.ok()) << resp.status.ToString();
    EXPECT_EQ(resp.solution.cost, 1);
    if (resp.deduped) ++deduped;
  }
  EXPECT_EQ(deduped, 1);
  EXPECT_EQ(engine.counters().dedup_hits, before.dedup_hits + 1);
}

// Keys hold no addresses: a dropped plan whose memory a later, different
// query may reuse can never make that query match the old completed slot.
TEST(AdpEngineTest, DroppedPlanNeverAliasesANewQuery) {
  EngineConfig config;
  config.num_workers = 1;
  config.coalesce_window_ms = 60'000;
  config.plan_cache_capacity = 1;  // the next Prepare evicts the first plan
  AdpEngine engine(config);
  const DbId db = engine.RegisterDatabase(Fig1NamedDb());
  {
    StatusOr<PreparedQuery> a = engine.Prepare(kChainText);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(a->Bind(db).ok());
    ASSERT_TRUE(engine.Execute(*a, /*k=*/2).ok());
  }

  constexpr char kOther[] = "Q(A,B) :- R1(A,B), R2(B,C)";
  StatusOr<PreparedQuery> b = engine.Prepare(kOther);
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(b->Bind(db).ok());
  const AdpResponse resp = engine.Execute(*b, /*k=*/2);
  ASSERT_TRUE(resp.ok()) << resp.status.ToString();
  EXPECT_FALSE(resp.coalesced);
  const AdpSolution direct =
      ComputeAdp(ParseQuery(kOther), Fig1NamedDb().db, 2, {});
  EXPECT_EQ(resp.solution.cost, direct.cost);
  EXPECT_EQ(resp.solution.tuples, direct.tuples);
  EXPECT_EQ(resp.solution.output_count, direct.output_count);
}

// At most 64 completed slots are kept: after 100 distinct targets the
// earliest is solved again while the latest is still coalesced.
TEST(AdpEngineTest, CompletedSlotsAreBounded) {
  EngineConfig config;
  config.num_workers = 1;
  config.coalesce_window_ms = 60'000;
  AdpEngine engine(config);
  const DbId db = engine.RegisterDatabase(Fig1NamedDb());

  AdpRequest req;
  req.query_text = kChainText;
  req.db = db;
  for (std::int64_t k = 1; k <= 100; ++k) {
    req.k = k;  // k past |Q(D)| is an infeasible but OK answer
    ASSERT_TRUE(engine.Execute(req).ok()) << "k=" << k;
  }
  req.k = 1;
  EXPECT_FALSE(engine.Execute(req).coalesced);
  req.k = 100;
  EXPECT_TRUE(engine.Execute(req).coalesced);
}

// --- The plan travels with the result ----------------------------------------

// A response carries the plan its request was solved against: set on kOk,
// on a binding failure and, as the handle's own, on a prepared request;
// null when the query did not parse. Deduped and coalesced copies carry the
// leader's plan.
TEST(AdpEngineTest, ResponseCarriesItsPlan) {
  EngineConfig config;
  config.num_workers = 1;
  config.coalesce_window_ms = 60'000;
  AdpEngine engine(config);
  const DbId db = engine.RegisterDatabase(Fig1NamedDb());

  AdpRequest req;
  req.query_text = kChainText;
  req.db = db;
  req.k = 2;
  const AdpResponse solved = engine.Execute(req);
  ASSERT_TRUE(solved.ok()) << solved.status.ToString();
  ASSERT_NE(solved.plan, nullptr);
  EXPECT_EQ(solved.plan->query.relation(2).name, "R3");
  const AdpResponse coalesced = engine.Execute(req);
  ASSERT_TRUE(coalesced.coalesced);
  EXPECT_EQ(coalesced.plan, solved.plan);

  AdpRequest unbound = req;
  unbound.query_text = "Q(A,B,C) :- R1(A,B), R9(B,C)";
  const AdpResponse bind_failure = engine.Execute(unbound);
  EXPECT_EQ(bind_failure.status.code(), StatusCode::kUnknownRelation);
  ASSERT_NE(bind_failure.plan, nullptr);
  EXPECT_EQ(bind_failure.plan->query.relation(1).name, "R9");

  AdpRequest unparsable = req;
  unparsable.query_text = "not datalog";
  const AdpResponse parse_failure = engine.Execute(unparsable);
  EXPECT_EQ(parse_failure.status.code(), StatusCode::kParseError);
  EXPECT_EQ(parse_failure.plan, nullptr);

  StatusOr<PreparedQuery> prepared = engine.Prepare(kChainText);
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared->Bind(db).ok());
  const AdpResponse pinned = engine.Execute(*prepared, /*k=*/3);
  ASSERT_TRUE(pinned.ok()) << pinned.status.ToString();
  EXPECT_EQ(pinned.plan, prepared->plan());

  // A follower of an in-flight solve gets the leader's plan.
  WorkerPlug plug;
  plug.Install(engine, db);
  AdpRequest fresh = req;
  fresh.k = 1;
  std::future<AdpResponse> leader = engine.Submit(fresh);
  std::future<AdpResponse> follower = engine.Submit(fresh);
  plug.release.set_value();
  const AdpResponse led = leader.get();
  const AdpResponse followed = follower.get();
  ASSERT_TRUE(led.ok()) << led.status.ToString();
  ASSERT_TRUE(followed.deduped);
  ASSERT_NE(led.plan, nullptr);
  EXPECT_EQ(followed.plan, led.plan);
}

// --- One counter source ------------------------------------------------------

// Every counter lives in the registry: a registry snapshot taken before any
// counters() / metrics().WritePrometheus() call already matches
// EngineCounters.
TEST(AdpEngineTest, RegistryIsCurrentWithoutAMirror) {
  AdpEngine engine(EngineConfig{.num_workers = 1});
  const DbId db = engine.RegisterDatabase(Fig1NamedDb());

  AdpRequest req;
  req.query_text = kChainText;
  req.db = db;
  req.k = 2;
  ASSERT_TRUE(engine.Execute(req).ok());
  ASSERT_TRUE(engine.Execute(req).ok());  // plan-cache hit

  ResultStream stream = engine.StreamAdp(req);
  while (std::optional<StreamItem> item = stream.Next()) {
  }

  WorkerPlug plug;
  plug.Install(engine, db);
  AdpTicket ticket;
  AdpRequest cancelled = req;
  cancelled.k = 3;
  std::future<AdpResponse> fut = engine.Submit(cancelled, &ticket);
  ASSERT_TRUE(ticket.Cancel());
  EXPECT_EQ(fut.get().status.code(), StatusCode::kCancelled);
  plug.release.set_value();
  AdpRequest drain = req;
  drain.k = 1;
  ASSERT_TRUE(engine.Submit(drain).get().ok());  // queue drained behind it

  const obs::MetricsSnapshot snap = engine.metrics().Snapshot();
  const EngineCounters c = engine.counters();
  const std::pair<const char*, std::uint64_t> expected[] = {
      {obs::kMRequests, c.requests},
      {obs::kMFailures, c.failures},
      {obs::kMPlanCacheHits, c.plan_hits},
      {obs::kMPlanCacheMisses, c.plan_misses},
      {obs::kMBindingHits, c.binding_hits},
      {obs::kMBindingMisses, c.binding_misses},
      {obs::kMDedupHits, c.dedup_hits},
      {obs::kMCoalesceHits, c.coalesce_hits},
      {obs::kMCancelled, c.cancelled},
      {obs::kMDeadlineExpired, c.deadline_expired},
      {obs::kMShed, c.shed},
      {obs::kMShardedUniverse, c.sharded_universe_nodes},
      {obs::kMShardedDecompose, c.sharded_decompose_nodes},
      {obs::kMStreamsOpened, c.streams_opened},
      {obs::kMStreamItems, c.stream_items},
      {obs::kMStreamCancelled, c.stream_cancelled},
  };
  for (const auto& [name, value] : expected) {
    ASSERT_EQ(snap.counters.count(name), 1u) << name;
    EXPECT_EQ(snap.counters.at(name), value) << name;
  }
  EXPECT_EQ(snap.gauges.at(obs::kMPlanCacheSize),
            static_cast<std::int64_t>(c.plan_cache_size));
  EXPECT_EQ(snap.gauges.at(obs::kMDatabases),
            static_cast<std::int64_t>(c.databases));
  // The run above touched every externally-driven counter.
  EXPECT_GE(c.plan_hits, 1u);
  EXPECT_EQ(c.streams_opened, 1u);
  EXPECT_GT(c.stream_items, 0u);
  EXPECT_EQ(c.cancelled, 1u);
  EXPECT_EQ(c.databases, 1u);
}

// --- Deletion restrictions ---------------------------------------------------

// Restricted requests solve like ComputeAdp with the same restrictions,
// and — having no stable key — never dedup or coalesce.
TEST(AdpEngineTest, RestrictedRequestsMatchComputeAdpAndNeverShare) {
  EngineConfig config;
  config.num_workers = 1;
  config.coalesce_window_ms = 60'000;
  AdpEngine engine(config);
  const DbId db = engine.RegisterDatabase(Fig1NamedDb());

  DeletionRestrictions restrictions;
  restrictions.Protect(0, 1);  // R1(12,22), one cost-1 answer at k = 2
  AdpRequest req;
  req.query_text = kChainText;
  req.db = db;
  req.k = 2;
  req.options.restrictions = &restrictions;
  req.options.verify = true;
  const AdpResponse resp = engine.Execute(req);
  ASSERT_TRUE(resp.ok()) << resp.status.ToString();
  const AdpSolution direct = ComputeAdp(ParseQuery(kChainText),
                                        Fig1NamedDb().db, 2, req.options);
  EXPECT_EQ(resp.solution.cost, direct.cost);
  EXPECT_EQ(resp.solution.exact, direct.exact);
  EXPECT_EQ(resp.solution.feasible, direct.feasible);
  EXPECT_EQ(resp.solution.tuples, direct.tuples);
  EXPECT_EQ(resp.solution.removed_outputs, direct.removed_outputs);
  for (const TupleRef& t : resp.solution.tuples) {
    EXPECT_FALSE(restrictions.IsProtected(t.relation, t.row));
  }

  // With the window on, the identical restricted request solves again.
  const AdpResponse repeat = engine.Execute(req);
  ASSERT_TRUE(repeat.ok());
  EXPECT_FALSE(repeat.coalesced);

  // Two identical restricted Submits queued behind a busy worker both
  // solve.
  WorkerPlug plug;
  plug.Install(engine, db);
  const EngineCounters before = engine.counters();
  std::future<AdpResponse> first = engine.Submit(req);
  std::future<AdpResponse> second = engine.Submit(req);
  plug.release.set_value();
  for (std::future<AdpResponse>* fut : {&first, &second}) {
    const AdpResponse r = fut->get();
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    EXPECT_FALSE(r.deduped);
    EXPECT_FALSE(r.coalesced);
    EXPECT_EQ(r.solution.cost, direct.cost);
  }
  const EngineCounters after = engine.counters();
  EXPECT_EQ(after.dedup_hits, before.dedup_hits);
  EXPECT_EQ(after.coalesce_hits, 0u);
}

}  // namespace
}  // namespace adp
