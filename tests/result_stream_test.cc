// ResultStream / AdpEngine::StreamAdp: stream-vs-batch equivalence
// (concatenated items reproduce Execute's AdpSolution exactly), per-k
// profile optimality from the single DP, batching bounds, cancellation and
// deadline teardown mid-stream, shutdown closing streams, the PreparedQuery
// hot path, and stream counters.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "engine/grouped_workload.h"
#include "query/parser.h"
#include "solver/compute_adp.h"
#include "test_util.h"
#include "util/rng.h"

namespace adp {
namespace {

using testing::RandomDb;

/// Everything a fully-drained stream said, split by item kind.
struct Drained {
  std::vector<std::int64_t> profile_k;
  std::vector<std::int64_t> profile_cost;
  std::vector<bool> profile_feasible;
  std::vector<std::size_t> batch_sizes;
  std::vector<TupleRef> witnesses;  // concatenation of all batches
  std::optional<StreamItem> end;
  std::size_t items = 0;
};

Drained DrainStream(ResultStream& stream) {
  Drained d;
  while (std::optional<StreamItem> item = stream.Next()) {
    ++d.items;
    switch (item->kind) {
      case StreamItem::Kind::kProfile:
        d.profile_k.push_back(item->k);
        d.profile_cost.push_back(item->cost);
        d.profile_feasible.push_back(item->feasible);
        break;
      case StreamItem::Kind::kWitnesses:
        d.batch_sizes.push_back(item->witnesses.size());
        d.witnesses.insert(d.witnesses.end(), item->witnesses.begin(),
                           item->witnesses.end());
        break;
      case StreamItem::Kind::kEnd:
        d.end = std::move(*item);
        break;
    }
  }
  return d;
}

/// The core contract: a drained stream concatenates to exactly what
/// Execute returns for the same request, and the profile increments are
/// well-formed (ascending k, nondecreasing cost, one per target).
void ExpectStreamMatchesExecute(AdpEngine& engine, const AdpRequest& req,
                                const std::string& context) {
  SCOPED_TRACE(context);
  const AdpResponse resp = engine.Execute(req);
  ResultStream stream = engine.StreamAdp(req);
  Drained d = DrainStream(stream);
  ASSERT_TRUE(d.end.has_value());
  ASSERT_EQ(d.end->status.code(), resp.status.code())
      << d.end->status.ToString() << " vs " << resp.status.ToString();
  EXPECT_TRUE(stream.done());
  if (!resp.ok()) return;

  const AdpSolution& sol = resp.solution;
  EXPECT_EQ(d.end->feasible, sol.feasible);
  EXPECT_EQ(d.end->exact, sol.exact);
  EXPECT_EQ(d.end->output_count, sol.output_count);
  EXPECT_EQ(d.end->removed_outputs, sol.removed_outputs);
  EXPECT_EQ(d.end->plan_cache_hit, true);  // Execute above warmed the cache

  if (req.k <= 0 || !sol.feasible) {
    // Trivial or infeasible targets stream no increments: Execute never ran
    // the DP for them either.
    EXPECT_TRUE(d.profile_k.empty());
    EXPECT_TRUE(d.witnesses.empty());
    if (sol.feasible) EXPECT_EQ(d.end->cost, 0);
    return;
  }

  // One profile increment per target, ascending, monotone cost; the last
  // increment is the answer.
  ASSERT_EQ(d.profile_k.size(), static_cast<std::size_t>(req.k));
  for (std::size_t i = 0; i < d.profile_k.size(); ++i) {
    EXPECT_EQ(d.profile_k[i], static_cast<std::int64_t>(i) + 1);
    if (i > 0) EXPECT_GE(d.profile_cost[i], d.profile_cost[i - 1]);
    EXPECT_EQ(d.profile_feasible[i], d.profile_cost[i] < kInfCost);
  }
  EXPECT_EQ(d.profile_cost.back(), sol.cost);
  EXPECT_EQ(d.end->cost, sol.cost);

  // Witness batches arrive in enumeration order; their concatenation,
  // normalized, is exactly Execute's witness set.
  std::vector<TupleRef> normalized = d.witnesses;
  NormalizeTupleRefs(normalized);
  EXPECT_EQ(normalized, sol.tuples);
}

constexpr const char* kShapes[] = {
    // Universe: A universal, boolean residual per group.
    "Q(A) :- R1(A,B), R2(A,C)",
    // Universe with a 3-relation residual (the grouped-workload shape).
    "Q(A) :- R1(A,B), R2(A,B,C), R3(A,C)",
    // Singleton-flavored projection.
    "Q(A,B) :- R1(A,B), R2(B)",
    // Decompose: two components.
    "Q(A,C) :- R1(A,B), R2(C,E)",
    // Decompose: three components (exercises the choice-fold reporter).
    "Q(A,C,F) :- R1(A,B), R2(C,E), R3(F,G)",
    // Selection pushdown ahead of the recursion.
    "Q(A) :- R1(A,B=1), R2(A,C)",
};

TEST(ResultStreamTest, StreamEquivalentToExecuteAcrossShapes) {
  Rng rng(2026);
  for (const char* shape : kShapes) {
    const ConjunctiveQuery q = ParseQuery(shape);
    for (int trial = 0; trial < 8; ++trial) {
      AdpEngine engine(EngineConfig{.num_workers = 2});
      const DbId db = engine.RegisterDatabase(RandomDb(q, rng, 8, 4));
      AdpRequest probe;
      probe.query_text = q.ToString();
      probe.db = db;
      probe.k = 0;
      const AdpResponse base = engine.Execute(probe);
      ASSERT_TRUE(base.ok()) << base.status.ToString();
      const std::int64_t kmax =
          std::min<std::int64_t>(base.solution.output_count + 1, 6);
      for (std::int64_t k = 0; k <= kmax; ++k) {
        AdpRequest req = probe;
        req.k = k;
        req.options.verify = (trial % 2 == 0);
        ExpectStreamMatchesExecute(
            engine, req,
            std::string(shape) + " trial=" + std::to_string(trial) +
                " k=" + std::to_string(k));
      }
    }
  }
}

TEST(ResultStreamTest, ProfileIncrementsMatchPerTargetSolves) {
  // The stream's per-k costs come from ONE DP; for exact solves each must
  // equal an independent Execute at that target.
  Rng rng(7);
  for (const char* shape : kShapes) {
    const ConjunctiveQuery q = ParseQuery(shape);
    AdpEngine engine(EngineConfig{.num_workers = 2});
    const DbId db = engine.RegisterDatabase(RandomDb(q, rng, 8, 4));
    AdpRequest req;
    req.query_text = q.ToString();
    req.db = db;
    req.k = 0;
    const std::int64_t total = engine.Execute(req).solution.output_count;
    req.k = std::min<std::int64_t>(total, 6);
    if (req.k <= 0) continue;

    ResultStream stream = engine.StreamAdp(req);
    Drained d = DrainStream(stream);
    ASSERT_TRUE(d.end.has_value());
    ASSERT_TRUE(d.end->status.ok()) << d.end->status.ToString();
    if (!d.end->exact) continue;  // per-k optimality only promised when exact
    ASSERT_EQ(d.profile_k.size(), static_cast<std::size_t>(req.k));
    for (std::size_t i = 0; i < d.profile_k.size(); ++i) {
      AdpRequest per = req;
      per.k = d.profile_k[i];
      const AdpResponse resp = engine.Execute(per);
      ASSERT_TRUE(resp.ok());
      EXPECT_EQ(d.profile_cost[i], resp.solution.cost)
          << shape << " k=" << per.k;
    }
  }
}

TEST(ResultStreamTest, CountingOnlyStreamsNoWitnesses) {
  const ConjunctiveQuery q = ParseQuery("Q(A) :- R1(A,B), R2(A,C)");
  Rng rng(3);
  AdpEngine engine(EngineConfig{.num_workers = 1});
  const DbId db = engine.RegisterDatabase(RandomDb(q, rng, 10, 4));
  AdpRequest req;
  req.query_text = q.ToString();
  req.db = db;
  req.k = 2;
  req.options.counting_only = true;
  ExpectStreamMatchesExecute(engine, req, "counting_only");
  ResultStream stream = engine.StreamAdp(req);
  Drained d = DrainStream(stream);
  EXPECT_TRUE(d.witnesses.empty());
  EXPECT_TRUE(d.batch_sizes.empty());
}

TEST(ResultStreamTest, WitnessBatchesRespectConfiguredBound) {
  // A singleton projection with a big target yields a large witness set.
  ConjunctiveQuery q = ParseQuery("Q(A) :- R1(A,B)");
  Database db(1);
  for (Value a = 0; a < 30; ++a) {
    for (Value b = 0; b < 3; ++b) db.rel(0).Add({a, b});
  }
  AdpEngine engine(EngineConfig{.num_workers = 1, .stream_batch_tuples = 7});
  const DbId id = engine.RegisterDatabase(std::move(db));
  AdpRequest req;
  req.query_text = q.ToString();
  req.db = id;
  req.k = 20;
  ExpectStreamMatchesExecute(engine, req, "batched");
  ResultStream stream = engine.StreamAdp(req);
  Drained d = DrainStream(stream);
  ASSERT_GE(d.witnesses.size(), 20u);
  ASSERT_GT(d.batch_sizes.size(), 1u);
  for (std::size_t i = 0; i < d.batch_sizes.size(); ++i) {
    if (i + 1 < d.batch_sizes.size()) {
      EXPECT_EQ(d.batch_sizes[i], 7u);  // full batches except the tail
    } else {
      EXPECT_LE(d.batch_sizes[i], 7u);
      EXPECT_GT(d.batch_sizes[i], 0u);
    }
  }
}

TEST(ResultStreamTest, PreparedHotPathStreamsIdentically) {
  NamedDatabase named;
  Rng rng(17);
  AppendGroupedComponent(named, rng, 400, 8, "R1", "R2", "R3");
  AdpEngine engine(EngineConfig{.num_workers = 2});
  const DbId db = engine.RegisterDatabase(std::move(named));

  StatusOr<PreparedQuery> prepared =
      engine.Prepare("Q(A) :- R1(A,B), R2(A,B,C), R3(A,C)");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ASSERT_TRUE(prepared->Bind(db).ok());

  const AdpResponse resp = engine.Execute(*prepared, 4);
  ASSERT_TRUE(resp.ok()) << resp.status.ToString();
  ResultStream stream = engine.StreamAdp(*prepared, 4);
  Drained d = DrainStream(stream);
  ASSERT_TRUE(d.end.has_value());
  ASSERT_TRUE(d.end->status.ok()) << d.end->status.ToString();
  EXPECT_TRUE(d.end->plan_cache_hit);
  EXPECT_EQ(d.end->cost, resp.solution.cost);
  std::vector<TupleRef> normalized = d.witnesses;
  NormalizeTupleRefs(normalized);
  EXPECT_EQ(normalized, resp.solution.tuples);
  ASSERT_EQ(d.profile_k.size(), 4u);

  // The 8-group Universe node crosses the default sharding threshold, and
  // streamed solves must roll their sharding engagement into the engine
  // counters just like Execute does.
  EXPECT_EQ(d.end->stats.sharded_universe_nodes,
            resp.stats.sharded_universe_nodes);
  if (resp.stats.sharded_universe_nodes > 0) {
    EXPECT_GE(engine.counters().sharded_universe_nodes, 2u);
  }
}

TEST(ResultStreamTest, ForeignPreparedHandleIsRejected) {
  AdpEngine a(EngineConfig{.num_workers = 1});
  AdpEngine b(EngineConfig{.num_workers = 1});
  StatusOr<PreparedQuery> prepared = a.Prepare("Q(A) :- R1(A,B)");
  ASSERT_TRUE(prepared.ok());
  ResultStream stream = b.StreamAdp(*prepared, 1);
  Drained d = DrainStream(stream);
  ASSERT_TRUE(d.end.has_value());
  EXPECT_EQ(d.end->status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(d.items, 1u);  // terminal only
}

/// A stream whose item count provably exceeds the internal buffer, so the
/// producer must block on backpressure: 24 profile items + witnesses + end.
AdpRequest BigStreamRequest(AdpEngine& engine, DbId* out_db) {
  ConjunctiveQuery q = ParseQuery("Q(A) :- R1(A,B)");
  Database db(1);
  for (Value a = 0; a < 30; ++a) {
    for (Value b = 0; b < 3; ++b) db.rel(0).Add({a, b});
  }
  *out_db = engine.RegisterDatabase(std::move(db));
  AdpRequest req;
  req.query_text = q.ToString();
  req.db = *out_db;
  req.k = 24;
  return req;
}

TEST(ResultStreamTest, CancelMidStreamStopsEnumeration) {
  AdpEngine engine(EngineConfig{.num_workers = 1, .stream_batch_tuples = 4});
  DbId db = kInvalidDbId;
  const AdpRequest req = BigStreamRequest(engine, &db);

  ResultStream stream = engine.StreamAdp(req);
  std::optional<StreamItem> first = stream.Next();  // producer is running
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(first->kind, StreamItem::Kind::kProfile);
  stream.Cancel();
  Drained d = DrainStream(stream);
  ASSERT_TRUE(d.end.has_value());
  EXPECT_EQ(d.end->status.code(), StatusCode::kCancelled);
  // The full stream would carry 24 profile items + >= 6 witness batches;
  // cancellation with the producer blocked on the 8-item buffer means most
  // of them were never produced.
  EXPECT_LT(d.items + 1, 24u);

  const EngineCounters c = engine.counters();
  EXPECT_EQ(c.streams_opened, 1u);
  EXPECT_EQ(c.stream_cancelled, 1u);
  EXPECT_EQ(c.requests, 0u);  // streams are not request/response traffic

  // The engine keeps serving after a cancelled stream.
  AdpRequest again = req;
  again.k = 2;
  EXPECT_TRUE(engine.Execute(again).ok());
}

TEST(ResultStreamTest, DeadlineMidStreamExpires) {
  AdpEngine engine(EngineConfig{.num_workers = 1, .stream_batch_tuples = 4});
  DbId db = kInvalidDbId;
  AdpRequest req = BigStreamRequest(engine, &db);
  req.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(50);

  ResultStream stream = engine.StreamAdp(req);
  ASSERT_TRUE(stream.Next().has_value());
  // Let the deadline pass while the producer is blocked on the full buffer.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  Drained d = DrainStream(stream);
  ASSERT_TRUE(d.end.has_value());
  EXPECT_EQ(d.end->status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(engine.counters().stream_cancelled, 1u);
}

TEST(ResultStreamTest, AlreadyExpiredDeadlineStreamsOnlyTerminal) {
  AdpEngine engine(EngineConfig{.num_workers = 1});
  DbId db = kInvalidDbId;
  AdpRequest req = BigStreamRequest(engine, &db);
  req.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  ResultStream stream = engine.StreamAdp(req);
  Drained d = DrainStream(stream);
  ASSERT_TRUE(d.end.has_value());
  EXPECT_EQ(d.end->status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(d.items, 1u);  // the solve never started
}

TEST(ResultStreamTest, ShutdownClosesOpenStreams) {
  AdpEngine engine(EngineConfig{.num_workers = 1});
  DbId db = kInvalidDbId;
  const AdpRequest req = BigStreamRequest(engine, &db);

  ResultStream stream = engine.StreamAdp(req);
  ASSERT_TRUE(stream.Next().has_value());  // producer mid-stream
  engine.Shutdown();
  Drained d = DrainStream(stream);
  ASSERT_TRUE(d.end.has_value());
  EXPECT_EQ(d.end->status.code(), StatusCode::kShutdown);

  // New streams after Shutdown fail fast and are not counted at all —
  // neither opened nor items nor cancelled (else stream_cancelled could
  // exceed streams_opened).
  const EngineCounters before = engine.counters();
  ResultStream late = engine.StreamAdp(req);
  Drained late_d = DrainStream(late);
  ASSERT_TRUE(late_d.end.has_value());
  EXPECT_EQ(late_d.end->status.code(), StatusCode::kShutdown);
  EXPECT_EQ(late_d.items, 1u);
  const EngineCounters after = engine.counters();
  EXPECT_EQ(after.streams_opened, before.streams_opened);
  EXPECT_EQ(after.stream_items, before.stream_items);
  EXPECT_EQ(after.stream_cancelled, before.stream_cancelled);
  EXPECT_LE(after.stream_cancelled, after.streams_opened);
}

TEST(ResultStreamTest, CloseDetachesConsumerAndUnblocksProducer) {
  AdpEngine engine(EngineConfig{.num_workers = 1});
  DbId db = kInvalidDbId;
  const AdpRequest req = BigStreamRequest(engine, &db);

  ResultStream stream = engine.StreamAdp(req);
  ASSERT_TRUE(stream.Next().has_value());
  stream.Close();
  EXPECT_FALSE(stream.Next().has_value());
  EXPECT_FALSE(stream.TryNext().has_value());
  EXPECT_TRUE(stream.done());

  // The producer observes the close and retires the stream as cancelled.
  for (int i = 0; i < 200 && engine.counters().stream_cancelled == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(engine.counters().stream_cancelled, 1u);
}

TEST(ResultStreamTest, DroppingLastHandleClosesStream) {
  AdpEngine engine(EngineConfig{.num_workers = 1});
  DbId db = kInvalidDbId;
  const AdpRequest req = BigStreamRequest(engine, &db);
  {
    ResultStream stream = engine.StreamAdp(req);
    ASSERT_TRUE(stream.Next().has_value());
    // Handle dropped here without draining: the producer must not wedge
    // the (single) worker.
  }
  for (int i = 0; i < 200 && engine.counters().stream_cancelled == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(engine.counters().stream_cancelled, 1u);
  // The worker is free again.
  AdpRequest probe = req;
  probe.k = 1;
  EXPECT_TRUE(engine.Execute(probe).ok());
}

TEST(ResultStreamTest, NestedStreamFromWorkerThreadIsProducedInline) {
  AdpEngine engine(EngineConfig{.num_workers = 1});
  DbId db = kInvalidDbId;
  const AdpRequest req = BigStreamRequest(engine, &db);

  AdpRequest outer = req;
  outer.k = 1;
  std::promise<Drained> done;
  engine.SubmitAsync(outer, [&engine, &req, &done](AdpResponse) {
    // Runs on the pool's only worker: the nested stream cannot rely on a
    // concurrent consumer, so it must arrive fully buffered.
    ResultStream nested = engine.StreamAdp(req);
    done.set_value(DrainStream(nested));
  });
  Drained d = done.get_future().get();
  ASSERT_TRUE(d.end.has_value());
  ASSERT_TRUE(d.end->status.ok()) << d.end->status.ToString();
  EXPECT_EQ(d.profile_k.size(), 24u);
  EXPECT_GE(d.witnesses.size(), 24u);
}

TEST(ResultStreamTest, BindingFailureKeepsPlanCacheHitOnErrorResults) {
  // Regression: plan_cache_hit is assigned before the binding step in the
  // shared ResolveStatic, so an error response for a warm-cached plan
  // still reports the hit — on both the Execute and the stream surface.
  AdpEngine engine(EngineConfig{.num_workers = 1});
  NamedDatabase good;
  good.relation_names = {"R1"};
  good.db.Append(RelationInstance{});
  NamedDatabase bad;
  bad.relation_names = {"Other"};
  bad.db.Append(RelationInstance{});
  const DbId good_db = engine.RegisterDatabase(std::move(good));
  const DbId bad_db = engine.RegisterDatabase(std::move(bad));

  AdpRequest req;
  req.query_text = "Q(A) :- R1(A,B)";
  req.db = good_db;
  req.k = 0;
  ASSERT_TRUE(engine.Execute(req).ok());  // warms the plan cache

  req.db = bad_db;
  const AdpResponse resp = engine.Execute(req);
  EXPECT_EQ(resp.status.code(), StatusCode::kUnknownRelation);
  EXPECT_TRUE(resp.plan_cache_hit);

  ResultStream stream = engine.StreamAdp(req);
  Drained d = DrainStream(stream);
  ASSERT_TRUE(d.end.has_value());
  EXPECT_EQ(d.end->status.code(), StatusCode::kUnknownRelation);
  EXPECT_TRUE(d.end->plan_cache_hit);
}

// A stream exposes the plan it is solved against — the pointer the
// equivalent Execute's response carries — once any item has arrived, and
// none when its query did not parse.
TEST(ResultStreamTest, PlanIsSetOnceAnItemHasArrived) {
  AdpEngine engine(EngineConfig{.num_workers = 1});
  const ConjunctiveQuery q = ParseQuery("Q(A,B) :- R1(A,B), R2(B,C)");
  Rng rng(5);
  AdpRequest req;
  req.query_text = q.ToString();
  req.db = engine.RegisterDatabase(RandomDb(q, rng, 8, 4));
  req.k = 1;
  const AdpResponse executed = engine.Execute(req);
  ASSERT_TRUE(executed.ok()) << executed.status.ToString();

  ResultStream stream = engine.StreamAdp(req);
  std::optional<StreamItem> first = stream.Next();
  ASSERT_TRUE(first.has_value());
  ASSERT_NE(stream.plan(), nullptr);
  EXPECT_EQ(stream.plan(), executed.plan);
  EXPECT_EQ(stream.plan()->query.relation(1).name, "R2");
  DrainStream(stream);

  AdpRequest unparsable = req;
  unparsable.query_text = "not datalog";
  ResultStream broken = engine.StreamAdp(unparsable);
  const Drained d = DrainStream(broken);
  ASSERT_TRUE(d.end.has_value());
  EXPECT_EQ(d.end->status.code(), StatusCode::kParseError);
  EXPECT_EQ(broken.plan(), nullptr);
  EXPECT_EQ(ResultStream().plan(), nullptr);  // inert handle
}

TEST(ResultStreamTest, IntermediateWitnessStreamingCoversEveryTarget) {
  // With AdpRequest::stream_intermediate_witnesses, the stream also emits a
  // witness batch after each intermediate profile increment, tagged with
  // its own StreamItem::k — all from the single DP, never per-k re-solves.
  Rng rng(11);
  for (const char* shape : kShapes) {
    SCOPED_TRACE(shape);
    const ConjunctiveQuery q = ParseQuery(shape);
    AdpEngine engine(EngineConfig{.num_workers = 2});
    const Database data = RandomDb(q, rng, 8, 4);
    const DbId db = engine.RegisterDatabase(data);
    AdpRequest req;
    req.query_text = q.ToString();
    req.db = db;
    req.k = 0;
    const std::int64_t total = engine.Execute(req).solution.output_count;
    req.k = std::min<std::int64_t>(total, 5);
    if (req.k <= 1) continue;  // no intermediate targets to speak of
    req.stream_intermediate_witnesses = true;

    ResultStream stream = engine.StreamAdp(req);
    std::map<std::int64_t, std::vector<TupleRef>> by_target;
    std::vector<std::int64_t> profile_cost(req.k + 1, -1);
    std::optional<StreamItem> end;
    while (std::optional<StreamItem> item = stream.Next()) {
      switch (item->kind) {
        case StreamItem::Kind::kProfile:
          profile_cost[item->k] = item->cost;
          break;
        case StreamItem::Kind::kWitnesses: {
          auto& group = by_target[item->k];
          group.insert(group.end(), item->witnesses.begin(),
                       item->witnesses.end());
          break;
        }
        case StreamItem::Kind::kEnd:
          end = std::move(*item);
          break;
      }
    }
    ASSERT_TRUE(end.has_value());
    ASSERT_TRUE(end->status.ok()) << end->status.ToString();
    ASSERT_TRUE(end->feasible);

    // The final target's batches still normalize to Execute's witness set —
    // the flag adds items, it never changes the final answer.
    const AdpResponse direct = engine.Execute(req);
    ASSERT_TRUE(direct.ok());
    std::vector<TupleRef> final_witnesses = by_target[req.k];
    NormalizeTupleRefs(final_witnesses);
    EXPECT_EQ(final_witnesses, direct.solution.tuples);

    // Every feasible target got a witness group, and each group genuinely
    // removes at least its target's outputs at exactly the profile's cost.
    for (std::int64_t j = 1; j <= req.k; ++j) {
      if (profile_cost[j] < 0 || profile_cost[j] >= kInfCost) continue;
      auto it = by_target.find(j);
      ASSERT_NE(it, by_target.end()) << "no witnesses for k=" << j;
      EXPECT_GE(CountRemovedOutputs(q, data, it->second), j) << "k=" << j;
      if (end->exact) {
        EXPECT_EQ(static_cast<std::int64_t>(it->second.size()),
                  profile_cost[j])
            << "k=" << j;
      }
    }
  }
}

TEST(ResultStreamTest, IntermediateWitnessesOffByDefault) {
  // Without the flag, every witness batch is tagged with the final target.
  Rng rng(3);
  const ConjunctiveQuery q = ParseQuery(kShapes[0]);
  AdpEngine engine(EngineConfig{.num_workers = 1});
  const DbId db = engine.RegisterDatabase(RandomDb(q, rng, 8, 4));
  AdpRequest req;
  req.query_text = q.ToString();
  req.db = db;
  req.k = 0;
  const std::int64_t total = engine.Execute(req).solution.output_count;
  req.k = std::min<std::int64_t>(total, 4);
  if (req.k <= 1) GTEST_SKIP() << "instance too small";

  ResultStream stream = engine.StreamAdp(req);
  while (std::optional<StreamItem> item = stream.Next()) {
    if (item->kind == StreamItem::Kind::kWitnesses) {
      EXPECT_EQ(item->k, req.k);
    }
  }
}

TEST(ResultStreamTest, StreamItemCounterCountsDeliveredItems) {
  AdpEngine engine(EngineConfig{.num_workers = 1});
  DbId db = kInvalidDbId;
  AdpRequest req = BigStreamRequest(engine, &db);
  req.k = 3;
  ResultStream stream = engine.StreamAdp(req);
  Drained d = DrainStream(stream);
  ASSERT_TRUE(d.end.has_value());
  const EngineCounters c = engine.counters();
  EXPECT_EQ(c.streams_opened, 1u);
  EXPECT_EQ(c.stream_items, static_cast<std::uint64_t>(d.items));
  EXPECT_EQ(c.stream_cancelled, 0u);
}

}  // namespace
}  // namespace adp
