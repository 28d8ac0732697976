// Engine throughput: requests/sec of the plan-caching, thread-pooled
// AdpEngine at 1, 4, and 8 workers versus the direct ComputeAdp path
// (which re-parses, re-classifies, and re-linearizes every request).
//
// The workload is a cached-plan mix: a handful of distinct query shapes
// (poly-time chains with and without selections, a projection, a boolean
// resilience probe) repeated across a batch, the regime a request-serving
// deployment lives in. Counters report the plan-cache hit rate so the
// requests/sec numbers can be attributed.
//
// items_per_second is the figure of merit. Expect the 4-worker engine to
// clearly beat 1 worker on multi-core hardware; on a single core the gain
// collapses to the plan-cache savings alone.
//
// EngineIntraRequestSharding measures the other axis: ONE large
// Universe-partitioned request whose per-group sub-solves are fanned out
// across the pool (EngineConfig::min_shard_groups) versus the same request
// solved sequentially. Again multi-core hardware is needed to see the
// speedup; the sharded/sequential parity on one core shows the dispatch
// overhead is negligible.
//
// EngineDecomposeSharding measures the second sharding axis: ONE request
// whose query is disconnected (Algorithm 5), so its connected components'
// per-k profiles are independent sub-solves fanned out across the pool
// (EngineConfig::min_shard_components) while the cross-product DP combining
// them stays on the solving thread. The sharded_decompose_nodes counter
// proves the sharded path engaged.
//
// EngineStreamVsBatch measures the streaming results path (StreamAdp /
// ResultStream, docs/STREAMING.md) against the one-shot Execute on a
// large-witness workload: a singleton projection whose optimal witness set
// is thousands of tuples. mode=0 runs Execute and reports its full-response
// latency; mode=1 drains a stream and reports time-to-first-witness
// (ttfw_ms) and time-to-first-item (ttfi_ms) next to the same end-to-end
// drain time. The streaming figures of merit: ttfi_ms ≈ the DP alone
// (profile increments arrive before witness enumeration starts), and
// ttfw_ms < the batch path's full_batch_ms (the first batch arrives while
// later batches and the terminal are still being produced and the batch
// path is still deep-copying its monolithic response).
//
// EnginePreparedVsText measures the prepare-once / execute-many hot path:
// the same batch submitted through bound PreparedQuery handles (zero key
// derivation, zero plan/binding-cache probes per request) versus query
// text served from a warm plan cache (one probe of each per request). The
// counters confirm the probe skip: plan_probes_per_req is ~1 for the text
// path and 0 for the prepared path.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_util.h"
#include "engine/engine.h"
#include "engine/grouped_workload.h"
#include "query/parser.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "workload/synthetic.h"

namespace adp::bench {
namespace {

struct Workload {
  NamedDatabase named;
  std::vector<std::string> queries;
};

// A shared database for a 6-relation chain schema plus the query mix.
Workload MakeWorkload(std::int64_t rows) {
  Workload w;
  w.named.relation_names = {"R1", "R2", "R3", "R4", "R5", "R6"};
  Rng rng(7);
  for (int r = 0; r < 6; ++r) {
    RelationInstance inst;
    const std::int64_t domain = rows / 2 + 1;
    for (std::int64_t i = 0; i < rows; ++i) {
      inst.Add({static_cast<Value>(rng.Uniform(domain)),
                static_cast<Value>(rng.Uniform(domain))});
    }
    inst.Dedup();
    w.named.db.Append(std::move(inst));
  }
  w.queries = {
      // 6-chain boolean: the §7.1 linearization is the dominant static cost.
      "Q() :- R1(A,B), R2(B,C), R3(C,E), R4(E,F), R5(F,G), R6(G,H)",
      "Q() :- R1(A,B), R2(B,C), R3(C,E)",          // boolean resilience
      "Q(A) :- R1(A,B), R2(B,C), R3(C,E)",         // projection
      "Q(A,B) :- R1(A,B), R2(B,C)",                // 2-chain
      "Q() :- R1(A,B), R2(B,C)",                   // boolean 2-chain
      "Q(B) :- R1(A,B), R2(B,C=1)",                // with selection
  };
  return w;
}

// k varies with the request index so every (query, k) pair in a batch is
// distinct: RunBatch submits the whole batch concurrently, and
// duplicate pairs would be absorbed by the engine's single-flight dedup,
// overstating solve throughput.
std::int64_t RequestK(int i, std::size_t num_queries) {
  return 1 + static_cast<std::int64_t>(i) /
                 static_cast<std::int64_t>(num_queries);
}

std::vector<AdpRequest> MakeBatch(const Workload& w, DbId db, int requests) {
  std::vector<AdpRequest> batch;
  batch.reserve(static_cast<std::size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    AdpRequest req;
    req.query_text = w.queries[static_cast<std::size_t>(i) % w.queries.size()];
    req.db = db;
    req.k = RequestK(i, w.queries.size());
    req.options.counting_only = true;
    batch.push_back(std::move(req));
  }
  return batch;
}

// Baseline: the pre-engine path — every request parses, classifies,
// linearizes, and solves from scratch, single-threaded.
void DirectPath(benchmark::State& state) {
  const std::int64_t rows = state.range(0);
  const int requests = static_cast<int>(state.range(1));
  const Workload w = MakeWorkload(rows);

  // Positional database per query (bind once outside the loop is *not*
  // representative: the direct path has no interning, so binding is in).
  for (auto _ : state) {
    std::int64_t checksum = 0;
    for (int i = 0; i < requests; ++i) {
      const ConjunctiveQuery q = ParseQuery(
          w.queries[static_cast<std::size_t>(i) % w.queries.size()]);
      Database db(static_cast<std::size_t>(q.num_relations()));
      for (int r = 0; r < q.num_relations(); ++r) {
        for (std::size_t j = 0; j < w.named.relation_names.size(); ++j) {
          if (w.named.relation_names[j] == q.relation(r).name) {
            RelationInstance inst = w.named.db.rel(j);
            inst.set_root_relation(r);
            db.rel(static_cast<std::size_t>(r)) = std::move(inst);
          }
        }
      }
      AdpOptions options;
      options.counting_only = true;
      const AdpSolution sol =
          ComputeAdp(q, db, RequestK(i, w.queries.size()), options);
      checksum += sol.cost;
    }
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(state.iterations() * requests);
}

void EngineThroughput(benchmark::State& state) {
  const std::int64_t rows = state.range(0);
  const int requests = static_cast<int>(state.range(1));
  const int workers = static_cast<int>(state.range(2));
  if (SkipIfCoresCannotScale(state, workers)) return;

  Workload w = MakeWorkload(rows);
  EngineConfig config;
  config.num_workers = workers;
  AdpEngine engine(config);
  const DbId db = engine.RegisterDatabase(std::move(w.named));

  // Warm the plan and binding caches once: steady-state serving is the
  // regime of interest.
  RunBatch(engine, MakeBatch(w, db, static_cast<int>(w.queries.size())));

  for (auto _ : state) {
    const std::vector<AdpResponse> out =
        RunBatch(engine, MakeBatch(w, db, requests));
    std::int64_t checksum = 0;
    for (const AdpResponse& r : out) checksum += r.solution.cost;
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(state.iterations() * requests);

  const EngineCounters c = engine.counters();
  state.counters["workers"] = workers;
  state.counters["plan_hit_rate"] =
      c.plan_hits + c.plan_misses == 0
          ? 0.0
          : static_cast<double>(c.plan_hits) /
                static_cast<double>(c.plan_hits + c.plan_misses);
  // Should stay 0 (distinct (query, k) pairs); nonzero means dedup is
  // absorbing part of the batch and items_per_second overstates solves.
  state.counters["dedup_hits"] = static_cast<double>(c.dedup_hits);
}

// Identical batch, two admission paths: bound PreparedQuery handles
// versus warm-cache query text.
void EnginePreparedVsText(benchmark::State& state) {
  const std::int64_t rows = state.range(0);
  const int requests = static_cast<int>(state.range(1));
  const bool use_prepared = state.range(2) != 0;

  Workload w = MakeWorkload(rows);
  EngineConfig config;
  config.num_workers = 1;  // isolate the per-request admission cost
  AdpEngine engine(config);
  const DbId db = engine.RegisterDatabase(std::move(w.named));

  AdpOptions options;
  options.counting_only = true;
  std::vector<PreparedQuery> handles;
  for (const std::string& text : w.queries) {
    StatusOr<PreparedQuery> prepared = engine.Prepare(text, options);
    if (!prepared.ok() || !prepared->Bind(db).ok()) {
      state.SkipWithError("Prepare/Bind failed");
      return;
    }
    handles.push_back(*std::move(prepared));
  }
  // Warm the text path's plan and binding caches too.
  RunBatch(engine, MakeBatch(w, db, static_cast<int>(w.queries.size())));
  const EngineCounters warm = engine.counters();

  for (auto _ : state) {
    std::vector<AdpRequest> batch;
    batch.reserve(static_cast<std::size_t>(requests));
    for (int i = 0; i < requests; ++i) {
      AdpRequest req;
      if (use_prepared) {
        req.prepared = handles[static_cast<std::size_t>(i) % handles.size()];
      } else {
        req.query_text =
            w.queries[static_cast<std::size_t>(i) % w.queries.size()];
        req.db = db;
      }
      req.k = RequestK(i, w.queries.size());
      req.options = options;
      batch.push_back(std::move(req));
    }
    const std::vector<AdpResponse> out =
        RunBatch(engine, std::move(batch));
    std::int64_t checksum = 0;
    for (const AdpResponse& r : out) checksum += r.solution.cost;
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(state.iterations() * requests);

  const EngineCounters c = engine.counters();
  const double measured =
      static_cast<double>(state.iterations()) * requests;
  state.counters["plan_probes_per_req"] =
      measured == 0 ? 0.0
                    : static_cast<double>((c.plan_hits + c.plan_misses) -
                                          (warm.plan_hits + warm.plan_misses)) /
                          measured;
  state.counters["binding_probes_per_req"] =
      measured == 0
          ? 0.0
          : static_cast<double>((c.binding_hits + c.binding_misses) -
                                (warm.binding_hits + warm.binding_misses)) /
                measured;
}

// Streaming vs one-shot on a large-witness workload: a singleton projection
// Q(A) :- R1(A,B) over 64 A-groups with `group_rows` B-rows each, target
// k = 32 — the optimal witness set is 32 * group_rows tuples (every row of
// the 32 cheapest groups), dwarfing the 32 profile increments. See the
// header comment for what ttfi_ms / ttfw_ms / full_batch_ms mean.
void EngineStreamVsBatch(benchmark::State& state) {
  const std::int64_t group_rows = state.range(0);
  const bool streaming = state.range(1) != 0;
  constexpr std::int64_t kGroups = 64;

  NamedDatabase named;
  named.relation_names = {"R1"};
  RelationInstance inst;
  for (std::int64_t a = 0; a < kGroups; ++a) {
    for (std::int64_t b = 0; b < group_rows; ++b) {
      inst.Add({static_cast<Value>(a), static_cast<Value>(b)});
    }
  }
  named.db.Append(std::move(inst));

  EngineConfig config;
  config.num_workers = 2;  // the stream producer runs on a worker
  AdpEngine engine(config);
  const DbId db = engine.RegisterDatabase(std::move(named));

  AdpRequest req;
  req.query_text = "Q(A) :- R1(A,B)";
  req.db = db;
  req.k = kGroups / 2;

  engine.Execute(req);  // warm the plan and binding caches

  double ttfi_sum = 0.0, ttfw_sum = 0.0, full_sum = 0.0;
  std::int64_t witnesses = 0;
  for (auto _ : state) {
    Stopwatch sw;
    std::int64_t checksum = 0;
    witnesses = 0;
    if (streaming) {
      ResultStream stream = engine.StreamAdp(req);
      double ttfi = -1.0, ttfw = -1.0;
      while (std::optional<StreamItem> item = stream.Next()) {
        if (ttfi < 0) ttfi = sw.ElapsedMs();
        if (item->kind == StreamItem::Kind::kWitnesses) {
          if (ttfw < 0) ttfw = sw.ElapsedMs();
          witnesses += static_cast<std::int64_t>(item->witnesses.size());
          for (const TupleRef& t : item->witnesses) checksum += t.row;
        }
      }
      ttfi_sum += ttfi;
      ttfw_sum += ttfw;
    } else {
      const AdpResponse resp = engine.Execute(req);
      witnesses = static_cast<std::int64_t>(resp.solution.tuples.size());
      for (const TupleRef& t : resp.solution.tuples) checksum += t.row;
      full_sum += sw.ElapsedMs();
    }
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(state.iterations());
  const double iters = static_cast<double>(state.iterations());
  state.counters["witnesses"] = static_cast<double>(witnesses);
  if (streaming) {
    state.counters["ttfi_ms"] = ttfi_sum / iters;
    state.counters["ttfw_ms"] = ttfw_sum / iters;
  } else {
    state.counters["full_batch_ms"] = full_sum / iters;
  }
}

// One large request: Q(A) :- R1(A,B), R2(A,B,C), R3(A,C). A is universal,
// so Algorithm 4 partitions the AppendGroupedComponent instance
// (engine/grouped_workload.h, shared with engine_test) into kGroups
// classes with real max-flow work per group.
void EngineIntraRequestSharding(benchmark::State& state) {
  const std::int64_t rows = state.range(0);
  const int workers = static_cast<int>(state.range(1));
  const bool shard = state.range(2) != 0;
  if (SkipIfCoresCannotScale(state, workers)) return;
  constexpr std::int64_t kGroups = 16;

  NamedDatabase named;
  Rng rng(11);
  AppendGroupedComponent(named, rng, rows, kGroups, "R1", "R2", "R3");

  EngineConfig config;
  config.num_workers = workers;
  config.min_shard_groups = shard ? 2 : 0;
  AdpEngine engine(config);
  const DbId db = engine.RegisterDatabase(std::move(named));

  AdpRequest req;
  req.query_text = "Q(A) :- R1(A,B), R2(A,B,C), R3(A,C)";
  req.db = db;
  req.k = kGroups / 2;
  req.options.counting_only = true;

  engine.Execute(req);  // warm the plan and binding caches

  double sharded_nodes = 0;
  for (auto _ : state) {
    const AdpResponse resp = engine.Execute(req);
    benchmark::DoNotOptimize(resp.solution.cost);
    sharded_nodes = resp.stats.sharded_universe_nodes;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["workers"] = workers;
  state.counters["sharded_nodes"] = sharded_nodes;
}

// One large disconnected request: kComponents copies of the Universe
// workload above, each over its own relations (Si, Ti, Ui), joined only by
// the cross product. Algorithm 5 solves each component independently —
// exactly the profile-per-component work the Decompose axis shards.
void EngineDecomposeSharding(benchmark::State& state) {
  const std::int64_t rows = state.range(0);
  const int workers = static_cast<int>(state.range(1));
  const bool shard = state.range(2) != 0;
  if (SkipIfCoresCannotScale(state, workers)) return;
  constexpr int kComponents = 4;
  constexpr std::int64_t kGroups = 8;

  NamedDatabase named;
  Rng rng(13);
  std::string query = "Q(";
  for (int comp = 0; comp < kComponents; ++comp) {
    const std::string n = std::to_string(comp + 1);
    query += (comp ? ",A" : "A") + n;
    AppendGroupedComponent(named, rng, rows, kGroups, "S" + n, "T" + n,
                           "U" + n);
  }
  query += ") :- ";
  for (int comp = 0; comp < kComponents; ++comp) {
    const std::string n = std::to_string(comp + 1);
    if (comp) query += ", ";
    query += "S" + n + "(A" + n + ",B" + n + "), T" + n + "(A" + n + ",B" +
             n + ",C" + n + "), U" + n + "(A" + n + ",C" + n + ")";
  }

  EngineConfig config;
  config.num_workers = workers;
  config.min_shard_groups = 0;  // isolate the Decompose axis
  config.min_shard_components = shard ? 2 : 0;
  AdpEngine engine(config);
  const DbId db = engine.RegisterDatabase(std::move(named));

  AdpRequest req;
  req.query_text = query;
  req.db = db;
  req.k = kGroups;
  req.options.counting_only = true;

  engine.Execute(req);  // warm the plan and binding caches

  double sharded_nodes = 0;
  for (auto _ : state) {
    const AdpResponse resp = engine.Execute(req);
    benchmark::DoNotOptimize(resp.solution.cost);
    sharded_nodes = resp.stats.sharded_decompose_nodes;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["workers"] = workers;
  state.counters["sharded_decompose_nodes"] = sharded_nodes;
}

void DirectSweep(benchmark::internal::Benchmark* b) {
  for (std::int64_t rows : {200, 1000}) {
    b->Args({rows, /*requests=*/64});
  }
}

void EngineSweep(benchmark::internal::Benchmark* b) {
  for (std::int64_t rows : {200, 1000}) {
    for (std::int64_t workers : {1, 4, 8}) {
      b->Args({rows, /*requests=*/64, workers});
    }
  }
}

BENCHMARK(DirectPath)
    ->Apply(DirectSweep)
    ->ArgNames({"rows", "requests"})
    ->Unit(benchmark::kMillisecond);

void ShardingSweep(benchmark::internal::Benchmark* b) {
  for (std::int64_t workers : {1, 4}) {
    for (std::int64_t shard : {0, 1}) {
      b->Args({/*rows=*/20000, workers, shard});
    }
  }
}

BENCHMARK(EngineThroughput)
    ->Apply(EngineSweep)
    ->ArgNames({"rows", "requests", "workers"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void PreparedSweep(benchmark::internal::Benchmark* b) {
  for (std::int64_t rows : {200, 1000}) {
    for (std::int64_t prepared : {0, 1}) {
      b->Args({rows, /*requests=*/64, prepared});
    }
  }
}

BENCHMARK(EnginePreparedVsText)
    ->Apply(PreparedSweep)
    ->ArgNames({"rows", "requests", "prepared"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK(EngineIntraRequestSharding)
    ->Apply(ShardingSweep)
    ->ArgNames({"rows", "workers", "shard"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void StreamVsBatchSweep(benchmark::internal::Benchmark* b) {
  for (std::int64_t group_rows : {500, 2000}) {
    for (std::int64_t stream : {0, 1}) {
      b->Args({group_rows, stream});
    }
  }
}

BENCHMARK(EngineStreamVsBatch)
    ->Apply(StreamVsBatchSweep)
    ->ArgNames({"group_rows", "stream"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void DecomposeShardingSweep(benchmark::internal::Benchmark* b) {
  for (std::int64_t workers : {1, 4}) {
    for (std::int64_t shard : {0, 1}) {
      b->Args({/*rows=*/6000, workers, shard});
    }
  }
}

BENCHMARK(EngineDecomposeSharding)
    ->Apply(DecomposeShardingSweep)
    ->ArgNames({"rows", "workers", "shard"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace adp::bench

BENCHMARK_MAIN();
