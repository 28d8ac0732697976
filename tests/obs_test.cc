// Tests for the observability layer (src/obs/): the metrics registry's
// histogram bucketing and quantiles against a sorted-vector oracle,
// counter/histogram behavior under concurrent updates, span
// nesting/parentage in the tracer, exporter output (Chrome trace-event
// JSON, Prometheus text exposition), and the engine integration —
// collect_trace responses whose span tree matches the solve's AdpStats and
// a metrics endpoint that reports real quantiles after a request burst.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <future>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/thread_pool.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "query/parser.h"
#include "test_util.h"
#include "util/rng.h"

namespace adp {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::HistogramSnapshot;
using obs::MetricsRegistry;
using obs::Span;
using obs::Trace;
using obs::TraceSink;
using obs::TraceSpan;
using testing::MakeDb;
using testing::RandomDb;

// ---------------------------------------------------------------------------
// Histogram bucketing

TEST(ObsHistogramTest, BucketBoundaries) {
  // Bucket 0 is [0, kFirstUpperMs]; negatives and NaN land there too.
  EXPECT_EQ(Histogram::BucketFor(0.0), 0);
  EXPECT_EQ(Histogram::BucketFor(-1.0), 0);
  EXPECT_EQ(Histogram::BucketFor(std::numeric_limits<double>::quiet_NaN()),
            0);
  EXPECT_EQ(Histogram::BucketFor(Histogram::kFirstUpperMs), 0);
  // Strictly above a bound falls into the next bucket.
  EXPECT_EQ(Histogram::BucketFor(Histogram::kFirstUpperMs * 1.0001), 1);
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    EXPECT_EQ(Histogram::BucketFor(Histogram::UpperBound(i)), i) << i;
  }
  // Beyond the last finite bound: the overflow bucket — even many
  // doublings past it (a naive ceil(log2) index would run off the array).
  const double last = Histogram::UpperBound(Histogram::kNumBuckets - 1);
  EXPECT_EQ(Histogram::BucketFor(last * 2.0), Histogram::kNumBuckets);
  EXPECT_EQ(Histogram::BucketFor(last * 4.0), Histogram::kNumBuckets);
  EXPECT_EQ(Histogram::BucketFor(std::numeric_limits<double>::max()),
            Histogram::kNumBuckets);
  EXPECT_EQ(Histogram::BucketFor(std::numeric_limits<double>::infinity()),
            Histogram::kNumBuckets);
}

TEST(ObsHistogramTest, EmptyQuantileIsZero) {
  Histogram h;
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Sum(), 0.0);
}

// The documented quantile contract, against a sorted-vector oracle: for
// the ceil(p*n)-th smallest observation v, the histogram reports the upper
// bound of v's bucket — so Quantile(p) >= v and, buckets being doubling,
// Quantile(p) <= max(2*v, kFirstUpperMs).
TEST(ObsHistogramTest, QuantileMatchesSortedOracleWithinOneBucket) {
  Rng rng(99);
  Histogram h;
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) {
    // Log-uniform over ~9 decades, the shape latencies actually have.
    const double v = std::pow(10.0, -3.0 + 9.0 * (static_cast<double>(
                                                      rng.Uniform(1000000)) /
                                                  1000000.0));
    values.push_back(v);
    h.Observe(v);
  }
  std::sort(values.begin(), values.end());
  const HistogramSnapshot snap = h.Snapshot();
  ASSERT_EQ(snap.count, values.size());
  for (const double p : {0.01, 0.10, 0.50, 0.90, 0.95, 0.99, 1.0}) {
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(values.size())));
    const double v = values[std::max<std::size_t>(rank, 1) - 1];
    const double q = h.Quantile(p);
    EXPECT_GE(q, v) << "p=" << p;
    EXPECT_LE(q, std::max(2.0 * v, Histogram::kFirstUpperMs)) << "p=" << p;
  }
}

TEST(ObsHistogramTest, SumAndCountTrackObservations) {
  Histogram h;
  h.Observe(1.0);
  h.Observe(2.5);
  h.Observe(0.5);
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_DOUBLE_EQ(h.Sum(), 4.0);
}

// ---------------------------------------------------------------------------
// Counters, gauges, registry

TEST(ObsRegistryTest, InstrumentsAreStableAndKindChecked) {
  MetricsRegistry reg;
  Counter& c1 = reg.GetCounter("adp_test_total");
  Counter& c2 = reg.GetCounter("adp_test_total");
  EXPECT_EQ(&c1, &c2);
  c1.Increment(7);
  EXPECT_EQ(reg.Snapshot().counters.at("adp_test_total"), 7u);
  EXPECT_THROW(reg.GetGauge("adp_test_total"), std::logic_error);
  EXPECT_THROW(reg.GetHistogram("adp_test_total"), std::logic_error);
  Gauge& g = reg.GetGauge("adp_test_gauge");
  g.Set(41);
  g.Add(1);
  EXPECT_EQ(reg.Snapshot().gauges.at("adp_test_gauge"), 42);
}

// Relaxed-atomic instruments must not lose updates under the same pool the
// engine shards on. Joined by the TSan CI job.
TEST(ObsConcurrencyTest, CountersAndHistogramsUnderThreadPool) {
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("adp_conc_total");
  Histogram& h = reg.GetHistogram("adp_conc_ms");
  constexpr int kTasks = 64;
  constexpr int kPerTask = 1000;
  ThreadPool pool(4);
  std::vector<std::function<void()>> tasks;
  for (int t = 0; t < kTasks; ++t) {
    tasks.push_back([&c, &h, t] {
      for (int i = 0; i < kPerTask; ++i) {
        c.Increment();
        h.Observe(0.001 * (t + 1));
      }
    });
  }
  pool.RunAll(std::move(tasks));
  EXPECT_EQ(c.Value(), static_cast<std::uint64_t>(kTasks) * kPerTask);
  EXPECT_EQ(h.Count(), static_cast<std::uint64_t>(kTasks) * kPerTask);
}

// ---------------------------------------------------------------------------
// Tracer

TEST(ObsTraceTest, SpanNestingAndParentage) {
  TraceSink sink;
  Span root(&sink, "adp.request");
  ASSERT_NE(root.id(), 0u);
  {
    Span child(&sink, "adp.solve", root.id());
    ASSERT_NE(child.id(), 0u);
    child.Tag("cap", static_cast<std::int64_t>(3));
    Span grandchild(&sink, "adp.node.universe", child.id());
    ASSERT_NE(grandchild.id(), 0u);
  }
  root.End();
  const Trace trace = sink.Take();
  ASSERT_EQ(trace.spans.size(), 3u);
  EXPECT_EQ(trace.dropped, 0u);
  const TraceSpan& rs = trace.spans[0];
  const TraceSpan& cs = trace.spans[1];
  const TraceSpan& gs = trace.spans[2];
  EXPECT_EQ(rs.parent, 0u);
  EXPECT_EQ(cs.parent, rs.id);
  EXPECT_EQ(gs.parent, cs.id);
  ASSERT_EQ(cs.tags.size(), 1u);
  EXPECT_EQ(cs.tags[0].first, "cap");
  EXPECT_EQ(cs.tags[0].second, "3");
  // All closed: durations stamped, children contained in their parents.
  for (const TraceSpan& s : trace.spans) EXPECT_GE(s.duration_ms, 0.0);
  EXPECT_LE(rs.start_ms, cs.start_ms);
  EXPECT_LE(cs.start_ms + cs.duration_ms,
            rs.start_ms + rs.duration_ms + 1e-6);
  EXPECT_LE(gs.start_ms + gs.duration_ms,
            cs.start_ms + cs.duration_ms + 1e-6);
}

TEST(ObsTraceTest, SinkBoundCountsDropped) {
  TraceSink sink(/*max_spans=*/2);
  Span a(&sink, "adp.request");
  Span b(&sink, "adp.solve", a.id());
  Span c(&sink, "adp.node.boolean", b.id());
  EXPECT_EQ(c.id(), 0u);  // over the bound: dropped, inert
  c.End();
  b.End();
  a.End();
  const Trace trace = sink.Take();
  EXPECT_EQ(trace.spans.size(), 2u);
  EXPECT_EQ(trace.dropped, 1u);
}

TEST(ObsTraceTest, BackdatedOriginPlacesQueueSpanFirst) {
  TraceSink sink(TraceSink::kDefaultMaxSpans, /*backdate_ms=*/5.0);
  sink.AddCompleteSpan("adp.queue", 0, 0.0, 5.0);
  Span root(&sink, "adp.request");
  root.End();
  const Trace trace = sink.Take();
  ASSERT_EQ(trace.spans.size(), 2u);
  EXPECT_EQ(trace.spans[0].name, "adp.queue");
  EXPECT_DOUBLE_EQ(trace.spans[0].duration_ms, 5.0);
  // The instrumented span starts at (or after) the queue span's end.
  EXPECT_GE(trace.spans[1].start_ms, 5.0 - 1e-6);
}

// Crude but real structural validation of the Chrome trace-event export:
// balanced braces/brackets, the required top-level keys, one "X" event per
// span, names and parent links present in args.
TEST(ObsTraceTest, WriteJsonIsStructurallyValid) {
  TraceSink sink;
  Span root(&sink, "adp.request");
  Span child(&sink, "adp.solve", root.id());
  child.Tag("k", static_cast<std::int64_t>(2));
  child.End();
  root.End();
  const Trace trace = sink.Take();
  std::ostringstream out;
  trace.WriteJson(out);
  const std::string json = out.str();
  std::int64_t braces = 0, brackets = 0;
  for (const char ch : json) {
    braces += ch == '{' ? 1 : ch == '}' ? -1 : 0;
    brackets += ch == '[' ? 1 : ch == ']' ? -1 : 0;
    ASSERT_GE(braces, 0);
    ASSERT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"adp.request\""), std::string::npos);
  EXPECT_NE(json.find("\"adp.solve\""), std::string::npos);
  EXPECT_NE(json.find("\"k\":\"2\""), std::string::npos);
  std::size_t events = 0, pos = 0;
  while ((pos = json.find("\"ph\":\"X\"", pos)) != std::string::npos) {
    ++events;
    pos += 1;
  }
  EXPECT_EQ(events, trace.spans.size());
}

// ---------------------------------------------------------------------------
// Prometheus exposition

TEST(ObsRegistryTest, PrometheusExpositionIsWellFormed) {
  MetricsRegistry reg;
  reg.GetCounter("adp_requests_total").Increment(3);
  reg.GetGauge("adp_databases").Set(2);
  Histogram& h = reg.GetHistogram("adp_request_latency_ms");
  h.Observe(0.5);
  h.Observe(4.0);
  std::ostringstream out;
  reg.WritePrometheus(out);
  std::istringstream in(out.str());
  std::string line;
  std::uint64_t inf_bucket = 0, count = 0;
  int type_lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      ++type_lines;
      continue;
    }
    // Every sample line is "name{labels} value" or "name value".
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_NO_THROW(std::stod(line.substr(space + 1))) << line;
    if (line.rfind("adp_request_latency_ms_bucket{le=\"+Inf\"}", 0) == 0) {
      inf_bucket = std::stoull(line.substr(space + 1));
    }
    if (line.rfind("adp_request_latency_ms_count", 0) == 0) {
      count = std::stoull(line.substr(space + 1));
    }
  }
  EXPECT_EQ(type_lines, 3);
  EXPECT_EQ(count, 2u);
  EXPECT_EQ(inf_bucket, count);  // +Inf bucket is cumulative == _count
}

// ---------------------------------------------------------------------------
// Engine integration

// collect_trace: the response carries a span tree whose node spans match
// the solve's own AdpStats case counts, rooted in the request pipeline.
TEST(ObsEngineTest, CollectTraceSpansMatchSolverStats) {
  EngineConfig config;
  config.num_workers = 2;
  AdpEngine engine(config);
  const ConjunctiveQuery q =
      ParseQuery("Q(A,B,C,E) :- R1(A), R2(A,B), R3(C), R4(C,E)");
  const Database db = MakeDb(q, {{"R1", {{1}, {2}}},
                                 {"R2", {{1, 5}, {2, 6}}},
                                 {"R3", {{7}, {8}}},
                                 {"R4", {{7, 9}, {8, 9}}}});
  AdpRequest req;
  req.query_text = q.ToString();
  req.db = engine.RegisterDatabase(db);
  req.k = 2;
  req.collect_trace = true;
  const AdpResponse resp = engine.Execute(req);
  ASSERT_TRUE(resp.ok()) << resp.status.ToString();
  ASSERT_NE(resp.trace, nullptr);
  EXPECT_EQ(resp.trace->dropped, 0u);

  std::uint64_t node_spans = 0;
  std::uint64_t pipeline_spans = 0;
  for (const TraceSpan& s : resp.trace->spans) {
    EXPECT_GE(s.duration_ms, 0.0) << s.name;  // everything closed
    if (s.name.rfind("adp.node.", 0) == 0) ++node_spans;
    if (s.name == obs::kSpanPlan || s.name == obs::kSpanBind ||
        s.name == obs::kSpanSolve) {
      ++pipeline_spans;
    }
    // Parent links resolve within the trace (ids are 1-based indices).
    if (s.parent != 0) {
      ASSERT_LE(s.parent, resp.trace->spans.size());
      EXPECT_LT(resp.trace->spans[s.parent - 1].start_ms,
                s.start_ms + 1e-6);
    }
  }
  const std::uint64_t stats_nodes =
      static_cast<std::uint64_t>(resp.stats.boolean_nodes) +
      static_cast<std::uint64_t>(resp.stats.singleton_nodes) +
      static_cast<std::uint64_t>(resp.stats.universe_nodes) +
      static_cast<std::uint64_t>(resp.stats.decompose_nodes) +
      static_cast<std::uint64_t>(resp.stats.greedy_leaves) +
      static_cast<std::uint64_t>(resp.stats.drastic_leaves);
  EXPECT_EQ(node_spans, stats_nodes);
  EXPECT_EQ(pipeline_spans, 3u);
  EXPECT_EQ(resp.trace->spans[0].name, obs::kSpanRequest);

  // Untraced requests carry no trace — and must not have coalesced with
  // the traced one.
  req.collect_trace = false;
  const AdpResponse plain = engine.Execute(req);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain.trace, nullptr);
}

// A traced sharded-Decompose request: shard spans recorded from pool
// threads parent correctly, and the trace covers (nearly) the whole
// request wall time — the acceptance bar for "spans over the solver tree".
TEST(ObsEngineTest, ShardedDecomposeTraceCoversWallTime) {
  EngineConfig config;
  config.num_workers = 2;
  config.min_shard_components = 2;
  config.min_shard_groups = 0;
  AdpEngine engine(config);
  Rng rng(7);
  const ConjunctiveQuery q =
      ParseQuery("Q(A,B,C,E) :- R1(A), R2(A,B), R3(C), R4(C,E)");
  AdpRequest req;
  req.query_text = q.ToString();
  req.db = engine.RegisterDatabase(RandomDb(q, rng, 60, 30));
  req.k = 4;
  req.collect_trace = true;
  const AdpResponse resp = engine.Execute(req);
  ASSERT_TRUE(resp.ok()) << resp.status.ToString();
  ASSERT_NE(resp.trace, nullptr);
  EXPECT_GT(resp.stats.sharded_decompose_nodes, 0);

  std::uint64_t shard_spans = 0;
  double first_start = std::numeric_limits<double>::infinity();
  double last_end = 0.0;
  for (const TraceSpan& s : resp.trace->spans) {
    if (s.name == obs::kSpanShardDecompose) {
      ++shard_spans;
      ASSERT_NE(s.parent, 0u);  // always a child of its Decompose node
    }
    first_start = std::min(first_start, s.start_ms);
    last_end = std::max(last_end, s.start_ms + std::max(s.duration_ms, 0.0));
  }
  EXPECT_GT(shard_spans, 0u);
  // The root request span opens with the pipeline and closes at response
  // assembly, so recorded spans cover >= 95% of the measured wall time.
  EXPECT_GE(last_end - first_start, 0.95 * resp.total_ms);
}

// After a burst of requests the registry reports real latency quantiles
// through the engine's Prometheus endpoint.
TEST(ObsEngineTest, MetricsReportQuantilesAfterBurst) {
  EngineConfig config;
  config.num_workers = 4;
  AdpEngine engine(config);
  const ConjunctiveQuery q = ParseQuery("Q(A,B) :- R1(A), R2(A,B)");
  const Database db = MakeDb(q, {{"R1", {{1}, {2}}},
                                 {"R2", {{1, 5}, {2, 6}}}});
  const DbId id = engine.RegisterDatabase(db);
  std::vector<std::future<AdpResponse>> burst;
  for (int i = 0; i < 100; ++i) {
    AdpRequest req;
    req.query_text = q.ToString();
    req.db = id;
    // Distinct k per request: identical (query, k) pairs would be absorbed
    // by single-flight dedup and never observe a latency sample. k beyond
    // |Q(D)| is fine — infeasible solves are still OK responses.
    req.k = 1 + i;
    burst.push_back(engine.Submit(std::move(req)));
  }
  for (auto& fut : burst) ASSERT_TRUE(fut.get().ok());

  obs::MetricsRegistry& metrics = engine.metrics();
  const HistogramSnapshot lat =
      metrics.GetHistogram(obs::kMRequestLatencyMs).Snapshot();
  EXPECT_EQ(lat.count, 100u);
  EXPECT_GT(lat.Quantile(0.99), 0.0);

  std::ostringstream text;
  metrics.WritePrometheus(text);
  const std::string exposition = text.str();
  EXPECT_NE(exposition.find("# TYPE adp_requests_total counter"),
            std::string::npos);
  EXPECT_NE(exposition.find("adp_request_latency_ms_count 100"),
            std::string::npos);
  EXPECT_NE(exposition.find("# TYPE adp_request_latency_ms histogram"),
            std::string::npos);
}

// Streaming twin: the kEnd item of a traced stream carries the trace.
TEST(ObsEngineTest, StreamEndItemCarriesTrace) {
  EngineConfig config;
  config.num_workers = 2;
  AdpEngine engine(config);
  const ConjunctiveQuery q = ParseQuery("Q(A,B) :- R1(A), R2(A,B)");
  const Database db = MakeDb(q, {{"R1", {{1}, {2}}},
                                 {"R2", {{1, 5}, {2, 6}}}});
  AdpRequest req;
  req.query_text = q.ToString();
  req.db = engine.RegisterDatabase(db);
  req.k = 2;
  req.collect_trace = true;
  ResultStream stream = engine.StreamAdp(std::move(req));
  ASSERT_TRUE(stream.valid());
  std::optional<StreamItem> end;
  while (auto item = stream.Next()) {
    if (item->kind == StreamItem::Kind::kEnd) {
      end = std::move(item);
    } else {
      EXPECT_EQ(item->trace, nullptr);  // only the terminal carries it
    }
  }
  ASSERT_TRUE(end.has_value());
  ASSERT_TRUE(end->status.ok()) << end->status.ToString();
  ASSERT_NE(end->trace, nullptr);
  // The stream's root span is present (preceded by the synthetic queue
  // span when the producer waited for a worker).
  std::uint64_t stream_spans = 0;
  for (const TraceSpan& s : end->trace->spans) {
    if (s.name == obs::kSpanStream) ++stream_spans;
  }
  EXPECT_EQ(stream_spans, 1u);
}

}  // namespace
}  // namespace adp
