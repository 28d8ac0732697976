#include "harness.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <thread>
#include <utility>

#include "dichotomy/classification.h"
#include "net/client.h"
#include "net/server.h"
#include "net/textproto.h"
#include "query/parser.h"
#include "query/transform.h"
#include "relational/join.h"
#include "solver/plan.h"

namespace perfbench {

using adp::AdpCase;
using adp::AdpEngine;
using adp::AdpResponse;
using adp::AdpSolution;
using adp::net::FrameType;

namespace {

/// Probe repetitions per call; probe metrics take the median.
constexpr int kProbeReps = 3;

/// Streams are probed only on cells with k up to this: a stream carries one
/// profile item per target 1..k.
constexpr std::int64_t kStreamProbeMaxK = 4096;

/// Runs `f` inside a span named `name` and returns its duration in ms.
template <typename F>
double Timed(Tracer* tracer, const char* name, int cell, F&& f) {
  Span span(tracer, name, 0, 0, cell);
  const Clock::time_point t0 = Clock::now();
  f();
  const double ms = MsSince(t0);
  span.End();
  return ms;
}

std::vector<double> Medians(const std::vector<std::vector<double>>& per_item) {
  std::vector<double> out;
  for (const std::vector<double>& v : per_item) {
    if (!v.empty()) out.push_back(Median(v));
  }
  return out;
}

const char* CaseMetric(AdpCase c) {
  switch (c) {
    case AdpCase::kBoolean: return "solver.case.boolean_ms";
    case AdpCase::kSingleton: return "solver.case.singleton_ms";
    case AdpCase::kUniverse: return "solver.case.universe_ms";
    case AdpCase::kDecompose: return "solver.case.decompose_ms";
    case AdpCase::kHeuristic: return "solver.case.heuristic_ms";
  }
  return "solver.case.heuristic_ms";
}

void AddIfAbsent(Metrics* m, const std::string& name, double value,
                 const std::string& unit) {
  if (!m->Has(name)) m->Add(name, value, unit);
}

}  // namespace

bool SetUp(const Suite& suite, const adp::EngineConfig& config, Served* out,
           double* seconds, std::string* error) {
  std::vector<adp::NamedDatabase> copies;
  copies.reserve(suite.instances.size());
  for (const Instance& inst : suite.instances) copies.push_back(inst.db);
  out->engine = std::make_unique<AdpEngine>(config);
  out->dbs.clear();
  out->handles.clear();
  // Let the new workers park before the clock starts.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < suite.instances.size(); ++i) {
    out->dbs.push_back(out->engine->RegisterDatabase(std::move(copies[i])));
    adp::StatusOr<adp::PreparedQuery> prepared =
        out->engine->Prepare(suite.instances[i].query_text);
    if (!prepared.ok()) {
      *error = suite.instances[i].name + ": " + prepared.status().ToString();
      return false;
    }
    const adp::Status bound = prepared->Bind(out->dbs.back());
    if (!bound.ok()) {
      *error = suite.instances[i].name + ": " + bound.ToString();
      return false;
    }
    out->handles.push_back(std::move(prepared).value());
  }
  *seconds = MsSince(t0) / 1000.0;
  return true;
}

namespace {

/// OK ops of each slice, by the slice a sample started in.
std::vector<double> OkPerSlice(const std::vector<Sample>& samples,
                               std::size_t num_slices) {
  std::vector<double> ok(num_slices, 0.0);
  for (const Sample& s : samples) {
    if (!s.ok) continue;
    ok[std::min(static_cast<std::size_t>(s.slice), num_slices - 1)] += 1.0;
  }
  return ok;
}

}  // namespace

void AddServeMetrics(const std::vector<Sample>& samples,
                     std::size_t num_cells, const std::vector<double>& slice_ms,
                     const std::vector<double>& slice_cpu_ms, double tail_p,
                     Metrics* m) {
  if (slice_ms.empty()) return;
  const std::size_t n = slice_ms.size();
  const std::vector<double> ok = OkPerSlice(samples, n);
  std::vector<double> rate;
  for (std::size_t i = 0; i < n; ++i) {
    rate.push_back(ok[i] / (slice_ms[i] / 1000.0));
  }
  // The faster half of the slices: those at or above the median rate.
  const double median_rate = Median(rate);
  std::vector<bool> kept(n, false);
  std::vector<double> kept_rate, cpu_per_op;
  for (std::size_t i = 0; i < n; ++i) {
    if (rate[i] < median_rate) continue;
    kept[i] = true;
    kept_rate.push_back(rate[i]);
    if (ok[i] > 0.0) cpu_per_op.push_back(slice_cpu_ms[i] / ok[i]);
  }
  std::vector<double> all;
  std::vector<std::vector<double>> per_cell(num_cells);
  for (const Sample& s : samples) {
    if (!kept[std::min(static_cast<std::size_t>(s.slice), n - 1)]) continue;
    all.push_back(s.ms);
    per_cell[static_cast<std::size_t>(s.cell)].push_back(s.ms);
  }
  m->Add("ops_s", Median(kept_rate), "1/s");
  m->Add("solve_geomean_ms", GeoMean(Medians(per_cell)), "ms");
  m->Add("op_cpu_ms", Median(cpu_per_op), "ms");
  m->Add("latency_p50_ms", Quantile(all, 0.5), "ms");
  m->Add("latency_tail_ms", Quantile(all, tail_p), "ms");
}

void AddSolveMetrics(const std::vector<Sample>& samples,
                     std::size_t num_cells, const std::vector<double>& sweep_ms,
                     double tail_p, Metrics* m) {
  if (sweep_ms.empty()) return;
  std::vector<std::vector<const Sample*>> per_cell(num_cells);
  for (const Sample& s : samples) {
    per_cell[static_cast<std::size_t>(s.cell)].push_back(&s);
  }
  // Each cell's faster half: the samples at or below its median.
  std::vector<std::vector<double>> ms(num_cells), cpu(num_cells);
  std::vector<double> kept;
  for (std::size_t c = 0; c < num_cells; ++c) {
    std::vector<double> all;
    for (const Sample* s : per_cell[c]) all.push_back(s->ms);
    const double median = Median(all);
    for (const Sample* s : per_cell[c]) {
      if (s->ms > median) continue;
      ms[c].push_back(s->ms);
      cpu[c].push_back(s->cpu_ms);
      kept.push_back(s->ms);
    }
  }
  const std::vector<double> ok = OkPerSlice(samples, sweep_ms.size());
  std::vector<double> rate;
  for (std::size_t i = 0; i < sweep_ms.size(); ++i) {
    rate.push_back(ok[i] / (sweep_ms[i] / 1000.0));
  }
  const double geomean = GeoMean(Medians(ms));
  m->Add("ops_s", Quantile(rate, 0.75), "1/s");  // median of the faster half
  m->Add("solve_geomean_ms", geomean, "ms");
  m->Add("op_cpu_ms", GeoMean(Medians(cpu)), "ms");
  m->Add("latency_p50_ms", geomean, "ms");
  // The slowest tenth of the kept samples comes from the two or three
  // costliest cells, so its lower edge jumps from cell to cell as seeds
  // change their costs; its mean moves smoothly.
  const double edge = Quantile(kept, tail_p);
  double tail_sum = 0.0;
  std::size_t tail_n = 0;
  for (double v : kept) {
    if (v < edge) continue;
    tail_sum += v;
    ++tail_n;
  }
  m->Add("latency_tail_ms", tail_n == 0 ? 0.0 : tail_sum / tail_n, "ms");
}

void CountSamples(const std::vector<Sample>& samples, RunResult* r) {
  for (const Sample& s : samples) {
    ++r->attempted;
    if (!s.ok) ++r->failed;
  }
}

// --- Wire session -------------------------------------------------------------

namespace {

/// A wire session: one connection with every suite instance uploaded as a
/// DB frame ("d<i>") and its query PREPAREd.
struct NetSession {
  adp::net::AdpNetClient client;
  std::vector<std::int64_t> handles;  // per instance
  std::uint64_t bytes = 0;            // frame bytes sent and received

  /// Connects and uploads; false on any transport or protocol failure.
  bool Open(int port, const Suite& suite, Tracer* tracer);
  bool Send(FrameType type, std::int64_t id, const std::string& body);
  std::optional<adp::net::Frame> Read();
};

bool NetSession::Send(FrameType type, std::int64_t id,
                      const std::string& body) {
  bytes += 5 + std::to_string(id).size() + 1 + body.size();
  return client.Send(type, id, body);
}

std::optional<adp::net::Frame> NetSession::Read() {
  std::optional<adp::net::Frame> f = client.ReadFrame();
  if (f.has_value()) bytes += 5 + f->payload.size();
  return f;
}

bool NetSession::Open(int port, const Suite& suite, Tracer* tracer) {
  Span session(tracer, "net.session");
  if (!client.Connect("127.0.0.1", port)) return false;
  handles.clear();
  for (std::size_t i = 0; i < suite.instances.size(); ++i) {
    const Instance& inst = suite.instances[i];
    {
      Span upload(tracer, "net.upload_db", session.id());
      const std::int64_t id = client.NextId();
      if (!Send(FrameType::kDb, id, DbLine("d" + std::to_string(i), inst.db))) {
        return false;
      }
      std::optional<adp::net::Frame> reply = Read();
      if (!reply.has_value() || reply->type != FrameType::kDbOk) return false;
    }
    Span prepare(tracer, "net.prepare", session.id());
    const std::int64_t id = client.NextId();
    if (!Send(FrameType::kPrepare, id, "PREPARE " + inst.query_text)) {
      return false;
    }
    std::optional<adp::net::Frame> reply = Read();
    if (!reply.has_value() || reply->type != FrameType::kPrepared) return false;
    handles.push_back(WireInt(reply->payload, "\"prepared\":", -1));
  }
  return true;
}

/// The EXEC body for `cell` on a session.
std::string ExecBody(const NetSession& s, const Cell& cell) {
  return "EXEC " +
         std::to_string(s.handles[static_cast<std::size_t>(cell.instance)]) +
         " d" + std::to_string(cell.instance) + " " + std::to_string(cell.k);
}

/// Checks one wire result line against the cell's reference.
bool CheckWireResult(const std::string& line, const Cell& cell) {
  const Expected& ref = cell.ref;
  const bool header =
      WireOk(line) &&
      (line.find("\"feasible\":true") != std::string::npos) == ref.feasible &&
      (line.find("\"exact\":true") != std::string::npos) == ref.exact &&
      WireInt(line, "\"output_count\":", -2) == ref.output_count &&
      WireInt(line, "\"cost\":", -2) == (ref.feasible ? ref.cost : -1);
  if (!header) return false;
  if (line.find("\"tuples_truncated\":true") != std::string::npos) {
    return WireInt(line, "\"tuples_total\":", -1) ==
           static_cast<std::int64_t>(ref.tuples.size());
  }
  const std::size_t at = line.find("\"tuples\":");
  if (at == std::string::npos) return false;
  return line.compare(at + 9, ref.tuples_json.size(), ref.tuples_json) == 0;
}

}  // namespace

// --- Per-layer probes ---------------------------------------------------------

void RunLayerProbes(const Suite& suite, const adp::EngineConfig& config,
                    Tracer* tracer, RunResult* r) {
  Metrics& m = r->metrics;
  auto mismatch = [r](const std::string& what) {
    r->correct = false;
    r->notes += "probe mismatch: " + what + "\n";
  };
  const std::size_t ni = suite.instances.size();
  const std::size_t nc = suite.cells.size();
  tracer->set_probing(true);

  // Query-complexity work, per instance.
  std::vector<std::vector<double>> parse(ni), pushdown(ni), classify(ni),
      plan(ni), decode(ni), cold(ni), warm(ni);
  std::vector<adp::ConjunctiveQuery> residual(ni);
  std::vector<adp::Database> residual_db(ni);
  for (int rep = 0; rep < kProbeReps; ++rep) {
    AdpEngine fresh(config);
    for (std::size_t i = 0; i < ni; ++i) {
      const Instance& inst = suite.instances[i];
      parse[i].push_back(1000.0 * Timed(tracer, "query.ParseQuery", -1, [&] {
        adp::ParseQuery(inst.query_text);
      }));
      adp::QueryDb pushed;
      pushdown[i].push_back(Timed(tracer, "query.ApplySelections", -1, [&] {
        pushed = adp::ApplySelections(inst.query, inst.rooted);
      }));
      classify[i].push_back(
          1000.0 * Timed(tracer, "dichotomy.ClassifyDichotomy", -1, [&] {
            adp::ClassifyDichotomy(inst.query);
          }));
      plan[i].push_back(1000.0 * Timed(tracer, "solver.BuildDispatchPlan", -1,
                                       [&] {
        adp::BuildDispatchPlan(pushed.query, inst.options);
      }));
      const std::string line = DbLine("d", inst.db);
      decode[i].push_back(Timed(tracer, "net.ParseDbLine", -1, [&] {
        adp::net::ParseDbLine(adp::net::SplitWs(line));
      }));
      cold[i].push_back(1000.0 * Timed(tracer, "engine.Prepare", -1, [&] {
        if (!fresh.Prepare(inst.query_text).ok()) mismatch("Prepare");
      }));
      warm[i].push_back(1000.0 * Timed(tracer, "engine.Prepare", -1, [&] {
        if (!fresh.Prepare(inst.query_text).ok()) mismatch("Prepare");
      }));
      if (rep == 0) {
        residual[i] = pushed.query;
        residual_db[i] = std::move(pushed.db);
      }
    }
  }
  m.Add("query.parse_us", GeoMean(Medians(parse)), "us");
  m.Add("query.pushdown_ms", GeoMean(Medians(pushdown)), "ms");
  m.Add("dichotomy.classify_us", GeoMean(Medians(classify)), "us");
  m.Add("solver.plan_build_us", GeoMean(Medians(plan)), "us");
  m.Add("engine.prepare_cold_us", GeoMean(Medians(cold)), "us");
  m.Add("engine.prepare_warm_us", GeoMean(Medians(warm)), "us");
  double decode_ms = 0.0;
  for (double v : Medians(decode)) decode_ms += v;
  m.Add("net.db_decode_ms", decode_ms, "ms");

  // Data-dependent work, per cell.
  Served served;
  double unused = 0.0;
  std::string error;
  if (!SetUp(suite, config, &served, &unused, &error)) {
    r->correct = false;
    r->notes += "probe set-up failed: " + error + "\n";
    return;
  }
  std::vector<std::vector<double>> count_only(nc), report(nc), count(nc),
      execute(nc), encode(nc);
  std::vector<double> queue_ms, first_item_ms, items;
  adp::AdpStats stats;
  std::vector<AdpResponse> responses(nc);
  for (int rep = 0; rep < kProbeReps; ++rep) {
    for (std::size_t c = 0; c < nc; ++c) {
      const Cell& cell = suite.cells[c];
      const Instance& inst = suite.instances[static_cast<std::size_t>(
          cell.instance)];
      const int ci = static_cast<int>(c);
      adp::AdpOptions counting = inst.options;
      counting.counting_only = true;
      adp::AdpStats cell_stats;
      if (rep == 0) counting.stats = &cell_stats;
      AdpSolution sol;
      auto count_only_solve = [&] {
        count_only[c].push_back(Timed(tracer, "solver.ComputeAdp", ci, [&] {
          adp::ComputeAdp(inst.query, inst.rooted, cell.k, counting);
        }));
      };
      auto reporting_solve = [&] {
        report[c].push_back(Timed(tracer, "solver.ComputeAdp", ci, [&] {
          sol = adp::ComputeAdp(inst.query, inst.rooted, cell.k, inst.options);
        }));
      };
      // Alternate which solve runs first so neither always pays cold caches.
      if (rep % 2 == 0) {
        count_only_solve();
        reporting_solve();
      } else {
        reporting_solve();
        count_only_solve();
      }
      if (rep == 0) adp::MergeAdpStats(stats, cell_stats);
      adp::NormalizeTupleRefs(sol.tuples);
      if (!Matches(sol, cell.ref)) mismatch("ComputeAdp " + cell.name);
      const std::size_t i = static_cast<std::size_t>(cell.instance);
      count[c].push_back(Timed(tracer, "relational.CountOutputs", ci, [&] {
        adp::CountOutputs(residual[i].body(), residual[i].head(),
                          residual_db[i]);
      }));
      AdpResponse& resp = responses[c];
      execute[c].push_back(Timed(tracer, "engine.Execute", ci, [&] {
        resp = served.engine->Execute(served.handles[i], cell.k, inst.options);
      }));
      if (!resp.ok() || !Matches(resp.solution, cell.ref)) {
        mismatch("Execute " + cell.name);
      }
      encode[c].push_back(
          1000.0 * Timed(tracer, "net.FormatResponseLine", ci, [&] {
            adp::net::FormatResponseLine(1, "d", cell.k, resp, &inst.query);
          }));

      // One async hand-off and one drained stream per cell.
      AdpResponse async;
      Timed(tracer, "engine.Submit", ci, [&] {
        async = served.engine->Submit(served.handles[i], cell.k, inst.options)
                    .get();
      });
      if (!async.ok() || !Matches(async.solution, cell.ref)) {
        mismatch("Submit " + cell.name);
      }
      queue_ms.push_back(async.queue_ms);
      if (cell.k > kStreamProbeMaxK) continue;
      std::vector<adp::StreamItem> streamed;
      Timed(tracer, "engine.StreamAdp", ci, [&] {
        const Clock::time_point t0 = Clock::now();
        adp::ResultStream stream =
            served.engine->StreamAdp(served.handles[i], cell.k, inst.options);
        while (std::optional<adp::StreamItem> item = stream.Next()) {
          if (streamed.empty()) first_item_ms.push_back(MsSince(t0));
          streamed.push_back(std::move(*item));
        }
      });
      if (!CheckStream(streamed, cell.ref)) mismatch("StreamAdp " + cell.name);
      Timed(tracer, "net.FormatStreamItemLine", ci, [&] {
        for (std::size_t j = 0; j < streamed.size(); ++j) {
          adp::net::FormatStreamItemLine(1, "d", streamed[j], &inst.query,
                                         j + 1);
        }
      });
      items.push_back(static_cast<double>(streamed.size()));
    }
  }
  const double g_count_only = GeoMean(Medians(count_only));
  const double g_report = GeoMean(Medians(report));
  const double g_count = GeoMean(Medians(count));
  const double g_execute = GeoMean(Medians(execute));
  m.Add("solver.count_only_ms", g_count_only, "ms");
  std::map<AdpCase, std::vector<double>> by_case;
  for (std::size_t c = 0; c < nc; ++c) {
    by_case[suite.cells[c].root_case].push_back(Median(count_only[c]));
  }
  for (AdpCase c : {AdpCase::kBoolean, AdpCase::kSingleton, AdpCase::kUniverse,
                    AdpCase::kDecompose, AdpCase::kHeuristic}) {
    m.Add(CaseMetric(c), GeoMean(by_case[c]), "ms");
  }
  m.Add("solver.witness_ms", g_report - g_count_only, "ms");
  m.Add("solver.self_ms", g_count_only - g_count, "ms");
  m.Add("relational.count_ms", g_count, "ms");
  m.Add("relational.count_share", g_count / g_count_only, "ratio");
  m.Add("engine.execute_overhead_us", 1000.0 * (g_execute - g_report), "us");
  m.Add("net.encode_us", GeoMean(Medians(encode)), "us");
  m.Add("solver.nodes.boolean", stats.boolean_nodes, "count");
  m.Add("solver.nodes.singleton", stats.singleton_nodes, "count");
  m.Add("solver.nodes.universe", stats.universe_nodes, "count");
  m.Add("solver.nodes.decompose", stats.decompose_nodes, "count");
  m.Add("solver.nodes.heuristic", stats.greedy_leaves + stats.drastic_leaves,
        "count");
  m.Add("solver.universe_groups", static_cast<double>(stats.universe_groups),
        "count");
  // The workload's own loop wins where it measured these under its load.
  AddIfAbsent(&m, "engine.queue_wait_p50_ms", Quantile(queue_ms, 0.5), "ms");
  AddIfAbsent(&m, "engine.queue_wait_p99_ms", Quantile(queue_ms, 0.99), "ms");
  AddIfAbsent(&m, "engine.stream_first_item_ms", Median(first_item_ms), "ms");
  double total_items = 0.0;
  for (double v : items) total_items += v;
  AddIfAbsent(&m, "engine.stream_items_per_op",
              total_items / static_cast<double>(std::max<std::size_t>(
                                1, items.size())),
              "count");

  // Loopback probe: sessions, then every cell once per repetition.
  adp::net::AdpNetServer server(*served.engine);
  if (!server.Start().ok()) {
    r->correct = false;
    return;
  }
  std::vector<double> session_ms, self_us;
  std::uint64_t op_bytes = 0, ops = 0;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    NetSession s;
    const Clock::time_point t0 = Clock::now();
    if (!s.Open(server.port(), suite, tracer)) {
      mismatch("session: " + s.client.error());
      break;
    }
    session_ms.push_back(MsSince(t0));
    s.bytes = 0;
    for (std::size_t c = 0; c < nc; ++c) {
      // The wire grammar has no heuristic option: Drastic cells stay local.
      const Cell& cell = suite.cells[c];
      if (suite.instances[static_cast<std::size_t>(cell.instance)]
              .options.heuristic != adp::AdpOptions::Heuristic::kGreedy) {
        continue;
      }
      Span rt(tracer, "net.roundtrip", 0, ++ops, static_cast<int>(c));
      const Clock::time_point start = Clock::now();
      const std::int64_t id = s.client.NextId();
      s.Send(FrameType::kExec, id, ExecBody(s, suite.cells[c]));
      std::optional<adp::net::Frame> reply = s.Read();
      const double ms = MsSince(start);
      if (!reply.has_value() || reply->type != FrameType::kResult ||
          !CheckWireResult(reply->payload, suite.cells[c])) {
        mismatch("EXEC " + suite.cells[c].name + ": " +
                 (reply.has_value() ? reply->payload.substr(0, 300) : ""));
        continue;
      }
      const double server_ms = WireDouble(reply->payload, "\"total_ms\":") +
                               WireDouble(reply->payload, "\"queue_ms\":");
      rt.AddReportedChild(
          "solver.solve", WireDouble(reply->payload, "\"solve_ms\":"),
          rt.AddReportedChild("engine.server", server_ms));
      rt.End();
      self_us.push_back(1000.0 * (ms - server_ms));
    }
    op_bytes += s.bytes;
    s.client.Close();
  }
  server.Stop();
  m.Add("net.session_ms", Median(session_ms), "ms");
  m.Add("net.self_p50_us", Quantile(self_us, 0.5), "us");
  m.Add("net.bytes_per_op",
        static_cast<double>(op_bytes) /
            static_cast<double>(std::max<std::uint64_t>(1, ops)),
        "B");
}

void AddCounterMetrics(const adp::EngineCounters& before,
                       const adp::EngineCounters& after, std::uint64_t async,
                       Metrics* m) {
  auto ratio = [](std::uint64_t hits, std::uint64_t base) {
    return base == 0 ? 0.0
                     : static_cast<double>(hits) / static_cast<double>(base);
  };
  const std::uint64_t plan_hits = after.plan_hits - before.plan_hits;
  const std::uint64_t plan_probes =
      plan_hits + (after.plan_misses - before.plan_misses);
  const std::uint64_t bind_hits = after.binding_hits - before.binding_hits;
  const std::uint64_t bind_probes =
      bind_hits + (after.binding_misses - before.binding_misses);
  const std::uint64_t dedup = after.dedup_hits - before.dedup_hits;
  m->Add("engine.plan_hit_ratio", ratio(plan_hits, plan_probes), "ratio");
  m->Add("engine.plan_probes", static_cast<double>(plan_probes), "count");
  m->Add("engine.binding_hit_ratio", ratio(bind_hits, bind_probes), "ratio");
  m->Add("engine.binding_probes", static_cast<double>(bind_probes), "count");
  m->Add("engine.dedup_hit_ratio", ratio(dedup, async), "ratio");
  m->Add("engine.dedup_candidates", static_cast<double>(async), "count");
}

void FinishTrace(const Tracer& tracer, const std::string& path,
                 RunResult* r) {
  const std::map<std::string, double> workload = tracer.SelfMsPerOp(false);
  const std::map<std::string, double> probe = tracer.SelfMsPerOp(true);
  for (const char* layer : {"solver", "engine", "net"}) {
    const std::map<std::string, double>& from =
        workload.count(layer) != 0 ? workload : probe;
    auto it = from.find(layer);
    r->metrics.Add(std::string("self.") + layer + "_us",
                   it == from.end() ? 0.0 : 1000.0 * it->second, "us");
  }
  r->metrics.Add("trace.spans", static_cast<double>(tracer.size()), "count");
  if (!path.empty() && !tracer.WriteJson(path)) {
    r->notes += "could not write " + path + "\n";
  }
}

}  // namespace perfbench
