// adp_server: line-oriented batch driver for the concurrent ADP engine.
//
// Reads requests from a file (or stdin), executes them on AdpEngine's
// worker pool, and prints one JSON-ish result line per request, in request
// order. The command grammar and the result-line rendering live in
// src/net/textproto.h, shared with the TCP front end (src/net/server.cc,
// examples/adp_netserver.cpp) so the two cannot drift.
//
// Protocol (one command per line; '#' starts a comment):
//
//   DB <name> <Rel>=<row>/<row>/... <Rel>=...
//       Registers a database. Rows are comma-separated integers; "()"
//       denotes the empty tuple (vacuum instance); "<Rel>=" alone is an
//       empty instance. Relations bind to query atoms by name.
//
//   REQ <db> <k> [+opt ...] <query>
//       Submits ADP(query, db, k), e.g.:  REQ d1 2 Q(A) :- R1(A,B), R2(B)
//       Options: +p<N> priority, +d<MS> per-request deadline (overrides
//       --timeout-ms), +iw intermediate witnesses (STREAM only) — see
//       src/net/textproto.h.
//
//   STREAM <db> <k> [+opt ...] <query>
//       Streaming ranked-witness enumeration (AdpEngine::StreamAdp): runs
//       ONE solve and prints incremental lines as items arrive — one line
//       per profile increment {"stream":id,"k":j,"cost":c}, one per witness
//       batch {"stream":id,"k":j,"witnesses":[...]}, then a terminal
//       {"stream":id,"end":true,...} line. Emitted in-place, ahead of any
//       still-pending REQ results (protocol: docs/STREAMING.md).
//
//   CANCEL
//       Cancels every request still pending (AdpTicket::Cancel); their
//       result lines report status CANCELLED.
//
//   STATS
//       Drains pending requests, then prints engine counters plus request-
//       latency quantiles (p50/p95/p99, from the metrics registry).
//
//   METRICS
//       Drains pending requests, then prints the engine's metrics registry
//       in Prometheus text exposition format (docs/OBSERVABILITY.md).
//
//   TRACE <on|off>
//       Toggles span tracing (AdpRequest::collect_trace) for subsequent
//       REQ/STREAM lines. Result lines gain "trace_spans";
//       with --trace-dir, slow requests dump their full trace JSON.
//
// Usage:  adp_server [--workers=N] [--min-shard-groups=G]
//                    [--min-shard-components=C] [--coalesce-window-ms=W]
//                    [--timeout-ms=T] [--stream-batch-tuples=B]
//                    [--max-queue-depth=Q]
//                    [--trace-dir=DIR] [--slow-ms=S]
//                    [requests.txt]
//
//   --min-shard-groups=G     Universe nodes with >= G partition groups
//                            shard their sub-solves across the pool (0
//                            disables the Universe axis; default 4).
//   --min-shard-components=C Decompose nodes with >= C connected
//                            components shard their per-component
//                            sub-solves across the pool (0 disables the
//                            Decompose axis; default 4). STATS reports
//                            engagement of both axes (sharded_universe_
//                            nodes / sharded_decompose_nodes).
//   --coalesce-window-ms=W   serve a request identical to one completed
//                            within the last W ms from the result table's
//                            completed slots instead of re-solving
//                            (0 = off).
//   --timeout-ms=T           per-request deadline: queued or running work
//                            past it reports DEADLINE_EXCEEDED (0 = none);
//                            also bounds STREAM solves.
//   --stream-batch-tuples=B  max witness tuples per STREAM batch line
//                            (0 = one batch; default 256).
//   --max-queue-depth=Q      load shedding: async requests arriving while
//                            more than Q tasks wait on the pool are
//                            rejected with OVERLOADED (0 = unbounded).
//   --trace-dir=DIR          slow-query log: collect a trace for every
//                            REQ/STREAM (implies TRACE on) and write
//                            DIR/trace-<id>.json (Chrome trace-event JSON,
//                            Perfetto-loadable) for each request slower
//                            than --slow-ms end to end.
//   --slow-ms=S              threshold for --trace-dir dumps (default 0:
//                            every traced request is dumped).
//
// Exit code: 0 when every request succeeded (or was explicitly CANCELled);
// otherwise StatusExitCode of the first failing response — one distinct
// code per Status code.
//
// Example input:
//   DB d1 R1=11,21/12,22/13,23 R2=21,31/22,32/22,33/23,33 R3=31,41/32,43/33,43
//   REQ d1 2 Q(A,B,C,E) :- R1(A,B), R2(B,C), R3(C,E)
//   STREAM d1 3 Q(A,B,C,E) :- R1(A,B), R2(B,C), R3(C,E)
//   STATS

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "net/textproto.h"
#include "obs/trace.h"

namespace {

using adp::AdpEngine;
using adp::AdpRequest;
using adp::AdpResponse;
using adp::AdpTicket;
using adp::Status;
using adp::StatusCode;

struct Pending {
  int id;
  std::string db_name;
  std::string query_text;
  std::int64_t k;
  std::future<AdpResponse> future;
  AdpTicket ticket;
};

// Strict integer flag value in [min_value, max_value]: rejects trailing
// junk, out-of-range, and non-numeric input with a usage error instead of
// wrapping, clamping, or aborting.
std::int64_t ParseFlagValue(const std::string& arg, std::size_t prefix_len,
                            std::int64_t min_value, std::int64_t max_value) {
  const std::string value = arg.substr(prefix_len);
  std::size_t pos = 0;
  std::int64_t out = min_value - 1;
  try {
    out = std::stoll(value, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos != value.size() || value.empty() || out < min_value ||
      out > max_value) {
    std::cerr << "bad flag value: " << arg << "\n";
    std::exit(1);
  }
  return out;
}

/// Span tracing / slow-query-log settings (TRACE command, --trace-dir,
/// --slow-ms).
struct TraceConfig {
  bool on = false;        // TRACE on|off toggle
  std::string dir;        // --trace-dir; empty = no dumps
  std::int64_t slow_ms = 0;  // --slow-ms dump threshold

  bool collect() const { return on || !dir.empty(); }
};

/// Slow-query log: writes one request's trace JSON as DIR/trace-<id>.json
/// when its end-to-end time crosses the --slow-ms threshold.
void MaybeDumpTrace(const TraceConfig& tc, int id,
                    const std::shared_ptr<const adp::obs::Trace>& trace,
                    double end_to_end_ms) {
  if (tc.dir.empty() || trace == nullptr ||
      end_to_end_ms < static_cast<double>(tc.slow_ms)) {
    return;
  }
  std::error_code ec;
  std::filesystem::create_directories(tc.dir, ec);
  std::ofstream out(std::filesystem::path(tc.dir) /
                    ("trace-" + std::to_string(id) + ".json"));
  if (out) trace->WriteJson(out);
}

// First failing status decides the process exit code; explicit CANCELs are
// operator-initiated, not failures.
void NoteStatus(const Status& status, Status& first_error) {
  if (status.ok() || status.code() == StatusCode::kCancelled) return;
  if (first_error.ok()) first_error = status;
}

// Drains one StreamAdp call synchronously, printing one line per item as it
// arrives: time-to-first-line is one DP solve, not the full enumeration.
void RunStreamCommand(AdpEngine& engine, int id, const std::string& db,
                      AdpRequest req, const TraceConfig& tc,
                      Status& first_error) {
  // Fetch the parsed query (a plan-cache probe) to render relation names.
  std::shared_ptr<const adp::CachedPlan> plan = engine.PlanFor(req);
  const adp::ConjunctiveQuery* query = plan ? &plan->query : nullptr;

  adp::ResultStream stream = engine.StreamAdp(std::move(req));
  std::size_t items = 0;
  while (std::optional<adp::StreamItem> item = stream.Next()) {
    ++items;
    if (item->kind == adp::StreamItem::Kind::kEnd) {
      NoteStatus(item->status, first_error);
      if (item->trace != nullptr) {
        MaybeDumpTrace(tc, id, item->trace, item->queue_ms + item->total_ms);
      }
    }
    std::cout << adp::net::FormatStreamItemLine(id, db, *item, query, items)
              << "\n";
  }
}

void Drain(AdpEngine& engine, std::vector<Pending>& pending,
           const TraceConfig& tc, Status& first_error) {
  for (Pending& p : pending) {
    const AdpResponse r = p.future.get();
    NoteStatus(r.status, first_error);
    // Fetch the parsed query (a plan-cache hit) to render relation names.
    std::shared_ptr<const adp::CachedPlan> plan;
    if (r.ok()) {
      AdpRequest probe;
      probe.query_text = p.query_text;
      plan = engine.PlanFor(probe);
    }
    std::cout << adp::net::FormatResponseLine(p.id, p.db_name, p.k, r,
                                              plan ? &plan->query : nullptr)
              << "\n";
    MaybeDumpTrace(tc, p.id, r.trace, r.queue_ms + r.total_ms);
  }
  pending.clear();
}

}  // namespace

int main(int argc, char** argv) {
  int workers = 4;
  std::size_t min_shard_groups = 4;
  std::size_t min_shard_components = 4;
  std::int64_t coalesce_window_ms = 0;
  std::int64_t timeout_ms = 0;
  std::int64_t stream_batch_tuples = 256;
  std::int64_t max_queue_depth = 0;
  TraceConfig trace_cfg;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--workers=", 0) == 0) {
      workers = static_cast<int>(ParseFlagValue(arg, 10, /*min_value=*/1,
                                                /*max_value=*/4096));
    } else if (arg.rfind("--min-shard-groups=", 0) == 0) {
      min_shard_groups = static_cast<std::size_t>(
          ParseFlagValue(arg, 19, /*min_value=*/0, /*max_value=*/1 << 20));
    } else if (arg.rfind("--min-shard-components=", 0) == 0) {
      min_shard_components = static_cast<std::size_t>(
          ParseFlagValue(arg, 23, /*min_value=*/0, /*max_value=*/1 << 20));
    } else if (arg.rfind("--coalesce-window-ms=", 0) == 0) {
      coalesce_window_ms = ParseFlagValue(arg, 21, /*min_value=*/0,
                                          /*max_value=*/86'400'000);
    } else if (arg.rfind("--timeout-ms=", 0) == 0) {
      timeout_ms = ParseFlagValue(arg, 13, /*min_value=*/0,
                                  /*max_value=*/86'400'000);
    } else if (arg.rfind("--stream-batch-tuples=", 0) == 0) {
      stream_batch_tuples = ParseFlagValue(arg, 22, /*min_value=*/0,
                                           /*max_value=*/1 << 24);
    } else if (arg.rfind("--max-queue-depth=", 0) == 0) {
      max_queue_depth = ParseFlagValue(arg, 18, /*min_value=*/0,
                                       /*max_value=*/1 << 24);
    } else if (arg.rfind("--trace-dir=", 0) == 0) {
      trace_cfg.dir = arg.substr(12);
    } else if (arg.rfind("--slow-ms=", 0) == 0) {
      trace_cfg.slow_ms = ParseFlagValue(arg, 10, /*min_value=*/0,
                                         /*max_value=*/86'400'000);
    } else {
      path = arg;
    }
  }

  std::ifstream file;
  if (!path.empty()) {
    file.open(path);
    if (!file) {
      std::cerr << "cannot open " << path << "\n";
      return 1;
    }
  }
  std::istream& in = path.empty() ? std::cin : file;

  adp::EngineConfig config;
  config.num_workers = workers;
  config.min_shard_groups = min_shard_groups;
  config.min_shard_components = min_shard_components;
  config.coalesce_window_ms = static_cast<double>(coalesce_window_ms);
  config.stream_batch_tuples = static_cast<std::size_t>(stream_batch_tuples);
  config.max_queue_depth = static_cast<std::size_t>(max_queue_depth);
  AdpEngine engine(config);
  std::unordered_map<std::string, adp::DbId> dbs;
  std::vector<Pending> pending;
  Status first_error;
  int next_id = 0;

  std::string line;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const std::vector<std::string> toks = adp::net::SplitWs(line);
    if (toks.empty()) continue;

    try {
      if (toks[0] == "DB") {
        adp::net::ParsedDb parsed = adp::net::ParseDbLine(toks);
        dbs[parsed.name] = engine.RegisterDatabase(std::move(parsed.db));
      } else if (toks[0] == "REQ") {
        adp::net::ParsedRequest parsed = adp::net::ParseRequestLine(
            toks, "REQ <db> <k> [+opt ...] <query>", timeout_ms);
        auto it = dbs.find(parsed.db_name);
        if (it == dbs.end()) {
          throw std::runtime_error("unknown database " + parsed.db_name);
        }
        parsed.req.db = it->second;
        parsed.req.collect_trace = trace_cfg.collect();
        Pending p{next_id++, parsed.db_name, parsed.query_text, parsed.req.k,
                  {}, {}};
        p.future = engine.Submit(std::move(parsed.req), &p.ticket);
        pending.push_back(std::move(p));
      } else if (toks[0] == "STREAM") {
        adp::net::ParsedRequest parsed = adp::net::ParseRequestLine(
            toks, "STREAM <db> <k> [+opt ...] <query>", timeout_ms);
        auto it = dbs.find(parsed.db_name);
        if (it == dbs.end()) {
          throw std::runtime_error("unknown database " + parsed.db_name);
        }
        parsed.req.db = it->second;
        parsed.req.collect_trace = trace_cfg.collect();
        RunStreamCommand(engine, next_id++, parsed.db_name,
                         std::move(parsed.req), trace_cfg, first_error);
      } else if (toks[0] == "TRACE") {
        if (toks.size() != 2 || (toks[1] != "on" && toks[1] != "off")) {
          throw std::runtime_error("TRACE <on|off>");
        }
        trace_cfg.on = toks[1] == "on";
        std::cout << "{\"trace\":\"" << toks[1] << "\"}\n";
      } else if (toks[0] == "CANCEL") {
        int cancelled = 0;
        for (Pending& p : pending) {
          if (p.ticket.Cancel()) ++cancelled;
        }
        std::cout << "{\"cancelled\":" << cancelled
                  << ",\"pending\":" << pending.size() << "}\n";
      } else if (toks[0] == "METRICS") {
        Drain(engine, pending, trace_cfg, first_error);
        engine.WriteMetricsText(std::cout);
      } else if (toks[0] == "STATS") {
        Drain(engine, pending, trace_cfg, first_error);
        std::cout << adp::net::FormatStatsJson(engine) << "\n";
      } else {
        throw std::runtime_error("unknown command " + toks[0]);
      }
    } catch (const std::exception& e) {
      std::cout << "{\"req\":null,\"status\":\"INVALID_ARGUMENT\",\"error\":\""
                << adp::net::JsonEscape(e.what()) << "\"}\n";
      if (first_error.ok()) {
        first_error = Status(StatusCode::kInvalidArgument, e.what());
      }
    }
  }
  Drain(engine, pending, trace_cfg, first_error);
  return StatusExitCode(first_error.code());
}
