// adp_cli: run ADP on your own data from the command line, through the
// engine's Prepare/Bind/Execute session API.
//
// Usage:
//   adp_cli "<query>" <data-dir> <k|P%> [options]
//
//   <query>     datalog syntax, e.g. "Q(A,B) :- R(A,B), S(B,C=5)"
//   <data-dir>  directory holding <RelationName>.csv per body relation
//   <k|P%>      output-removal target k, or a percentage P <= 100 of |Q(D)|
//
// Options:
//   --counting        cost only, skip the witness tuples
//   --drastic         use DrasticGreedy on NP-hard leaves (full CQs)
//   --verify          re-evaluate the query after deletion
//   --classify-only   print the dichotomy verdict and exit
//   --timeout-ms=N    abort the solve after N <= 86400000 milliseconds
//                     (exit code = StatusExitCode(kDeadlineExceeded))
//
// Exit codes: 0 success, 1 usage error or bad value, 2 infeasible target, and
// StatusExitCode(code) — a distinct code per Status — for engine failures
// (parse errors, missing relations, deadline expiry, ...).

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <string_view>

#include "engine/engine.h"
#include "io/csv.h"
#include "query/parser.h"
#include "util/parse_int.h"
#include "util/stopwatch.h"

int main(int argc, char** argv) {
  using namespace adp;
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: %s \"<query>\" <data-dir> <k|P%%> "
                 "[--counting] [--drastic] [--verify] [--classify-only] "
                 "[--timeout-ms=N]\n",
                 argv[0]);
    return 1;
  }

  AdpOptions options;
  options.verify = false;
  bool classify_only = false;
  std::int64_t timeout_ms = 0;
  for (int i = 4; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--counting")) options.counting_only = true;
    else if (!std::strcmp(argv[i], "--drastic"))
      options.heuristic = AdpOptions::Heuristic::kDrastic;
    else if (!std::strcmp(argv[i], "--verify")) options.verify = true;
    else if (!std::strcmp(argv[i], "--classify-only")) classify_only = true;
    else if (!std::strncmp(argv[i], "--timeout-ms=", 13)) {
      if (!ParseIntInRange(argv[i] + 13, 0, 86'400'000, &timeout_ms)) {
        std::fprintf(stderr, "bad flag value: %s\n", argv[i]);
        return 1;
      }
    } else {
      std::fprintf(stderr, "unknown option %s\n", argv[i]);
      return 1;
    }
  }

  // The target: a whole k, or P% (resolved against |Q(D)| below).
  const std::string_view target = argv[3];
  const bool is_pct = !target.empty() && target.back() == '%';
  std::int64_t k = 0;
  double pct = -1;  // left out of range unless all of P parses
  if (is_pct) {
    const char* last = target.data() + target.size() - 1;
    if (std::from_chars(target.data(), last, pct).ptr != last) pct = -1;
  }
  if (is_pct ? !(pct >= 0 && pct <= 100)
             : ParseInt64(target, &k) != IntParse::kOk) {
    std::fprintf(stderr, "bad target: %s\n", argv[3]);
    return 1;
  }

  AdpEngine engine({.num_workers = 2});

  // Prepare once: parse + dichotomy + linearization + dispatch plan. Every
  // failure from here on is a typed Status with its own exit code.
  StatusOr<PreparedQuery> prepared = engine.Prepare(argv[1], options);
  if (!prepared.ok()) {
    std::fprintf(stderr, "query error: %s\n",
                 prepared.status().ToString().c_str());
    return StatusExitCode(prepared.status().code());
  }
  const ConjunctiveQuery& q = prepared->plan()->query;

  std::printf("query: %s\n", q.ToString().c_str());
  std::printf("dichotomy: %s\n", prepared->plan()->verdict.Summary().c_str());
  if (classify_only) return 0;

  Database db;
  try {
    db = LoadDatabaseCsv(q, argv[2]);
  } catch (const CsvError& e) {
    std::fprintf(stderr, "data error: %s\n", e.what());
    return 1;
  }
  std::printf("loaded %zu tuples across %d relations\n", db.TotalTuples(),
              q.num_relations());

  const DbId db_id = engine.RegisterDatabase(std::move(db));
  if (Status bind = prepared->Bind(db_id); !bind.ok()) {
    std::fprintf(stderr, "bind error: %s\n", bind.ToString().c_str());
    return StatusExitCode(bind.code());
  }

  if (is_pct) {
    // Probe run (k = 0) to learn |Q(D)|; served through the bound handle.
    const AdpResponse probe = engine.Execute(*prepared, 0, options);
    if (!probe.ok()) {
      std::fprintf(stderr, "probe error: %s\n",
                   probe.status.ToString().c_str());
      return StatusExitCode(probe.status.code());
    }
    k = static_cast<std::int64_t>(pct / 100.0 *
                                  static_cast<double>(
                                      probe.solution.output_count));
    if (k < 1) k = 1;
  }

  AdpRequest req;
  req.prepared = *prepared;
  req.k = k;
  req.options = options;
  if (timeout_ms > 0) {
    req.deadline = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(timeout_ms);
  }
  const AdpResponse resp = engine.Execute(req);
  if (!resp.ok()) {
    std::fprintf(stderr, "solve error: %s\n", resp.status.ToString().c_str());
    return StatusExitCode(resp.status.code());
  }
  const AdpSolution& sol = resp.solution;

  std::printf("|Q(D)| = %lld, target k = %lld\n",
              static_cast<long long>(sol.output_count),
              static_cast<long long>(k));
  if (!sol.feasible) {
    std::printf("infeasible: k exceeds |Q(D)|\n");
    return 2;
  }
  std::printf("tuples to delete: %lld (%s) in %.2f ms\n",
              static_cast<long long>(sol.cost),
              sol.exact ? "optimal" : "heuristic", resp.solve_ms);
  const AdpStats& stats = resp.stats;
  std::printf("recursion: %d boolean, %d singleton, %d universe (%lld "
              "classes), %d decompose, %d greedy, %d drastic\n",
              stats.boolean_nodes, stats.singleton_nodes,
              stats.universe_nodes,
              static_cast<long long>(stats.universe_groups),
              stats.decompose_nodes, stats.greedy_leaves,
              stats.drastic_leaves);
  if (!options.counting_only) {
    WriteSolutionCsv(std::cout, q, engine.database(db_id)->db, sol.tuples);
  }
  if (options.verify) {
    std::printf("verified outputs removed: %lld\n",
                static_cast<long long>(sol.removed_outputs));
  }
  return 0;
}
