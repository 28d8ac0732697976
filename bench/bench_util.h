// Shared helpers for the figure-reproduction benchmarks.
//
// Sizing: every sweep uses BenchSizes(), which defaults to laptop-friendly
// input sizes and extends toward the paper's 10M-tuple points when the
// environment variable ADP_BENCH_MAX_N is raised (e.g. ADP_BENCH_MAX_N=1000000).
// Heavier algorithms take a per-bench cap so the slow curves stop early, the
// same way the paper stops Greedy/BruteForce curves once they become
// infeasible (§8.2).

#ifndef ADP_BENCH_BENCH_UTIL_H_
#define ADP_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "query/transform.h"
#include "relational/join.h"
#include "solver/compute_adp.h"

namespace adp::bench {

/// Default largest input size; override with ADP_BENCH_MAX_N.
inline std::int64_t MaxN(std::int64_t fallback = 100000) {
  if (const char* env = std::getenv("ADP_BENCH_MAX_N")) {
    const std::int64_t v = std::atoll(env);
    if (v > 0) return v;
  }
  return fallback;
}

/// Geometric size ladder 1k, 10k, ... up to min(cap, MaxN()).
inline std::vector<std::int64_t> BenchSizes(std::int64_t cap) {
  const std::int64_t lim = std::min(cap, MaxN());
  std::vector<std::int64_t> out;
  for (std::int64_t n = 1000; n <= lim; n *= 10) out.push_back(n);
  if (out.empty()) out.push_back(lim);
  return out;
}

/// The paper's removal ratios (×100).
inline const std::vector<std::int64_t>& Ratios() {
  static const std::vector<std::int64_t> r = {10, 25, 50, 75};
  return r;
}

/// |Q(D)| with selections honored.
inline std::int64_t OutputCount(const ConjunctiveQuery& q,
                                const Database& db) {
  if (q.HasSelections()) {
    const QueryDb pushed = ApplySelections(q, db);
    return static_cast<std::int64_t>(
        CountOutputs(pushed.query.body(), pushed.query.head(), pushed.db));
  }
  return static_cast<std::int64_t>(CountOutputs(q.body(), q.head(), db));
}

/// Gate for scaling claims: a benchmark configuration whose point is
/// multi-way parallelism (workers > 1, clients > 1) is meaningless on a
/// single-core host — the measured "speedup" is just scheduler noise.
/// Returns true (after marking the run skipped) when the claim cannot be
/// exhibited here; the caller must bail out of the benchmark body.
inline bool SkipIfCoresCannotScale(benchmark::State& state, int parallelism) {
  if (parallelism > 1 && std::thread::hardware_concurrency() < 2) {
    state.SkipWithError(
        "scaling configuration skipped: host has a single core");
    return true;
  }
  return false;
}

/// Attaches the standard quality counters to a benchmark state.
inline void Report(benchmark::State& state, std::int64_t outputs,
                   std::int64_t k, const AdpSolution& sol) {
  state.counters["outputs"] = static_cast<double>(outputs);
  state.counters["k"] = static_cast<double>(k);
  state.counters["tuples_removed"] = static_cast<double>(sol.cost);
  state.counters["exact"] = sol.exact ? 1.0 : 0.0;
}

/// Submits every request of `reqs` to `engine`, then collects the responses
/// in request order (the batch runs concurrently across the pool).
inline std::vector<AdpResponse> RunBatch(AdpEngine& engine,
                                         std::vector<AdpRequest> reqs) {
  std::vector<std::future<AdpResponse>> futures;
  futures.reserve(reqs.size());
  for (AdpRequest& req : reqs) futures.push_back(engine.Submit(std::move(req)));
  std::vector<AdpResponse> out;
  out.reserve(futures.size());
  for (auto& fut : futures) out.push_back(fut.get());
  return out;
}

/// Minimal flat-JSON writer for machine-readable bench artifacts (the
/// BENCH_workload.json perf trajectory CI gates, docs/WORKLOAD.md).
/// Keys are emitted sorted so diffs of successive trajectories are stable.
class BenchJsonWriter {
 public:
  void Add(const std::string& key, double value) { fields_[key] = value; }

  bool WriteTo(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{";
    const char* sep = "";
    for (const auto& [key, value] : fields_) {
      out << sep << "\"" << key << "\":" << value;
      sep = ",";
    }
    out << "}\n";
    return out.good();
  }

 private:
  std::map<std::string, double> fields_;
};

}  // namespace adp::bench

#endif  // ADP_BENCH_BENCH_UTIL_H_
