// The parts every workload shares: run options, engine set-up, the
// end-to-end metric blocks, and the per-layer probes of a traced run.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "engine/engine.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  // where a traced run writes its spans
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  /// Run facts, printed as one JSON line before the result; each value is
  /// raw JSON.
  std::vector<std::pair<std::string, std::string>> facts;
  /// Problems worth a human's attention, printed to stderr.
  std::string notes;
};

/// Set-up repetitions before the measured window, and again after it;
/// setup_s is the median of both batches, so that it averages the host's
/// state over the whole run.
inline constexpr int kSetupReps = 11;

/// One client-observed operation of a measured loop.
struct Sample {
  int cell = 0;
  int slice = 0;          // measurement slice the op started in
  int kind = 0;           // the workload's op kind
  double ms = 0.0;        // client-observed latency
  double cpu_ms = 0.0;    // caller-thread CPU time (paper_solve only)
  bool ok = false;        // status OK and the answer matched the reference
  double solve_ms = 0.0;  // engine-reported solve time
};

/// An engine with every suite instance registered, prepared and bound.
struct Served {
  std::unique_ptr<adp::AdpEngine> engine;
  std::vector<adp::DbId> dbs;                  // per instance
  std::vector<adp::PreparedQuery> handles;     // per instance, bound
};

/// Builds a Served engine. Only the engine calls are timed: `*seconds`
/// receives register + prepare + bind time. False (with `*error`) when any
/// call fails.
bool SetUp(const Suite& suite, const adp::EngineConfig& config, Served* out,
           double* seconds, std::string* error);

/// serve_mixed's ops_s, latency_p50_ms, latency_tail_ms, solve_geomean_ms
/// and op_cpu_ms. `slice_ms[i]` is the length of slice i and
/// `slice_cpu_ms[i]` the process CPU time spent in it.
///
/// Every figure is taken over the faster half of the slices, those at or
/// above the median rate of OK ops, for the reason AddSolveMetrics gives.
/// ops_s is the median rate of those slices, op_cpu_ms their median CPU
/// time per OK op, latency_p50_ms and latency_tail_ms the median and the
/// `tail_p` quantile of their samples, and solve_geomean_ms the geometric
/// mean over cells of each cell's median latency in them.
void AddServeMetrics(const std::vector<Sample>& samples,
                     std::size_t num_cells, const std::vector<double>& slice_ms,
                     const std::vector<double>& slice_cpu_ms, double tail_p,
                     Metrics* m);

/// paper_solve's ops_s, latency_p50_ms, latency_tail_ms, solve_geomean_ms
/// and op_cpu_ms; `sweep_ms[i]` is the length of sweep i.
///
/// Each cell repeats one deterministic single-threaded solve, so the spread
/// between its repeats is host interference, and interference only adds
/// time. Every figure is therefore taken over the faster half of the run:
/// each cell's faster half of samples, and the faster half of the sweeps.
/// solve_geomean_ms is the geometric mean over cells of the median of each
/// cell's faster half; latency_p50_ms equals it (a pooled median would jump
/// between cells whose costs differ 100x). latency_tail_ms is the mean of
/// the kept samples at or above their `tail_p` quantile, op_cpu_ms the
/// solve_geomean_ms form of their CPU times, and ops_s the median sweep rate
/// of the faster half of the sweeps.
void AddSolveMetrics(const std::vector<Sample>& samples,
                     std::size_t num_cells, const std::vector<double>& sweep_ms,
                     double tail_p, Metrics* m);

/// Counts the samples into attempted/failed.
void CountSamples(const std::vector<Sample>& samples, RunResult* r);

/// Traced runs only: times each layer's public functions on the suite's
/// cells (spans on `tracer`) and adds the probe-derived per-layer metrics,
/// the net metrics from a loopback probe. A probe answer that disagrees with the reference
/// clears `r->correct`.
void RunLayerProbes(const Suite& suite, const adp::EngineConfig& config,
                    Tracer* tracer, RunResult* r);

/// Adds the engine counter ratios of a measured window (after - before).
void AddCounterMetrics(const adp::EngineCounters& before,
                       const adp::EngineCounters& after, std::uint64_t async,
                       Metrics* m);

/// Adds trace.spans and self.<layer>_us for the layers an op passes through
/// (solver, engine, net): the layer's self time per op over the workload's
/// op trees, or over the loopback probe's when the workload's ops never
/// reach the layer. Writes the spans file.
void FinishTrace(const Tracer& tracer, const std::string& path,
                 RunResult* r);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
