// LoadDriver: an open- and closed-loop load driver over AdpEngine — and,
// optionally, over AdpNetServer via loopback (src/net/client.h) — for the
// macro-bench harness (bench/bench_workload_macro.cc), the adp_loadgen
// CLI, and the soak tests.
//
// The driver takes a set of generated query families (workload/families.h)
// and a traffic mix, pre-computes a deterministic operation plan from the
// seed (same seed => same plan, op for op), then replays it:
//
//   closed loop — `concurrency` worker threads each pull the next op and
//     issue it synchronously; a new op starts only when the previous one
//     finished. Measures capacity (the engine is never idle, never
//     over-committed beyond `concurrency`).
//   open loop — ops are dispatched on a fixed arrival schedule
//     (`offered_rps`), regardless of completions, through the engine's
//     async paths (SubmitAsync / StreamAdp). Measures behavior under an
//     offered load, including queueing and shedding; latency is measured
//     from the op's *intended* arrival time, so dispatcher lag counts
//     against the engine, not the clock.
//
// Per-op client-side latencies feed an obs::Histogram; the report also
// carries engine-side p50/p99 extracted from the engine MetricsRegistry's
// adp_request_latency_ms histogram as a before/after bucket delta, so a
// shared engine only contributes this run's observations.
//
// Semantics, mix grammar, and report fields: docs/WORKLOAD.md (kept in
// sync by tools/check_docs.py).

#ifndef ADP_WORKLOAD_DRIVER_H_
#define ADP_WORKLOAD_DRIVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "obs/metrics.h"
#include "workload/families.h"

namespace adp::workload {

/// One kind of driver operation.
enum class OpKind {
  kExecute,   // synchronous Execute from query text (plan-cache path)
  kPrepared,  // Execute through the family's bound PreparedQuery
  kStream,    // StreamAdp, drained to the terminal item
  kCancel,    // Submit, then immediately AdpTicket::Cancel
  kExpired,   // Submit with an already-expired deadline
};

/// Relative weights of the op kinds (need not sum to 1; all-zero means
/// pure kExecute). Pure aggregate — parsed by the docs drift-checker.
struct TrafficMix {
  double execute = 1.0;
  double prepared = 0.0;
  double stream = 0.0;
  double cancel = 0.0;
  double expired = 0.0;
};

/// One planned operation: which family, which op kind, which k.
struct ScheduledOp {
  int family = 0;
  OpKind kind = OpKind::kExecute;
  std::int64_t k = 1;
};

/// Driver knobs. Pure aggregate — parsed by the docs drift-checker.
struct DriverConfig {
  /// false: closed loop; true: open loop at `offered_rps`.
  bool open_loop = false;
  /// Closed loop: worker threads. Open loop: max concurrently drained
  /// streams (request ops are async and need no thread each).
  int concurrency = 4;
  /// Open loop only: offered arrival rate, ops per second.
  double offered_rps = 200.0;
  /// Total operations in the plan.
  int requests = 256;
  /// Per-op k is drawn uniformly from [1, max_k].
  std::int64_t max_k = 3;
  /// Plan seed: same seed + same families + same mix => identical plan.
  std::uint64_t seed = 1;
  TrafficMix mix;
};

/// Outcome buckets. Request ops (kExecute/kPrepared/kCancel/kExpired) fill
/// the request buckets; kStream ops fill the stream buckets. Every issued
/// op lands in exactly one bucket (OutcomesConsistent).
struct DriverOutcomes {
  std::uint64_t issued = 0;      // request ops issued
  std::uint64_t ok = 0;          // status OK (dedup/coalesce hits included)
  std::uint64_t cancelled = 0;   // status CANCELLED
  std::uint64_t expired = 0;     // status DEADLINE_EXCEEDED
  std::uint64_t shed = 0;        // status OVERLOADED
  std::uint64_t failed = 0;      // any other non-OK status
  std::uint64_t streams_issued = 0;  // stream ops issued
  std::uint64_t streams_ok = 0;      // terminal status OK
  std::uint64_t streams_torn_down = 0;  // terminal CANCELLED/EXPIRED/SHUTDOWN
  std::uint64_t streams_shed = 0;       // terminal OVERLOADED
  std::uint64_t streams_failed = 0;     // any other terminal status
  std::uint64_t stream_items = 0;  // items delivered across all streams
};

/// The result of one driver run.
struct DriverReport {
  DriverOutcomes outcomes;
  double wall_ms = 0.0;
  /// Completed ops (requests + streams, any outcome) per wall second.
  double throughput_ops_per_sec = 0.0;
  /// Client-observed per-op latency quantiles (ms). Open loop measures
  /// from the intended arrival time.
  double client_p50_ms = 0.0;
  double client_p99_ms = 0.0;
  /// Engine-side adp_request_latency_ms quantiles (ms) over exactly this
  /// run's observations (before/after registry snapshot delta).
  double engine_p50_ms = 0.0;
  double engine_p99_ms = 0.0;
  /// Sum over OK request responses of cost and output_count — a
  /// reproducibility fingerprint for cancel-free deterministic blends.
  std::int64_t answer_checksum = 0;
};

/// True iff every issued op landed in exactly one outcome bucket.
bool OutcomesConsistent(const DriverOutcomes& o);

/// Parses "execute:0.6,stream:0.2,cancel:0.1" (keys: execute, prepared,
/// stream, cancel, expired; unspecified keys are 0). Throws
/// std::invalid_argument on unknown keys or malformed numbers.
TrafficMix ParseTrafficMix(const std::string& text);

class LoadDriver {
 public:
  /// Registers each family's database with `engine` and prepares+binds
  /// each family's query, then builds the deterministic op plan.
  /// `families` must be non-empty; the engine must outlive the driver.
  LoadDriver(AdpEngine& engine, std::vector<FamilyInstance> families,
             const DriverConfig& config);

  /// The deterministic operation plan (stable across runs for one seed).
  const std::vector<ScheduledOp>& plan() const { return plan_; }

  const std::vector<FamilyInstance>& families() const { return families_; }

  /// Replays the plan against the engine in-process (open or closed loop
  /// per DriverConfig::open_loop). May be called repeatedly; each call
  /// replays the same plan and reports only its own observations.
  DriverReport Run();

  /// Replays the plan through an AdpNetServer at host:port (always closed
  /// loop: the wire client is blocking). Each worker thread holds its own
  /// connection, registers every family database on it, and PREPAREs every
  /// family query; kCancel ops use the CANCEL verb, kExpired ops a "+d0"
  /// deadline token. Engine-side quantiles still come from `engine`, which
  /// must be the instance behind the server (loopback).
  DriverReport RunOverNet(const std::string& host, int port);

 private:
  DriverReport RunClosed();
  DriverReport RunOpen();

  AdpEngine& engine_;
  std::vector<FamilyInstance> families_;
  DriverConfig config_;
  std::vector<DbId> db_ids_;
  std::vector<PreparedQuery> prepared_;
  std::vector<ScheduledOp> plan_;
};

}  // namespace adp::workload

#endif  // ADP_WORKLOAD_DRIVER_H_
