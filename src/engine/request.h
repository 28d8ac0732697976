// Request/response/handle types of the ADP engine.

#ifndef ADP_ENGINE_REQUEST_H_
#define ADP_ENGINE_REQUEST_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "engine/status.h"
#include "solver/compute_adp.h"
#include "solver/solution.h"

namespace adp {

class AdpEngine;
class Database;
struct CachedPlan;

namespace obs {
struct Trace;  // obs/trace.h; forward-declared to keep this header light
}  // namespace obs

/// Handle of a database registered with an AdpEngine.
using DbId = int;
inline constexpr DbId kInvalidDbId = -1;

/// A handle pinning the cached static work of one query — parsed form,
/// dichotomy verdict, dispatch plan, fingerprint (CachedPlan) — and, once
/// Bind() has been called, one database binding. Obtained from
/// AdpEngine::Prepare.
///
/// Executing through a bound handle is the prepare-once / execute-many hot
/// path: the engine skips plan-cache and binding-cache probes entirely and
/// goes straight to the data-dependent solve.
///
/// Handles are cheap to copy (shared immutable state) and safe to use from
/// any thread, but must not outlive the engine that prepared them, and a
/// handle is only valid with the engine it came from.
class PreparedQuery {
 public:
  PreparedQuery() = default;

  /// True iff this handle came from a successful Prepare.
  bool valid() const { return plan_ != nullptr; }

  /// True iff Bind pinned a database binding.
  bool bound() const { return bound_ != nullptr; }

  /// Pins the binding for `db` (positional share or by-name bind, resolved
  /// once here instead of per request). Rebinding replaces the pin.
  Status Bind(DbId db);

  /// Database pinned by Bind, or kInvalidDbId.
  DbId bound_db() const { return db_; }

  /// The pinned plan; nullptr when !valid().
  const std::shared_ptr<const CachedPlan>& plan() const { return plan_; }

 private:
  friend class AdpEngine;

  AdpEngine* engine_ = nullptr;
  std::shared_ptr<const CachedPlan> plan_;
  std::shared_ptr<const Database> bound_;  // set by Bind
  DbId db_ = kInvalidDbId;
  std::string plan_key_;     // the plan-cache key of plan_
  std::string option_bits_;  // classification knobs the plan was built with
};

/// One ADP(Q, D, k) request. The query is given as Datalog-style text
/// (parsed once, then served from the plan cache) or as a PreparedQuery
/// handle whose static work — and, when bound, database binding — was
/// resolved ahead of time. A parsed ConjunctiveQuery is sent as its
/// ToString(), which round-trips through the parser.
struct AdpRequest {
  /// Query text, e.g. "Q(A) :- R1(A,B), R2(B)". Used when `prepared` is
  /// not set.
  std::string query_text;

  /// Prepared handle; wins over `query_text` when valid. When bound it
  /// also supplies the database and `db` is ignored.
  PreparedQuery prepared;

  /// Database handle from AdpEngine::RegisterDatabase. Ignored when
  /// `prepared` is bound.
  DbId db = kInvalidDbId;

  /// Deletion target (number of output tuples to remove).
  std::int64_t k = 0;

  /// Absolute deadline. A request whose deadline passes while still queued
  /// is dropped without ever solving; one that expires mid-solve aborts at
  /// the next recursion node boundary. Either way the response arrives
  /// with Status kDeadlineExceeded.
  std::optional<std::chrono::steady_clock::time_point> deadline;

  /// Scheduling priority on the worker-pool queue. Higher runs first;
  /// within a priority level the earliest deadline dequeues first
  /// (requests without a deadline sort after every deadlined one), then
  /// FIFO. 0 is the default traffic class.
  int priority = 0;

  /// Stream witnesses at every intermediate k (1..k-1) too, not only at
  /// the final target. Only meaningful for StreamAdp; each intermediate
  /// batch is tagged with its own StreamItem::k. Off by default — the
  /// extra report() calls cost work proportional to the sum of the
  /// intermediate targets.
  bool stream_intermediate_witnesses = false;

  /// Collect a per-request span trace (obs/trace.h): the engine wires a
  /// TraceSink through the request pipeline and the solver recursion, and
  /// the response carries the recorded Trace. Traced requests never
  /// dedup/coalesce with untraced ones (a shared response could not say
  /// whose trace it carries). Off by default — the untraced path costs one
  /// pointer compare per recursion node.
  bool collect_trace = false;

  /// Solver knobs. `options.plan`, `options.stats`, `options.parallelism`,
  /// `options.cancel`, and `options.trace` are engine-managed and ignored;
  /// `options.restrictions`, if set, must outlive the request.
  AdpOptions options;
};

/// Result of one request.
struct AdpResponse {
  /// Typed outcome: status.ok() iff `solution` is valid; otherwise code()
  /// identifies the failure (kParseError, kUnknownDatabase,
  /// kUnknownRelation, kCancelled, kDeadlineExceeded, kShutdown, ...) and
  /// message() carries the detail.
  Status status;

  /// Shorthand for status.ok().
  bool ok() const { return status.ok(); }

  AdpSolution solution;

  /// Recursion statistics of this solve, including intra-request sharding
  /// engagement (AdpStats::sharded_universe_nodes /
  /// sharded_decompose_nodes). Deduped and coalesced responses carry a copy
  /// of the leader solve's stats.
  AdpStats stats;

  /// The cached static work the request was solved against: the prepared
  /// handle's pin, or the plan its one plan-cache lookup returned. Set as
  /// soon as the plan resolves, so a binding failure still carries it;
  /// null when the query did not parse or the request never reached the
  /// plan step. Deduped and coalesced copies carry the leader's plan (the
  /// result key extends the plan key, so it is the same query). Callers
  /// render relation names from plan->query.
  std::shared_ptr<const CachedPlan> plan;

  /// True iff the static work was served without building (a plan-cache
  /// hit, or a PreparedQuery pin).
  bool plan_cache_hit = false;

  /// True iff this response was served by joining an identical in-flight
  /// solve (cross-request single-flight deduplication): solution, stats,
  /// and timings are copies of the leader request's.
  bool deduped = false;

  /// True iff this response was served from a completed slot of the
  /// engine's result table: an identical request completed within
  /// EngineConfig::coalesce_window_ms and its response was reused without a
  /// new solve.
  bool coalesced = false;

  /// Wall-clock timings. `plan_ms` covers plan-cache lookup including any
  /// miss-path construction (parse + classification + linearization);
  /// `solve_ms` is the data-dependent solve; `total_ms` the whole request;
  /// `queue_ms` is time spent queued on the worker pool before the pipeline
  /// started (0 for synchronous Execute).
  double plan_ms = 0.0;
  double solve_ms = 0.0;
  double total_ms = 0.0;
  double queue_ms = 0.0;

  /// The recorded span trace, set iff AdpRequest::collect_trace was true
  /// and the pipeline ran (deduped/coalesced responses carry the leader
  /// solve's trace). Export with Trace::WriteJson.
  std::shared_ptr<const obs::Trace> trace;
};

}  // namespace adp

#endif  // ADP_ENGINE_REQUEST_H_
