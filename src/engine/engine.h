// AdpEngine: a concurrent, plan-caching evaluation engine for ADP requests.
//
// The engine separates the two halves of an ADP(Q, D, k) computation:
//
//   static   — parse, selection pushdown (query side), dichotomy verdict,
//              linearization, Algorithm-2 dispatch tree. Query-complexity
//              work, independent of the data; memoized in a PlanCache keyed
//              by query text (plus the option knobs that influence
//              classification), and pinnable ahead of time via Prepare() ->
//              PreparedQuery. Every response carries the plan it was
//              solved against (AdpResponse::plan), and so does a stream
//              (ResultStream::plan), so a front end renders relation names
//              without a second lookup.
//   dynamic  — the data-dependent solve (ComputeAdp with AdpOptions::plan
//              set), run on a fixed-size worker pool.
//
// Databases are registered once and interned as shared immutable instances;
// each database's registry entry also caches its per-query positional
// bindings, so a batch of requests against one database shares a single
// bound copy. A PreparedQuery::Bind holds one binding in the handle, so
// the prepare-once / execute-many hot path performs no plan probes or
// binding probes at all.
//
// Failures are typed: every AdpResponse carries a Status (engine/status.h)
// whose code distinguishes parse errors, unknown databases/relations,
// cancellation, deadline expiry, and shutdown. Factory entry points
// (Prepare) return StatusOr.
//
// Mechanisms that keep the pool busy and the work deduplicated:
//
//   * intra-request sharding — one large request's Universe partition
//     groups (Algorithm 4) and Decompose connected components (Algorithm 5)
//     are fanned out across the pool via ThreadPool::RunAll
//     (EngineConfig::min_shard_groups / min_shard_components);
//   * async submission — SubmitAsync's callback is the one completion
//     path (Submit is its future-flavored wrapper); both hand back an
//     AdpTicket supporting Cancel(); AdpRequest::deadline bounds queue
//     wait + solve;
//   * one result table — requests are keyed by stable values (plan-cache
//     key, DbId, k, solve knobs, trace flag), so a text request and a
//     prepared one for the same work share one slot. A slot in flight is
//     joined by identical requests (AdpResponse::deduped; the shared solve
//     is cancelled only when every participant cancels); with
//     EngineConfig::coalesce_window_ms > 0 a completed slot answers
//     identical requests until the window passes (AdpResponse::coalesced).
//     Restricted requests have no stable key and never share;
//   * one solve pipeline — Execute, Submit and StreamAdp run the same
//     plan / bind / ComputeAdp path; a stream only adds an emitter that
//     delivers the ranked profile (k = 1..K) and witness set incrementally
//     through a backpressured ResultStream (engine/result_stream.h,
//     docs/STREAMING.md);
//   * one counter source — every counter lives in the MetricsRegistry and
//     is incremented there directly; counters() reads it.
//
// Thread safety: all public methods are safe to call concurrently,
// including from inside engine callbacks (nested submissions run inline
// rather than deadlocking the pool).
//
//   AdpEngine engine({.num_workers = 4});
//   DbId db = engine.RegisterDatabase(std::move(named_db));
//   auto prepared = engine.Prepare("Q(A) :- R1(A,B), R2(B)");
//   if (!prepared.ok()) return StatusExitCode(prepared.status().code());
//   prepared->Bind(db);
//   AdpResponse r = engine.Execute(*prepared, /*k=*/2);

#ifndef ADP_ENGINE_ENGINE_H_
#define ADP_ENGINE_ENGINE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/plan_cache.h"
#include "engine/request.h"
#include "engine/result_stream.h"
#include "engine/status.h"
#include "engine/thread_pool.h"
#include "engine/ticket.h"
#include "relational/database.h"
#include "util/stopwatch.h"

namespace adp {

namespace obs {
class Counter;
class Histogram;
class MetricsRegistry;
class TraceSink;
}  // namespace obs

/// A database whose relations are addressed by name. `relation_names` is
/// parallel to `db`'s instances; at request time each body atom of the
/// query is bound to the instance with the matching name. A query naming a
/// relation the database does not have fails with kUnknownRelation —
/// silently binding an empty instance would turn a typo into a wrong
/// answer.
/// When `relation_names` is empty the database is *positional*: it must
/// align with the query body index-for-index and is shared without copying.
struct NamedDatabase {
  std::vector<std::string> relation_names;
  Database db;
};

struct EngineConfig {
  /// Worker threads executing solves. Clamped to >= 1.
  int num_workers = 4;

  /// PlanCache capacity (0 = unbounded).
  std::size_t plan_cache_capacity = 1024;

  /// Binding-cache capacity per database, in entries (0 = unbounded). One
  /// entry per query relation-name sequence; dropped with the database.
  std::size_t binding_cache_capacity = 4096;

  /// Intra-request sharding, Universe axis: a Universe node with at least
  /// this many partition groups fans its sub-solves out across the worker
  /// pool (Parallelism::min_groups). 0 disables Universe sharding.
  std::size_t min_shard_groups = 4;

  /// Intra-request sharding, Decompose axis: a Decompose node with at
  /// least this many connected components besides its first (the one with
  /// the fewest tuples, solved first on the solving thread) fans their
  /// sub-solves out across the worker pool (Parallelism::min_components);
  /// the cross-product DP combining their profiles stays on the solving
  /// thread. 0 disables Decompose sharding. With both axes 0 every request
  /// runs single-threaded, parallel only across requests.
  std::size_t min_shard_components = 4;

  /// Dedup-aware admission window: a request identical to one that
  /// completed successfully within the last `coalesce_window_ms`
  /// milliseconds is answered from that request's completed result-table
  /// slot (at most 64 are kept) instead of re-solving. 0 disables
  /// coalescing (every request solves, modulo in-flight dedup). Serving a
  /// result up to this stale must be acceptable to the caller.
  double coalesce_window_ms = 0.0;

  /// StreamAdp: maximum witness tuples per kWitnesses StreamItem. Larger
  /// batches amortize per-item overhead; smaller ones bound per-item memory
  /// and tighten backpressure. 0 delivers the whole witness set as one
  /// batch. See docs/STREAMING.md.
  std::size_t stream_batch_tuples = 256;

  /// Load-shedding admission bound: an async request (Submit / SubmitAsync /
  /// StreamAdp) arriving while more than this many tasks wait on the pool
  /// queue is rejected with kOverloaded instead of being enqueued
  /// (EngineCounters::shed). Synchronous Execute is never shed —
  /// it occupies the caller's thread, not a queue slot. 0 = unbounded
  /// (never shed).
  std::size_t max_queue_depth = 0;
};

/// Monotonic counters, snapshot via AdpEngine::counters(): a plain read of
/// the engine's MetricsRegistry (obs/metrics.h) — see metrics() for the
/// registry itself, which additionally carries the latency histograms.
struct EngineCounters {
  /// Requests admitted — counted whatever the outcome, except kShutdown
  /// rejections (the engine is no longer serving).
  std::uint64_t requests = 0;
  /// Responses with a genuine error status (parse, unknown db/relation,
  /// invalid prepared handle, internal). Cancelled / expired requests are
  /// counted separately.
  std::uint64_t failures = 0;
  std::uint64_t plan_hits = 0;
  std::uint64_t plan_misses = 0;
  std::uint64_t binding_hits = 0;
  std::uint64_t binding_misses = 0;
  /// Requests served by joining an identical in-flight solve (the solve ran
  /// once; these received copies).
  std::uint64_t dedup_hits = 0;
  /// Requests served from a completed result-table slot (coalescing).
  std::uint64_t coalesce_hits = 0;
  /// Requests whose response was kCancelled (AdpTicket::Cancel won).
  std::uint64_t cancelled = 0;
  /// Requests whose response was kDeadlineExceeded.
  std::uint64_t deadline_expired = 0;
  /// Requests and streams rejected at admission with kOverloaded because
  /// the pool queue exceeded EngineConfig::max_queue_depth. Shed requests
  /// count in `requests` (they were offered) but not in `failures`.
  std::uint64_t shed = 0;
  /// Rollup of AdpStats::sharded_universe_nodes across completed solves:
  /// Universe nodes whose partition groups fanned out across the pool.
  /// Deduped/coalesced responses reuse the leader's solve and do not
  /// re-count its sharded nodes.
  std::uint64_t sharded_universe_nodes = 0;
  /// Rollup of AdpStats::sharded_decompose_nodes across completed solves:
  /// Decompose nodes whose component sub-solves fanned out across the pool.
  std::uint64_t sharded_decompose_nodes = 0;
  /// StreamAdp calls admitted, whatever their outcome (kShutdown rejections
  /// excepted, mirroring `requests`). Streams are counted here, not in
  /// `requests` — they are not request/response traffic.
  std::uint64_t streams_opened = 0;
  /// StreamItems delivered into stream buffers, terminal items included.
  std::uint64_t stream_items = 0;
  /// Streams torn down before a natural end: terminal status kCancelled
  /// (explicit Cancel/Close), kDeadlineExceeded, or kShutdown.
  std::uint64_t stream_cancelled = 0;
  std::size_t plan_cache_size = 0;
  std::size_t databases = 0;
};

class AdpEngine {
 public:
  explicit AdpEngine(const EngineConfig& config = {});
  ~AdpEngine();

  AdpEngine(const AdpEngine&) = delete;
  AdpEngine& operator=(const AdpEngine&) = delete;

  // --- Databases -----------------------------------------------------------

  /// Interns `db` and returns its handle. The instance is immutable from
  /// here on and shared by every request that names it.
  DbId RegisterDatabase(NamedDatabase db);

  /// Convenience: positional database (see NamedDatabase).
  DbId RegisterDatabase(Database db);

  /// The interned database, or nullptr for an unknown id.
  std::shared_ptr<const NamedDatabase> database(DbId id) const;

  /// Releases the database behind `id`: subsequent lookups fail with
  /// kUnknownDatabase and the instance's memory is freed once the last
  /// in-flight request holding it finishes. Ids are never reused, so a
  /// stale id can only ever miss — it cannot alias a later registration.
  /// Returns false for an unknown or already-released id. Long-lived
  /// front ends (the network server) call this when a session's
  /// databases go out of scope so registrations don't accumulate.
  bool UnregisterDatabase(DbId id);

  // --- Prepared queries ----------------------------------------------------

  /// Builds (or fetches from the plan cache) the static work for the query
  /// and returns a handle pinning it. `options` matters only through its
  /// classification-relevant knobs (use_singleton, universe_strategy,
  /// presence of restrictions); executions through the handle must use
  /// options agreeing on those knobs, or fail with kInvalidArgument.
  /// Call PreparedQuery::Bind(db) afterwards to also pin the binding.
  StatusOr<PreparedQuery> Prepare(const std::string& query_text,
                                  const AdpOptions& options = {});

  // --- Requests ------------------------------------------------------------

  /// Runs `req` synchronously in the calling thread. Never throws: failures
  /// are reported via AdpResponse::status. Leads the result-table slot
  /// when none exists (concurrent async arrivals then share this solve) but
  /// never *joins* one — an in-flight leader may still be queued behind
  /// other work, and the sync path keeps one-solve latency.
  AdpResponse Execute(const AdpRequest& req);

  /// Prepared-handle hot path: no plan or binding probes.
  AdpResponse Execute(const PreparedQuery& prepared, std::int64_t k,
                      const AdpOptions& options = {});

  /// Enqueues `req` on the worker pool. An identical in-flight request is
  /// joined instead of enqueued (the returned future then completes with a
  /// copy of the leader's response, deduped = true). If `ticket` is
  /// non-null it receives the request's cancellation handle.
  std::future<AdpResponse> Submit(AdpRequest req, AdpTicket* ticket = nullptr);

  /// Prepared-handle variant of Submit.
  std::future<AdpResponse> Submit(const PreparedQuery& prepared,
                                  std::int64_t k,
                                  const AdpOptions& options = {},
                                  AdpTicket* ticket = nullptr);

  /// Enqueues `req`; `done` is invoked exactly once with the response —
  /// by the worker that completed it, by the deduped leader's completion,
  /// or by AdpTicket::Cancel / deadline expiry (failures arrive as a
  /// response with the matching Status, never as an exception). When called
  /// from inside a pool worker the request runs — and `done` fires — inline
  /// before SubmitAsync returns. `done` should not throw; an exception
  /// escaping it is caught and dropped. Returns the request's ticket.
  AdpTicket SubmitAsync(AdpRequest req, std::function<void(AdpResponse)> done);

  // --- Streaming ----------------------------------------------------------

  /// Streaming ranked-witness enumeration: runs ONE solve for `req` on the
  /// worker pool and returns immediately with a ResultStream that yields
  /// kProfile items for k = 1..req.k (ascending, from the single DP —
  /// never per-k re-solves), then the final target's witness set in
  /// batches of EngineConfig::stream_batch_tuples, then a terminal kEnd
  /// item. Concatenated, the stream reproduces Execute(req)'s AdpSolution
  /// exactly (witness batches arrive in enumeration order and normalize to
  /// AdpSolution::tuples). Streams are cancellable (ResultStream::Cancel/Close),
  /// deadline-aware (req.deadline), closed by Shutdown() (terminal
  /// kShutdown), and never dedup/coalesce with other requests — every
  /// stream is its own solve. Item ordering, backpressure, and teardown
  /// semantics: docs/STREAMING.md. When called from inside a pool worker
  /// the stream is produced inline (fully buffered) before returning.
  ResultStream StreamAdp(AdpRequest req);

  /// Prepared-handle hot path variant: no plan or binding probes.
  ResultStream StreamAdp(const PreparedQuery& prepared, std::int64_t k,
                         const AdpOptions& options = {});

  // --- Lifecycle -----------------------------------------------------------

  /// Fail-fast shutdown gate: after this, every new request (and Prepare)
  /// is answered with kShutdown without solving. Requests already admitted
  /// drain normally; the destructor implies a drain either way. Idempotent.
  void Shutdown();

  // --- Introspection -------------------------------------------------------

  EngineCounters counters() const;
  int num_workers() const { return pool_.num_threads(); }

  /// The engine's metrics registry: the counters behind counters(), plus
  /// the latency histograms (adp_request_latency_ms, adp_queue_wait_ms,
  /// adp_solve_ms, adp_stream_first_item_ms — src/obs/names.h); its
  /// WritePrometheus backs the adp_netserver METRICS verb. The reference
  /// is valid only for the engine's lifetime; callers that must read the
  /// registry after the engine is gone (bench harness, the network server)
  /// take shared ownership via metrics_shared() instead.
  obs::MetricsRegistry& metrics() const;
  std::shared_ptr<obs::MetricsRegistry> metrics_shared() const;

 private:
  friend class PreparedQuery;

  /// The two cache identities of one request; solve extends plan.
  struct RequestKeys {
    std::string plan;   // plan-cache key (empty for prepared handles)
    std::string solve;  // result-table key; empty: the request never shares
  };

  /// One result-table entry. In flight it holds the shared solve's cancel
  /// group and the tickets waiting on it; once published with coalescing
  /// on, `response` is set and answers identical requests until
  /// `completed` falls out of the window. Guarded by mu_, except `group`,
  /// which is fixed at creation.
  struct ResultSlot {
    std::shared_ptr<internal::SolveCancelGroup> group;
    std::shared_ptr<internal::TicketImpl> leader;  // null for sync leaders
    std::vector<std::shared_ptr<internal::TicketImpl>> followers;
    std::shared_ptr<const AdpResponse> response;  // set once completed
    MonotonicClock::time_point completed;
  };

  /// What the result-table probe decided for one request: lead `lead`'s
  /// solve, take the `coalesced` response, or follow an in-flight solve
  /// (`joined`). None of them: the request was not allowed to lead.
  struct Admission {
    std::shared_ptr<ResultSlot> lead;
    std::shared_ptr<const AdpResponse> coalesced;
    bool joined = false;
  };

  /// A registered database and the bindings built from it, keyed by the
  /// query's body relation-name sequence.
  struct DbEntry {
    std::shared_ptr<const NamedDatabase> named;
    std::unordered_map<std::string, std::shared_ptr<const Database>> bindings;
  };

  RequestKeys KeysFor(const AdpRequest& req) const;

  /// kInvalidArgument when req.prepared belongs to another engine or its
  /// classification knobs disagree with req.options; OK otherwise.
  Status ValidatePrepared(const AdpRequest& req) const;

  /// Pins the binding for `db` into `prepared` (PreparedQuery::Bind body).
  Status BindPrepared(PreparedQuery& prepared, DbId db);

  std::shared_ptr<const CachedPlan> GetPlan(const AdpRequest& req,
                                            const std::string& plan_key,
                                            bool* hit);

  /// The binding of database `db` for `plan`'s body, from the database's
  /// registry entry or built and cached there. Throws EngineError
  /// (kUnknownDatabase, kUnknownRelation, kInvalidArgument).
  std::shared_ptr<const Database> BindDatabase(DbId db,
                                               const CachedPlan& plan);

  /// The one result-table probe, under mu_. A completed slot within the
  /// window is a coalesced hit; an in-flight slot is joined by `ticket`
  /// (sync callers, with a null ticket, never join and solve alone);
  /// otherwise the request leads a fresh slot — stored under `key`, or
  /// private when the request must not share (empty key, in-flight sync
  /// duplicate, or a database no longer registered, so no result outlives
  /// its database). With `may_lead` false no slot is created.
  Admission Admit(const AdpRequest& req, const std::string& key,
                  const std::shared_ptr<internal::TicketImpl>& ticket,
                  bool may_lead = true);

  /// Retires `slot`: keeps it as a completed slot when coalescing applies,
  /// else removes it, then delivers `resp` to its leader and followers.
  void Publish(const std::string& key, const std::shared_ptr<ResultSlot>& slot,
               const AdpResponse& resp);

  /// Removes `slot` from the table if it is still the entry for `key`.
  /// Requires mu_.
  void EraseSlot(const std::string& key, const ResultSlot* slot);

  /// The response of a request turned away before the result table:
  /// shutdown (not counted), an invalid prepared handle (counted as a
  /// request and a failure) or an already-expired deadline; nullopt when
  /// the request is admitted (and counted).
  std::optional<AdpResponse> Reject(const AdpRequest& req);

  /// Resolves the static work and database binding of `req` — prepared
  /// pin, or the request's one plan-cache lookup plus a binding-cache
  /// probe. `plan_key` is the precomputed plan-cache key (unused for
  /// prepared handles). `resp->plan`, `plan_cache_hit` and `plan_ms` are
  /// assigned before the binding step, so a binding failure leaves them
  /// filled. Throws EngineError/ParseError on failure. `sink`/`trace_parent`
  /// (nullable) wrap the two steps in adp.plan / adp.bind spans.
  void ResolveStatic(const AdpRequest& req, const std::string& plan_key,
                     std::shared_ptr<const Database>* bound,
                     AdpResponse* resp, obs::TraceSink* sink,
                     std::uint32_t trace_parent);

  /// The one solve pipeline behind Execute, Submit and StreamAdp: trace
  /// sink and root span, cancel check, plan + binding, ComputeAdp, timing
  /// and shard rollups, and the mapping of failures to a Status. Never
  /// dedups or counts the request. `cancel`, when non-null, is polled by
  /// the solver recursion; `queue_wait_ms` — how long the request sat on
  /// the pool — backdates the trace origin. With `emit` set (a stream) the
  /// output goes to it as it is produced (see ComputeAdp), and the run
  /// counts into neither the request latency nor failures; `*plan`, when
  /// `plan` is non-null, receives the resolved plan before the first
  /// emission (the response's `plan` arrives only with the return).
  AdpResponse Solve(const AdpRequest& req, const std::string& plan_key,
                    const CancelToken* cancel, double queue_wait_ms,
                    const AdpEmitter* emit = nullptr,
                    std::shared_ptr<const CachedPlan>* plan = nullptr);

  /// Solve for the leader of `slot`, then Publish. Never throws.
  AdpResponse SolveAndPublish(const AdpRequest& req, const RequestKeys& keys,
                              const std::shared_ptr<ResultSlot>& slot,
                              double queue_wait_ms);

  /// Stream producer: runs Solve with an emitter that slices the output
  /// into profile/witness items on `state` — publishing the resolved plan
  /// on `state` before the first of them — then the terminal kEnd item.
  /// Runs on a pool worker (or inline for nested calls).
  void ProduceStream(const AdpRequest& req,
                     const std::shared_ptr<internal::StreamState>& state);

  /// Fires the cancel token of every still-open stream with the shutdown
  /// flag set, so producers end promptly with terminal kShutdown. Called by
  /// Shutdown() and the destructor (before the pool joins).
  void CancelOpenStreams();

  /// Execute minus the terminal cancelled/expired counter bump (so the
  /// inline SubmitAsync path can count through Deliver instead).
  AdpResponse ExecuteImpl(const AdpRequest& req);

  bool IsShutdown() const;

  const EngineConfig config_;

  /// The metrics sink (obs/metrics.h), the one source of every counter.
  /// Instruments below point straight into it — their updates are
  /// lock-free relaxed atomics. shared_ptr: tickets and streams, which may
  /// outlive the engine, count into it too, and metrics_shared() lets
  /// callers keep it past a restarted engine.
  std::shared_ptr<obs::MetricsRegistry> registry_;
  obs::Counter* requests_ = nullptr;
  obs::Counter* failures_ = nullptr;
  obs::Counter* binding_hits_ = nullptr;
  obs::Counter* binding_misses_ = nullptr;
  obs::Counter* dedup_hits_ = nullptr;
  obs::Counter* coalesce_hits_ = nullptr;
  obs::Counter* shed_ = nullptr;
  obs::Counter* sharded_universe_nodes_ = nullptr;
  obs::Counter* sharded_decompose_nodes_ = nullptr;
  obs::Counter* traces_collected_ = nullptr;
  obs::Counter* streams_opened_ = nullptr;
  obs::Counter* stream_items_ = nullptr;
  obs::Counter* stream_cancelled_ = nullptr;
  obs::Histogram* request_latency_ms_ = nullptr;
  obs::Histogram* queue_wait_ms_ = nullptr;
  obs::Histogram* solve_ms_ = nullptr;
  obs::Histogram* stream_first_item_ms_ = nullptr;

  PlanCache plan_cache_;
  Parallelism sharding_;  // run_all bound to pool_; unset if disabled

  mutable std::mutex mu_;  // guards databases_, next_db_id_, results_,
                           // completed_, streams_, shutdown_
  std::unordered_map<DbId, DbEntry> databases_;
  DbId next_db_id_ = 0;  // ids are never reused: a released id stays dead
  std::unordered_map<std::string, std::shared_ptr<ResultSlot>> results_;
  /// Completed slots, oldest first: expired or past kRecentResultsCapacity
  /// ones are dropped from the front.
  std::deque<std::pair<std::string, std::shared_ptr<ResultSlot>>> completed_;
  std::vector<std::weak_ptr<internal::StreamState>> streams_;  // open streams
  bool shutdown_ = false;

  ThreadPool pool_;  // last member: workers must die before state above
};

}  // namespace adp

#endif  // ADP_ENGINE_ENGINE_H_
