// ResultStream: the consumer handle of AdpEngine::StreamAdp, the engine's
// streaming ranked-witness enumeration path.
//
// Where Execute materializes one AdpResponse — one cost, one witness set,
// deep-copied as a unit — StreamAdp runs the *same pipeline and ComputeAdp
// call* (one DP, never per-k re-solves) with an emitter attached, and
// delivers its result as a sequence of typed StreamItems:
//
//   1. zero or more kProfile items, k = 1, 2, ..., K in strictly ascending
//      order: cost[k] = tuples to delete to remove >= k outputs. Costs are
//      nondecreasing (the DP profile is monotone);
//   2. zero or more kWitnesses items: the witness set for the final target
//      K, split into batches of at most EngineConfig::stream_batch_tuples
//      tuples. Batches arrive in *enumeration order* — the reporter's
//      output is sliced straight into batches, with no global sort/dedup
//      or monolithic response assembly ahead of the first batch — which is
//      what makes time-to-first-witness beat a monolithic response;
//   3. exactly one kEnd item carrying the terminal Status plus the solve
//      summary (exactness, feasibility, output count, stats, timings).
//
// Concatenating a stream reproduces Execute's AdpSolution exactly: the last
// kProfile item's cost is AdpSolution::cost, the kWitnesses batches
// concatenate to AdpSolution::tuples up to normalization (apply
// NormalizeTupleRefs to the concatenation to obtain the identical sorted,
// deduplicated vector), and the kEnd item carries
// exact/feasible/output_count/removed_outputs. Every stream is terminated
// by a kEnd item — cancellation, deadline expiry, shutdown, and errors all
// arrive as its Status.
//
// Backpressure: items travel through a small bounded buffer; a producer
// that outruns the consumer blocks until Next()/TryNext() makes room (or
// the stream is cancelled). Cancel() fires the stream's CancelToken — the
// solver aborts at the next recursion node boundary and the reporter loops
// stop mid-enumeration; Close() additionally discards buffered items and
// detaches the consumer. Dropping the last ResultStream handle implies
// Close(), so an abandoned stream can never wedge a worker.
//
// The protocol contract lives in docs/STREAMING.md (drift-checked by CI
// against this header).

#ifndef ADP_ENGINE_RESULT_STREAM_H_
#define ADP_ENGINE_RESULT_STREAM_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "engine/status.h"
#include "solver/compute_adp.h"
#include "solver/solution.h"
#include "util/cancel.h"
#include "util/stopwatch.h"

namespace adp {

struct CachedPlan;  // engine/plan_cache.h

namespace obs {
class Counter;
class MetricsRegistry;
struct Trace;  // obs/trace.h; forward-declared to keep this header light
}  // namespace obs

/// One item of a result stream. Which fields are meaningful depends on
/// `kind`; the rest keep their defaults.
struct StreamItem {
  enum class Kind {
    kProfile,    // one (k, cost) increment of the ranked profile
    kWitnesses,  // one bounded batch of witness tuples for the final target
    kEnd,        // terminal: Status + solve summary; always the last item
  };
  Kind kind = Kind::kEnd;

  /// kProfile: the target this increment covers (1-based, ascending).
  /// kWitnesses: the target whose witness set this batch belongs to — the
  /// request's k on the default path, or an intermediate 1..k when
  /// AdpRequest::stream_intermediate_witnesses is set.
  std::int64_t k = 0;

  /// kProfile: minimum deletions removing >= k outputs. kEnd: the final
  /// target's cost (== the last kProfile item's). kInfCost when infeasible.
  std::int64_t cost = 0;

  /// kProfile/kEnd: false iff `cost` is the infeasible sentinel (target
  /// unreachable — k exceeds |Q(D)|, or §9 restrictions pin every useful
  /// tuple).
  bool feasible = true;

  /// kWitnesses: the next batch, at most EngineConfig::stream_batch_tuples
  /// tuples, in enumeration order. The concatenation of all batches tagged
  /// with the request's final target (`k`), normalized
  /// (NormalizeTupleRefs), equals AdpSolution::tuples.
  std::vector<TupleRef> witnesses;

  /// kEnd: terminal outcome. ok() iff the stream completed; kCancelled,
  /// kDeadlineExceeded, kShutdown, and genuine errors arrive here.
  Status status;

  /// kEnd: true iff every sub-solver was exact — it qualifies every
  /// kProfile cost and the witness set at once (exactness is a property of
  /// the one underlying solve, not of individual items).
  bool exact = true;

  /// kEnd: |Q(D)| before any deletion.
  std::int64_t output_count = 0;

  /// kEnd: outputs actually removed by the streamed witnesses; -1 unless
  /// AdpOptions::verify was set (mirrors AdpSolution::removed_outputs).
  std::int64_t removed_outputs = -1;

  /// kEnd: recursion statistics of the one underlying solve.
  AdpStats stats;

  /// kEnd: true iff the static work was served without building.
  bool plan_cache_hit = false;

  /// kEnd: wall-clock timings, as in AdpResponse. `solve_ms` covers the DP
  /// plus all item production (witness enumeration included); `queue_ms`
  /// is time spent queued on the worker pool before production started, so
  /// `queue_ms + total_ms` is the end-to-end time a consumer experienced
  /// (the figure the adp_netserver slow-query log thresholds on).
  double plan_ms = 0.0;
  double solve_ms = 0.0;
  double total_ms = 0.0;
  double queue_ms = 0.0;

  /// kEnd: the recorded span trace, set iff AdpRequest::collect_trace was
  /// true (obs/trace.h; export with Trace::WriteJson). Null on every other
  /// item kind.
  std::shared_ptr<const obs::Trace> trace;
};

namespace internal {

/// Shared state of one stream: a bounded item buffer between the producing
/// worker and the consuming ResultStream handle, plus the stream's cancel
/// token. All methods are thread-safe.
class StreamState {
 public:
  explicit StreamState(std::size_t capacity);

  /// Producer: blocks while the buffer is full; throws CancelledError once
  /// the consumer has closed the stream (the solve must stop, not spin).
  /// A fired cancel token does NOT make Emit throw — the producer polls the
  /// token itself at its loop boundaries so teardown stays cooperative.
  void Emit(StreamItem item);

  /// Producer: appends the terminal item (exempt from the capacity bound)
  /// and marks the stream finished. Counts cancelled-flavored terminals.
  void Finish(StreamItem end);

  /// Consumer: blocks for the next item; nullopt once the terminal item has
  /// been consumed or the stream was closed.
  std::optional<StreamItem> Next();

  /// Consumer: non-blocking Next(); nullopt also when no item is ready yet.
  std::optional<StreamItem> TryNext();

  /// Fires the stream's cancel token (reason kCancelled) and wakes a
  /// blocked producer. Buffered items stay readable; the terminal item will
  /// report why the solve stopped.
  void Cancel();

  /// Cancel() plus: discards buffered items and detaches the consumer —
  /// every later Next()/TryNext() returns nullopt immediately.
  void Close();

  /// True once no further item will ever be returned (terminal consumed,
  /// or stream closed).
  bool done() const;

  /// Lifts the capacity bound. Used for inline (nested) production, where
  /// no consumer can drain concurrently.
  void MakeUnbounded();

  /// Producer: publishes the plan the stream is solved against. Called
  /// before the first Emit, so under the buffer mutex every item a
  /// consumer takes was published after it.
  void SetPlan(std::shared_ptr<const CachedPlan> plan);
  std::shared_ptr<const CachedPlan> plan() const;

  const CancelToken& cancel_token() const { return cancel_; }
  void NoteShutdown() { shutdown_.store(true, std::memory_order_release); }
  bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  /// The engine's registry and this stream's item / cancelled counters in
  /// it (shared: a stream may outlive the engine). Unset for streams
  /// rejected at shutdown, which count nowhere.
  std::shared_ptr<obs::MetricsRegistry> metrics;
  obs::Counter* items_total = nullptr;
  obs::Counter* cancelled_total = nullptr;

  /// When StreamAdp admitted the stream (set by the engine before the
  /// producer is enqueued); the producer measures queue wait and
  /// time-to-first-item from it.
  MonotonicClock::time_point opened{};

 private:
  const CancelToken cancel_ = CancelToken::Make();
  std::atomic<bool> shutdown_{false};

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<StreamItem> items_;
  std::shared_ptr<const CachedPlan> plan_;
  std::size_t capacity_;
  bool finished_ = false;      // terminal item pushed
  bool closed_ = false;        // consumer detached
  bool end_consumed_ = false;  // terminal item handed out
};

}  // namespace internal

/// The consumer handle of one StreamAdp call. Cheap to copy (copies share
/// the stream); the stream is closed when the last handle is dropped. A
/// handle may outlive the engine: buffered items and the terminal Status
/// stay readable (the engine's destructor cancels still-running producers
/// first, so the terminal always arrives).
class ResultStream {
 public:
  /// An inert stream: valid() is false, done() is true, Next() is nullopt.
  ResultStream() = default;

  /// True iff this handle came from StreamAdp.
  bool valid() const { return state_ != nullptr; }

  /// Blocks for the next item. nullopt once the stream is exhausted — the
  /// kEnd item was already returned — or closed. The kEnd item itself IS
  /// returned (it carries the terminal Status).
  std::optional<StreamItem> Next();

  /// Non-blocking Next(): nullopt when no item is ready *or* the stream is
  /// exhausted — disambiguate with done().
  std::optional<StreamItem> TryNext();

  /// Requests cancellation of the producing solve (terminal Status
  /// kCancelled unless a result/failure already won). Buffered items remain
  /// readable. Idempotent; harmless after completion.
  void Cancel();

  /// Cancel() plus: discards buffered items and ends consumption — every
  /// later Next()/TryNext() returns nullopt. Implied when the last handle
  /// is dropped.
  void Close();

  /// True once no further item will ever arrive (terminal consumed, or
  /// stream closed). Inert handles are done.
  bool done() const;

  /// The cached static work the stream is solved against (the same pointer
  /// an equivalent request's AdpResponse::plan carries); render witness
  /// relation names from plan()->query. Set before the first item is
  /// produced, so it is non-null once any item has arrived; null before
  /// that, for a stream whose query did not parse, and for inert handles.
  std::shared_ptr<const CachedPlan> plan() const;

 private:
  friend class AdpEngine;

  explicit ResultStream(std::shared_ptr<internal::StreamState> state);

  std::shared_ptr<internal::StreamState> state_;
  std::shared_ptr<void> close_guard_;  // Close() when the last copy dies
};

}  // namespace adp

#endif  // ADP_ENGINE_RESULT_STREAM_H_
