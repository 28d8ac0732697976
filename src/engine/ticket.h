// AdpTicket: a cancellable, deadline-aware handle to one asynchronous
// engine submission.
//
// Every async path (Submit / SubmitAsync) returns a ticket.
// Cancel() delivers a kCancelled response to this request's caller
// immediately — whether the request is still queued, mid-solve, or joined
// onto another request's solve — and the underlying solve is torn down as
// aggressively as correctness allows:
//
//   * still queued, sole interest  -> the worker drops it without solving;
//   * mid-solve, sole interest     -> the solver aborts at the next
//                                     recursion node boundary;
//   * deduped (single-flight)      -> only this request's delivery is
//     cancelled; the shared solve itself is cancelled only when the leader
//     AND every joined waiter have cancelled, so one impatient caller
//     never kills work others still want.
//
// Deadlines (AdpRequest::deadline) ride the same teardown machinery,
// producing kDeadlineExceeded where Cancel() produces kCancelled — but
// detection is lazy: there is no timer thread, so an expiry is noticed
// when a worker dequeues the request, at solver node boundaries mid-solve,
// and at delivery time. A request stuck behind a saturated pool delivers
// its kDeadlineExceeded when a worker finally pops it, not at the deadline
// instant (an explicit Cancel() delivers immediately).
//
// Tickets are cheap shared handles; they may outlive the engine (a late
// Cancel() on a finished request is a harmless no-op that returns false).

#ifndef ADP_ENGINE_TICKET_H_
#define ADP_ENGINE_TICKET_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "engine/request.h"
#include "util/cancel.h"

namespace adp {

namespace obs {
class MetricsRegistry;
}  // namespace obs

namespace internal {

/// Cancellation aggregator of one single-flight solve. Every request
/// sharing the solve (the leader plus each deduped waiter) is a
/// participant. The *solve* token fires only when every participant has
/// cancelled; its deadline is armed only while every participant has one
/// (the latest of them), since the solve must stay alive as long as any
/// open-ended participant still wants the result.
class SolveCancelGroup {
 public:
  SolveCancelGroup() : solve_(CancelToken::Make()) {}

  /// The token threaded into the solver. Fired == the solve itself should
  /// stop (all participants cancelled, or the group deadline passed).
  const CancelToken& solve_token() const { return solve_; }

  /// Registers one more request sharing this solve. Fails (returns false)
  /// iff the solve token has already fired — the registration and the
  /// fired-check are atomic under the group mutex, so a successful joiner
  /// can never be handed a solve that was cancelled out from under it
  /// between probe and join.
  bool AddParticipant(
      const std::optional<std::chrono::steady_clock::time_point>& deadline);

  /// A participant cancelled; fires the solve token with `reason` once all
  /// participants have.
  void ParticipantCancelled(CancelReason reason);

 private:
  std::mutex mu_;
  CancelToken solve_;
  int participants_ = 0;
  int cancelled_ = 0;
  bool deadline_applies_ = true;  // false once a deadline-less joiner arrives
  std::optional<std::chrono::steady_clock::time_point> latest_deadline_;
};

/// Per-request delivery state shared between the engine, the ticket, and
/// (for deduped requests) the in-flight solve entry.
struct TicketImpl {
  TicketImpl() : own(CancelToken::Make()) {}

  /// This request's token: explicit Cancel() and the request's own
  /// deadline. Distinct from the group's solve token.
  CancelToken own;

  /// Exactly-once delivery guard for `done`.
  std::atomic<bool> delivered{false};

  /// The caller's completion callback. Invoked exactly once, by whichever
  /// of {worker completion, Cancel(), admission failure} wins the guard.
  std::function<void(AdpResponse)> done;

  /// The solve this request shares, once admitted. Null until then and for
  /// requests that never reach a solve (coalesce hits, shutdown).
  std::shared_ptr<SolveCancelGroup> group;

  /// The engine's registry, which counts this request's cancelled /
  /// deadline-expired outcome. Shared: a ticket may outlive the engine.
  std::shared_ptr<obs::MetricsRegistry> metrics;
};

/// Counts a kCancelled / kDeadlineExceeded outcome into `metrics`' cancelled
/// / deadline-expired counter; any other code counts nothing.
void CountTerminal(obs::MetricsRegistry& metrics, StatusCode code);

/// Delivers `resp` to `t` exactly once; returns whether this call performed
/// the delivery. Counts kCancelled/kDeadlineExceeded outcomes, and — when a
/// successful result arrives after the request's own deadline already fired
/// (possible when a deduped sibling kept the solve alive) — substitutes a
/// kDeadlineExceeded response. Never throws; a throwing `done` is absorbed.
bool Deliver(TicketImpl& t, AdpResponse resp);

}  // namespace internal

class AdpTicket {
 public:
  /// An inert ticket: valid() is false, Cancel() is a no-op.
  AdpTicket() = default;

  /// True iff this ticket tracks a real submission.
  bool valid() const { return impl_ != nullptr; }

  /// True once the response has been delivered (completed, failed,
  /// cancelled, or expired).
  bool done() const;

  /// Requests cancellation. Returns true iff this call cancelled the
  /// request — i.e. the caller's callback/future received kCancelled right
  /// here; false when the response was already delivered, the ticket was
  /// already cancelled, or the ticket is inert. Safe to call from any
  /// thread, any number of times, even after the engine is destroyed.
  bool Cancel();

 private:
  friend class AdpEngine;

  explicit AdpTicket(std::shared_ptr<internal::TicketImpl> impl)
      : impl_(std::move(impl)) {}

  std::shared_ptr<internal::TicketImpl> impl_;
};

}  // namespace adp

#endif  // ADP_ENGINE_TICKET_H_
