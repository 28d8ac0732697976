#include "engine/ticket.h"

#include "obs/metrics.h"
#include "obs/names.h"

namespace adp {
namespace internal {

void CountTerminal(obs::MetricsRegistry& metrics, StatusCode code) {
  if (code == StatusCode::kCancelled) {
    metrics.GetCounter(obs::kMCancelled).Increment();
  } else if (code == StatusCode::kDeadlineExceeded) {
    metrics.GetCounter(obs::kMDeadlineExpired).Increment();
  }
}

bool SolveCancelGroup::AddParticipant(
    const std::optional<std::chrono::steady_clock::time_point>& deadline) {
  std::lock_guard<std::mutex> lock(mu_);
  if (solve_.Check() != CancelReason::kNone) return false;
  ++participants_;
  if (!deadline.has_value()) {
    // An open-ended participant: the solve must not expire under it.
    deadline_applies_ = false;
    solve_.ClearDeadline();
  } else if (deadline_applies_) {
    if (!latest_deadline_.has_value() || *deadline > *latest_deadline_) {
      latest_deadline_ = *deadline;
      solve_.SetDeadline(*latest_deadline_);
    }
  }
  return true;
}

void SolveCancelGroup::ParticipantCancelled(CancelReason reason) {
  std::lock_guard<std::mutex> lock(mu_);
  ++cancelled_;
  if (cancelled_ >= participants_) solve_.Cancel(reason);
}

bool Deliver(TicketImpl& t, AdpResponse resp) {
  if (resp.status.ok() &&
      t.own.Check() == CancelReason::kDeadlineExceeded) {
    // The result exists, but this request's own deadline passed first
    // (e.g. a deduped sibling without a deadline kept the solve running).
    AdpResponse expired;
    expired.status = Status(StatusCode::kDeadlineExceeded,
                            "deadline exceeded before the result arrived");
    expired.plan = std::move(resp.plan);
    expired.plan_cache_hit = resp.plan_cache_hit;
    expired.deduped = resp.deduped;
    resp = std::move(expired);
  }
  if (t.delivered.exchange(true, std::memory_order_acq_rel)) return false;
  if (t.metrics != nullptr) CountTerminal(*t.metrics, resp.status.code());
  if (t.done) {
    try {
      t.done(std::move(resp));
    } catch (...) {
      // A throwing user callback must not starve other waiters, break the
      // engine's never-throws contract, or kill a worker thread.
    }
  }
  return true;
}

}  // namespace internal

bool AdpTicket::done() const {
  return impl_ == nullptr ||
         impl_->delivered.load(std::memory_order_acquire);
}

bool AdpTicket::Cancel() {
  if (impl_ == nullptr) return false;
  // The own-token transition is the once-only gate: a second Cancel(), or a
  // Cancel() racing a deadline expiry, must not double-count the group
  // participant.
  if (!impl_->own.Cancel(CancelReason::kCancelled)) return false;
  AdpResponse resp;
  resp.status = Status(StatusCode::kCancelled, "cancelled by caller");
  const bool delivered = internal::Deliver(*impl_, std::move(resp));
  if (impl_->group != nullptr) {
    impl_->group->ParticipantCancelled(CancelReason::kCancelled);
  }
  return delivered;
}

}  // namespace adp
