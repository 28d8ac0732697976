#include "engine/result_stream.h"

#include <chrono>

#include "obs/metrics.h"

namespace adp {
namespace internal {
namespace {

/// A blocked producer re-polls its cancel token at this period even when no
/// consumer activity wakes it — deadline expiry has no notifier thread.
constexpr std::chrono::milliseconds kProducerPollPeriod{20};

}  // namespace

StreamState::StreamState(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void StreamState::MakeUnbounded() {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = static_cast<std::size_t>(-1);
}

void StreamState::Emit(StreamItem item) {
  std::unique_lock<std::mutex> lock(mu_);
  while (items_.size() >= capacity_ && !closed_) {
    // wait_for, not wait: a fired deadline must wake the producer even if
    // the consumer never touches the stream again.
    cv_.wait_for(lock, kProducerPollPeriod);
    if (cancel_.Check() != CancelReason::kNone && items_.size() >= capacity_) {
      // Cancelled while blocked on a full buffer: abort production rather
      // than wait for a consumer that may be gone. The catch ladder turns
      // this into the terminal item.
      throw CancelledError(cancel_.Check());
    }
  }
  if (closed_) throw CancelledError(CancelReason::kCancelled);
  items_.push_back(std::move(item));
  if (items_total != nullptr) items_total->Increment();
  cv_.notify_all();
}

void StreamState::Finish(StreamItem end) {
  const StatusCode code = end.status.code();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (finished_) return;  // defensive: at most one terminal
    finished_ = true;
    if (!closed_) {
      items_.push_back(std::move(end));
      if (items_total != nullptr) items_total->Increment();
    }
  }
  if (cancelled_total != nullptr &&
      (code == StatusCode::kCancelled || code == StatusCode::kDeadlineExceeded ||
       code == StatusCode::kShutdown)) {
    cancelled_total->Increment();
  }
  cv_.notify_all();
}

std::optional<StreamItem> StreamState::Next() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] {
    return !items_.empty() || closed_ || end_consumed_;
  });
  if (items_.empty()) return std::nullopt;  // closed or exhausted
  StreamItem item = std::move(items_.front());
  items_.pop_front();
  if (item.kind == StreamItem::Kind::kEnd) end_consumed_ = true;
  cv_.notify_all();  // wake a producer blocked on the capacity bound
  return item;
}

std::optional<StreamItem> StreamState::TryNext() {
  std::lock_guard<std::mutex> lock(mu_);
  if (items_.empty()) return std::nullopt;
  StreamItem item = std::move(items_.front());
  items_.pop_front();
  if (item.kind == StreamItem::Kind::kEnd) end_consumed_ = true;
  cv_.notify_all();
  return item;
}

void StreamState::Cancel() {
  cancel_.Cancel(CancelReason::kCancelled);
  std::lock_guard<std::mutex> lock(mu_);
  cv_.notify_all();
}

void StreamState::Close() {
  cancel_.Cancel(CancelReason::kCancelled);
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
  items_.clear();
  cv_.notify_all();
}

bool StreamState::done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_ || (end_consumed_ && items_.empty());
}

void StreamState::SetPlan(std::shared_ptr<const CachedPlan> plan) {
  std::lock_guard<std::mutex> lock(mu_);
  plan_ = std::move(plan);
}

std::shared_ptr<const CachedPlan> StreamState::plan() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plan_;
}

}  // namespace internal

ResultStream::ResultStream(std::shared_ptr<internal::StreamState> state)
    : state_(std::move(state)),
      close_guard_(nullptr, [state = state_](void*) { state->Close(); }) {}

std::optional<StreamItem> ResultStream::Next() {
  if (state_ == nullptr) return std::nullopt;
  return state_->Next();
}

std::optional<StreamItem> ResultStream::TryNext() {
  if (state_ == nullptr) return std::nullopt;
  return state_->TryNext();
}

void ResultStream::Cancel() {
  if (state_ != nullptr) state_->Cancel();
}

void ResultStream::Close() {
  if (state_ != nullptr) state_->Close();
}

bool ResultStream::done() const {
  return state_ == nullptr || state_->done();
}

std::shared_ptr<const CachedPlan> ResultStream::plan() const {
  return state_ == nullptr ? nullptr : state_->plan();
}

}  // namespace adp
