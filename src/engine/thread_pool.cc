#include "engine/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <climits>
#include <memory>
#include <utility>

namespace adp {
namespace {

// Which pool (if any) the current thread belongs to. Lets Submit detect
// worker reentrancy without any bookkeeping in the hot path.
thread_local const ThreadPool* tls_worker_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(1, num_threads);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

bool ThreadPool::IsWorkerThread() const { return tls_worker_pool == this; }

bool ThreadPool::RunsBefore(const Entry& a, const Entry& b) {
  if (a.priority != b.priority) return a.priority > b.priority;
  if (a.deadline != b.deadline) return a.deadline < b.deadline;
  return a.seq < b.seq;
}

void ThreadPool::Enqueue(std::function<void()> task, TaskAttrs attrs) {
  Entry e;
  e.fn = std::move(task);
  e.priority = attrs.priority;
  e.deadline = attrs.deadline.value_or(
      std::chrono::steady_clock::time_point::max());
  {
    std::lock_guard<std::mutex> lock(mu_);
    e.seq = next_seq_++;
    queue_.push_back(std::move(e));
    std::push_heap(queue_.begin(), queue_.end(),
                   [](const Entry& a, const Entry& b) {
                     return RunsBefore(b, a);
                   });
  }
  cv_.notify_one();
}

void ThreadPool::Submit(std::function<void()> task, TaskAttrs attrs) {
  if (IsWorkerThread()) {
    // A worker enqueueing and then waiting on the result would deadlock
    // once every worker does it (nested Submit); run inline instead.
    task();
    return;
  }
  Enqueue(std::move(task), attrs);
}

void ThreadPool::RunAll(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  if (tasks.size() == 1) {
    tasks.front()();
    return;
  }

  // Work-sharing: tasks are claimed by index from a shared counter. Helper
  // closures are offered to the pool, but the caller runs the same drain
  // loop, so the batch completes even if no worker ever becomes free —
  // which also makes nested RunAll (sharded Universe nodes inside sharded
  // Universe nodes) safe.
  struct Batch {
    std::vector<std::function<void()>> tasks;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex mu;
    std::condition_variable cv;
  };
  auto batch = std::make_shared<Batch>();
  batch->tasks = std::move(tasks);
  const std::size_t n = batch->tasks.size();

  auto drain = [batch, n] {
    for (;;) {
      const std::size_t i = batch->next.fetch_add(1);
      if (i >= n) return;
      batch->tasks[i]();
      if (batch->done.fetch_add(1) + 1 == n) {
        // Lock pairs with the caller's wait so the notify cannot slip in
        // between its predicate check and its sleep.
        std::lock_guard<std::mutex> lock(batch->mu);
        batch->cv.notify_all();
      }
    }
  };

  // Deliberately Enqueue, not Submit: helpers exit immediately once all
  // indices are claimed, so they may sit in the queue without harm, and
  // inline-running them here would serialize the batch. Maximum priority:
  // shard helpers extend a solve that is already running, so they must
  // never wait behind whole queued requests.
  const std::size_t helpers = std::min(n - 1, workers_.size());
  for (std::size_t h = 0; h < helpers; ++h) {
    Enqueue(drain, TaskAttrs{INT_MAX, std::nullopt});
  }

  drain();
  std::unique_lock<std::mutex> lock(batch->mu);
  batch->cv.wait(lock, [&] { return batch->done.load() == n; });
}

std::size_t ThreadPool::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size() + in_flight_;
}

std::size_t ThreadPool::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void ThreadPool::WorkerLoop() {
  tls_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      std::pop_heap(queue_.begin(), queue_.end(),
                    [](const Entry& a, const Entry& b) {
                      return RunsBefore(b, a);
                    });
      task = std::move(queue_.back().fn);
      queue_.pop_back();
      ++in_flight_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
    }
  }
}

}  // namespace adp
