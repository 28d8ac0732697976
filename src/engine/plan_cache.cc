#include "engine/plan_cache.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/names.h"

namespace adp {

PlanCache::PlanCache(std::size_t capacity, obs::MetricsRegistry* metrics)
    : capacity_(capacity) {
  if (metrics != nullptr) {
    hits_ = &metrics->GetCounter(obs::kMPlanCacheHits);
    misses_ = &metrics->GetCounter(obs::kMPlanCacheMisses);
    size_ = &metrics->GetGauge(obs::kMPlanCacheSize);
  }
}

void PlanCache::Touch(Entry& entry) {
  lru_.splice(lru_.begin(), lru_, entry.lru_pos);
  entry.lru_pos = lru_.begin();
}

void PlanCache::Resized() {
  if (size_ != nullptr) size_->Set(static_cast<std::int64_t>(entries_.size()));
}

std::shared_ptr<const CachedPlan> PlanCache::GetOrBuild(const std::string& key,
                                                        const Builder& builder,
                                                        bool* hit) {
  std::promise<std::shared_ptr<const CachedPlan>> promise;
  std::shared_future<std::shared_ptr<const CachedPlan>> fut;
  bool miss = false;
  std::uint64_t my_generation = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      if (hits_ != nullptr) hits_->Increment();
      Touch(it->second);
      fut = it->second.plan;
    } else {
      if (misses_ != nullptr) misses_->Increment();
      miss = true;
      fut = promise.get_future().share();
      lru_.push_front(key);
      my_generation = ++next_generation_;
      entries_.emplace(key, Entry{fut, lru_.begin(), my_generation});
      while (capacity_ != 0 && entries_.size() > capacity_ &&
             lru_.back() != key) {
        entries_.erase(lru_.back());
        lru_.pop_back();
      }
      Resized();
    }
  }

  if (miss) {
    try {
      promise.set_value(builder());
    } catch (...) {
      promise.set_exception(std::current_exception());
      // Drop the failed entry so later requests retry — but only if it is
      // still *our* insertion, not a successor that replaced it after an
      // eviction.
      std::lock_guard<std::mutex> lock(mu_);
      auto it = entries_.find(key);
      if (it != entries_.end() && it->second.generation == my_generation) {
        lru_.erase(it->second.lru_pos);
        entries_.erase(it);
        Resized();
      }
    }
  }

  if (hit != nullptr) *hit = !miss;
  return fut.get();  // rethrows a failed build for every waiter
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace adp
