// Thread-safe, single-flight LRU cache of per-query static work.
//
// A CachedPlan bundles everything about an ADP request that does not depend
// on the data: the parsed query, the dichotomy verdict (IsPtime / triad
// witness / linearization), and the compiled Algorithm-2 dispatch tree,
// rooted at the Lemma-12 residual query. Building one costs a parse, the
// tree's compile and several query-complexity searches (the linearization
// alone is an exhaustive permutation search); serving one is a hash lookup.
//
// Concurrency: lookups share one mutex, but plan *construction* happens
// outside it. Concurrent requests for the same key are single-flighted —
// the first caller builds, the rest block on a shared_future — so a burst
// of identical queries does the static work exactly once.
//
// Entries are handed out as shared_ptr<const CachedPlan>, so holders —
// in-flight solves, responses and streams (AdpResponse::plan,
// ResultStream::plan), and PreparedQuery handles, which pin their plan for
// the handle's whole lifetime — keep a plan alive across LRU eviction; the
// cache only controls what future lookups can *find*.

#ifndef ADP_ENGINE_PLAN_CACHE_H_
#define ADP_ENGINE_PLAN_CACHE_H_

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "dichotomy/classification.h"
#include "query/query.h"
#include "solver/plan.h"

namespace adp {

namespace obs {
class Counter;
class Gauge;
class MetricsRegistry;
}  // namespace obs

/// Immutable per-query static work, shared across requests and threads.
struct CachedPlan {
  /// The parsed query, selections intact. Requests are solved against this
  /// instance, so a cached parse is reused verbatim.
  ConjunctiveQuery query;

  /// Dichotomy analysis of the residual query (dispatch.query).
  DichotomyVerdict verdict;

  /// Compiled Algorithm-2 dispatch tree, fed to AdpOptions::plan. Its root
  /// query is the residual after Lemma-12 selection pushdown (== `query`
  /// when selection-free), matching what ComputeAdp recurses on.
  DispatchPlan dispatch;

  /// 64-bit canonical fingerprint of `query`.
  std::uint64_t fingerprint = 0;
};

class PlanCache {
 public:
  /// `capacity` bounds the number of cached plans (LRU eviction); 0 means
  /// unbounded. With `metrics` set, lookups count into its plan-cache hit
  /// and miss counters and the size gauge tracks the entry count.
  explicit PlanCache(std::size_t capacity = 1024,
                     obs::MetricsRegistry* metrics = nullptr);

  using Builder = std::function<std::shared_ptr<const CachedPlan>()>;

  /// Returns the plan for `key`, invoking `builder` on a miss. Throws
  /// whatever `builder` throws (for every caller waiting on the same
  /// in-flight build); a failed build is not cached.
  /// `hit`, if non-null, receives whether the lookup was served from cache.
  std::shared_ptr<const CachedPlan> GetOrBuild(const std::string& key,
                                               const Builder& builder,
                                               bool* hit = nullptr);

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    std::shared_future<std::shared_ptr<const CachedPlan>> plan;
    std::list<std::string>::iterator lru_pos;
    /// Identity of the insertion, so a failed build only removes its own
    /// entry (the key may have been evicted and re-inserted meanwhile).
    std::uint64_t generation = 0;
  };

  void Touch(Entry& entry);  // requires mu_ held
  void Resized();            // requires mu_ held

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;  // front = most recently used
  std::uint64_t next_generation_ = 0;
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Gauge* size_ = nullptr;
};

}  // namespace adp

#endif  // ADP_ENGINE_PLAN_CACHE_H_
