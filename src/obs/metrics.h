// MetricsRegistry: thread-safe named counters, gauges, and log-bucketed
// latency histograms, with a Snapshot() API and Prometheus text exposition.
//
// The registry is the engine's one sink for numeric observability:
// EngineCounters is assembled as a *view* over it (engine.cc), the
// `adp_netserver` METRICS verb serializes it, and the load driver reads
// its request-latency quantiles. Metric names come from
// src/obs/names.h — the catalog CI drift-checks against
// docs/OBSERVABILITY.md.
//
// Concurrency model: instrument registration (GetCounter / GetGauge /
// GetHistogram) takes the registry mutex once per *name*; the returned
// reference is stable for the registry's lifetime, so hot paths hold a
// pointer and update lock-free (relaxed atomics). Updates are monotonic or
// idempotent, so torn snapshots cannot happen — a Snapshot() observes each
// instrument atomically, though not the set of instruments as one instant.

#ifndef ADP_OBS_METRICS_H_
#define ADP_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace adp::obs {

/// Monotonic counter, increment-only.
class Counter {
 public:
  void Increment(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t Value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (cache sizes, registered databases).
class Gauge {
 public:
  void Set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(std::int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t Value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// One histogram's state at a point in time, with quantile estimation.
struct HistogramSnapshot {
  /// bucket[i] counts observations v with bounds[i-1] < v <= bounds[i]
  /// (bucket 0: v <= bounds[0]); the last bucket is the overflow bucket
  /// and has no finite bound.
  std::vector<std::uint64_t> buckets;
  /// Upper bounds of the finite buckets; parallel to buckets[0..n-2].
  std::vector<double> bounds;
  std::uint64_t count = 0;
  double sum = 0.0;

  /// Upper bound of the bucket holding the ceil(p * count)-th smallest
  /// observation (p in [0, 1]). The true quantile q satisfies
  /// Quantile(p)/growth < q <= Quantile(p) for in-range observations —
  /// a one-bucket-factor guarantee, tested against a sorted-vector oracle
  /// in tests/obs_test.cc. 0 when the histogram is empty.
  double Quantile(double p) const;
};

/// Log-bucketed latency histogram (milliseconds). Fixed geometric bucket
/// boundaries: bucket i covers (kFirstUpperMs * 2^(i-1), kFirstUpperMs * 2^i]
/// for i >= 1 and [0, kFirstUpperMs] for i == 0, spanning 1 µs to ~9 days
/// before overflow. Observations are two relaxed atomic updates.
class Histogram {
 public:
  /// Upper bound of the first bucket: 1 microsecond, in milliseconds.
  static constexpr double kFirstUpperMs = 0.001;
  /// Finite buckets; bucket kNumBuckets is the overflow bucket.
  static constexpr int kNumBuckets = 40;

  /// Upper bound of finite bucket `i` (kFirstUpperMs * 2^i).
  static double UpperBound(int i);

  /// Index of the bucket `value_ms` falls in (<= 0 and NaN land in bucket
  /// 0; values beyond the last finite bound land in the overflow bucket).
  static int BucketFor(double value_ms);

  void Observe(double value_ms);

  std::uint64_t Count() const;
  double Sum() const;
  HistogramSnapshot Snapshot() const;

  /// Shorthand for Snapshot().Quantile(p).
  double Quantile(double p) const { return Snapshot().Quantile(p); }

 private:
  std::atomic<std::uint64_t> buckets_[kNumBuckets + 1] = {};
  std::atomic<std::uint64_t> count_{0};
  // Bits of a double, CAS-accumulated: std::atomic<double>::fetch_add is
  // not guaranteed lock-free everywhere, and the sum is cold-path-read.
  std::atomic<std::uint64_t> sum_bits_{0};
};

/// Full-registry snapshot: plain values, safe to read without the registry.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers `name` on first use; later calls return the same instrument.
  /// The reference is stable for the registry's lifetime. A name must keep
  /// one instrument kind — reusing it with a different kind throws
  /// std::logic_error (an instrumentation bug, not a runtime condition).
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  MetricsSnapshot Snapshot() const;

  /// Prometheus text exposition (version 0.0.4): `# TYPE` comments, plain
  /// samples for counters/gauges, and cumulative `_bucket{le="..."}` series
  /// plus `_sum`/`_count` for histograms.
  void WritePrometheus(std::ostream& out) const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Instrument {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Instrument& GetOrCreate(const std::string& name, Kind kind);

  mutable std::mutex mu_;
  // std::map: exporters walk it in name order, so output is deterministic.
  std::map<std::string, Instrument> instruments_;
};

}  // namespace adp::obs

#endif  // ADP_OBS_METRICS_H_
