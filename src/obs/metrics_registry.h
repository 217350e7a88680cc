// Lock-cheap metrics: counters, gauges, and fixed-bucket histograms,
// looked up by name in a MetricsRegistry. Lookup takes a mutex (call
// sites cache the returned pointer); updates touch only per-shard
// relaxed atomics. Every metric is split into kMetricShards cache-line-
// aligned shards indexed by a thread-local shard id (threads take ids
// round-robin), so concurrent writers rarely contend on a line. Reading
// a metric folds the shards; the fold is a plain sum, so shard merge
// order cannot matter (tested in test_obs_metrics).

#ifndef STREAMSHARE_OBS_METRICS_REGISTRY_H_
#define STREAMSHARE_OBS_METRICS_REGISTRY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>


namespace streamshare::obs {

inline constexpr size_t kMetricShards = 16;

/// Shard id of the calling thread. Threads get round-robin ids on first
/// use.
size_t CurrentShard();

/// Monotonically increasing sum of uint64 increments.
class Counter {
 public:
  void Add(uint64_t delta) {
    shards_[CurrentShard()].value.fetch_add(delta,
                                            std::memory_order_relaxed);
  }
  /// Folded value (sum over shards).
  uint64_t Value() const;
  void Reset();

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  std::array<Shard, kMetricShards> shards_;
};

/// Last-write-wins floating point value (utilization, queue depth, ...).
/// Gauges are not sharded: Set is a plain relaxed store.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. `upper_bounds` are the inclusive upper edges
/// of the finite buckets, strictly increasing; one implicit overflow
/// bucket catches everything above the last edge. Observation count and
/// value sum ride along for mean computation.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void Observe(double value);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Number of buckets including the overflow bucket.
  size_t bucket_count() const { return bounds_.size() + 1; }
  /// Index of the bucket a value falls into: smallest i with
  /// value <= bounds()[i], or bounds().size() for overflow.
  size_t BucketFor(double value) const;

  /// Folded per-bucket count.
  uint64_t BucketValue(size_t bucket) const;
  uint64_t Count() const;
  double Sum() const;
  /// Largest value ever observed (0 before any observation; meaningful
  /// for the non-negative quantities this registry records).
  double Max() const;
  void Reset();

  /// Estimated q-quantile (q in [0,1]) by linear interpolation inside the
  /// bucket the rank falls into. The first bucket interpolates from 0,
  /// the overflow bucket returns the tracked max (or the last finite
  /// bound when the max is not ahead of it); an empty histogram reports
  /// 0. See QuantileFromBuckets for the exact rules.
  double Quantile(double q) const;

  /// The interpolation shared by Quantile and snapshot-side consumers
  /// (exporters work from folded bucket vectors, not live histograms).
  static double QuantileFromBuckets(const std::vector<double>& bounds,
                                    const std::vector<uint64_t>& buckets,
                                    double q, double max_value);

  /// Folds externally collected counts into the calling thread's shard —
  /// how a SinkOp flushes the latency observations it batched locally.
  /// `buckets` must have bucket_count() entries.
  void MergeCounts(const std::vector<uint64_t>& buckets, uint64_t count,
                   double sum, double max_value);

  /// Bounds {first, first*factor, ...} of length `count`.
  static std::vector<double> ExponentialBounds(double first, double factor,
                                               size_t count);
  /// Bounds {first, first+step, ...} of length `count`.
  static std::vector<double> LinearBounds(double first, double step,
                                          size_t count);

 private:
  struct alignas(64) Shard {
    std::unique_ptr<std::atomic<uint64_t>[]> buckets;
    std::atomic<uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> max{0.0};
  };
  static void RaiseMax(std::atomic<double>* slot, double value);
  std::vector<double> bounds_;
  std::array<Shard, kMetricShards> shards_;
};

/// One exported series, fully folded.
struct MetricSnapshot {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  Kind kind = Kind::kCounter;
  /// Counter value (exact integers up to 2^53) or gauge value.
  double value = 0.0;
  /// Histogram-only fields.
  uint64_t count = 0;
  double sum = 0.0;
  double max = 0.0;
  std::vector<double> bounds;
  std::vector<uint64_t> buckets;

  /// Histogram quantile from the folded buckets (0 for other kinds).
  double Quantile(double q) const;
};

/// Owns named metrics; pointers returned by Get* stay valid for the
/// registry's lifetime. Re-Getting a name returns the same metric (a
/// histogram's bounds are fixed by the first Get).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-wide default instance used by the built-in instrumentation.
  static MetricsRegistry& Default();

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name,
                          std::vector<double> upper_bounds);
  /// The named histogram if it exists, else null (no creation).
  Histogram* FindHistogram(std::string_view name) const;

  /// All metrics, folded, sorted by name.
  std::vector<MetricSnapshot> Snapshot() const;

  /// Zeroes counters and histograms, drops gauges to 0. Metric identities
  /// (pointers) survive.
  void ResetAll();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>>
      histograms_;
};

}  // namespace streamshare::obs

#endif  // STREAMSHARE_OBS_METRICS_REGISTRY_H_
