#include "obs/metrics_registry.h"

#include <algorithm>
#include <cassert>

namespace streamshare::obs {

namespace {

std::atomic<size_t> g_next_shard{0};

}  // namespace

size_t CurrentShard() {
  thread_local const size_t shard =
      g_next_shard.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return shard;
}

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (Shard& shard : shards_) {
    shard.value.store(0, std::memory_order_relaxed);
  }
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  assert(std::is_sorted(bounds_.begin(), bounds_.end()) &&
         "histogram bounds must be sorted");
  for (Shard& shard : shards_) {
    shard.buckets =
        std::make_unique<std::atomic<uint64_t>[]>(bucket_count());
    for (size_t i = 0; i < bucket_count(); ++i) {
      shard.buckets[i].store(0, std::memory_order_relaxed);
    }
  }
}

size_t Histogram::BucketFor(double value) const {
  // Smallest bound >= value; ties land in the bucket whose upper edge the
  // value equals (inclusive upper edges).
  return static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
}

void Histogram::RaiseMax(std::atomic<double>* slot, double value) {
  double seen = slot->load(std::memory_order_relaxed);
  while (value > seen &&
         !slot->compare_exchange_weak(seen, value,
                                      std::memory_order_relaxed)) {
  }
}

void Histogram::Observe(double value) {
  Shard& shard = shards_[CurrentShard()];
  shard.buckets[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
  shard.sum.fetch_add(value, std::memory_order_relaxed);
  RaiseMax(&shard.max, value);
}

uint64_t Histogram::BucketValue(size_t bucket) const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.buckets[bucket].load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.count.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::Sum() const {
  double total = 0.0;
  for (const Shard& shard : shards_) {
    total += shard.sum.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::Max() const {
  double max = 0.0;
  for (const Shard& shard : shards_) {
    max = std::max(max, shard.max.load(std::memory_order_relaxed));
  }
  return max;
}

void Histogram::Reset() {
  for (Shard& shard : shards_) {
    for (size_t i = 0; i < bucket_count(); ++i) {
      shard.buckets[i].store(0, std::memory_order_relaxed);
    }
    shard.count.store(0, std::memory_order_relaxed);
    shard.sum.store(0.0, std::memory_order_relaxed);
    shard.max.store(0.0, std::memory_order_relaxed);
  }
}

double Histogram::QuantileFromBuckets(const std::vector<double>& bounds,
                                      const std::vector<uint64_t>& buckets,
                                      double q, double max_value) {
  uint64_t total = 0;
  for (uint64_t count : buckets) total += count;
  if (total == 0 || buckets.empty()) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  // The observation whose rank is ceil(q * total) (1-based); q = 0 asks
  // for the first one.
  double rank = q * static_cast<double>(total);
  if (rank < 1.0) rank = 1.0;
  uint64_t cumulative = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    uint64_t before = cumulative;
    cumulative += buckets[b];
    if (static_cast<double>(cumulative) < rank) continue;
    if (b >= bounds.size()) {
      // Overflow bucket: no finite upper edge — report the tracked max,
      // falling back to the last finite bound when nothing exceeded it
      // (e.g. counts merged without a max).
      double last = bounds.empty() ? 0.0 : bounds.back();
      return std::max(max_value, last);
    }
    double lower = b == 0 ? 0.0 : bounds[b - 1];
    double upper = bounds[b];
    double within =
        (rank - static_cast<double>(before)) /
        static_cast<double>(buckets[b]);
    double value = lower + (upper - lower) * within;
    // Never report beyond what was actually observed.
    if (max_value > 0.0 && value > max_value) value = max_value;
    return value;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

double Histogram::Quantile(double q) const {
  std::vector<uint64_t> buckets;
  buckets.reserve(bucket_count());
  for (size_t i = 0; i < bucket_count(); ++i) {
    buckets.push_back(BucketValue(i));
  }
  return QuantileFromBuckets(bounds_, buckets, q, Max());
}

void Histogram::MergeCounts(const std::vector<uint64_t>& buckets,
                            uint64_t count, double sum, double max_value) {
  Shard& shard = shards_[CurrentShard()];
  size_t n = std::min(buckets.size(), bucket_count());
  for (size_t i = 0; i < n; ++i) {
    shard.buckets[i].fetch_add(buckets[i], std::memory_order_relaxed);
  }
  shard.count.fetch_add(count, std::memory_order_relaxed);
  shard.sum.fetch_add(sum, std::memory_order_relaxed);
  RaiseMax(&shard.max, max_value);
}

std::vector<double> Histogram::ExponentialBounds(double first,
                                                 double factor,
                                                 size_t count) {
  std::vector<double> bounds;
  bounds.reserve(count);
  double edge = first;
  for (size_t i = 0; i < count; ++i) {
    bounds.push_back(edge);
    edge *= factor;
  }
  return bounds;
}

std::vector<double> Histogram::LinearBounds(double first, double step,
                                            size_t count) {
  std::vector<double> bounds;
  bounds.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    bounds.push_back(first + step * static_cast<double>(i));
  }
  return bounds;
}

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>())
             .first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         std::vector<double> upper_bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(upper_bounds)))
             .first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::FindHistogram(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

std::vector<MetricSnapshot> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSnapshot> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, counter] : counters_) {
    MetricSnapshot snapshot;
    snapshot.name = name;
    snapshot.kind = MetricSnapshot::Kind::kCounter;
    snapshot.value = static_cast<double>(counter->Value());
    out.push_back(std::move(snapshot));
  }
  for (const auto& [name, gauge] : gauges_) {
    MetricSnapshot snapshot;
    snapshot.name = name;
    snapshot.kind = MetricSnapshot::Kind::kGauge;
    snapshot.value = gauge->Value();
    out.push_back(std::move(snapshot));
  }
  for (const auto& [name, histogram] : histograms_) {
    MetricSnapshot snapshot;
    snapshot.name = name;
    snapshot.kind = MetricSnapshot::Kind::kHistogram;
    snapshot.count = histogram->Count();
    snapshot.sum = histogram->Sum();
    snapshot.max = histogram->Max();
    snapshot.bounds = histogram->bounds();
    snapshot.buckets.reserve(histogram->bucket_count());
    for (size_t i = 0; i < histogram->bucket_count(); ++i) {
      snapshot.buckets.push_back(histogram->BucketValue(i));
    }
    out.push_back(std::move(snapshot));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name < b.name;
            });
  return out;
}

double MetricSnapshot::Quantile(double q) const {
  if (kind != Kind::kHistogram) return 0.0;
  return Histogram::QuantileFromBuckets(bounds, buckets, q, max);
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Set(0.0);
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace streamshare::obs
