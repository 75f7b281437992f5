#include "selin/obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

namespace selin::obs {

size_t this_thread_lane() {
  static std::atomic<size_t> next{0};
  thread_local const size_t lane =
      next.fetch_add(1, std::memory_order_relaxed) & (kMetricLanes - 1);
  return lane;
}

void Histogram::record(uint64_t v) {
  buckets_[std::bit_width(v)].fetch_add(1, std::memory_order_relaxed);
  // Release: a reader whose (acquire) sum includes v also sees its bucket.
  sum_.fetch_add(v, std::memory_order_release);
  uint64_t prev = max_.load(std::memory_order_relaxed);
  while (prev < v &&
         !max_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
  }
}

uint64_t Histogram::count() const {
  uint64_t n = 0;
  for (const auto& b : buckets_) n += b.load(std::memory_order_relaxed);
  return n;
}

uint64_t Histogram::bucket_bound(size_t b) {
  if (b >= 64) return std::numeric_limits<uint64_t>::max();
  return (uint64_t{1} << b) - 1;
}

uint64_t Histogram::approx_quantile(double q) const {
  uint64_t counts[kBuckets];
  uint64_t total = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    counts[b] = buckets_[b].load(std::memory_order_relaxed);
    total += counts[b];
  }
  if (total == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-quantile, 1-based; ceil so q=1 lands on the last value.
  const uint64_t rank =
      std::max<uint64_t>(1, static_cast<uint64_t>(q * static_cast<double>(total) + 0.999999));
  uint64_t seen = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    seen += counts[b];
    if (seen >= rank) return bucket_bound(b);
  }
  return bucket_bound(kBuckets - 1);
}

const MetricValue* MetricsSnapshot::find(std::string_view name,
                                         const Labels* labels) const {
  for (const MetricValue& v : values) {
    if (v.name != name) continue;
    if (labels != nullptr && v.labels != *labels) continue;
    return &v;
  }
  return nullptr;
}

MetricsRegistry::Entry& MetricsRegistry::find_or_make(std::string_view name,
                                                      Labels&& labels,
                                                      MetricKind kind) {
  std::sort(labels.begin(), labels.end());
  std::lock_guard<std::mutex> lock(mu_);
  for (Entry& e : entries_) {
    if (e.name == name && e.labels == labels) {
      if (e.kind != kind) {
        throw std::logic_error("obs: metric '" + std::string(name) +
                               "' re-registered with a different kind");
      }
      return e;
    }
  }
  Entry& e = entries_.emplace_back();
  e.name = std::string(name);
  e.labels = std::move(labels);
  e.kind = kind;
  switch (kind) {
    case MetricKind::kCounter: e.c = std::make_unique<Counter>(); break;
    case MetricKind::kGauge: e.g = std::make_unique<Gauge>(); break;
    case MetricKind::kHistogram: e.h = std::make_unique<Histogram>(); break;
  }
  return e;
}

Counter& MetricsRegistry::counter(std::string_view name, Labels labels) {
  return *find_or_make(name, std::move(labels), MetricKind::kCounter).c;
}

Gauge& MetricsRegistry::gauge(std::string_view name, Labels labels) {
  return *find_or_make(name, std::move(labels), MetricKind::kGauge).g;
}

Histogram& MetricsRegistry::histogram(std::string_view name, Labels labels) {
  return *find_or_make(name, std::move(labels), MetricKind::kHistogram).h;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  snap.values.reserve(entries_.size());
  for (const Entry& e : entries_) {
    MetricValue v;
    v.name = e.name;
    v.labels = e.labels;
    v.kind = e.kind;
    switch (e.kind) {
      case MetricKind::kCounter:
        v.counter = e.c->value();
        break;
      case MetricKind::kGauge:
        v.gauge = e.g->value();
        break;
      case MetricKind::kHistogram:
        // Sum first, then count from the very bucket loads exported: every
        // record the sum includes is already in the buckets, so a
        // concurrent writer can only make count run ahead of sum.
        v.sum = e.h->sum();
        v.max = e.h->max();
        for (size_t b = 0; b < Histogram::kBuckets; ++b) {
          const uint64_t n = e.h->bucket(b);
          v.count += n;
          if (n != 0) v.buckets.emplace_back(Histogram::bucket_bound(b), n);
        }
        break;
    }
    snap.values.push_back(std::move(v));
  }
  return snap;
}

size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace selin::obs
