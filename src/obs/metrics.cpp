#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/timeline.hpp"

namespace hsim::obs {

namespace {
/// Installed registry, one per thread. Single-threaded runs behave exactly
/// as with a plain global; the sharded engine's workers each install their
/// shard's registry before running a slice (sim/shard.hpp), so concurrent
/// shards count into disjoint registries with no locks and no contention —
/// the harness merges them deterministically after the run.
thread_local Registry* g_registry = nullptr;
}  // namespace

Registry* registry() { return g_registry; }
void set_registry(Registry* r) { g_registry = r; }

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

std::size_t Histogram::bucket_of(std::uint64_t v) {
  if (v < 8) return static_cast<std::size_t>(v);
  const int msb = std::bit_width(v) - 1;  // >= 3
  const std::uint64_t sub = (v >> (msb - 2)) & 3;  // two bits below the msb
  return 8 + static_cast<std::size_t>(msb - 3) * 4 + static_cast<std::size_t>(sub);
}

std::uint64_t Histogram::bucket_upper(std::size_t bucket) {
  if (bucket < 8) return bucket;
  const int msb = static_cast<int>((bucket - 8) / 4) + 3;
  const std::uint64_t sub = (bucket - 8) % 4;
  const std::uint64_t lower = (std::uint64_t{1} << msb) | (sub << (msb - 2));
  return lower + (std::uint64_t{1} << (msb - 2)) - 1;
}

void Histogram::observe(std::uint64_t v) {
  ++buckets_[bucket_of(v)];
  ++count_;
  sum_ += v;
  if (v < min_) min_ = v;
  if (v > max_) max_ = v;
}

std::uint64_t Histogram::quantile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += buckets_[b];
    if (seen >= rank) {
      return std::clamp(bucket_upper(b), min(), max_);
    }
  }
  return max_;
}

void Histogram::merge_from(const Histogram& other) {
  for (std::size_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

Registry::Registry() = default;
Registry::~Registry() = default;

Counter& Registry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), Counter{}).first;
  }
  return it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), Gauge{}).first;
  }
  return it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), Histogram{}).first;
  }
  return it->second;
}

std::uint64_t Registry::counter_value(std::string_view name,
                                      std::uint64_t fallback) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? fallback : it->second.value();
}

std::int64_t Registry::gauge_value(std::string_view name,
                                   std::int64_t fallback) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? fallback : it->second.value();
}

void Registry::merge_from(const Registry& other) {
  for (const auto& [name, c] : other.counters_) counter(name).merge_from(c);
  for (const auto& [name, g] : other.gauges_) gauge(name).merge_from(g);
  for (const auto& [name, h] : other.histograms_) histogram(name).merge_from(h);
}

Snapshot Registry::snapshot() const {
  Snapshot s;
  for (const auto& [name, c] : counters_) s.counters[name] = c.value();
  for (const auto& [name, g] : gauges_) {
    s.gauges[name] = g.value();
    s.gauge_peaks[name] = g.peak();
  }
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot& hs = s.histograms[name];
    hs.count = h.count();
    hs.sum = h.sum();
    hs.min = h.min();
    hs.max = h.max();
    hs.p50 = h.p50();
    hs.p95 = h.p95();
    hs.p99 = h.p99();
    hs.mean = h.mean();
  }
  return s;
}

ConnTimeline* Registry::make_timeline(std::string label) {
  if (!timelines_enabled_) return nullptr;
  timelines_.push_back(
      std::make_unique<ConnTimeline>(std::move(label), /*capacity=*/512));
  return timelines_.back().get();
}

const ConnTimeline* Registry::find_timeline(std::string_view needle) const {
  for (const auto& tl : timelines_) {
    if (tl->label().find(needle) != std::string::npos) return tl.get();
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

std::uint64_t Snapshot::counter(std::string_view name,
                                std::uint64_t fallback) const {
  auto it = counters.find(std::string(name));
  return it == counters.end() ? fallback : it->second;
}

std::int64_t Snapshot::gauge(std::string_view name,
                             std::int64_t fallback) const {
  auto it = gauges.find(std::string(name));
  return it == gauges.end() ? fallback : it->second;
}

const HistogramSnapshot* Snapshot::histogram(std::string_view name) const {
  auto it = histograms.find(std::string(name));
  return it == histograms.end() ? nullptr : &it->second;
}

std::string Snapshot::dump_text() const {
  std::string out;
  char line[256];
  for (const auto& [name, v] : counters) {
    std::snprintf(line, sizeof line, "counter %s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(v));
    out += line;
  }
  for (const auto& [name, v] : gauges) {
    std::snprintf(line, sizeof line, "gauge %s %lld peak=%lld\n", name.c_str(),
                  static_cast<long long>(v),
                  static_cast<long long>(gauge_peaks.at(name)));
    out += line;
  }
  for (const auto& [name, h] : histograms) {
    std::snprintf(line, sizeof line,
                  "histogram %s count=%llu sum=%llu min=%llu max=%llu "
                  "p50=%llu p95=%llu p99=%llu\n",
                  name.c_str(), static_cast<unsigned long long>(h.count),
                  static_cast<unsigned long long>(h.sum),
                  static_cast<unsigned long long>(h.min),
                  static_cast<unsigned long long>(h.max),
                  static_cast<unsigned long long>(h.p50),
                  static_cast<unsigned long long>(h.p95),
                  static_cast<unsigned long long>(h.p99));
    out += line;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------------

CounterHandle counter_handle(std::string_view name) {
  Registry* r = registry();
  return CounterHandle{r == nullptr ? nullptr : &r->counter(name)};
}

GaugeHandle gauge_handle(std::string_view name) {
  Registry* r = registry();
  return GaugeHandle{r == nullptr ? nullptr : &r->gauge(name)};
}

HistogramHandle histogram_handle(std::string_view name) {
  Registry* r = registry();
  return HistogramHandle{r == nullptr ? nullptr : &r->histogram(name)};
}

}  // namespace hsim::obs
