// Observability: a zero-overhead-when-disabled metrics registry.
//
// The paper's whole argument rests on wire-level accounting (packets, bytes,
// header overhead, time per phase); the registry makes those numbers
// first-class named metrics instead of ad-hoc tallies inside each bench.
//
// Overhead contract:
//   - No registry installed (the default): every instrumentation site in the
//     tcp/net/server/client/proxy layers holds a null handle and performs a
//     single predictable-not-taken branch. No allocation, no lookup, no
//     atomic — the simulator is single-threaded per EventQueue, and so is
//     the registry.
//   - Registry installed: handles are resolved ONCE (at component
//     construction) via a name lookup; per-event recording is a pointer
//     dereference plus an integer add.
//
// Installation is scoped: harness::run_once / run_workload install a fresh
// Registry for the duration of one simulated run, so components constructed
// inside the run bind to it and two same-seed runs produce identical
// registries (asserted by metrics_property_test).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace hsim::obs {

class ConnTimeline;

// ---------------------------------------------------------------------------
// Metric kinds
// ---------------------------------------------------------------------------

/// Monotonically increasing 64-bit count.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }
  void merge_from(const Counter& other) { value_ += other.value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Instantaneous signed level with a high-water mark (peak).
class Gauge {
 public:
  void set(std::int64_t v) {
    value_ = v;
    if (v > peak_) peak_ = v;
  }
  void add(std::int64_t d) { set(value_ + d); }
  void sub(std::int64_t d) { value_ -= d; }
  std::int64_t value() const { return value_; }
  std::int64_t peak() const { return peak_; }
  /// Merge keeps the sum of levels and the max of peaks — the right shape for
  /// aggregating per-shard depth gauges.
  void merge_from(const Gauge& other) {
    value_ += other.value_;
    if (other.peak_ > peak_) peak_ = other.peak_;
  }

 private:
  std::int64_t value_ = 0;
  std::int64_t peak_ = 0;
};

/// Log-linear histogram of non-negative 64-bit samples.
///
// Values 0..7 are exact; above that each power of two is split into 4
// sub-buckets, so any quantile is off by at most one sub-bucket width (no
// more than 1/4 of the value) — plenty for latency distributions
// (p50/p95/p99) while staying a fixed 256-slot array with O(1) observe.
class Histogram {
 public:
  void observe(std::uint64_t v);

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  /// Quantile q in [0, 1]: the upper edge of the bucket holding the sample of
  /// rank ceil(q * count), clamped to [min, max]. Monotone in q by
  /// construction (metrics_property_test asserts the invariants).
  std::uint64_t quantile(double q) const;
  std::uint64_t p50() const { return quantile(0.50); }
  std::uint64_t p95() const { return quantile(0.95); }
  std::uint64_t p99() const { return quantile(0.99); }

  void merge_from(const Histogram& other);

  static constexpr std::size_t kBuckets = 256;
  static std::size_t bucket_of(std::uint64_t v);
  /// Inclusive upper edge of a bucket (the representative quantile() returns).
  static std::uint64_t bucket_upper(std::size_t bucket);

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = UINT64_MAX;
  std::uint64_t max_ = 0;
};

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Plain-value copy of a registry, safe to carry in result structs after the
/// run's registry is gone.
struct HistogramSnapshot {
  std::uint64_t count = 0, sum = 0, min = 0, max = 0;
  std::uint64_t p50 = 0, p95 = 0, p99 = 0;
  double mean = 0.0;
};

struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, std::int64_t> gauge_peaks;
  std::map<std::string, HistogramSnapshot> histograms;

  std::uint64_t counter(std::string_view name, std::uint64_t fallback = 0) const;
  std::int64_t gauge(std::string_view name, std::int64_t fallback = 0) const;
  const HistogramSnapshot* histogram(std::string_view name) const;

  /// Deterministic text rendering (sorted by name), one metric per line.
  std::string dump_text() const;
};

/// Named metrics for one simulated run. Metric objects have stable addresses
/// for the registry's lifetime (std::map nodes), so components cache raw
/// pointers at construction.
class Registry {
 public:
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  std::uint64_t counter_value(std::string_view name,
                              std::uint64_t fallback = 0) const;
  std::int64_t gauge_value(std::string_view name,
                           std::int64_t fallback = 0) const;

  /// Shard aggregation: fold `other` into this registry (counters add,
  /// gauges add levels / max peaks, histograms add buckets). Associative and
  /// commutative — metrics_property_test asserts it.
  void merge_from(const Registry& other);

  Snapshot snapshot() const;
  std::string dump_text() const { return snapshot().dump_text(); }

  // ---- Per-connection TCP timelines --------------------------------------
  /// Off by default; when enabled, tcp::Connection allocates an event ring
  /// per connection that retains its last 512 events.
  void enable_timelines() { timelines_enabled_ = true; }
  bool timelines_enabled() const { return timelines_enabled_; }
  ConnTimeline* make_timeline(std::string label);
  /// First timeline whose label contains `needle`, or nullptr.
  const ConnTimeline* find_timeline(std::string_view needle) const;

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  bool timelines_enabled_ = false;
  std::vector<std::unique_ptr<ConnTimeline>> timelines_;
};

/// The currently installed registry, or nullptr (metrics disabled).
Registry* registry();
void set_registry(Registry* r);

/// RAII install/restore; harness runners use this so nested scopes behave.
class ScopedRegistry {
 public:
  explicit ScopedRegistry(Registry* r) : prev_(registry()) { set_registry(r); }
  ~ScopedRegistry() { set_registry(prev_); }
  ScopedRegistry(const ScopedRegistry&) = delete;
  ScopedRegistry& operator=(const ScopedRegistry&) = delete;

 private:
  Registry* prev_;
};

// ---------------------------------------------------------------------------
// Null-safe handles: what instrumented components hold.
// ---------------------------------------------------------------------------

struct CounterHandle {
  Counter* c = nullptr;
  void inc(std::uint64_t n = 1) const {
    if (c != nullptr) c->add(n);
  }
};

struct GaugeHandle {
  Gauge* g = nullptr;
  void set(std::int64_t v) const {
    if (g != nullptr) g->set(v);
  }
  void add(std::int64_t d) const {
    if (g != nullptr) g->add(d);
  }
  void sub(std::int64_t d) const {
    if (g != nullptr) g->sub(d);
  }
};

struct HistogramHandle {
  Histogram* h = nullptr;
  void observe(std::uint64_t v) const {
    if (h != nullptr) h->observe(v);
  }
};

/// Resolve handles against the installed registry (null handles when none).
CounterHandle counter_handle(std::string_view name);
GaugeHandle gauge_handle(std::string_view name);
HistogramHandle histogram_handle(std::string_view name);

/// Consumer of a finished run's metrics. harness::run_once / run_workload
/// install a fresh Registry per run and hand it to the sink before teardown,
/// so callers can aggregate histograms across runs or shards.
class MetricsSink {
 public:
  virtual ~MetricsSink() = default;
  virtual void consume(const Registry& registry) = 0;
};

}  // namespace hsim::obs
