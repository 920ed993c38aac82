// Shared pieces of the benchmark binary: wall/CPU clocks, the in-memory span
// recorder, and the ordered metric table it prints.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// User plus system CPU seconds of the whole process (every thread).
double process_cpu_seconds();
/// Returns freed heap to the system and restarts the peak-RSS count from the
/// current RSS (/proc/self/clear_refs), so a later peak_rss_mb() covers only
/// what runs after it. False when the kernel refuses the reset; the peak then
/// covers the whole process.
bool reset_peak_rss();
/// Peak resident set size of the process in MB (VmHWM).
double peak_rss_mb();

/// Median and nearest-rank percentile of a sample (0 for an empty sample).
double median(std::vector<double> xs);
double percentile(std::vector<double> xs, double p);

/// Spans recorded in memory (name, start, end, parent) and written out once
/// at exit. Times are seconds since the recorder was created.
class Spans {
 public:
  static constexpr std::size_t kNoParent = ~std::size_t{0};

  std::size_t add(std::string name, std::size_t parent, Clock::time_point start,
                  Clock::time_point end);
  /// Closes a span opened with end == start once its children are known.
  void set_end(std::size_t id, Clock::time_point end);
  void write_json(std::ostream& out) const;

 private:
  struct Span {
    std::string name;
    std::size_t parent;
    double start_s;
    double end_s;
  };
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Times `fn()` and records it as a span under `parent`; returns seconds.
template <typename Fn>
double timed_span(Spans& spans, std::string name, std::size_t parent, Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  const Clock::time_point t1 = Clock::now();
  spans.add(std::move(name), parent, t0, t1);
  return seconds_between(t0, t1);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Metrics in emission order.
class MetricTable {
 public:
  void set(std::string name, double value, std::string unit) {
    rows_.push_back({std::move(name), value, std::move(unit)});
  }
  const std::vector<Metric>& rows() const { return rows_; }

 private:
  std::vector<Metric> rows_;
};

/// JSON string literal with the escapes metric names and messages need.
std::string json_string(const std::string& s);
/// A finite double with all its digits (JSON has no NaN/Inf: those print 0).
std::string json_number(double v);

}  // namespace perfbench
