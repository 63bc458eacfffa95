#pragma once

// Clocks, resource probes, order statistics and the metric record shared by
// every workload of the benchmark.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic wall clock.
[[nodiscard]] double wall_s();
/// CPU seconds consumed by this process (all threads).
[[nodiscard]] double process_cpu_s();
/// CPU seconds of every child this process has reaped so far.
[[nodiscard]] double children_cpu_s();
/// Peak resident set of this process, MiB.
[[nodiscard]] double peak_rss_mb();
/// Largest peak resident set among the children reaped so far, MiB.
[[nodiscard]] double children_peak_rss_mb();

/// Median of `v` (0 when empty).
[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank quantile of `v`, q in [0, 1] (0 when empty).
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// Metrics in emission order; each is (name, value, unit).
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// Replace the value of an already added metric.
  void set(const std::string& name, double value);
  /// The metric value by name (throws std::out_of_range when absent).
  [[nodiscard]] double at(const std::string& name) const;
  /// One JSON object: {"name": {"value": v, "unit": u}, ...}.
  [[nodiscard]] std::string json() const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// What one invocation of the benchmark reports.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;  // submitted transactions
  std::uint64_t failed = 0;     // truly-valid ones never committed
  Metrics metrics;
};

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string node_bin;  // the governor process binary (cluster_free)
  std::string work_dir;  // scratch space for blobs, state dirs and logs
};

/// Thrown when a run's outputs fail a correctness check.
struct CheckFailed {
  std::string what;
};

}  // namespace perfbench
