#pragma once
// The benchmark's output: metrics with units, and the result line.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

[[nodiscard]] bool valid_metric_name(std::string_view name);
[[nodiscard]] bool valid_unit(std::string_view unit);

/// Median of `v` (mean of the middle two for an even count); 0 if empty.
[[nodiscard]] double median(std::vector<double> v);

/// Peak resident set of this process, in MB (getrusage ru_maxrss).
[[nodiscard]] double peak_rss_mb();

class Report {
 public:
  /// Throws std::invalid_argument on a bad name or unit, a repeated name,
  /// or a non-finite value: the output must stay parseable.
  void add(const std::string& name, double value, const std::string& unit);

  /// One JSON object: correct, attempted, failed, metrics (name ->
  /// {value, unit}) and the workload's report_digest as hex.
  [[nodiscard]] std::string json(bool correct, std::uint64_t attempted,
                                 std::uint64_t failed,
                                 std::uint64_t report_digest) const;

  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  [[nodiscard]] const std::vector<Metric>& metrics() const { return m_; }

 private:
  std::vector<Metric> m_;
};

}  // namespace perfbench
