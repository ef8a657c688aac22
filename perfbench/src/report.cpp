#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

bool charset_ok(std::string_view s, std::size_t max_len,
                std::string_view extra) {
  if (s.empty() || s.size() > max_len) return false;
  return std::all_of(s.begin(), s.end(), [extra](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || extra.find(c) != std::string_view::npos;
  });
}

}  // namespace

bool valid_metric_name(std::string_view name) {
  return charset_ok(name, 64, "_.-") && name.front() != '_' &&
         name.front() != '.' && name.front() != '-';
}

bool valid_unit(std::string_view unit) {
  return charset_ok(unit, 16, "_/%.-");
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("bad metric name: " + name);
  }
  if (!valid_unit(unit)) {
    throw std::invalid_argument("bad unit for " + name + ": " + unit);
  }
  if (!std::isfinite(value)) {
    throw std::invalid_argument("non-finite value for " + name);
  }
  for (const Metric& m : m_) {
    if (m.name == name) throw std::invalid_argument("repeated metric: " + name);
  }
  m_.push_back({name, value, unit});
}

std::string Report::json(bool correct, std::uint64_t attempted,
                         std::uint64_t failed,
                         std::uint64_t report_digest) const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
  std::string out = buf;
  for (std::size_t i = 0; i < m_.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m_[i].name.c_str(), m_[i].value,
                  m_[i].unit.c_str());
    out += buf;
  }
  std::snprintf(buf, sizeof buf, "}, \"report_digest\": \"%016" PRIx64 "\"}",
                report_digest);
  return out + buf;
}

}  // namespace perfbench
