#pragma once
// One benchmark run: repeat a workload for the run length and reduce the
// passes to the end-to-end metrics (untraced) or the per-layer metrics
// (traced, with the capture -> replay cross-check for applications).

#include <cstdint>
#include <stdexcept>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string tmp_dir = ".";  ///< parent of the capture directory
};

struct Outcome {
  Report report;
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t report_digest = 0;
};

/// A result that must not be printed: a workload that ran no simulation,
/// or a traced-run cross-check that failed.
class BenchError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Throws BenchError; other exceptions escaping a simulation count as
/// failed simulations instead.
[[nodiscard]] Outcome measure(const WorkloadDef& w, const Options& opt);

}  // namespace perfbench
