// perfbench — run one benchmark workload and print its result line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tmp <dir>]
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics, report_digest.  Exit codes: 0 result printed, 1 no result (a
// workload that ran no simulation, or a failed traced-run cross-check),
// 2 usage error.  See README.md.

#include <sys/personality.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "measure.hpp"
#include "sim/check.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--tmp <dir>]\nworkloads:",
               why);
  for (const std::string& n : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Fix the address-space layout: with randomization on, the layout, and
  // with it a workload's time, changed from one process to the next (see
  // README.md).  Re-exec once with randomization off; if that is refused,
  // run as we are.
  const int persona = personality(0xffffffff);
  if (persona != -1 && (persona & ADDR_NO_RANDOMIZE) == 0 &&
      personality(static_cast<unsigned long>(persona) | ADDR_NO_RANDOMIZE) != -1) {
    execv("/proc/self/exe", argv);
  }

  std::string workload;
  perfbench::Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
      const std::string val = argv[++i];
      if (arg == "--workload") {
        workload = val;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(val);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (arg == "--trace") {
        opt.trace = std::stoi(val) != 0;
      } else if (arg == "--tmp") {
        opt.tmp_dir = val;
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  const perfbench::WorkloadDef* w = perfbench::find_workload(workload);
  if (w == nullptr) return usage(("unknown workload '" + workload + "'").c_str());

  // The measured program sees only what the benchmark passes it: the
  // ICSIM_CHECK auditor stays off whatever the environment says (the
  // ClusterConfig of every simulation already ignores the others).
  icsim::sim::check::set_enabled(false);
  try {
    const perfbench::Outcome o = perfbench::measure(*w, opt);
    std::printf("%s\n", o.report.json(o.correct, o.attempted, o.failed,
                                      o.report_digest)
                            .c_str());
    return 0;
  } catch (const perfbench::BenchError& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", workload.c_str(), e.what());
    return 1;
  }
}
