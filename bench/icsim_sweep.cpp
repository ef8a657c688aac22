// icsim_sweep: every table, figure, ablation and extension study of the
// reproduction in one binary, run through the parallel sweep driver.
//
//   icsim_sweep --list                 # what can run
//   icsim_sweep -j8                    # everything, 8 workers
//   icsim_sweep -j4 fig1_latency fig4_sweep3d --json out.json
//   icsim_sweep ablation_progress      # one study
//
// Output (stdout, --json, --csv) is byte-identical for any -j value: each
// sweep point is a self-contained simulation and aggregation happens in
// registration order after all points finish (see src/driver/).

#include "driver/sweep_main.hpp"
#include "scenarios/scenarios.hpp"

int main(int argc, char** argv) {
  icsim::driver::Registry reg;
  icsim::bench::register_all(reg);
  return icsim::driver::sweep_main(reg, argc, argv);
}
