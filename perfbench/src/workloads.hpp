#pragma once
// The benchmark's four workloads and the pass that runs one of them.
//
// A pass executes every simulation of a workload once: it builds each
// cluster, runs it, verifies its outputs and folds them into a report
// digest.  A Pass object is the only way a workload touches the program,
// so the timing brackets, the call counter, MPI capture and the fixed
// ClusterConfig policy (no environment overrides, one thread, the
// benchmark's seed) apply to every simulation uniformly.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/lammps/md_config.hpp"
#include "core/cluster.hpp"
#include "layers.hpp"
#include "par/par_cluster.hpp"
#include "traffic/traffic.hpp"

namespace perfbench {

namespace core = icsim::core;

/// Layer counters one pass gathers (summed over its simulations, except
/// where a field says max).  Simulated quantities: a perf change must not
/// move them.
struct LayerCounts {
  std::uint64_t sim_events = 0;  ///< fiber-tier Cluster events
  std::uint64_t net_chunks = 0;
  double max_link_busy_us = 0.0;  ///< max
  std::uint64_t hca_writes = 0;
  std::uint64_t reg_hits = 0;
  std::uint64_t reg_misses = 0;
  std::uint64_t max_unexpected_depth = 0;  ///< max, either transport
  double nic_thread_busy_us = 0.0;         ///< max
  std::uint64_t nic_buffer_high_water = 0; ///< max
  std::uint64_t traffic_delivered = 0;
  std::uint64_t traffic_dropped = 0;
  std::uint64_t pair_evals = 0;
  std::uint64_t par_events = 0;
  std::uint64_t par_windows = 0;
  std::uint64_t par_cross_posts = 0;
  CallCounts calls;
};

/// How a pass instruments the simulations it runs.
enum class Mode {
  plain,    ///< timing brackets only (the end-to-end measurement)
  traced,   ///< plus a CallCounter on every rank
  capture,  ///< plus ClusterConfig::mpi_trace_dir, one directory per run
  setup,    ///< set-up only: each simulation stops before its first event
};

/// A fiber-tier simulation recorded by a capture pass, for replay.
struct Captured {
  core::ClusterConfig config;  ///< without the capture directory
  std::string dir;
  std::uint64_t event_digest = 0;
};

class Pass {
 public:
  /// `capture_root` names the directory capture mode writes under.
  Pass(std::uint64_t seed, Mode mode, std::string capture_root = {});

  /// The workload's ClusterConfig, pinned to the benchmark's policy.
  [[nodiscard]] core::ClusterConfig cluster_config(core::Network net,
                                                   int nodes, int ppn) const;

  /// One simulation: `body` builds, runs and returns whether its outputs
  /// verified.  A throw (including a deadlock) or a false return counts
  /// as a failed simulation; the message goes to stderr.  In set-up mode
  /// `body` ends at its first run() and nothing is counted.
  void simulate(const std::string& label, const std::function<bool()>& body);

  /// Set-up steps: each adds its host time to `span`, one of kSetupSpans.
  [[nodiscard]] std::unique_ptr<core::Cluster> build_cluster(
      const core::ClusterConfig& cc);
  template <typename F>
  decltype(auto) setup(const std::string& span, F&& f) {
    return spans_.time(span, std::forward<F>(f));
  }
  static constexpr const char* kSetupSpans[] = {"core.build_s", "traffic.plan_s",
                                                "par.build_s"};

  /// Run `rank_main` on `cluster`, timed as core.run_s; folds its stats.
  void run(core::Cluster& cluster,
           const std::function<void(icsim::mpi::Mpi&)>& rank_main);
  /// Run a collective on `cluster`, timed as par.run_s; folds its stats.
  [[nodiscard]] icsim::par::ParRunStats run(icsim::par::ParCluster& cluster,
                                            const icsim::par::CollectiveSpec& spec);

  /// Fold a deterministic output into the report digest.
  void fold(std::uint64_t v);
  void fold(double v);

  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  LayerCounts& counts() { return counts_; }

  // Results, valid once the workload has run.
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] std::uint64_t report_digest() const { return digest_; }
  [[nodiscard]] double setup_s() const;
  /// Host time of each simulation (build, run, verify), in order,
  /// rescaled to the reference host (see host.hpp).
  [[nodiscard]] const std::vector<double>& sim_walls() const {
    return sim_walls_;
  }
  [[nodiscard]] const Spans& spans() const { return spans_; }
  [[nodiscard]] const LayerCounts& counts() const { return counts_; }
  [[nodiscard]] const std::vector<Captured>& captured() const {
    return captured_;
  }

 private:
  std::uint64_t seed_;
  Mode mode_;
  std::string capture_root_;
  std::uint64_t digest_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<double> sim_walls_;
  Spans spans_;
  LayerCounts counts_;
  std::vector<CallCounter> counters_;  ///< outlives the traced run's cluster
  std::vector<Captured> captured_;
};

struct WorkloadDef {
  std::string name;
  bool app = false;  ///< an MPI application: capture -> replay applies
  std::function<void(Pass&)> body;
};

/// The four benchmark workloads, by name; nullptr if unknown.
[[nodiscard]] const WorkloadDef* find_workload(const std::string& name);
[[nodiscard]] std::vector<std::string> workload_names();

// Verification, public for the benchmark's tests.
inline constexpr double kCgClassSZeta = 8.5971775078648;
[[nodiscard]] bool cg_zeta_ok(double zeta);
[[nodiscard]] bool md_ok(const icsim::apps::md::MdResult& r, int ranks,
                         const icsim::apps::md::MdConfig& cfg);
[[nodiscard]] bool traffic_ok(const icsim::traffic::RunStats& s);
[[nodiscard]] bool par_ok(const icsim::par::ParRunStats& s, int nodes,
                          const icsim::par::CollectiveSpec& spec);

}  // namespace perfbench
