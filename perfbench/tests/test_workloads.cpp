// Tests of the benchmark itself: verification rejects wrong outputs, a
// workload without simulations yields no result, and every metric it
// prints is well named and carries a unit.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "measure.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

TEST(Verification, CgZetaMatchesClassSReference) {
  EXPECT_TRUE(cg_zeta_ok(kCgClassSZeta));
  EXPECT_TRUE(cg_zeta_ok(kCgClassSZeta + 5e-10));
  EXPECT_FALSE(cg_zeta_ok(kCgClassSZeta + 1e-6));
  EXPECT_FALSE(cg_zeta_ok(17.130235054029));  // class A's value
  EXPECT_FALSE(cg_zeta_ok(std::numeric_limits<double>::quiet_NaN()));
}

TEST(Verification, TrafficMustConserveRequests) {
  icsim::traffic::RunStats s;
  s.offered = 100;
  s.delivered = 90;
  s.stragglers = 6;
  s.dropped = 4;
  EXPECT_TRUE(traffic_ok(s));
  s.delivered = 89;  // one request vanished
  EXPECT_FALSE(traffic_ok(s));
  s = {};  // nothing offered: the workload did not run
  EXPECT_FALSE(traffic_ok(s));
}

TEST(Verification, ParCountsMatchRoundCount) {
  icsim::par::CollectiveSpec spec;
  spec.iterations = 2;
  icsim::par::ParRunStats s;
  s.messages = 4096ull * 12 * 2;
  s.fabric_chunks = s.messages;
  EXPECT_TRUE(par_ok(s, 4096, spec));
  s.fabric_chunks += 1;
  EXPECT_FALSE(par_ok(s, 4096, spec));
  s.fabric_chunks = s.messages = 4096ull * 12;  // one iteration short
  EXPECT_FALSE(par_ok(s, 4096, spec));
}

TEST(Verification, MdChecksAtomsEnergyAndMomentum) {
  icsim::apps::md::MdConfig cfg;
  cfg.cells_x = cfg.cells_y = cfg.cells_z = 2;
  icsim::apps::md::MdResult r;
  r.natoms_global = 4 * 8 * 4;  // 4 ranks x 8 cells x 4 atoms
  r.pair_evals = 1;
  EXPECT_TRUE(md_ok(r, 4, cfg));
  r.natoms_global -= 1;
  EXPECT_FALSE(md_ok(r, 4, cfg));
  r.natoms_global += 1;
  r.total_energy_drift = 1e-2;
  EXPECT_FALSE(md_ok(r, 4, cfg));
  r.total_energy_drift = 0.0;
  r.momentum_abs = 1e-3;
  EXPECT_FALSE(md_ok(r, 4, cfg));
}

Options quick(bool trace) {
  Options o;
  o.seconds = 0.0;  // one pass (one pair of passes when traced)
  o.trace = trace;
  return o;
}

TEST(Measure, WorkloadWithoutSimulationsHasNoResult) {
  const WorkloadDef empty{"empty", false, [](Pass&) {}};
  EXPECT_THROW((void)measure(empty, quick(false)), BenchError);
  EXPECT_THROW((void)measure(empty, quick(true)), BenchError);
}

/// Two ranks exchanging a few messages: a real simulation, small enough
/// for a unit test.
void ping(Pass& p, bool verified) {
  p.simulate("ping", [&] {
    auto cluster = p.build_cluster(
        p.cluster_config(icsim::core::Network::infiniband, 2, 1));
    p.run(*cluster, [](icsim::mpi::Mpi& m) {
      std::vector<char> buf(4096);
      for (int i = 0; i < 4; ++i) {
        if (m.rank() == 0) {
          m.send(buf.data(), 1024, 1, 7);
          m.recv(buf.data(), buf.size(), 1, 7);
        } else {
          m.recv(buf.data(), buf.size(), 0, 7);
          m.send(buf.data(), 1024, 0, 7);
        }
      }
      m.barrier();
    });
    return verified;
  });
}

TEST(Measure, FailedVerificationCountsAsFailure) {
  const WorkloadDef bad{"bad", false, [](Pass& p) { ping(p, false); }};
  const Outcome o = measure(bad, quick(false));
  EXPECT_FALSE(o.correct);
  EXPECT_EQ(o.attempted, 1u);
  EXPECT_EQ(o.failed, 1u);
}

TEST(Measure, ThrowingSimulationCountsAsFailure) {
  const WorkloadDef bad{"throws", false, [](Pass& p) {
                          p.simulate("throws", []() -> bool {
                            throw std::runtime_error("deadlock");
                          });
                        }};
  const Outcome o = measure(bad, quick(false));
  EXPECT_FALSE(o.correct);
  EXPECT_EQ(o.failed, o.attempted);
}

void expect_well_formed(const Report& r, const std::set<std::string>& must) {
  std::set<std::string> seen;
  for (const Report::Metric& m : r.metrics()) {
    EXPECT_TRUE(valid_metric_name(m.name)) << m.name;
    EXPECT_TRUE(valid_unit(m.unit)) << m.name << " unit " << m.unit;
    EXPECT_TRUE(std::isfinite(m.value)) << m.name;
    seen.insert(m.name);
  }
  for (const std::string& n : must) EXPECT_TRUE(seen.count(n)) << n;
}

TEST(Measure, EveryMetricIsNamedAndHasAUnit) {
  const WorkloadDef app{"ping", true, [](Pass& p) { ping(p, true); }};
  const Outcome e2e = measure(app, quick(false));
  EXPECT_TRUE(e2e.correct);
  expect_well_formed(e2e.report, {"wall_s", "setup_s", "peak_rss_mb"});
  EXPECT_EQ(e2e.report.metrics().size(), 3u);

  // The traced run also replays the captured trace and cross-checks it.
  const Outcome traced = measure(app, quick(true));
  EXPECT_TRUE(traced.correct);
  EXPECT_EQ(traced.report_digest, e2e.report_digest);
  expect_well_formed(traced.report,
                     {"fail_frac", "core.run_s", "mpi.calls", "apps.share",
                      "bench.trace_overhead"});
  for (const Report::Metric& m : traced.report.metrics()) {
    if (m.name == "mpi.calls" || m.name == "mpi.blocking_calls") {
      EXPECT_EQ(m.value, 2.0 * (8 + 1)) << m.name;
    }
  }
}

TEST(Measure, SameSeedSameDigest) {
  const WorkloadDef app{"ping", false, [](Pass& p) { ping(p, true); }};
  EXPECT_EQ(measure(app, quick(false)).report_digest,
            measure(app, quick(false)).report_digest);
}

TEST(Report, RejectsBadNamesUnitsAndRepeats) {
  Report r;
  r.add("core.run_s", 1.5, "s");
  EXPECT_THROW(r.add("core.run_s", 2.0, "s"), std::invalid_argument);
  EXPECT_THROW(r.add("has space", 1.0, "s"), std::invalid_argument);
  EXPECT_THROW(r.add(".dot", 1.0, "s"), std::invalid_argument);
  EXPECT_THROW(r.add(std::string(65, 'a'), 1.0, "s"), std::invalid_argument);
  EXPECT_THROW(r.add("ok", 1.0, "m s"), std::invalid_argument);
  EXPECT_THROW(r.add("nan", std::nan(""), "s"), std::invalid_argument);
  const std::string j = r.json(true, 3, 0, 0xabc);
  EXPECT_EQ(j,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
            "{\"core.run_s\": {\"value\": 1.5, \"unit\": \"s\"}}, "
            "\"report_digest\": \"0000000000000abc\"}");
}

TEST(Report, MedianOfOddAndEvenCounts) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Workloads, TheFourAreRegistered) {
  EXPECT_EQ(workload_names(),
            (std::vector<std::string>{"cg_latency", "md_compute", "serve_open",
                                      "par_collectives"}));
  EXPECT_EQ(find_workload("nope"), nullptr);
}

}  // namespace
}  // namespace perfbench
