// Tests for the parallel tier (sim::ParEngine, net::Partitioning, the
// partitioned net::Fabric and src/par/): partitioning invariants, the
// thread-count-invariant digest contract, the lookahead audit, fabric
// timing that does not depend on the shard count, fault-plan validation,
// collective shape sanity, and the nested-parallelism guard.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/cluster.hpp"
#include "fault/plan.hpp"
#include "net/fabric.hpp"
#include "net/partition.hpp"
#include "par/collective.hpp"
#include "par/par_cluster.hpp"
#include "sim/check.hpp"
#include "sim/concurrency.hpp"
#include "sim/par_engine.hpp"

namespace icsim {
namespace {

class ScopedCheck {
 public:
  explicit ScopedCheck(bool on) : was_(sim::check::enabled()) {
    sim::check::set_enabled(on);
  }
  ~ScopedCheck() { sim::check::set_enabled(was_); }

 private:
  bool was_;
};

/// External-pool guard: tests must not leak a fake sweep width.
class ScopedExternalWorkers {
 public:
  explicit ScopedExternalWorkers(int w) { sim::set_external_workers(w); }
  ~ScopedExternalWorkers() { sim::set_external_workers(1); }
};

TEST(Partitioning, NodesAlignWithTheirLeafSwitches) {
  const net::FatTreeTopology topo(4, 3);  // 64 endpoints, 16 leaves
  const net::Partitioning p = net::make_partitioning(topo, 64, 8);
  EXPECT_EQ(p.parts, 8);
  for (int n = 0; n < 64; ++n) {
    // The endpoint hops of every route must be partition-internal: a node
    // lives with its leaf switch.
    EXPECT_EQ(p.of_node(n), p.of_switch(topo.leaf_switch_of(n)));
  }
  // Contiguous slices: partition index is monotone in node id.
  for (int n = 1; n < 64; ++n) {
    EXPECT_LE(p.of_node(n - 1), p.of_node(n));
  }
}

TEST(Partitioning, EndpointHopsNeverCrossPartitions) {
  const net::FatTreeTopology topo(4, 3);
  const net::Partitioning p = net::make_partitioning(topo, 64, 4);
  for (int src = 0; src < 64; src += 7) {
    for (int dst = 0; dst < 64; dst += 11) {
      if (src == dst) continue;
      const std::vector<net::Hop> route = topo.route(src, dst);
      // First hop owned by src's partition, last by dst's.
      EXPECT_EQ(p.owner(route.front()), p.of_node(src));
      EXPECT_EQ(p.owner(route.back()), p.of_node(dst));
    }
  }
}

TEST(Partitioning, ClampsToPopulatedLeaves) {
  const net::FatTreeTopology topo(4, 3);
  // 6 nodes occupy 2 leaf switches: cannot slice thinner than one leaf.
  const net::Partitioning p = net::make_partitioning(topo, 6, 8);
  EXPECT_EQ(p.parts, 2);
}

TEST(ParEngine, RejectsNonPositiveLookahead) {
  sim::ParConfig pc;
  pc.partitions = 2;
  pc.lookahead = sim::Time::zero();
  EXPECT_THROW(sim::ParEngine{pc}, std::invalid_argument);
}

TEST(ParEngine, SingleShardRunsLikeAnEngine) {
  sim::ParConfig pc;
  pc.partitions = 1;
  pc.lookahead = sim::Time::ns(100);
  sim::ParEngine pe(pc);
  std::vector<int> order;
  pe.shard(0).post_at(sim::Time::us(2), [&] { order.push_back(2); });
  pe.shard(0).post_at(sim::Time::us(1), [&] { order.push_back(1); });
  pe.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(pe.events_processed(), 2u);
  EXPECT_GE(pe.windows(), 1u);
}

TEST(ParEngine, CrossPostsDeliverInCanonicalOrder) {
  // Two source shards post into shard 2 at the same timestamp; delivery
  // order must be (t, src, seq) regardless of scheduling.
  sim::ParConfig pc;
  pc.partitions = 3;
  pc.threads = 3;
  pc.lookahead = sim::Time::us(1);
  sim::ParEngine pe(pc);
  std::vector<int> order;
  const sim::Time t = sim::Time::us(5);
  pe.shard(0).post_at(sim::Time::zero(), [&] {
    pe.post_cross(0, 2, t, [&] { order.push_back(0); });
  });
  pe.shard(1).post_at(sim::Time::zero(), [&] {
    pe.post_cross(1, 2, t, [&] { order.push_back(10); });
    pe.post_cross(1, 2, t, [&] { order.push_back(11); });
  });
  pe.run();
  EXPECT_EQ(order, (std::vector<int>{0, 10, 11}));
  EXPECT_EQ(pe.cross_posts(), 3u);
}

/// Run one par point and return its digest (auditor armed throughout).
std::uint64_t par_digest(core::Network net, int nodes, int threads,
                         par::Collective op, const fault::FaultPlan& faults) {
  ScopedCheck armed(true);
  core::ClusterConfig cc = net == core::Network::infiniband
                               ? core::ib_cluster(nodes)
                               : core::elan_cluster(nodes);
  cc.env_overrides = false;  // the test matrix must not see ICSIM_PAR_THREADS
  cc.intra_run_threads = threads;
  cc.faults = faults;
  par::ParCluster cluster(cc);
  par::CollectiveSpec spec;
  spec.op = op;
  spec.bytes = 8;
  spec.iterations = 2;
  const par::ParRunStats st = cluster.run(spec);
  EXPECT_EQ(st.threads_used, threads <= st.partitions ? threads : st.partitions);
  return st.event_digest;
}

TEST(ParDeterminism, DigestMatrixThreadCountInvariance) {
  // The tentpole contract: -j1 == -j8, byte-identical, on both fabrics.
  const fault::FaultPlan clean;
  for (const core::Network net :
       {core::Network::infiniband, core::Network::quadrics}) {
    for (const par::Collective op :
         {par::Collective::barrier, par::Collective::allreduce}) {
      const std::uint64_t base = par_digest(net, 64, 1, op, clean);
      for (const int threads : {2, 4, 8}) {
        EXPECT_EQ(par_digest(net, 64, threads, op, clean), base)
            << "threads=" << threads << " op=" << par::to_string(op);
      }
    }
  }
}

TEST(ParDeterminism, DigestInvarianceUnderFaultOverlay) {
  // One fault-overlay point of the matrix: a spine cable down for the whole
  // run forces reroutes, whose alternate climbs must also respect the
  // partition lookahead and stay thread-count invariant.
  fault::FaultPlan plan;
  fault::LinkDownWindow w;
  w.link = fault::LinkRef::between(net::SwitchCoord{0, 0},
                                   net::SwitchCoord{1, 1});
  w.down = sim::Time::zero();
  w.up = sim::Time::zero();  // up <= down: down forever
  plan.link_windows.push_back(w);
  const std::uint64_t base = par_digest(core::Network::quadrics, 64, 1,
                                        par::Collective::allreduce, plan);
  for (const int threads : {2, 4, 8}) {
    EXPECT_EQ(par_digest(core::Network::quadrics, 64, threads,
                         par::Collective::allreduce, plan),
              base);
  }
}

TEST(ParFaults, WholeRunLinkDownReroutesAndCompletes) {
  ScopedCheck armed(true);
  core::ClusterConfig cc = core::elan_cluster(64);
  cc.env_overrides = false;
  cc.intra_run_threads = 2;
  fault::LinkDownWindow w;
  w.link = fault::LinkRef::between(net::SwitchCoord{0, 0},
                                   net::SwitchCoord{1, 1});
  w.down = sim::Time::zero();
  w.up = sim::Time::zero();
  cc.faults.link_windows.push_back(w);
  par::ParCluster cluster(cc);
  const par::ParRunStats st =
      cluster.run(par::CollectiveSpec{par::Collective::barrier, 8, 2});
  EXPECT_GT(st.chunks_rerouted, 0u);
  EXPECT_EQ(st.chunks_dropped_link_down, 0u);  // reroute found a clean climb
}

TEST(ParCluster, RejectsUnsupportedFaultPlans) {
  core::ClusterConfig cc = core::elan_cluster(16);
  cc.env_overrides = false;
  cc.faults.ber = 1e-7;
  EXPECT_THROW(par::ParCluster{cc}, std::invalid_argument);
}

TEST(ParCluster, RejectsMultipleRanksPerNode) {
  core::ClusterConfig cc = core::elan_cluster(16, /*ppn=*/2);
  cc.env_overrides = false;
  EXPECT_THROW(par::ParCluster{cc}, std::invalid_argument);
}

TEST(ParCollectives, ElanBeatsInfinibandAndLatencyGrowsWithScale) {
  ScopedCheck armed(true);
  auto run_us = [](core::Network net, int nodes) {
    core::ClusterConfig cc = net == core::Network::infiniband
                                 ? core::ib_cluster(nodes)
                                 : core::elan_cluster(nodes);
    cc.env_overrides = false;
    cc.intra_run_threads = 2;
    par::ParCluster cluster(cc);
    return cluster.run(par::CollectiveSpec{par::Collective::allreduce, 8, 2})
        .simulated_us;
  };
  const double ib64 = run_us(core::Network::infiniband, 64);
  const double el64 = run_us(core::Network::quadrics, 64);
  const double el256 = run_us(core::Network::quadrics, 256);
  EXPECT_LT(el64, ib64);   // paper: Elan's collectives are ~2x ahead
  EXPECT_GT(el256, el64);  // log2(n) rounds: latency grows with scale
}

TEST(PartitionedFabric, UncontendedChunkTimingMatchesSingleShard) {
  // Same FabricConfig, same route, one chunk: the fabric must deliver at
  // the same simulated instant over one shard and over four — partitioning
  // is an execution strategy, not a different model.
  const net::FabricConfig fc = core::fabric_config_for(core::Network::quadrics, 64);

  sim::Engine serial_engine;
  net::Fabric serial(serial_engine, fc, 64);
  sim::Time serial_delivery = sim::Time::zero();
  (void)serial.inject(3, 60, 1024, [&](net::DeliveryStatus st) {
    ASSERT_EQ(st, net::DeliveryStatus::delivered);
    serial_delivery = serial_engine.now();
  });
  (void)serial_engine.run();
  serial.audit_drained();

  sim::ParConfig pc;
  pc.partitions = 4;
  pc.threads = 2;
  pc.lookahead = net::Fabric::lookahead_of(fc);
  sim::ParEngine pe(pc);
  const net::FatTreeTopology topo(fc.radix_down, fc.levels);
  net::Fabric sharded(pe, fc, 64, net::make_partitioning(topo, 64, 4));
  sim::Time sharded_delivery = sim::Time::zero();
  const int src_part = sharded.partitioning().of_node(3);
  const int dst_part = sharded.partitioning().of_node(60);
  ASSERT_NE(src_part, dst_part);  // the route genuinely crosses shards
  pe.shard(src_part).post_at(sim::Time::zero(), [&] {
    (void)sharded.inject(3, 60, 1024, [&](net::DeliveryStatus st) {
      ASSERT_EQ(st, net::DeliveryStatus::delivered);
      sharded_delivery = pe.shard(dst_part).now();
    });
  });
  pe.run();
  sharded.audit_drained();
  EXPECT_GT(serial_delivery, sim::Time::zero());
  EXPECT_EQ(sharded_delivery, serial_delivery);
  EXPECT_GT(pe.cross_posts(), 0u);
}

TEST(ParCluster, RejectsLinksThatAreNotCablesOfTheTree) {
  // Both tiers validate fault plans in the fabric's window installer: a
  // plan naming a cable the tree does not have is an error, not a no-op.
  for (const char* spec : {"link s0.0-2.3 down@1us", "link n9999 down@1us"}) {
    core::ClusterConfig cc = core::elan_cluster(64);
    cc.env_overrides = false;
    cc.faults = fault::FaultPlan::parse(spec);
    EXPECT_THROW(par::ParCluster{cc}, std::invalid_argument) << spec;
    EXPECT_THROW(core::Cluster{cc}, std::invalid_argument) << spec;
  }
}

TEST(Concurrency, ClampHonorsRequestWithoutAPoolAndDividesUnderOne) {
  {
    ScopedExternalWorkers none(1);
    // No sweep pool: deliberate oversubscription is allowed (the digest
    // matrix must be able to run 8 threads on a 1-core CI box).
    EXPECT_EQ(sim::clamp_intra_run_threads(8), 8);
    EXPECT_EQ(sim::clamp_intra_run_threads(0), 1);
  }
  {
    ScopedExternalWorkers pool(1 << 20);  // pool wider than any host
    EXPECT_EQ(sim::clamp_intra_run_threads(8), 1);
  }
}

TEST(Cluster, FiberPathRefusesIntraRunThreads) {
  core::ClusterConfig cc = core::elan_cluster(2);
  cc.env_overrides = false;
  cc.intra_run_threads = 4;
  core::Cluster cluster(cc);
  EXPECT_THROW((void)cluster.run([](mpi::Mpi&) {}), std::invalid_argument);
}

TEST(ParDeathTest, CrossPartitionPastScheduleAbortsUnderCheck) {
  // The conservative contract's hard edge: event code that hands work
  // across partitions with less than the lookahead of simulated delay must
  // die loudly under ICSIM_CHECK — silently delivering it would make
  // results depend on the window schedule (and on thread count).
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        sim::check::set_enabled(true);
        sim::ParConfig pc;
        pc.partitions = 2;
        pc.threads = 1;
        pc.lookahead = sim::Time::us(1);
        sim::ParEngine pe(pc);
        pe.shard(0).post_at(sim::Time::us(5), [&] {
          // t == now: inside the current window, lookahead violated.
          pe.post_cross(0, 1, pe.shard(0).now(), [] {});
        });
        pe.run();
      },
      "lookahead");
}

}  // namespace
}  // namespace icsim
