#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <exception>

#include "apps/lammps/md.hpp"
#include "apps/npb/cg.hpp"
#include "host.hpp"
#include "sim/check.hpp"
#include "trace/metrics.hpp"
#include "traffic/workload.hpp"

namespace perfbench {

namespace {

namespace md = icsim::apps::md;
namespace npb = icsim::apps::npb;
namespace par = icsim::par;
namespace traffic = icsim::traffic;
using icsim::mpi::Mpi;

constexpr core::Network kNets[] = {core::Network::infiniband,
                                   core::Network::quadrics};

/// Thrown by Pass::run in set-up mode to end the simulation's body.
struct SetupDone {};

const char* net_tag(core::Network n) {
  return n == core::Network::infiniband ? "ib" : "el";
}

double stat_max(const icsim::trace::MetricsRegistry& m,
                const std::string& name) {
  const auto it = m.stats().find(name);
  return it == m.stats().end() || it->second.count() == 0 ? 0.0
                                                          : it->second.max();
}

// ---- workloads -----------------------------------------------------------

/// NAS CG class S at 16 ranks: closed-loop, latency-bound, small eager
/// messages.
void cg_latency(Pass& p) {
  constexpr int kRanks = 16;
  npb::CgConfig cfg;
  cfg.cls = npb::class_S();
  for (const core::Network net : kNets) {
    for (const int ppn : {1, 2}) {
      const std::string label = std::string("cg/") + net_tag(net) + "/ppn" +
                                std::to_string(ppn);
      p.simulate(label, [&] {
        auto cluster = p.build_cluster(p.cluster_config(net, kRanks / ppn, ppn));
        npb::CgResult res;
        p.run(*cluster, [&](Mpi& m) {
          const npb::CgResult r = npb::run_cg(m, cfg);
          if (m.rank() == 0) res = r;
        });
        p.fold(res.zeta);
        p.fold(res.seconds);
        return cg_zeta_ok(res.zeta);
      });
    }
  }
}

/// LAMMPS LJ scaled study at 16 ranks: host time in the force and
/// neighbour kernels.
void md_compute(Pass& p) {
  constexpr int kRanks = 16;
  md::MdConfig cfg = md::ljs_config();
  cfg.cells_x = cfg.cells_y = cfg.cells_z = 8;
  cfg.steps = 10;
  cfg.seed = p.seed();
  for (const core::Network net : kNets) {
    for (const int ppn : {1, 2}) {
      const std::string label = std::string("md/") + net_tag(net) + "/ppn" +
                                std::to_string(ppn);
      p.simulate(label, [&] {
        auto cluster = p.build_cluster(p.cluster_config(net, kRanks / ppn, ppn));
        md::MdResult res;
        p.run(*cluster, [&](Mpi& m) {
          const md::MdResult r = md::run_md(m, cfg);
          if (m.rank() == 0) res = r;
        });
        p.counts().pair_evals += res.pair_evals;
        p.fold(res.natoms_global);
        p.fold(res.pair_evals);
        p.fold(res.halo_bytes);
        p.fold(res.final_kinetic);
        p.fold(res.final_potential);
        p.fold(res.loop_seconds);
        return md_ok(res, kRanks, cfg);
      });
    }
  }
}

/// Open-loop Poisson serving traffic on 16 nodes: 1 KB incast past
/// saturation (deep unexpected queues, drops) and 64 KB shuffle (IB
/// rendezvous, RDMA writes, the registration cache, a contended tree).
void serve_open(Pass& p) {
  constexpr int kNodes = 16;
  struct Shape {
    const char* tag;
    traffic::PatternKind pattern;
    std::uint32_t bytes;
    double load;
  };
  constexpr Shape kShapes[] = {
      {"incast1k", traffic::PatternKind::incast, 1024, 1.2},
      {"shuffle64k", traffic::PatternKind::shuffle, 64 * 1024, 0.9},
  };
  for (const core::Network net : kNets) {
    for (const Shape& shape : kShapes) {
      const std::string label =
          std::string("traffic/") + net_tag(net) + "/" + shape.tag;
      p.simulate(label, [&] {
        traffic::TrafficConfig cfg;
        cfg.arrival.kind = traffic::ArrivalKind::poisson;
        cfg.pattern.kind = shape.pattern;
        cfg.load = shape.load;
        cfg.request_bytes = shape.bytes;
        cfg.requests_per_client = 128;
        cfg.client_backlog_cap = 64;  // saturation shows as counted drops
        cfg.seed = p.seed();
        auto w = p.setup("traffic.plan_s", [&] {
          return std::make_unique<traffic::Workload>(cfg, net, kNodes);
        });
        auto cluster = p.build_cluster(p.cluster_config(net, kNodes, 1));
        p.run(*cluster, [&w](Mpi& m) { w->rank_main(m); });
        const traffic::RunStats s = w->stats();
        p.counts().traffic_delivered += s.delivered;
        p.counts().traffic_dropped += s.dropped;
        for (const std::uint64_t v :
             {s.offered, s.delivered, s.stragglers, s.dropped}) {
          p.fold(v);
        }
        for (const double v : {s.p50_us, s.p99_us, s.p999_us, s.max_us}) {
          p.fold(v);
        }
        return traffic_ok(s);
      });
    }
  }
}

/// Barrier and 8-byte allreduce at 1024 nodes on the parallel engine.
void par_collectives(Pass& p) {
  constexpr int kNodes = 1024;
  for (const core::Network net : kNets) {
    for (const par::Collective op :
         {par::Collective::barrier, par::Collective::allreduce}) {
      const std::string label = std::string("par/") + net_tag(net) + "/" +
                                par::to_string(op);
      p.simulate(label, [&] {
        const core::ClusterConfig cc = p.cluster_config(net, kNodes, 1);
        auto cluster = p.setup("par.build_s", [&] {
          return std::make_unique<par::ParCluster>(cc);
        });
        par::CollectiveSpec spec;
        spec.op = op;
        spec.bytes = 8;
        spec.iterations = 4;
        const par::ParRunStats st = p.run(*cluster, spec);
        p.fold(st.messages);
        p.fold(st.fabric_chunks);
        p.fold(st.simulated_us);
        return par_ok(st, kNodes, spec);
      });
    }
  }
}

const std::vector<WorkloadDef>& registry() {
  static const std::vector<WorkloadDef> defs = {
      {"cg_latency", true, cg_latency},
      {"md_compute", true, md_compute},
      {"serve_open", false, serve_open},
      {"par_collectives", false, par_collectives},
  };
  return defs;
}

}  // namespace

// ---- Pass ----------------------------------------------------------------

Pass::Pass(std::uint64_t seed, Mode mode, std::string capture_root)
    : seed_(seed),
      mode_(mode),
      capture_root_(std::move(capture_root)),
      digest_(icsim::sim::check::Fnv1a{}.value()) {}

core::ClusterConfig Pass::cluster_config(core::Network net, int nodes,
                                         int ppn) const {
  core::ClusterConfig c;
  c.network = net;
  c.nodes = nodes;
  c.ppn = ppn;
  c.seed = seed_;
  c.env_overrides = false;
  c.intra_run_threads = 1;
  return c;
}

void Pass::simulate(const std::string& label,
                    const std::function<bool()>& body) {
  if (mode_ == Mode::setup) {
    try {
      (void)body();
    } catch (const SetupDone&) {
    } catch (const std::exception&) {
      // The measured passes run the same set-up and count this failure.
    }
    return;
  }
  ++attempted_;
  bool ok = false;
  (void)move_to_quietest_cpu();
  const double probe_before = reference_probe_seconds();
  const Clock::time_point t0 = Clock::now();
  try {
    ok = body();
    if (!ok) std::fprintf(stderr, "perfbench: %s: verification failed\n", label.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", label.c_str(), e.what());
  }
  const double wall = seconds_between(t0, Clock::now());
  const double probe_after = reference_probe_seconds();
  sim_walls_.push_back(on_reference_host(wall, probe_before, probe_after));
  std::fprintf(stderr, "perfbench: %s %.4f s (%.4f s reference) probe %.2f/%.2f ms\n",
               label.c_str(), wall, sim_walls_.back(), 1e3 * probe_before,
               1e3 * probe_after);
  if (!ok) ++failed_;
}

std::unique_ptr<core::Cluster> Pass::build_cluster(
    const core::ClusterConfig& cc) {
  core::ClusterConfig c = cc;
  if (mode_ == Mode::capture) {
    c.mpi_trace_dir = capture_root_ + "/sim" + std::to_string(captured_.size());
    captured_.push_back({cc, c.mpi_trace_dir, 0});
  }
  return setup("core.build_s",
               [&] { return std::make_unique<core::Cluster>(c); });
}

void Pass::run(core::Cluster& cluster,
               const std::function<void(Mpi&)>& rank_main) {
  if (mode_ == Mode::setup) throw SetupDone{};
  if (mode_ == Mode::traced) {
    counters_.assign(static_cast<std::size_t>(cluster.ranks()), CallCounter{});
    for (int r = 0; r < cluster.ranks(); ++r) {
      cluster.mpi_of(r).set_recorder(&counters_[static_cast<std::size_t>(r)]);
    }
  }
  spans_.time("core.run_s", [&] { (void)cluster.run(rank_main); });
  if (mode_ == Mode::traced) {
    for (const CallCounter& c : counters_) counts_.calls += c.counts();
  }

  const core::Cluster::RunStats st = cluster.stats();
  if (mode_ == Mode::capture && !captured_.empty()) {
    captured_.back().event_digest = st.event_digest;
  }
  fold(st.event_digest);
  fold(st.events_processed);
  LayerCounts& k = counts_;
  k.sim_events += st.events_processed;
  k.net_chunks += st.fabric_chunks;
  k.max_link_busy_us = std::max(k.max_link_busy_us, st.max_link_busy_us);
  k.hca_writes += st.hca_writes;
  k.reg_hits += st.reg_hits;
  k.reg_misses += st.reg_misses;
  k.nic_thread_busy_us = std::max(k.nic_thread_busy_us, st.nic_thread_busy_us);
  k.nic_buffer_high_water =
      std::max(k.nic_buffer_high_water, st.nic_buffer_high_water);
  if (mode_ == Mode::traced) {
    icsim::trace::MetricsRegistry m;
    cluster.publish_metrics(m, cluster.engine().now());
    const double depth = std::max(stat_max(m, "mpi.max_unexpected_depth"),
                                  stat_max(m, "elan.max_unexpected_depth"));
    k.max_unexpected_depth = std::max(k.max_unexpected_depth,
                                      static_cast<std::uint64_t>(depth));
  }
}

icsim::par::ParRunStats Pass::run(icsim::par::ParCluster& cluster,
                                  const icsim::par::CollectiveSpec& spec) {
  if (mode_ == Mode::setup) throw SetupDone{};
  const par::ParRunStats st =
      spans_.time("par.run_s", [&] { return cluster.run(spec); });
  fold(st.event_digest);
  fold(st.events_processed);
  counts_.par_events += st.events_processed;
  counts_.par_windows += st.windows;
  counts_.par_cross_posts += st.cross_posts;
  counts_.net_chunks += st.fabric_chunks;
  return st;
}

double Pass::setup_s() const {
  double s = 0.0;
  for (const char* span : kSetupSpans) s += spans_.get(span);
  return s;
}

void Pass::fold(std::uint64_t v) {
  icsim::sim::check::Fnv1a f;
  f.fold(digest_);
  f.fold(v);
  digest_ = f.value();
}

void Pass::fold(double v) { fold(std::bit_cast<std::uint64_t>(v)); }

// ---- registry and verification ------------------------------------------

const WorkloadDef* find_workload(const std::string& name) {
  for (const WorkloadDef& d : registry()) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> out;
  for (const WorkloadDef& d : registry()) out.push_back(d.name);
  return out;
}

bool cg_zeta_ok(double zeta) {
  return std::abs(zeta - kCgClassSZeta) <= 1e-9;
}

bool md_ok(const md::MdResult& r, int ranks, const md::MdConfig& cfg) {
  // The bounds tests/test_apps_md.cpp holds the MD kernels to.
  const std::uint64_t atoms = static_cast<std::uint64_t>(ranks) * 4 *
                              static_cast<std::uint64_t>(cfg.cells_x) *
                              static_cast<std::uint64_t>(cfg.cells_y) *
                              static_cast<std::uint64_t>(cfg.cells_z);
  return r.natoms_global == atoms && r.pair_evals > 0 &&
         r.total_energy_drift < 5e-3 &&
         r.momentum_abs < 1e-9 * std::sqrt(static_cast<double>(atoms));
}

bool traffic_ok(const traffic::RunStats& s) {
  return s.offered > 0 && s.offered == s.delivered + s.stragglers + s.dropped;
}

bool par_ok(const par::ParRunStats& s, int nodes,
            const par::CollectiveSpec& spec) {
  // Power-of-two node counts: dissemination barrier and recursive-doubling
  // allreduce both take log2(n) rounds of one single-chunk message per rank.
  if (nodes < 2 || !std::has_single_bit(static_cast<unsigned>(nodes))) {
    return false;
  }
  const std::uint64_t rounds = static_cast<std::uint64_t>(
      std::countr_zero(static_cast<unsigned>(nodes)));
  const std::uint64_t messages = static_cast<std::uint64_t>(nodes) * rounds *
                                 static_cast<std::uint64_t>(spec.iterations);
  return s.messages == messages && s.fabric_chunks == messages;
}

}  // namespace perfbench
