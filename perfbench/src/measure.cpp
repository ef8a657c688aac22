#include "measure.hpp"

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <vector>

#include "host.hpp"
#include "replay/replay.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

// Set-up repetitions per pass: at least this many, and for at least this
// long, so that a set-up of a fraction of a millisecond still gets
// hundreds of samples.
constexpr int kSetupRepeats = 5;
constexpr double kSetupSeconds = 0.05;

/// Run one pass of `w`, adding its outcome to `out`; returns its wall time.
double run_pass(const WorkloadDef& w, Pass& p, Outcome& out, bool first) {
  const Clock::time_point t0 = Clock::now();
  w.body(p);
  const double wall = seconds_between(t0, Clock::now());
  if (p.attempted() == 0) {
    throw BenchError("workload " + w.name + " ran no simulation");
  }
  out.attempted += p.attempted();
  out.failed += p.failed();
  if (first) {
    out.report_digest = p.report_digest();
  } else if (p.report_digest() != out.report_digest) {
    out.correct = false;  // same seed, same program: outputs must repeat
    std::fprintf(stderr, "perfbench: %s: report digest changed between passes\n",
                 w.name.c_str());
  }
  return wall;
}

/// Another pass fits if half of a typical one still fits in the run.
bool another_fits(Clock::time_point start, const std::vector<double>& walls,
                  double seconds) {
  return seconds_between(start, Clock::now()) + 0.5 * median(walls) < seconds;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Best of N: interference from other work on the host only ever adds
/// time.  Of the rescaled times (host.hpp) too, the run's best was
/// steadier from run to run than its median: on the parallel engine's
/// short simulations, the median of one 20 s run moved by up to a fifth
/// against another's, the best by 3%.
double best(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/// Removes the capture directory however the traced run ends.
struct ScratchDir {
  fs::path path;
  explicit ScratchDir(fs::path p) : path(std::move(p)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
};

struct ReplayTotals {
  double run_s = 0.0;
  CallCounts calls;
};

/// Replay every captured simulation on a fresh cluster of the same
/// configuration; each must reproduce its captured event digest.
ReplayTotals replay_all(const std::vector<Captured>& captured) {
  ReplayTotals t;
  for (const Captured& c : captured) {
    const icsim::replay::TraceProgram program =
        icsim::replay::TraceProgram::load_dir(c.dir);
    std::vector<CallCounter> counters(static_cast<std::size_t>(
        c.config.nodes * c.config.ppn));
    core::Cluster cluster(c.config);  // destroyed before the counters
    for (int r = 0; r < cluster.ranks(); ++r) {
      cluster.mpi_of(r).set_recorder(&counters[static_cast<std::size_t>(r)]);
    }
    const Clock::time_point t0 = Clock::now();
    (void)cluster.run([&program](icsim::mpi::Mpi& m) { program.run_rank(m); });
    t.run_s += seconds_between(t0, Clock::now());
    for (const CallCounter& k : counters) t.calls += k.counts();
    const std::uint64_t got = cluster.stats().event_digest;
    if (got != c.event_digest) {
      char msg[160];
      std::snprintf(msg, sizeof msg,
                    "replay of %s: event digest %016" PRIx64
                    " != captured %016" PRIx64,
                    c.dir.c_str(), got, c.event_digest);
      throw BenchError(msg);
    }
  }
  return t;
}

void end_to_end(const WorkloadDef& w, const Options& opt, Outcome& out) {
  std::vector<std::vector<double>> sim_walls;  // [simulation][pass]
  std::vector<double> pass_walls, setups;
  const Clock::time_point start = Clock::now();
  do {
    Pass p(opt.seed, Mode::plain);
    pass_walls.push_back(run_pass(w, p, out, pass_walls.empty()));
    sim_walls.resize(p.sim_walls().size());
    for (std::size_t i = 0; i < sim_walls.size(); ++i) {
      sim_walls[i].push_back(p.sim_walls()[i]);
    }
    // Set-up is milliseconds against seconds of simulation: repeat it
    // alone, spread over the run like the passes.
    (void)move_to_quietest_cpu();
    const double probe_before = reference_probe_seconds();
    std::vector<double> raw;
    const Clock::time_point setup_start = Clock::now();
    for (int i = 0; i < kSetupRepeats ||
                    seconds_between(setup_start, Clock::now()) < kSetupSeconds;
         ++i) {
      Pass s(opt.seed, Mode::setup);
      w.body(s);
      raw.push_back(s.setup_s());
    }
    const double probe_after = reference_probe_seconds();
    for (const double t : raw) {
      setups.push_back(on_reference_host(t, probe_before, probe_after));
    }
  } while (another_fits(start, pass_walls, opt.seconds));

  double wall = 0.0;
  for (const std::vector<double>& v : sim_walls) wall += best(v);
  out.report.add("wall_s", wall, "s");
  out.report.add("setup_s", best(setups), "s");
  out.report.add("peak_rss_mb", peak_rss_mb(), "MB");
}

void per_layer(const WorkloadDef& w, const Options& opt, Outcome& out) {
  {
    Pass p(opt.seed, Mode::plain);  // sets the digest the others must match
    (void)run_pass(w, p, out, true);
  }
  // Applications: capture once, then replay the traces in every round.
  std::optional<ScratchDir> dir;
  std::vector<Captured> captured;
  if (w.app) {
    dir.emplace(fs::path(opt.tmp_dir) /
                ("perfbench-capture-" + std::to_string(getpid())));
    Pass cap(opt.seed, Mode::capture, dir->path.string());
    (void)run_pass(w, cap, out, false);
    if (!out.correct) {
      throw BenchError("the capturing run's report digest differs from the "
                       "untraced run's");
    }
    captured = cap.captured();
  }

  // Untraced, traced and replay passes take turns so drift hits all alike.
  std::vector<double> plain_walls, traced_walls, replay_runs, round_walls;
  std::vector<Pass> traced;
  ReplayTotals replay;
  const Clock::time_point start = Clock::now();
  do {
    const Clock::time_point t0 = Clock::now();
    {
      Pass p(opt.seed, Mode::plain);
      plain_walls.push_back(run_pass(w, p, out, false));
    }
    traced.emplace_back(opt.seed, Mode::traced);
    traced_walls.push_back(run_pass(w, traced.back(), out, false));
    if (!captured.empty()) {
      replay = replay_all(captured);
      replay_runs.push_back(replay.run_s);
    }
    round_walls.push_back(seconds_between(t0, Clock::now()));
  } while (another_fits(start, round_walls, opt.seconds));
  if (!out.correct) {
    throw BenchError("the call-counting run's report digest differs from "
                     "the untraced run's");
  }

  const auto span = [&traced](const char* name) {
    std::vector<double> v;
    for (const Pass& p : traced) v.push_back(p.spans().get(name));
    return best(v);
  };
  const LayerCounts& k = traced.front().counts();
  const double run_s = span("core.run_s");
  const double par_run_s = span("par.run_s");

  double numerics_s = 0.0;
  if (w.app) {
    if (!(replay.calls == k.calls)) {
      throw BenchError("replay made a different number of MPI calls than "
                       "the application");
    }
    numerics_s = run_s - best(replay_runs);
  }

  Report& r = out.report;
  r.add("fail_frac", ratio(static_cast<double>(out.failed),
                           static_cast<double>(out.attempted)), "ratio");
  r.add("core.build_s", span("core.build_s"), "s");
  r.add("core.run_s", run_s, "s");
  r.add("traffic.plan_s", span("traffic.plan_s"), "s");
  r.add("traffic.delivered", static_cast<double>(k.traffic_delivered), "count");
  r.add("traffic.dropped", static_cast<double>(k.traffic_dropped), "count");
  r.add("sim.events", static_cast<double>(k.sim_events + k.par_events), "count");
  r.add("sim.run_ns_per_event",
        1e9 * ratio(run_s, static_cast<double>(k.sim_events)), "ns");
  r.add("mpi.calls", static_cast<double>(k.calls.calls), "count");
  r.add("mpi.blocking_calls", static_cast<double>(k.calls.blocking_calls), "count");
  r.add("mpi.bytes", static_cast<double>(k.calls.bytes), "bytes");
  r.add("mpi.run_ns_per_call",
        1e9 * ratio(run_s, static_cast<double>(k.calls.calls)), "ns");
  r.add("mpi.max_unexpected_depth", static_cast<double>(k.max_unexpected_depth),
        "count");
  r.add("net.chunks", static_cast<double>(k.net_chunks), "count");
  r.add("net.max_link_busy_us", k.max_link_busy_us, "us");
  r.add("ib.hca_writes", static_cast<double>(k.hca_writes), "count");
  r.add("ib.reg_misses", static_cast<double>(k.reg_misses), "count");
  r.add("ib.reg_hit_ratio",
        ratio(static_cast<double>(k.reg_hits),
              static_cast<double>(k.reg_hits + k.reg_misses)), "ratio");
  r.add("elan.nic_thread_busy_us", k.nic_thread_busy_us, "us");
  r.add("elan.nic_buffer_high_water", static_cast<double>(k.nic_buffer_high_water),
        "bytes");
  r.add("apps.numerics_s", numerics_s, "s");
  r.add("apps.share", ratio(numerics_s, run_s), "ratio");
  r.add("apps.pair_evals", static_cast<double>(k.pair_evals), "count");
  r.add("par.build_s", span("par.build_s"), "s");
  r.add("par.run_s", par_run_s, "s");
  r.add("par.events", static_cast<double>(k.par_events), "count");
  r.add("par.windows", static_cast<double>(k.par_windows), "count");
  r.add("par.cross_posts", static_cast<double>(k.par_cross_posts), "count");
  r.add("par.ns_per_event",
        1e9 * ratio(par_run_s, static_cast<double>(k.par_events)), "ns");
  r.add("bench.trace_overhead",
        best(traced_walls) / best(plain_walls) - 1.0, "ratio");
}

}  // namespace

Outcome measure(const WorkloadDef& w, const Options& opt) {
  Outcome out;
  out.correct = true;
  if (opt.trace) {
    per_layer(w, opt, out);
  } else {
    end_to_end(w, opt, out);
  }
  out.correct = out.correct && out.failed == 0;
  return out;
}

}  // namespace perfbench
