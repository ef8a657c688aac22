#include "host.hpp"

#include <sched.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory_resource>
#include <numeric>
#include <vector>

#include "layers.hpp"

namespace perfbench {

namespace {

volatile std::uint64_t g_probe_sink;  // keeps the probe's work observable

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

/// A dependent walk over a 512 KB random cycle with a data-dependent
/// branch: cache- and branch-bound like the simulator, about a millisecond.
double probe_seconds() {
  constexpr std::uint32_t kSlots = 1u << 16;
  static const std::vector<std::uint32_t> next = [] {
    std::vector<std::uint32_t> order(kSlots);
    std::iota(order.begin(), order.end(), 0u);
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (std::uint32_t i = kSlots - 1; i > 0; --i) {  // Fisher-Yates
      std::swap(order[i], order[xorshift(x) % (i + 1)]);
    }
    std::vector<std::uint32_t> n(kSlots);
    for (std::uint32_t i = 0; i < kSlots; ++i) n[order[i]] = order[(i + 1) % kSlots];
    return n;
  }();
  const Clock::time_point t0 = Clock::now();
  std::uint32_t at = 0;
  std::uint64_t acc = 0;
  for (int i = 0; i < 100000; ++i) {
    at = next[at];
    acc += (at & 1u) ? at : acc >> 3;
  }
  g_probe_sink = acc;
  return seconds_between(t0, Clock::now());
}

void pin(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  (void)sched_setaffinity(0, sizeof one, &one);
}

/// One run of the reference probe, about 2 ms.
double event_queue_probe() {
  // Pop the earliest of 512 timed entries and insert a successor a
  // pseudo-random time later, as a discrete-event engine does: pointer
  // chasing, data-dependent branches, node allocation.  Of the probes
  // tried (a cache-sized and a memory-sized dependent walk, an integer
  // ALU chain, this loop), this one's time tracked the workloads' across
  // slow and fast phases most closely.  Nodes come from a pool on a
  // static buffer, never from the program's allocator.
  constexpr int kQueued = 512;
  constexpr int kSteps = 12000;
  alignas(std::max_align_t) static std::array<std::byte, 1 << 20> arena;
  std::pmr::monotonic_buffer_resource buffer(arena.data(), arena.size(),
                                             std::pmr::null_memory_resource());
  std::pmr::unsynchronized_pool_resource pool(&buffer);
  const Clock::time_point t0 = Clock::now();
  {
    std::pmr::multimap<std::uint64_t, std::uint64_t> queue(&pool);
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (int i = 0; i < kQueued; ++i) {
      const std::uint64_t v = xorshift(x);
      queue.emplace(v % 100000, v);
    }
    std::uint64_t acc = 0;
    for (int i = 0; i < kSteps; ++i) {
      const auto head = queue.begin();
      const std::uint64_t now = head->first;
      acc += head->second;
      queue.erase(head);
      const std::uint64_t v = xorshift(x);
      queue.emplace(now + v % 1000, v);
    }
    g_probe_sink = acc;
  }
  return seconds_between(t0, Clock::now());
}

/// A bracket is the median of this many probes: a short burst of
/// interference then moves it no more than it moves the simulation.
constexpr int kProbeRepeats = 5;

}  // namespace

double reference_probe_seconds() {
  std::array<double, kProbeRepeats> t;
  for (double& v : t) v = event_queue_probe();
  std::nth_element(t.begin(), t.begin() + kProbeRepeats / 2, t.end());
  return t[kProbeRepeats / 2];
}

double on_reference_host(double seconds, double probe_before,
                         double probe_after) {
  return seconds * kReferenceProbeSeconds / (0.5 * (probe_before + probe_after));
}

double move_to_quietest_cpu() {
  static const std::vector<int> allowed = [] {
    std::vector<int> cpus;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus.push_back(c);
      }
    }
    return cpus;
  }();
  if (allowed.size() < 2) return std::min(probe_seconds(), probe_seconds());
  int best_cpu = allowed.front();
  double best = 1e300;
  for (const int c : allowed) {
    pin(c);
    const double t = std::min(probe_seconds(), probe_seconds());
    if (t < best) {
      best = t;
      best_cpu = c;
    }
  }
  pin(best_cpu);
  return best;
}

}  // namespace perfbench
