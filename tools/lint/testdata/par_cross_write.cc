// Detection fixture for the cross-shard-conformance pass (the `par_`
// filename prefix puts it in the partitioned tier).  Two violations:
//
//   * a write to a shard-classified manifest site whose index does
//     arithmetic on the executing-partition id — partition `self` mutating
//     partition `self + 1`'s slot is a cross-partition write that bypasses
//     post_cross();
//   * a post_cross() whose delay is a bare constant instead of dataflowing
//     from the lookahead window — the conservative-parallel safety argument
//     only holds when every cross-partition event is at least one lookahead
//     ahead.
//
// Never compiled — exists for `lint_detects_cross_shard_write`.
#include <cstdint>
#include <vector>

#include "sim/par_engine.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace fixture {

// Per-partition credit counters: `shard` in the manifest.
std::vector<std::uint64_t> g_credits;

// Reached from the handler below; writes a *neighbour's* slot.
void credit_neighbor(std::uint32_t self, std::uint64_t n) {
  g_credits[self + 1] += n;
}

void arm(icsim::sim::Engine& engine, std::uint32_t self) {
  engine.post_in(icsim::sim::Time::us(1), [self] { credit_neighbor(self, 1); });
}

// Hand-rolled 40ns hop instead of the lookahead accessor: even if the value
// happens to be safe today, nothing ties it to wire+switch latency when the
// config changes.
void forward_bad(icsim::sim::ParEngine& eng, std::uint32_t from,
                 std::uint32_t to) {
  const icsim::sim::Time hop = icsim::sim::Time::ns(40);
  eng.post_cross(from, to, hop, [] {});
}

}  // namespace fixture
