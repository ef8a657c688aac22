// Near-miss fixture for the cross-shard-conformance pass: the partitioned
// tier done right, adjacent to every par_cross_write.cc shape.  Must scan
// clean (exit 0) — notably the shard-classified write below is exactly the
// shape the shared-state pass exempts once the index reduces to the
// executing partition.  Exercised by `lint_par_cross_clean_fixture_passes`.
#include <cstdint>
#include <vector>

#include "sim/par_engine.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace fixture {

// Per-partition slot counters: `shard` in the manifest, and every write is
// subscripted by the executing partition itself.  The per-TU
// parallel-purity rule cannot see that; in the partitioned tier the
// manifest plus the cross-shard-conformance pass police this state.
// icsim-lint: allow(parallel-purity)
std::vector<std::uint64_t> g_slots;

void bump_slot(std::uint32_t self, std::uint64_t n) {
  g_slots[self] += n;
}

// Casts and parens around the executing-partition index are transparent.
void bump_slot_cast(std::uint32_t self) {
  g_slots[static_cast<std::size_t>(self)] += 1;
}

void arm(icsim::sim::Engine& engine, std::uint32_t self) {
  engine.post_in(icsim::sim::Time::us(1), [self] { bump_slot(self, 1); });
}

// Cross-partition traffic routes through post_cross with the delay
// dataflowing from the lookahead accessor — through a local, which the
// provenance scan must follow.
void forward(icsim::sim::ParEngine& eng, std::uint32_t from,
             std::uint32_t to) {
  const icsim::sim::Time arrival = eng.now() + eng.lookahead();
  eng.post_cross(from, to, arrival, [] {});
}

// wire + switch latency is the lookahead constant by definition.
void forward_terms(icsim::sim::ParEngine& eng, std::uint32_t from,
                   std::uint32_t to, icsim::sim::Time wire_latency,
                   icsim::sim::Time switch_latency) {
  eng.post_cross(from, to, wire_latency + switch_latency, [] {});
}

}  // namespace fixture
