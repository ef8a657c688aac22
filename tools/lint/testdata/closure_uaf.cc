// Detection fixture for the closure-lifetime pass: every shape here captures
// the enclosing frame into a closure whose execution is deferred past the
// frame's lifetime — the canonical DES use-after-free.  Never compiled — it
// exists for the `lint_detects_closure_lifetime` ctest case.
#include <cstdint>
#include <memory>
#include <utility>

#include "sim/par_engine.hpp"
#include "sim/engine.hpp"
#include "sim/fiber.hpp"
#include "sim/time.hpp"

namespace fixture {

void consume(int n);

// [&x] on a stack local: `pending` dies when arm_counter() returns; the
// event fires later and scribbles on a dead frame.
void arm_counter(icsim::sim::Engine& engine) {
  int pending = 0;
  engine.post_in(icsim::sim::Time::us(1), [&pending] { pending += 1; });
}

struct Stats {
  int hits;
};

// [s = &x] materializes a pointer to the dying frame — by-value init-capture
// syntax, by-reference lifetime.
void arm_pointer(icsim::sim::Engine& engine, icsim::sim::Time t) {
  Stats local{};
  engine.post_at(t, [s = &local] { s->hits += 1; });
}

// [&] default capture: the body's use of `budget` is what dangles.
void arm_default(icsim::sim::Engine& engine, int budget) {
  engine.post_in(icsim::sim::Time::us(2), [&] { consume(budget); });
}

// Named lambda handed to post_cross later in the body (the forward shape):
// the pass must resolve `std::move(cont)` back to its capture list.  The
// delay routes through lookahead(), so only closure-lifetime fires here.
void forward_credit(icsim::sim::ParEngine& eng, std::uint32_t from,
                    std::uint32_t to) {
  int credits = 4;
  auto cont = [&credits] { credits -= 1; };
  eng.post_cross(from, to, eng.lookahead(), std::move(cont));
}

// Fiber bodies outlive the arming frame exactly like posted closures.
std::unique_ptr<icsim::sim::Fiber> spawn_worker() {
  int steps = 0;
  return std::make_unique<icsim::sim::Fiber>([&steps] { steps += 1; });
}

}  // namespace fixture
