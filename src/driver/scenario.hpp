#pragma once
// Scenario registry for the parallel sweep driver.
//
// Every figure of the reproduced study is a sweep: message sizes for
// Fig. 1, node counts for Figs. 2-6, price points for Figs. 7-8.  Each
// sweep point is registered as a self-contained Scenario: a closure that
// builds a *fresh* Engine/Cluster/workload, runs it, and returns a
// PointResult.  Nothing is shared between points, so the runner
// (runner.hpp) may execute them on any worker thread in any order — the
// simulation inside each point stays single-threaded and deterministic.
//
// Points belong to named groups (one group per figure).  A group may
// carry a `finalize` hook that runs serially after every point of the
// group has completed, in registry order: this is where cross-point
// derived values (scaling efficiencies against a 1-node baseline,
// Elan:IB ratios, trend fits) are computed, so they are identical no
// matter how the points were scheduled.
//
// Registration is explicit — main() calls register_<group>(registry) in a
// fixed order — rather than via static initializers, whose cross-TU order
// the language leaves unspecified and which would break the "aggregate in
// registry order" determinism contract.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace icsim::driver {

/// One named value produced by a sweep point.  `precision` is how many
/// decimal places the console table shows; JSON/CSV always serialize with
/// full round-trip precision.
struct Metric {
  std::string name;
  double value = 0.0;
  int precision = 2;
};

/// Everything one sweep point reports back.  `wall_ms` is filled by the
/// runner and deliberately excluded from the deterministic serializations.
struct PointResult {
  std::vector<Metric> metrics;          ///< ordered as the scenario added them
  std::uint64_t events = 0;             ///< DES events the point processed
  std::uint64_t digest = 0;             ///< Engine::event_digest of the run
  std::string error;                    ///< non-empty: the scenario threw
  double wall_ms = 0.0;                 ///< host wall clock (not serialized)

  void add(std::string name, double value, int precision = 2) {
    metrics.push_back({std::move(name), value, precision});
  }
  [[nodiscard]] const Metric* find(const std::string& name) const {
    for (const auto& m : metrics) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }
  [[nodiscard]] double value(const std::string& name, double fallback = 0.0) const {
    const Metric* m = find(name);
    return m != nullptr ? m->value : fallback;
  }
};

/// A registered sweep point: group it belongs to, unique name within the
/// group, and the factory closure that runs it from scratch.
struct Scenario {
  std::string group;
  std::string name;
  std::function<PointResult()> run;
};

/// Per-group metadata.  `finalize` receives the group's completed points
/// (registry order) and may append derived metrics to them; the strings it
/// returns are printed after the group's table and serialized as the
/// group's summary.
struct Group {
  std::string name;
  std::string title;
  std::function<std::vector<std::string>(std::vector<PointResult>&)> finalize;
};

class Registry {
 public:
  /// Get-or-create a group.  First call fixes its position in the output;
  /// `title` and `finalize` of later calls apply only if still unset.
  Group& group(const std::string& name, const std::string& title = "");

  /// Register one sweep point.  Creates the group on first use.
  void add(const std::string& group, std::string name,
           std::function<PointResult()> run);

  [[nodiscard]] const std::vector<Group>& groups() const { return groups_; }
  [[nodiscard]] const std::vector<Scenario>& scenarios() const { return scenarios_; }

  /// Scenario indices for the named groups (all scenarios when `names` is
  /// empty), preserving registry order.  Throws std::invalid_argument on an
  /// unknown group name, listing what is registered, and on a selected
  /// group with no points, quoting its title (which says what was missing).
  [[nodiscard]] std::vector<std::size_t> select(
      const std::vector<std::string>& names) const;

  [[nodiscard]] bool has_group(const std::string& name) const;

 private:
  std::vector<Group> groups_;
  std::vector<Scenario> scenarios_;
};

}  // namespace icsim::driver
