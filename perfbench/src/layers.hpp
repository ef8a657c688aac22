#pragma once
// Per-layer instrumentation applied from outside the program: host-time
// spans bracketing calls into a layer's public entry points, and an
// mpi::Recorder that counts top-level MPI calls.  Neither touches
// simulated state, so an instrumented run keeps its event digest.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mpi/recorder.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Host seconds accumulated per span name ("core.run_s", ...).
class Spans {
 public:
  /// Run `f`, adding its host time to `name`; returns what `f` returns.
  template <typename F>
  decltype(auto) time(const std::string& name, F&& f) {
    struct Stop {
      Spans& s;
      const std::string& n;
      Clock::time_point t0 = Clock::now();
      ~Stop() { s.add(n, seconds_between(t0, Clock::now())); }
    } stop{*this, name};
    return f();
  }
  void add(const std::string& name, double s) { total_[name] += s; }
  [[nodiscard]] double get(const std::string& name) const {
    const auto it = total_.find(name);
    return it == total_.end() ? 0.0 : it->second;
  }

 private:
  std::map<std::string, double> total_;
};

/// Counts of the top-level MPI calls the ranks made.
struct CallCounts {
  std::uint64_t calls = 0;           ///< every MPI call (compute excluded)
  std::uint64_t blocking_calls = 0;  ///< calls that may suspend the rank
  std::uint64_t bytes = 0;           ///< payload bytes the calls sent
  std::uint64_t computes = 0;        ///< Mpi::compute charges

  bool operator==(const CallCounts&) const = default;
  CallCounts& operator+=(const CallCounts& o);
};

/// Observation-only recorder: install one per rank with Mpi::set_recorder.
/// Blocking calls stand in for fiber switches, which have no public
/// counter.
class CallCounter final : public icsim::mpi::Recorder {
 public:
  [[nodiscard]] const CallCounts& counts() const { return c_; }

  void on_compute(icsim::sim::Time) override { ++c_.computes; }
  void on_send(int, std::size_t bytes, int) override { blocking(bytes); }
  void on_isend(int, std::size_t bytes, int) override { call(bytes); }
  void on_recv(int, std::size_t, int) override { blocking(0); }
  void on_irecv(int, std::size_t, int) override { call(0); }
  void on_wait(std::uint64_t) override { blocking(0); }
  void on_test(std::uint64_t) override { call(0); }
  void on_sendrecv(int, std::size_t send_bytes, int, int, std::size_t,
                   int) override {
    blocking(send_bytes);
  }
  void on_probe(int, int) override { blocking(0); }
  void on_iprobe(int, int) override { call(0); }
  void on_barrier() override { blocking(0); }
  void on_bcast(int, std::size_t bytes) override { blocking(bytes); }
  void on_reduce(int, std::size_t bytes, icsim::mpi::ReduceOp) override {
    blocking(bytes);
  }
  void on_allreduce(std::size_t bytes, icsim::mpi::ReduceOp) override {
    blocking(bytes);
  }
  void on_allgather(std::size_t bytes) override { blocking(bytes); }
  void on_alltoall(std::size_t bytes) override { blocking(bytes); }
  void on_alltoallv(std::vector<std::int64_t> send_bytes,
                    std::vector<std::int64_t>) override;
  void on_gather(int, std::size_t bytes) override { blocking(bytes); }
  void on_scan(std::size_t bytes, icsim::mpi::ReduceOp) override {
    blocking(bytes);
  }

 private:
  void call(std::size_t bytes) {
    ++c_.calls;
    c_.bytes += bytes;
  }
  void blocking(std::size_t bytes) {
    call(bytes);
    ++c_.blocking_calls;
  }

  CallCounts c_;
};

}  // namespace perfbench
