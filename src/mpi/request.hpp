#pragma once
// Nonblocking-operation state shared between the MPI API and transports.

#include <cstddef>
#include <cstdint>
#include <memory>

#include "mpi/types.hpp"
#include "sim/blocking.hpp"

namespace icsim::mpi {

struct RequestState {
  enum class Kind { send, recv };

  RequestState(sim::Engine& engine, Kind k)
      : kind(k), engine(&engine), trigger(engine) {}

  Kind kind;
  bool complete = false;
  bool failed = false;   ///< completed by a transport watchdog, not delivery
  Status status{};       ///< filled for receives
  sim::Engine* engine;   ///< for the completion timestamp below
  sim::Trigger trigger;  ///< fired on completion
  /// Simulated time at which the transport completed the operation.  A late
  /// wait()/test() observes the true completion instant, not the instant the
  /// fiber got around to asking — the open-loop traffic layer (src/traffic/)
  /// measures sojourn times from this, immune to harvest-loop lag.
  sim::Time completed_at = sim::Time::zero();
  /// Capture sequence number (see mpi/recorder.hpp): the k-th top-level
  /// isend/irecv of a recorded rank carries k here; -1 when no recorder is
  /// attached or the request was issued inside a collective.
  std::int64_t trace_id = -1;

  void finish(const Status& st) {
    status = st;
    complete = true;
    completed_at = engine->now();
    trigger.fire();
  }
  void finish() {
    complete = true;
    completed_at = engine->now();
    trigger.fire();
  }
  /// Watchdog path: mark the operation errored-but-complete so the waiting
  /// fiber unblocks (a lost message surfaces as a counted failure instead of
  /// a deadlocked rank).  `status` keeps its defaults (source/tag -1).
  void fail() {
    failed = true;
    complete = true;
    completed_at = engine->now();
    trigger.fire();
  }
};

/// Block the calling fiber until `req` completes.  With a nonzero
/// `watchdog`, an event that long from now fails the request if it is still
/// pending and counts it in `timeouts`, so a lost message surfaces as a
/// counted failure instead of a deadlocked rank.
inline void wait_with_watchdog(RequestState& req, sim::Time watchdog,
                               std::uint64_t& timeouts) {
  if (watchdog <= sim::Time::zero()) {
    req.trigger.wait();
    return;
  }
  sim::EventHandle wd =
      req.engine->schedule_in(watchdog, [rp = &req, n = &timeouts] {
        if (!rp->complete) {
          ++*n;
          rp->fail();
        }
      });
  req.trigger.wait();
  wd.cancel();  // immediate cancel keeps the aliased request safe
}

/// Cheap handle; a default-constructed Request is "null" and already
/// complete (like MPI_REQUEST_NULL).
class Request {
 public:
  Request() = default;
  explicit Request(std::shared_ptr<RequestState> s) : state_(std::move(s)) {}

  [[nodiscard]] bool valid() const { return state_ != nullptr; }
  [[nodiscard]] bool complete() const { return !state_ || state_->complete; }
  [[nodiscard]] RequestState* state() { return state_.get(); }
  [[nodiscard]] const Status& status() const { return state_->status; }

 private:
  std::shared_ptr<RequestState> state_;
};

}  // namespace icsim::mpi
