#pragma once
// MVAPICH-0.9.2-style MPI transport over the InfiniBand HCA model.
//
// Protocol structure (after Liu et al. and the MVAPICH 0.9.x design):
//   * eager: messages <= eager_threshold are copied into a preregistered
//     "vbuf" and RDMA-written into a per-peer ring of slots at the
//     receiver; flow control is credit-based (ring occupancy), credits
//     returned by piggyback or an explicit update;
//   * rendezvous: RTS control message -> receiver matches, registers the
//     application buffer (pin-down cache), replies CTS -> sender registers
//     and RDMA-writes the payload zero-copy -> completion notice.
//
// The property the paper hammers on: NOTHING here advances unless the
// owning rank is inside an MPI call.  Arrivals are queued raw and all
// protocol handling (matching, copies, CTS generation, completion
// detection) happens in progress(), which runs on the host CPU in the
// caller's fiber.  A rank that is computing does not match, does not send
// CTS, and does not notice completions (Sections 3.3.3-3.3.5).

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "ib/hca.hpp"
#include "mpi/matcher.hpp"
#include "mpi/transport.hpp"
#include "node/node.hpp"
#include "sim/engine.hpp"
#include "sim/stats.hpp"

namespace icsim::mpi {

struct MvapichConfig {
  std::size_t eager_threshold = 1024;  ///< paper: latency jump between 1 and 2 KB
  int ring_slots = 32;                 ///< RDMA eager ring depth per peer
  std::uint32_t vbuf_bytes = 2048;
  sim::Time o_send = sim::Time::us(0.6);   ///< host cost to post a send
  sim::Time o_recv = sim::Time::us(0.30);  ///< host cost to post a receive
  sim::Time o_arrival = sim::Time::us(1.0);  ///< host cost per arrival processed
  sim::Time o_match_per_entry = sim::Time::ns(30);
  sim::Time rndv_accept_cost = sim::Time::us(0.4);  ///< RTS accept handling
  sim::Time cts_handle_cost = sim::Time::us(0.4);
  std::size_t envelope_bytes = 48;  ///< eager wire header
  std::uint32_t ctrl_bytes = 64;    ///< RTS/CTS/credit wire size
  /// Host-side protocol processing (matching, copies, rendezvous handling)
  /// runs on the application CPU and fights the sibling rank for the cache
  /// and front-side bus.  This multiplier applies to those charges while
  /// the other CPU is computing — the paper's 2-PPN "cache pollution and
  /// host load" effect (Section 4.2.1), which an offloaded NIC avoids.
  double smp_host_penalty = 1.8;
  /// ABLATION KNOB (off in the calibrated MVAPICH 0.9.2 model): process
  /// arrivals from a dedicated service context instead of only inside MPI
  /// calls.  This is the "independent progress" the paper says InfiniBand
  /// MPIs of the day lacked (Section 3.3.3); enabling it isolates how much
  /// of the application gap that one property explains.
  bool independent_progress = false;
  /// Watchdog for blocking waits: when nonzero, a wait that sees no
  /// completion for this long fails the request (RequestState::fail) and
  /// counts a timeout instead of blocking the fiber forever.  Zero (the
  /// default) keeps waits unbounded — the fault-free fast path is untouched.
  sim::Time watchdog_timeout = sim::Time::zero();
};

class MvapichTransport final : public Transport {
 public:
  MvapichTransport(sim::Engine& engine, int rank, node::Node& node,
                   ib::Hca& hca, const MvapichConfig& config);

  /// Wire up the full job: every rank connects a QP to every other rank and
  /// pins its eager rings (MVAPICH 0.9.2 connected eagerly at MPI_Init).
  /// Returns the per-rank init cost and records ring-memory statistics.
  [[nodiscard]] static sim::Time init_world(
      const std::vector<MvapichTransport*>& world);

  void post_send(const SendArgs& args) override;
  void post_recv(const RecvArgs& args) override;
  void wait(RequestState& req) override;
  bool test(RequestState& req) override;
  bool iprobe(int src, int tag, int context, Status* st) override;
  void progress() override;
  [[nodiscard]] int rank() const override { return rank_; }
  [[nodiscard]] int size() const override { return static_cast<int>(peers_.size()); }

  /// Registered eager-ring memory this rank dedicates to peers (the paper's
  /// point about buffer space scaling with job size).
  [[nodiscard]] std::uint64_t ring_memory_bytes() const;

  /// Spawn the service fiber that drives progress outside MPI calls
  /// (only when cfg.independent_progress is set; called by the cluster).
  void enable_independent_progress();
  [[nodiscard]] const MvapichConfig& config() const { return cfg_; }
  [[nodiscard]] ib::Hca& hca() { return hca_; }
  [[nodiscard]] const Matcher& matcher() const { return matcher_; }
  /// Requests failed by the wait watchdog on this rank.
  [[nodiscard]] std::uint64_t watchdog_timeouts() const {
    return watchdog_timeouts_;
  }

 private:
  /// Pinned bytes of one peer's eager ring: what init_world registers per
  /// connection, and the unit ring_memory_bytes() counts.
  [[nodiscard]] std::uint64_t ring_bytes_per_peer() const;

  struct WireMsg {
    enum class Kind { eager, rts, cts, rndv_data, credit };
    Kind kind = Kind::eager;
    int src = -1, dst = -1, tag = 0, context = kWorldContext;
    std::size_t bytes = 0;
    std::shared_ptr<std::vector<std::byte>> payload;
    std::uint64_t sender_rec = 0;    ///< sender-side rendezvous record
    std::uint64_t receiver_rec = 0;  ///< receiver-side posted-recv record
    int piggyback_credits = 0;
    /// Eager sends complete when the message is actually dispatched to the
    /// wire (WQE posted), not while parked waiting for ring credits.
    std::shared_ptr<RequestState> req_on_dispatch;
  };
  using WireMsgPtr = std::shared_ptr<WireMsg>;

  struct PendingSendRec {  ///< rendezvous send awaiting CTS
    SendArgs args;
  };
  struct PostedRecvRec {  ///< posted receive (matched later)
    RecvArgs args;
  };
  struct PeerState {
    int credits = 0;  ///< free slots in the ring at the peer
    int freed = 0;    ///< slots we consumed and released, owed back to peer
    std::deque<WireMsgPtr> stalled;  ///< ring messages waiting for credits
  };

  void on_delivery(const ib::Delivery& d);
  void handle(const WireMsgPtr& m);  // runs in the owner's fiber, may sleep
  void handle_eager(const WireMsgPtr& m);
  void handle_rts(const WireMsgPtr& m);
  void handle_cts(const WireMsgPtr& m);
  void handle_rndv_data(const WireMsgPtr& m);
  void accept_rts(const WireMsgPtr& rts, PostedRecvRec rec);
  void send_ring_message(const WireMsgPtr& m, bool complete_req_on_post);
  void dispatch_ring_message(const WireMsgPtr& m);
  void flush_stalled(int peer);
  void deliver_eager_payload(const WireMsgPtr& m, const PostedRecvRec& rec);
  void charge(sim::Time t);  // fiber sleep on this rank's host CPU
  void charge_host(sim::Time t);  // protocol work: SMP penalty applies
  [[nodiscard]] std::uint32_t wire_bytes(const WireMsg& m) const;
  /// Lazily registered trace component ("rank<r>").
  std::uint32_t trace_component();
  /// Queue-depth counters + match-scan metrics after a matcher operation.
  void trace_match(std::size_t scanned);

  sim::Engine& engine_;
  int rank_;
  node::Node& node_;
  ib::Hca& hca_;
  MvapichConfig cfg_;

  std::vector<MvapichTransport*> peers_;  // world, indexed by rank
  std::vector<PeerState> peer_state_;

  Matcher matcher_;
  std::unordered_map<std::uint64_t, PendingSendRec> rndv_sends_;
  std::unordered_map<std::uint64_t, PostedRecvRec> posted_recvs_;
  std::unordered_map<std::uint64_t, WireMsgPtr> unexpected_;  // env.id -> msg
  std::uint64_t next_id_ = 1;

  std::uint32_t trace_id_ = 0;
  std::uint64_t watchdog_timeouts_ = 0;
  sim::RunningStat* uq_depth_stat_ = nullptr;   ///< cached metrics accumulator
  sim::RunningStat* match_scan_stat_ = nullptr;

  std::deque<WireMsgPtr> pending_;  ///< arrived, awaiting host processing
  std::deque<std::shared_ptr<RequestState>> local_completions_;
  sim::Fiber* blocked_ = nullptr;
  bool wake_scheduled_ = false;
  bool in_progress_ = false;

  // Independent-progress ablation.
  std::unique_ptr<sim::Fiber> service_fiber_;
  bool service_parked_ = false;
  bool service_wake_scheduled_ = false;
  void service_loop();
  void wake_service();
};

}  // namespace icsim::mpi
