#include "mpi/mvapich_transport.hpp"

#include <cassert>
#include <cstring>
#include <stdexcept>
#include <string>

#include "trace/trace.hpp"

namespace icsim::mpi {

MvapichTransport::MvapichTransport(sim::Engine& engine, int rank,
                                   node::Node& node, ib::Hca& hca,
                                   const MvapichConfig& config)
    : engine_(engine), rank_(rank), node_(node), hca_(hca), cfg_(config) {
  if (config.eager_threshold + config.envelope_bytes > config.vbuf_bytes) {
    throw std::invalid_argument(
        "MvapichTransport: eager_threshold + envelope must fit in a vbuf");
  }
  hca_.attach(rank_, [this](const ib::Delivery& d) { on_delivery(d); });
}

sim::Time MvapichTransport::init_world(
    const std::vector<MvapichTransport*>& world) {
  sim::Time per_rank_cost = sim::Time::zero();
  for (MvapichTransport* t : world) {
    t->peers_ = world;
    t->peer_state_.assign(world.size(), PeerState{});
    sim::Time cost = sim::Time::zero();
    for (MvapichTransport* peer : world) {
      if (peer == t) continue;
      t->peer_state_[static_cast<std::size_t>(peer->rank_)].credits =
          t->cfg_.ring_slots;
      // Reliable connection + pinning of this peer's eager ring.
      cost += t->hca_.connect(t->rank_, &peer->hca_, peer->rank_);
      cost += t->hca_.reg_cache().pin_permanent(t->ring_bytes_per_peer());
    }
    per_rank_cost = cost > per_rank_cost ? cost : per_rank_cost;
  }
  return per_rank_cost;
}

std::uint64_t MvapichTransport::ring_bytes_per_peer() const {
  return static_cast<std::uint64_t>(cfg_.ring_slots) * cfg_.vbuf_bytes;
}

std::uint64_t MvapichTransport::ring_memory_bytes() const {
  const auto peers = peers_.empty() ? 0 : peers_.size() - 1;
  return static_cast<std::uint64_t>(peers) * ring_bytes_per_peer();
}

void MvapichTransport::charge(sim::Time t) {
  assert(sim::Fiber::current() != nullptr);
  if (t > sim::Time::zero()) sim::sleep_for(engine_, t);
}

void MvapichTransport::charge_host(sim::Time t) {
  // The service fiber of the independent-progress ablation models *ideal*
  // offloaded progress, so it is exempt from the host cache/FSB penalty;
  // protocol work done by the application CPU is not.
  const bool in_service =
      service_fiber_ && sim::Fiber::current() == service_fiber_.get();
  if (!in_service && node_.any_compute_active()) {
    t = t * cfg_.smp_host_penalty;
  }
  charge(t);
}

std::uint32_t MvapichTransport::wire_bytes(const WireMsg& m) const {
  switch (m.kind) {
    case WireMsg::Kind::eager:
      return static_cast<std::uint32_t>(m.bytes + cfg_.envelope_bytes);
    case WireMsg::Kind::rndv_data:
      return static_cast<std::uint32_t>(m.bytes + 16);
    case WireMsg::Kind::rts:
    case WireMsg::Kind::cts:
    case WireMsg::Kind::credit:
      return cfg_.ctrl_bytes;
  }
  return cfg_.ctrl_bytes;
}

std::uint32_t MvapichTransport::trace_component() {
  if (trace_id_ == 0) {
    trace_id_ = engine_.tracer().register_component(
        trace::Category::mpi, "rank" + std::to_string(rank_));
  }
  return trace_id_;
}

void MvapichTransport::trace_match(std::size_t scanned) {
  ICSIM_TRACE_WITH(engine_, tr) {
    const auto comp = trace_component();
    const auto t = engine_.now();
    tr.counter(trace::Category::mpi, comp, "unexpected_depth", t,
               static_cast<double>(matcher_.unexpected_depth()));
    tr.counter(trace::Category::mpi, comp, "posted_depth", t,
               static_cast<double>(matcher_.posted_depth()));
    if (uq_depth_stat_ == nullptr) {
      uq_depth_stat_ = &tr.metrics().stat("mpi.unexpected_depth");
      match_scan_stat_ = &tr.metrics().stat("mpi.match_scanned");
    }
    uq_depth_stat_->add(static_cast<double>(matcher_.unexpected_depth()));
    match_scan_stat_->add(static_cast<double>(scanned));
  }
}

// ---------------------------------------------------------------- sending

void MvapichTransport::post_send(const SendArgs& args) {
  const sim::Time t0 = engine_.now();
  charge(cfg_.o_send);
  auto m = std::make_shared<WireMsg>();
  m->src = rank_;
  m->dst = args.dst;
  m->tag = args.tag;
  m->context = args.context;
  m->bytes = args.bytes;

  if (args.bytes <= cfg_.eager_threshold) {
    // Eager: copy into the preregistered vbuf (host memory bus), then the
    // send is locally complete the moment it is on (or queued for) the wire.
    m->kind = WireMsg::Kind::eager;
    m->payload = std::make_shared<std::vector<std::byte>>(
        args.data, args.data + args.bytes);
    if (args.bytes > 0) node_.host_copy(args.bytes);
    m->sender_rec = 0;
    m->req_on_dispatch = args.req;
    send_ring_message(m, /*complete_req_on_post=*/false);
  } else {
    // Rendezvous: keep the record, ship an RTS; the payload is read
    // zero-copy when the CTS arrives.
    m->kind = WireMsg::Kind::rts;
    m->sender_rec = next_id_++;
    rndv_sends_.emplace(m->sender_rec, PendingSendRec{args});
    send_ring_message(m, /*complete_req_on_post=*/false);
  }
  // Host-side posting work (overheads + vbuf copy), before the HCA takes
  // over — the "o_send" layer of the latency budget.
  ICSIM_TRACE_WITH(engine_, tr) {
    tr.span(trace::Category::mpi, trace_component(),
            args.bytes <= cfg_.eager_threshold ? "send.eager" : "send.rndv",
            t0, engine_.now());
  }
}

void MvapichTransport::send_ring_message(const WireMsgPtr& m,
                                         bool complete_req_on_post) {
  (void)complete_req_on_post;
  PeerState& peer = peer_state_[static_cast<std::size_t>(m->dst)];
  if (peer.credits == 0 || !peer.stalled.empty()) {
    // No ring slot at the receiver (or earlier traffic already queued —
    // dispatching now would break MPI ordering).  Park it.
    peer.stalled.push_back(m);
    return;
  }
  dispatch_ring_message(m);
}

void MvapichTransport::dispatch_ring_message(const WireMsgPtr& m) {
  PeerState& peer = peer_state_[static_cast<std::size_t>(m->dst)];
  if (m->kind != WireMsg::Kind::credit) {
    assert(peer.credits > 0);
    --peer.credits;
  }
  m->piggyback_credits = peer.freed;
  peer.freed = 0;
  MvapichTransport& dst = *peers_[static_cast<std::size_t>(m->dst)];
  hca_.rdma_write(rank_, dst.hca_, m->dst, wire_bytes(*m), m, nullptr);
  if (m->req_on_dispatch) {
    m->req_on_dispatch->finish();
    m->req_on_dispatch.reset();
  }
}

void MvapichTransport::flush_stalled(int peer_rank) {
  PeerState& peer = peer_state_[static_cast<std::size_t>(peer_rank)];
  while (peer.credits > 0 && !peer.stalled.empty()) {
    WireMsgPtr m = peer.stalled.front();
    peer.stalled.pop_front();
    dispatch_ring_message(m);
  }
}

// --------------------------------------------------------------- receiving

void MvapichTransport::post_recv(const RecvArgs& args) {
  charge(cfg_.o_recv);
  PostedRecv p;
  p.context = args.context;
  p.src = args.src;
  p.tag = args.tag;
  p.id = next_id_++;

  auto result = matcher_.post(p);
  charge(cfg_.o_match_per_entry * static_cast<std::int64_t>(result.scanned));
  trace_match(result.scanned);
  if (!result.match) {
    posted_recvs_.emplace(p.id, PostedRecvRec{args});
    return;
  }
  // Matched something already here (unexpected).
  WireMsgPtr m = unexpected_.at(result.match->id);
  unexpected_.erase(result.match->id);
  if (m->kind == WireMsg::Kind::eager) {
    deliver_eager_payload(m, PostedRecvRec{args});
  } else {
    assert(m->kind == WireMsg::Kind::rts);
    accept_rts(m, PostedRecvRec{args});
  }
}

void MvapichTransport::deliver_eager_payload(const WireMsgPtr& m,
                                             const PostedRecvRec& rec) {
  if (m->bytes > rec.args.capacity) {
    throw std::runtime_error("MPI truncation: eager message larger than recv buffer");
  }
  if (m->bytes > 0) {
    node_.host_copy(m->bytes);  // copy out of the ring/unexpected buffer
    std::memcpy(rec.args.data, m->payload->data(), m->bytes);
  }
  rec.args.req->finish(Status{m->src, m->tag, m->bytes});
}

void MvapichTransport::accept_rts(const WireMsgPtr& rts, PostedRecvRec rec) {
  if (rts->bytes > rec.args.capacity) {
    throw std::runtime_error("MPI truncation: rendezvous message larger than recv buffer");
  }
  charge_host(cfg_.rndv_accept_cost);
  // Pin the application receive buffer (pin-down cache).  Identified by its
  // transfer envelope, not its host address — see ib/reg_cache.hpp.
  const sim::Time reg = hca_.reg_cache().acquire(
      ib::logical_buffer(false, rts->src, rts->tag, rts->context), rts->bytes);
  ICSIM_TRACE_WITH(engine_, tr) {
    tr.instant(trace::Category::regcache, trace_component(),
               reg > sim::Time::zero() ? "pin.miss" : "pin.hit",
               engine_.now(), reg.to_us());
  }
  charge(reg);

  const std::uint64_t receiver_rec = next_id_++;
  posted_recvs_.emplace(receiver_rec, std::move(rec));

  auto cts = std::make_shared<WireMsg>();
  cts->kind = WireMsg::Kind::cts;
  cts->src = rank_;
  cts->dst = rts->src;
  cts->context = rts->context;
  cts->sender_rec = rts->sender_rec;
  cts->receiver_rec = receiver_rec;
  send_ring_message(cts, false);
}

// ------------------------------------------------------------- progress

void MvapichTransport::on_delivery(const ib::Delivery& d) {
  pending_.push_back(std::static_pointer_cast<WireMsg>(d.cargo));
  if (blocked_ != nullptr && !wake_scheduled_) {
    wake_scheduled_ = true;
    engine_.post_in(sim::Time::zero(), [this] {
      wake_scheduled_ = false;
      if (blocked_ != nullptr) blocked_->resume();
    });
  }
  wake_service();
}

void MvapichTransport::enable_independent_progress() {
  if (service_fiber_) return;
  service_fiber_ = std::make_unique<sim::Fiber>([this] { service_loop(); });
  service_fiber_->resume();  // parks immediately
}

void MvapichTransport::service_loop() {
  for (;;) {
    if (pending_.empty() && local_completions_.empty()) {
      service_parked_ = true;
      sim::Fiber::yield();
      service_parked_ = false;
    } else {
      progress();
      if (!pending_.empty() || !local_completions_.empty()) {
        // progress() was already running in the rank's fiber; let the
        // engine settle and retry instead of spinning.
        sim::sleep_for(engine_, sim::Time::ns(100));
      }
    }
  }
}

void MvapichTransport::wake_service() {
  if (service_fiber_ && service_parked_ && !service_wake_scheduled_) {
    service_wake_scheduled_ = true;
    engine_.post_in(sim::Time::zero(), [this] {
      service_wake_scheduled_ = false;
      if (service_parked_) service_fiber_->resume();
    });
  }
}

void MvapichTransport::progress() {
  if (in_progress_) return;
  in_progress_ = true;
  while (!pending_.empty() || !local_completions_.empty()) {
    while (!local_completions_.empty()) {
      auto req = local_completions_.front();
      local_completions_.pop_front();
      charge(sim::Time::us(0.15));  // CQ poll + completion bookkeeping
      req->finish();
    }
    if (pending_.empty()) break;
    WireMsgPtr m = pending_.front();
    pending_.pop_front();
    handle(m);
  }
  in_progress_ = false;
}

void MvapichTransport::handle(const WireMsgPtr& m) {
  charge_host(cfg_.o_arrival);
  // Ring-slot bookkeeping: eager/rts/cts occupied a slot we now release.
  PeerState& peer = peer_state_[static_cast<std::size_t>(m->src)];
  peer.credits += m->piggyback_credits;
  const bool took_slot = m->kind == WireMsg::Kind::eager ||
                         m->kind == WireMsg::Kind::rts ||
                         m->kind == WireMsg::Kind::cts;

  switch (m->kind) {
    case WireMsg::Kind::eager:
      handle_eager(m);
      break;
    case WireMsg::Kind::rts:
      handle_rts(m);
      break;
    case WireMsg::Kind::cts:
      handle_cts(m);
      break;
    case WireMsg::Kind::rndv_data:
      handle_rndv_data(m);
      break;
    case WireMsg::Kind::credit:
      break;  // piggyback already harvested above
  }

  if (took_slot) {
    PeerState& p2 = peer_state_[static_cast<std::size_t>(m->src)];
    ++p2.freed;
    if (p2.freed >= cfg_.ring_slots / 2) {
      // Owed credits and no reverse traffic to piggyback on: explicit update.
      auto credit = std::make_shared<WireMsg>();
      credit->kind = WireMsg::Kind::credit;
      credit->src = rank_;
      credit->dst = m->src;
      dispatch_ring_message(credit);
    }
  }
  if (m->piggyback_credits > 0) flush_stalled(m->src);
}

void MvapichTransport::handle_eager(const WireMsgPtr& m) {
  Envelope env;
  env.context = m->context;
  env.src = m->src;
  env.tag = m->tag;
  env.bytes = m->bytes;
  env.id = next_id_++;
  auto result = matcher_.arrive(env);
  charge(cfg_.o_match_per_entry * static_cast<std::int64_t>(result.scanned));
  trace_match(result.scanned);
  if (result.match) {
    auto it = posted_recvs_.find(result.match->id);
    assert(it != posted_recvs_.end());
    PostedRecvRec rec = std::move(it->second);
    posted_recvs_.erase(it);
    deliver_eager_payload(m, rec);
  } else {
    // Copy out of the ring slot into an unexpected buffer to free the slot.
    if (m->bytes > 0) node_.host_copy(m->bytes);
    unexpected_.emplace(env.id, m);
  }
}

void MvapichTransport::handle_rts(const WireMsgPtr& m) {
  Envelope env;
  env.context = m->context;
  env.src = m->src;
  env.tag = m->tag;
  env.bytes = m->bytes;
  env.id = next_id_++;
  auto result = matcher_.arrive(env);
  charge(cfg_.o_match_per_entry * static_cast<std::int64_t>(result.scanned));
  trace_match(result.scanned);
  if (result.match) {
    auto it = posted_recvs_.find(result.match->id);
    assert(it != posted_recvs_.end());
    PostedRecvRec rec = std::move(it->second);
    posted_recvs_.erase(it);
    accept_rts(m, std::move(rec));
  } else {
    unexpected_.emplace(env.id, m);
  }
}

void MvapichTransport::handle_cts(const WireMsgPtr& m) {
  auto it = rndv_sends_.find(m->sender_rec);
  assert(it != rndv_sends_.end());
  PendingSendRec rec = std::move(it->second);
  rndv_sends_.erase(it);

  charge_host(cfg_.cts_handle_cost);
  // Pin the send buffer, then RDMA-write the payload zero-copy.
  const sim::Time reg = hca_.reg_cache().acquire(
      ib::logical_buffer(true, rec.args.dst, rec.args.tag, rec.args.context),
      rec.args.bytes);
  ICSIM_TRACE_WITH(engine_, tr) {
    tr.instant(trace::Category::regcache, trace_component(),
               reg > sim::Time::zero() ? "pin.miss" : "pin.hit",
               engine_.now(), reg.to_us());
  }
  charge(reg);

  auto data = std::make_shared<WireMsg>();
  data->kind = WireMsg::Kind::rndv_data;
  data->src = rank_;
  data->dst = m->src;
  data->context = rec.args.context;
  data->tag = rec.args.tag;
  data->bytes = rec.args.bytes;
  data->receiver_rec = m->receiver_rec;
  data->payload = std::make_shared<std::vector<std::byte>>(
      rec.args.data, rec.args.data + rec.args.bytes);

  MvapichTransport& dst = *peers_[static_cast<std::size_t>(data->dst)];
  auto req = rec.args.req;
  hca_.rdma_write(rank_, dst.hca_, data->dst, wire_bytes(*data), data,
                  [this, req] {
                    // Local completion surfaces only when this rank polls
                    // the CQ from inside an MPI call.
                    local_completions_.push_back(req);
                    if (blocked_ != nullptr && !wake_scheduled_) {
                      wake_scheduled_ = true;
                      engine_.post_in(sim::Time::zero(), [this] {
                        wake_scheduled_ = false;
                        if (blocked_ != nullptr) blocked_->resume();
                      });
                    }
                    wake_service();
                  });
}

void MvapichTransport::handle_rndv_data(const WireMsgPtr& m) {
  auto it = posted_recvs_.find(m->receiver_rec);
  assert(it != posted_recvs_.end());
  PostedRecvRec rec = std::move(it->second);
  posted_recvs_.erase(it);
  // The RDMA write already placed the data in the user buffer; no copy.
  std::memcpy(rec.args.data, m->payload->data(), m->bytes);
  rec.args.req->finish(Status{m->src, m->tag, m->bytes});
}

// ------------------------------------------------------------ completion

void MvapichTransport::wait(RequestState& req) {
  const bool watchdog = cfg_.watchdog_timeout > sim::Time::zero();
  if (cfg_.independent_progress) {
    // Ablation mode: the service fiber drives the protocol; waiting is a
    // sleep on the completion event, as on an offloaded NIC.
    progress();
    if (!req.complete) {
      wait_with_watchdog(req, cfg_.watchdog_timeout, watchdog_timeouts_);
    }
    return;
  }
  progress();
  const sim::Time deadline = engine_.now() + cfg_.watchdog_timeout;
  while (!req.complete) {
    if (watchdog && engine_.now() >= deadline) {
      ++watchdog_timeouts_;
      req.fail();
      break;
    }
    blocked_ = sim::Fiber::current();
    assert(blocked_ != nullptr);
    sim::EventHandle wake;
    if (watchdog) {
      // Make sure the spin loop regains control at the deadline even if no
      // delivery ever arrives to wake it.
      wake = engine_.schedule_at(deadline, [this] {
        if (blocked_ != nullptr) blocked_->resume();
      });
    }
    sim::Fiber::yield();
    blocked_ = nullptr;
    wake.cancel();
    progress();
  }
}

bool MvapichTransport::test(RequestState& req) {
  progress();
  return req.complete;
}

bool MvapichTransport::iprobe(int src, int tag, int context, Status* st) {
  progress();  // host matching: unexpected queue is only fresh inside MPI
  PostedRecv probe_for;
  probe_for.context = context;
  probe_for.src = src;
  probe_for.tag = tag;
  const auto hit = matcher_.probe(probe_for);
  if (!hit) return false;
  if (st != nullptr) *st = Status{hit->src, hit->tag, hit->bytes};
  return true;
}

}  // namespace icsim::mpi
