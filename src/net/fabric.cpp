#include "net/fabric.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "sim/check.hpp"
#include "trace/trace.hpp"

namespace icsim::net {

namespace {

std::vector<sim::Engine*> shard_engines(sim::ParEngine& engine) {
  std::vector<sim::Engine*> engines;
  for (int p = 0; p < engine.partitions(); ++p) {
    engines.push_back(&engine.shard(p));
  }
  return engines;
}

}  // namespace

Fabric::Fabric(sim::Engine& engine, const FabricConfig& config, int num_nodes)
    : Fabric(config, num_nodes, nullptr, {&engine}, Partitioning{}) {
  parts_.node_part.assign(static_cast<std::size_t>(std::max(num_nodes, 0)), 0);
}

Fabric::Fabric(sim::ParEngine& engine, const FabricConfig& config,
               int num_nodes, Partitioning partitioning)
    : Fabric(config, num_nodes, &engine, shard_engines(engine),
             std::move(partitioning)) {
  if (parts_.parts != engine.partitions()) {
    throw std::invalid_argument(
        "Fabric: partitioning does not match the engine's shard count");
  }
}

Fabric::Fabric(const FabricConfig& config, int num_nodes, sim::ParEngine* par,
               std::vector<sim::Engine*> engines, Partitioning partitioning)
    : cfg_(config),
      topo_(config.radix_down, config.levels),
      num_nodes_(num_nodes),
      parts_(std::move(partitioning)),
      par_(par) {
  if (num_nodes > topo_.capacity()) {
    throw std::invalid_argument("Fabric: more nodes than the tree can attach");
  }
  shards_.reserve(engines.size());
  for (sim::Engine* e : engines) shards_.emplace_back(*e);
}

sim::Time Fabric::serialization_time(std::uint32_t bytes) const {
  return cfg_.link_bandwidth.transfer_time(wire_bytes(bytes));
}

std::uint64_t Fabric::wire_bytes(std::uint32_t bytes) const {
  const std::uint64_t packets =
      bytes == 0 ? 1 : (bytes + cfg_.mtu_bytes - 1) / cfg_.mtu_bytes;
  return static_cast<std::uint64_t>(bytes) + packets * cfg_.header_bytes;
}

std::uint64_t Fabric::key_of(const Hop& hop) const {
  switch (hop.kind) {
    case Hop::Kind::node_to_switch:
      return (1ull << 63) | static_cast<std::uint64_t>(hop.node);
    case Hop::Kind::switch_to_node:
      return (1ull << 63) | (1ull << 62) | static_cast<std::uint64_t>(hop.node);
    case Hop::Kind::switch_to_switch:
      return (topo_.switch_id(hop.from) << 31) | topo_.switch_id(hop.to);
  }
  return 0;  // unreachable
}

std::string Fabric::link_name(const Hop& hop) const {
  switch (hop.kind) {
    case Hop::Kind::node_to_switch:
      return "node" + std::to_string(hop.node) + "->sw";
    case Hop::Kind::switch_to_node:
      return "sw->node" + std::to_string(hop.node);
    case Hop::Kind::switch_to_switch:
      return "sw" + std::to_string(topo_.switch_id(hop.from)) + "->sw" +
             std::to_string(topo_.switch_id(hop.to));
  }
  return "link";
}

Fabric::DirectedLink& Fabric::link_for(Shard& shard, const Hop& hop) {
  const std::uint64_t key = key_of(hop);
  auto it = shard.links.find(key);
  if (it == shard.links.end()) {
    it = shard.links
             .emplace(key, std::make_unique<DirectedLink>(
                               *shard.engine, link_name(hop), hop))
             .first;
    if (hooks_ != nullptr) it->second->ber = hooks_->link_ber(hop);
  }
  return *it->second;
}

void Fabric::set_fault_hooks(FaultHooks* hooks) {
  if (hooks != nullptr && shards_.size() > 1) {
    throw std::invalid_argument(
        "Fabric: fault hooks draw from one RNG stream and need a single "
        "shard");
  }
  hooks_ = hooks;
  for (Shard& s : shards_) {
    for (auto& [key, link] : s.links) {
      (void)key;
      link->ber = hooks_ != nullptr ? hooks_->link_ber(link->hop) : 0.0;
    }
  }
}

void Fabric::validate(const LinkRef& link) const {
  if (link.kind == LinkRef::Kind::node) {
    if (link.node < 0 || link.node >= num_nodes_) {
      throw std::invalid_argument("FaultPlan: link " + link.to_string() +
                                  " names a node outside the fabric");
    }
  } else if (!topo_.adjacent(link.a, link.b)) {
    throw std::invalid_argument("FaultPlan: link " + link.to_string() +
                                " is not a cable of this fat tree");
  }
}

void Fabric::set_link_windows(std::vector<LinkDownWindow> windows) {
  for (const LinkDownWindow& w : windows) validate(w.link);
  windows_ = std::move(windows);
}

bool Fabric::link_down_at(const Hop& hop, sim::Time t) const {
  return std::any_of(windows_.begin(), windows_.end(),
                     [&](const LinkDownWindow& w) {
                       return w.covers(t) && w.link.covers(hop);
                     });
}

void Fabric::finish(Shard& shard, DeliveryFn& on_complete,
                    DeliveryStatus status, std::uint32_t bytes) {
  // With one shard its in-flight count is the fabric's; with several a
  // chunk may end in another shard than it started, and audit_drained()
  // checks the sum instead.
  ICSIM_CHECK(shards_.size() > 1 || shard.in_flight > 0,
              "fabric chunk completed more than once");
  --shard.in_flight;
  switch (status) {
    case DeliveryStatus::delivered:
      ++shard.delivered;
      shard.bytes_delivered += bytes;
      break;
    case DeliveryStatus::corrupted:
      ++shard.corrupted;
      shard.bytes_dropped += bytes;
      break;
    case DeliveryStatus::link_down:
      ++shard.down_drops;
      shard.bytes_dropped += bytes;
      break;
  }
  if (on_complete) on_complete(status);
}

std::uint64_t Fabric::sum(std::uint64_t Shard::*counter) const {
  std::uint64_t v = 0;
  for (const Shard& s : shards_) v += s.*counter;
  return v;
}

std::uint64_t Fabric::chunks_sent() const { return sum(&Shard::injected); }
std::uint64_t Fabric::chunks_delivered() const { return sum(&Shard::delivered); }
std::uint64_t Fabric::chunks_corrupted() const { return sum(&Shard::corrupted); }
std::uint64_t Fabric::chunks_dropped_link_down() const {
  return sum(&Shard::down_drops);
}
std::uint64_t Fabric::chunks_rerouted() const { return sum(&Shard::rerouted); }
std::uint64_t Fabric::chunks_no_route() const {
  return sum(&Shard::no_route_drops);
}
std::uint64_t Fabric::chunks_in_flight() const {
  std::int64_t v = 0;
  for (const Shard& s : shards_) v += s.in_flight;
  return static_cast<std::uint64_t>(v);
}

void Fabric::audit_drained() const {
  ICSIM_CHECK(chunks_in_flight() == 0,
              "fabric drained with chunks still in flight");
  ICSIM_CHECK(chunks_sent() == chunks_delivered() + chunks_corrupted() +
                                   chunks_dropped_link_down(),
              "fabric chunk conservation: injected != delivered + dropped");
  ICSIM_CHECK(sum(&Shard::bytes_injected) ==
                  sum(&Shard::bytes_delivered) + sum(&Shard::bytes_dropped),
              "fabric byte conservation: injected != delivered + dropped");
}

void Fabric::forward(Route route, std::size_t index, std::uint32_t bytes,
                     DeliveryFn on_complete, sim::Time* first_tx_done) {
  const Hop& hop = (*route)[index];
  const int p = owner(hop);
  Shard& shard = shards_[static_cast<std::size_t>(p)];
  sim::Engine& engine = *shard.engine;

  // A link that failed while the chunk was already in flight swallows it.
  // (Injection-time failures are handled by rerouting in inject().)
  if (!windows_.empty() && link_down_at(hop, engine.now())) {
    if (first_tx_done != nullptr) *first_tx_done = engine.now();
    finish(shard, on_complete, DeliveryStatus::link_down, bytes);
    return;
  }

  DirectedLink& link = link_for(shard, hop);

  const sim::Time ser = serialization_time(bytes);
  // Entering a switch costs its pipeline latency; the endpoint hop does not.
  const sim::Time entry_latency =
      hop.kind == Hop::Kind::switch_to_node ? sim::Time::zero() : cfg_.switch_latency;

  const sim::Time tx_done = link.tx.acquire(ser);
  if (first_tx_done != nullptr) *first_tx_done = tx_done;

  // Per-hop packet span: occupancy of this link's transmitter (queueing
  // excluded — the span covers serialization, which is what utilization
  // means; a gap between spans of consecutive hops is switch/wire latency).
  ICSIM_TRACE_WITH(engine, tr) {
    if (link.trace_id == 0) {
      link.trace_id = tr.register_component(trace::Category::link,
                                            link.tx.name());
    }
    tr.span(trace::Category::link, link.trace_id, "pkt",
            tx_done - ser, tx_done);
  }

  // Link-level CRC: the packet train is corrupted in transit with the
  // link's BER.  The receiving switch/NIC detects and discards it at the
  // far end of the wire — no RNG draw ever happens on clean links.
  if (hooks_ != nullptr && link.ber > 0.0 &&
      hooks_->draw_corruption(link.ber, wire_bytes(bytes))) {
    ++link.corrupted;
    ICSIM_TRACE_WITH(engine, tr) {
      tr.instant(trace::Category::link, link.trace_id, "crc_drop",
                 tx_done);
    }
    engine.post_at(tx_done + cfg_.wire_latency,
                   [this, p, bytes, on_complete = std::move(on_complete)]() mutable {
                     finish(shards_[static_cast<std::size_t>(p)], on_complete,
                            DeliveryStatus::corrupted, bytes);
                   });
    return;
  }
  ++link.forwarded;

  const sim::Time arrival = tx_done + cfg_.wire_latency + entry_latency;
  // The final hop is switch_to_node, owned by the destination's shard, so
  // delivery is always a local post.
  const bool last = index + 1 == route->size();
  const int next = last ? p : owner((*route)[index + 1]);
  auto cont = [this, route = std::move(route), index, bytes,
               on_complete = std::move(on_complete), last, p]() mutable {
    if (last) {
      finish(shards_[static_cast<std::size_t>(p)], on_complete,
             DeliveryStatus::delivered, bytes);
    } else {
      forward(std::move(route), index + 1, bytes, std::move(on_complete),
              nullptr);
    }
  };
  if (next == p) {
    engine.post_at(arrival, std::move(cont));
  } else {
    // The hand-off carries wire + switch latency of simulated delay —
    // exactly the engine's lookahead, so arrival >= window end always
    // (ParEngine::post_cross audits it).
    par_->post_cross(p, next, arrival, std::move(cont));
  }
}

sim::Time Fabric::inject(int src, int dst, std::uint32_t bytes,
                         DeliveryFn on_complete) {
  assert(src != dst && "Fabric::inject: local sends bypass the fabric");
  assert(src >= 0 && src < num_nodes_ && dst >= 0 && dst < num_nodes_);
  const int p = parts_.of_node(src);
  Shard& shard = shards_[static_cast<std::size_t>(p)];
  sim::Engine& engine = *shard.engine;
  ++shard.injected;
  ++shard.in_flight;
  shard.bytes_injected += bytes;
  std::vector<Hop> path = topo_.route(src, dst);
  if (!windows_.empty()) {
    const sim::Time now = engine.now();
    const auto down = [this, now](const Hop& hop) {
      return link_down_at(hop, now);
    };
    if (std::any_of(path.begin(), path.end(), down)) {
      path = topo_.route_avoiding(src, dst, down);
      if (path.empty()) {
        // Fabric partitioned (endpoint cable down, or every climb blocked):
        // nothing a switch can do — the chunk is lost at the source port.
        engine.post_in(sim::Time::zero(),
                       [this, p, bytes,
                        on_complete = std::move(on_complete)]() mutable {
                         Shard& s = shards_[static_cast<std::size_t>(p)];
                         ++s.no_route_drops;
                         finish(s, on_complete, DeliveryStatus::link_down,
                                bytes);
                       });
        return now;
      }
      ++shard.rerouted;
    }
  }
  sim::Time tx_done = sim::Time::zero();
  forward(std::make_shared<std::vector<Hop>>(std::move(path)), 0, bytes,
          std::move(on_complete), &tx_done);
  return tx_done;
}

sim::Time Fabric::max_link_busy_time() const {
  sim::Time best = sim::Time::zero();
  for (const Shard& s : shards_) {
    for (const auto& [key, link] : s.links) {
      (void)key;
      if (link->tx.busy_time() > best) best = link->tx.busy_time();
    }
  }
  return best;
}

void Fabric::publish_metrics(trace::MetricsRegistry& m,
                             sim::Time elapsed) const {
  m.counter("net.chunks_sent") = chunks_sent();
  m.counter("net.chunks_delivered") = chunks_delivered();
  m.counter("net.chunks_corrupted") = chunks_corrupted();
  m.counter("net.chunks_dropped_link_down") = chunks_dropped_link_down();
  m.counter("net.chunks_rerouted") = chunks_rerouted();
  m.counter("net.chunks_no_route") = chunks_no_route();
  m.counter("net.chunks_in_flight") = chunks_in_flight();
  // Distinct cables inside a down window at the end of the run.
  std::vector<const LinkRef*> down;
  sim::Time end = sim::Time::zero();
  for (const Shard& s : shards_) end = std::max(end, s.engine->now());
  for (const LinkDownWindow& w : windows_) {
    const auto same_cable = [&](const LinkRef* l) {
      return l->kind == w.link.kind &&
             (l->kind == LinkRef::Kind::node
                  ? l->node == w.link.node
                  : (l->a == w.link.a && l->b == w.link.b) ||
                        (l->a == w.link.b && l->b == w.link.a));
    };
    if (w.covers(end) && std::none_of(down.begin(), down.end(), same_cable)) {
      down.push_back(&w.link);
    }
  }
  m.counter("net.links_down") = down.size();
  auto& util = m.stat("net.link_utilization");
  auto& busy = m.stat("net.link_busy_us");
  const double span_s = elapsed.to_seconds();
  std::uint64_t links = 0;
  for (const Shard& s : shards_) {
    links += s.links.size();
    for (const auto& [key, link] : s.links) {
      (void)key;
      busy.add(link->tx.busy_time().to_us());
      if (span_s > 0.0) {
        util.add(link->tx.busy_time().to_seconds() / span_s);
      }
    }
  }
  m.counter("net.links_used") = links;
  if (chunks_corrupted() > 0) {
    auto& per_link = m.stat("net.link_corrupted_chunks");
    for (const Shard& s : shards_) {
      for (const auto& [key, link] : s.links) {
        (void)key;
        if (link->corrupted > 0) {
          per_link.add(static_cast<double>(link->corrupted));
        }
      }
    }
  }
}

}  // namespace icsim::net
