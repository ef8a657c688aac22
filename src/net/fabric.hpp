#pragma once
// Packet-level message fabric over a fat tree.
//
// Switches are modeled as output-queued crossbars: each directed link owns a
// FIFO serialization resource (the output queue + transmitter), and each
// switch traversal charges a fixed pipeline latency.  A message is injected
// by the NIC models in chunks; each chunk flows hop-by-hop, so chunks of a
// long message pipeline across the route while competing flows interleave on
// shared links.  Per-packet wire headers are charged as a bandwidth
// efficiency factor: a chunk's serialization time covers
// payload + ceil(payload / mtu) * header_bytes.
//
// The fabric carries no payload bytes — data movement is performed by the
// transport layers at delivery time — so it is a pure timing model.
//
// One fabric serves both execution tiers.  Its state is split into shards
// by a net::Partitioning: every directed link lives in the shard of its
// transmitter side and is served by that shard's engine.  The fiber tier
// (core::Cluster) runs one shard over its sim::Engine; the parallel tier
// (par::ParCluster) runs one shard per sim::ParEngine partition.  When a
// chunk's next hop belongs to another shard the continuation is handed over
// with ParEngine::post_cross, carrying wire + switch latency of simulated
// delay — exactly lookahead_of(), the engine's synchronization horizon.  At
// one shard that hand-off never happens.  Counters are kept per shard
// (single-writer during a parallel run) and summed by the accessors.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/partition.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"
#include "sim/par_engine.hpp"
#include "sim/resource.hpp"
#include "sim/time.hpp"
#include "trace/metrics.hpp"

namespace icsim::net {

struct FabricConfig {
  int radix_down = 4;  ///< k of the k-ary n-tree
  int levels = 3;      ///< n
  sim::Bandwidth link_bandwidth = sim::Bandwidth::gb_per_sec(1.0);
  sim::Time switch_latency = sim::Time::ns(100);  ///< per switch traversal
  sim::Time wire_latency = sim::Time::ns(20);     ///< per link propagation
  std::uint32_t mtu_bytes = 2048;                 ///< wire packet payload
  std::uint32_t header_bytes = 32;                ///< per wire packet
};

/// How a chunk's trip through the fabric ended.
enum class DeliveryStatus : std::uint8_t {
  delivered,  ///< last byte reached the destination endpoint
  corrupted,  ///< failed a link-level CRC and was discarded by a switch/NIC
  link_down,  ///< hit (or could not route around) a downed link
};

/// Fires exactly once per chunk, in the shard where the chunk's trip ended:
/// the destination's shard on delivery, the shard of the hop that lost it
/// otherwise.  It may touch only that shard's state.
using DeliveryFn = std::function<void(DeliveryStatus)>;

/// Fault-model callbacks the fabric consults at serialization points.  Kept
/// abstract so net/ does not depend on fault/ (the injector implements it).
class FaultHooks {
 public:
  virtual ~FaultHooks() = default;
  /// Bit-error rate in effect on the (undirected) link this hop traverses.
  [[nodiscard]] virtual double link_ber(const Hop& hop) const = 0;
  /// Draw whether a wire packet train of `wire_bytes` survives a link with
  /// bit-error rate `ber` (> 0).  Consumes deterministic RNG state.
  virtual bool draw_corruption(double ber, std::uint64_t wire_bytes) = 0;
};

class Fabric {
 public:
  /// One shard over `engine`: the serial fabric.
  Fabric(sim::Engine& engine, const FabricConfig& config, int num_nodes);
  /// One shard per partition of `engine`; `partitioning.parts` must equal
  /// `engine.partitions()`, and the engine's lookahead must be
  /// lookahead_of(config).
  Fabric(sim::ParEngine& engine, const FabricConfig& config, int num_nodes,
         Partitioning partitioning);

  /// The minimum simulated delay of any cross-shard hop (wire propagation +
  /// entering the next switch): the lookahead a ParEngine driving this
  /// fabric must be built with.
  [[nodiscard]] static sim::Time lookahead_of(const FabricConfig& config) {
    return config.wire_latency + config.switch_latency;
  }

  /// Inject one chunk of `bytes` payload; must be called from event code
  /// running in src's shard.  `on_complete` fires when the last byte
  /// reaches the destination endpoint (DeliveryStatus::delivered) or when
  /// the chunk is lost on the way (corrupted / link_down).  Returns the
  /// time at which the source link finishes serializing the chunk (NICs use
  /// this to pace DMA).  src == dst is not routed here; transports loop back
  /// locally.  The return is advisory — terminal status arrives via
  /// `on_complete`.
  sim::Time inject(int src, int dst, std::uint32_t bytes,  // icsim-lint: allow(nodiscard-time)
                   DeliveryFn on_complete);

  /// Install (or clear, with nullptr) the fault hooks.  Hooks are borrowed
  /// and must outlive the fabric; installing refreshes the cached per-link
  /// BER of every link seen so far.  Their RNG stream is one piece of
  /// mutable state, so only a single-shard fabric accepts them.
  void set_fault_hooks(FaultHooks* hooks);

  /// Throw std::invalid_argument unless `link` names a cable of this fabric
  /// (an attached node, or two adjacent switches).
  void validate(const LinkRef& link) const;

  /// Install the link-down windows (validated as above) before the run
  /// starts.  Every shard evaluates them as pure functions of its simulated
  /// clock: a blocked default route is rerouted at injection, and a chunk
  /// that reaches a link inside a window mid-flight is dropped.
  void set_link_windows(std::vector<LinkDownWindow> windows);

  /// Is the (undirected) cable this hop traverses inside a down window at
  /// simulated time `t`?
  [[nodiscard]] bool link_down_at(const Hop& hop, sim::Time t) const;

  [[nodiscard]] int num_nodes() const { return num_nodes_; }
  [[nodiscard]] const FatTreeTopology& topology() const { return topo_; }
  [[nodiscard]] const FabricConfig& config() const { return cfg_; }
  [[nodiscard]] const Partitioning& partitioning() const { return parts_; }

  // Counters summed over shards — in a parallel run, read them only after
  // ParEngine::run() returned.
  /// Total chunks injected (for instrumentation).
  [[nodiscard]] std::uint64_t chunks_sent() const;
  [[nodiscard]] std::uint64_t chunks_delivered() const;
  [[nodiscard]] std::uint64_t chunks_corrupted() const;
  [[nodiscard]] std::uint64_t chunks_dropped_link_down() const;
  /// Chunks whose default D-mod-k route was blocked and that took an
  /// alternate climb instead.
  [[nodiscard]] std::uint64_t chunks_rerouted() const;
  /// Chunks dropped at injection because no fully-up route existed.
  [[nodiscard]] std::uint64_t chunks_no_route() const;
  /// Chunks injected but not yet delivered or dropped.
  [[nodiscard]] std::uint64_t chunks_in_flight() const;

  /// ICSIM_CHECK audit once the event queue has drained: chunk and payload-
  /// byte conservation (injected == delivered + corrupted + dropped, with
  /// nothing left in flight).  A violation means the fabric leaked or
  /// double-counted a chunk.  No-op when the auditor is off.
  void audit_drained() const;

  /// Serialization time of a chunk including per-MTU header overhead.
  [[nodiscard]] sim::Time serialization_time(std::uint32_t bytes) const;

  /// Busy-time observed on the most utilized link (contention diagnostics).
  [[nodiscard]] sim::Time max_link_busy_time() const;

  /// Fold per-link utilization/traffic into `m` ("net.link_utilization"
  /// samples one value per directed link; utilization = busy / elapsed).
  void publish_metrics(trace::MetricsRegistry& m, sim::Time elapsed) const;

 private:
  struct DirectedLink {
    DirectedLink(sim::Engine& e, std::string name, Hop h)
        : tx(e, std::move(name)), hop(h) {}
    sim::FifoResource tx;
    Hop hop;                     ///< the hop this link serializes
    double ber = 0.0;            ///< cached from the fault hooks
    std::uint64_t forwarded = 0;
    std::uint64_t corrupted = 0;
    std::uint32_t trace_id = 0;  ///< lazily registered trace component
  };
  /// One partition's slice: the links it transmits on and its counters.
  /// Only the worker driving `engine` touches it during a run.
  struct alignas(64) Shard {
    explicit Shard(sim::Engine& e) : engine(&e) {}
    sim::Engine* engine;
    // Ordered map: metrics/fault hooks traverse the links, and hash-order
    // traversal would make that event emission nondeterministic.
    std::map<std::uint64_t, std::unique_ptr<DirectedLink>> links;
    std::uint64_t injected = 0;
    std::uint64_t delivered = 0;
    std::uint64_t corrupted = 0;
    std::uint64_t down_drops = 0;
    std::uint64_t rerouted = 0;
    std::uint64_t no_route_drops = 0;
    std::uint64_t bytes_injected = 0;   ///< payload bytes entering here
    std::uint64_t bytes_delivered = 0;  ///< payload bytes reaching endpoints
    std::uint64_t bytes_dropped = 0;    ///< payload bytes lost (CRC/link-down)
    /// +1 at injection (source shard), -1 at the terminal event (whichever
    /// shard it lands in); the sum over shards is the chunks in flight.
    std::int64_t in_flight = 0;
  };
  using Route = std::shared_ptr<std::vector<Hop>>;

  Fabric(const FabricConfig& config, int num_nodes, sim::ParEngine* par,
         std::vector<sim::Engine*> engines, Partitioning partitioning);

  /// Shard that serializes `hop` (its transmitter side).
  [[nodiscard]] int owner(const Hop& hop) const {
    return shards_.size() == 1 ? 0 : parts_.owner(hop);
  }
  // Key layout: bit 63 set => endpoint link (node id in low bits, bit 62
  // selects direction); otherwise (from_switch_id << 31) | to_switch_id.
  [[nodiscard]] std::uint64_t key_of(const Hop& hop) const;
  DirectedLink& link_for(Shard& shard, const Hop& hop);
  [[nodiscard]] std::string link_name(const Hop& hop) const;
  /// Wire bytes of a chunk: payload plus per-MTU-packet headers.
  [[nodiscard]] std::uint64_t wire_bytes(std::uint32_t bytes) const;
  [[nodiscard]] std::uint64_t sum(std::uint64_t Shard::*counter) const;

  void forward(Route route, std::size_t index, std::uint32_t bytes,
               DeliveryFn on_complete, sim::Time* first_tx_done);
  void finish(Shard& shard, DeliveryFn& on_complete, DeliveryStatus status,
              std::uint32_t bytes);

  FabricConfig cfg_;
  FatTreeTopology topo_;
  int num_nodes_;
  Partitioning parts_;
  sim::ParEngine* par_;  ///< cross-shard hand-offs; null with one shard
  std::vector<Shard> shards_;
  std::vector<LinkDownWindow> windows_;  ///< immutable during the run
  FaultHooks* hooks_ = nullptr;
};

}  // namespace icsim::net
