// Frame-level network model: nodes with numbered ports joined by
// point-to-point links with latency and line rate. Frames are pooled,
// ref-counted FrameBuf buffers (see common/frame_buf.hpp); the packet
// library defines their contents.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/frame_buf.hpp"
#include "common/types.hpp"
#include "netsim/simulator.hpp"

namespace artmt::netsim {

using Frame = FrameBuf;

class Network;
class ShardedSimulator;

// A device attached to the network. Subclasses implement frame handling;
// the switch, clients, and servers are all Nodes.
class Node {
 public:
  explicit Node(std::string name) : name_(std::move(name)) {}
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  // Invoked by the network when a frame arrives on `port`. The node owns
  // the buffer; dropping it recycles the slab into the network's pool.
  virtual void on_frame(Frame frame, u32 port) = 0;

  // Called once when the node is attached, before any frames flow.
  virtual void on_attach() {}

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Network& network() const {
    if (network_ == nullptr) throw UsageError("Node is not attached");
    return *network_;
  }

  // Shard owning this node under a ShardedSimulator (0 in serial mode).
  [[nodiscard]] u32 shard() const { return shard_; }

  // Attach order (stable across runs); with the per-node transmit
  // sequence it identifies every frame the node has ever sent, which is
  // what fault injection keys its deterministic decisions on.
  [[nodiscard]] u32 attach_index() const { return attach_index_; }

  // Shard-confinement check: under a ShardedSimulator, a node's state may
  // only be touched by its owning shard's worker (or by the main thread
  // while the engine is quiescent). Throws UsageError when called from a
  // different shard's worker -- a deterministic tripwire for closures
  // that were scheduled onto the wrong shard's event queue. No-op in
  // serial mode.
  void assert_confined() const;

 private:
  friend class Network;
  friend class ShardedSimulator;
  std::string name_;
  Network* network_ = nullptr;
  u32 shard_ = 0;
  u32 attach_index_ = 0;  // attach order; deterministic drain tie-break
  u64 tx_seq_ = 0;        // per-node transmit sequence (drain tie-break)
  bool shard_assigned_ = false;
};

// Characteristics of one direction of a link.
struct LinkSpec {
  SimTime latency = 1 * kMicrosecond;  // propagation delay
  double gbps = 40.0;                  // line rate (paper testbed: 40 Gbps)
};

// Consulted on every transmit after egress resolution (see
// Network::set_transmit_hook). The hook may drop the frame, mutate its
// bytes in place, duplicate it, or delay it -- the fault-injection layer
// (src/faults) implements this. Contract: the verdict must be a pure
// function of the arguments plus the hook's immutable configuration,
// because under the sharded engine the hook is called concurrently from
// every shard's worker; per-shard mutable state (counters) must be
// indexed by the sending node's shard.
class TransmitHook {
 public:
  virtual ~TransmitHook() = default;

  struct Verdict {
    bool drop = false;        // lose the frame (not counted in
                              // Network::frames_dropped(); the hook keeps
                              // its own books)
    u32 copies = 1;           // > 1 duplicates the frame
    SimTime extra_delay = 0;  // added to the first copy's arrival
    SimTime dup_delay = 0;    // added to every extra copy's arrival
  };

  // `tx_seq` is `from`'s per-node transmit sequence for this frame; with
  // from.attach_index() it uniquely identifies the transmission. `frame`
  // may be mutated (corruption); use `pool` to take a deep copy first if
  // the buffer is shared.
  virtual Verdict on_transmit(const Node& from, const Node& to, SimTime now,
                              u64 tx_seq, Frame& frame, FramePool& pool) = 0;
};

// Owns nodes and links; routes frames between node ports over the virtual
// clock, modelling serialization + propagation delay per frame.
//
// The one handle that drives a run on either engine: the serial
// Simulator (the reference engine, bookkept as one shard) or a
// ShardedSimulator (cross-shard transmits go through per-shard mailboxes
// drained at the epoch barrier). simulator() and pool() resolve to the
// calling worker's shard, so node code is engine-agnostic; run(),
// schedule_on(), pin() and metrics() make driver code so too.
class Network {
 public:
  // Builds and owns its engine: `shards` == 0 is the serial Simulator,
  // recording into a registry the network owns (set_metrics redirects
  // it); `shards` >= 1 a ShardedSimulator of that many shards.
  explicit Network(u32 shards);
  // Drives a caller-owned engine (serial: no registry until set_metrics).
  // One Network per ShardedSimulator.
  explicit Network(Simulator& sim);
  explicit Network(ShardedSimulator& sharded);

  ~Network();
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Attaches a node; the network keeps a non-owning pointer (caller keeps
  // the node alive for the network's lifetime, enforced by shared_ptr).
  void attach(std::shared_ptr<Node> node);

  // Connects node_a's port_a to node_b's port_b bidirectionally.
  void connect(Node& node_a, u32 port_a, Node& node_b, u32 port_b,
               const LinkSpec& spec = {});

  // Transmits a frame out of (node, port); it arrives at the peer after
  // serialization + propagation delay. Silently drops if the port is not
  // connected (an unplugged cable, not an error) — counted in
  // frames_dropped().
  void transmit(Node& from, u32 port, Frame frame);

  // Driving a run: quiescent only (main thread, between runs), except
  // now(), which reads the calling worker's shard clock. run_until runs
  // events exactly at `until`.
  void run();
  void run_until(SimTime until);
  [[nodiscard]] SimTime now() const;
  [[nodiscard]] u32 shards() const;  // the serial engine is one shard
  // Schedules `action` at `at` on the shard owning `node` (closures that
  // touch a node must run there).
  void schedule_on(const Node& node, SimTime at, Simulator::Action action);
  // See ShardedSimulator::pin; the serial engine accepts only shard 0.
  void pin(Node& node, u32 shard);
  // The registry shard `shard`'s components record into (serial: the
  // set_metrics registry), and the merge of every shard's registry.
  [[nodiscard]] telemetry::MetricsRegistry& metrics(u32 shard);
  void merge_metrics_into(telemetry::MetricsRegistry& out) const;
  // The sharded engine, for readers of its ShardStats; null on serial.
  [[nodiscard]] ShardedSimulator* sharded() const { return sharded_; }

  // Serial mode: the one Simulator. Sharded mode: the calling worker's
  // shard Simulator (thread-local), or shard 0's while quiescent -- all
  // shard clocks agree between runs, so quiescent now() reads and
  // scheduling against shard 0 are well-defined.
  [[nodiscard]] Simulator& simulator() const {
    if (sharded_ == nullptr) return *sim_;
    return shard_simulator();
  }
  // Buffer arena for the datapath; nodes acquire reply/ingress buffers
  // here so slabs recirculate instead of hitting the heap. Sharded mode:
  // the calling worker's shard pool (slabs never cross threads).
  [[nodiscard]] FramePool& pool() {
    if (sharded_ == nullptr) return pool_;
    return shard_pool();
  }
  // Quiescent-only reads (sums over the per-shard blocks).
  [[nodiscard]] u64 frames_delivered() const {
    return total(&ShardCounters::delivered);
  }
  [[nodiscard]] u64 bytes_delivered() const {
    return total(&ShardCounters::bytes);
  }
  [[nodiscard]] u64 frames_dropped() const {
    return total(&ShardCounters::dropped);
  }

  // Serial engine: records the network's delivery/drop counts and the
  // Simulator's dispatch counts into `metrics` under component "netsim"
  // (nullptr detaches). Drops also emit a "frame_dropped" trace event
  // while a telemetry::TraceSink is installed. The sharded engine wires
  // each shard's registry itself; calling this there throws UsageError.
  void set_metrics(telemetry::MetricsRegistry* metrics);

  // Installs (or with nullptr removes) the transmit hook. Install while
  // quiescent, before frames flow; the pointer is read on every transmit
  // without synchronization.
  void set_transmit_hook(TransmitHook* hook) { hook_ = hook; }
  [[nodiscard]] TransmitHook* transmit_hook() const { return hook_; }

 private:
  friend class Node;  // assert_confined reads sharded_
  friend class ShardedSimulator;

  struct Endpoint {
    Node* node = nullptr;
    u32 port = 0;
  };
  // One direction of a link: where frames leaving (node, port) arrive.
  struct Egress {
    Endpoint peer;
    LinkSpec spec;
  };
  struct PortKey {
    const Node* node = nullptr;
    u32 port = 0;
    friend bool operator==(const PortKey&, const PortKey&) = default;
  };
  struct PortKeyHash {
    std::size_t operator()(const PortKey& key) const {
      // Splitmix-style scramble of the pointer, folded with the port.
      u64 x = reinterpret_cast<std::uintptr_t>(key.node) + key.port +
              0x9e3779b97f4a7c15ull;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
      return static_cast<std::size_t>(x ^ (x >> 31));
    }
  };

  // Per-shard delivery counters (one block serially), one cache line each
  // so neighbouring shards' workers never share a line. Telemetry handles
  // point into the owning shard's registry (single writer preserved).
  struct alignas(64) ShardCounters {
    u64 delivered = 0;
    u64 bytes = 0;
    u64 dropped = 0;
    telemetry::Counter* m_delivered = nullptr;
    telemetry::Counter* m_bytes = nullptr;
    telemetry::Counter* m_dropped = nullptr;
    // Points the handles into `metrics` (nullptr detaches).
    void wire(telemetry::MetricsRegistry* metrics);
  };

  // Out-of-line thread-local resolution (netsim/sharded.cpp owns the TLS).
  [[nodiscard]] Simulator& shard_simulator() const;
  [[nodiscard]] FramePool& shard_pool();
  [[nodiscard]] u64 total(u64 ShardCounters::*field) const;
  void bind_sharded();
  // Runs a delivery on the destination shard's queue: counts it against
  // `shard` and hands the frame to the node. Every delivery ends here.
  void deliver(Node& dest, u32 port, Frame frame, u32 shard);
  // Schedules one copy of a frame for delivery: an event on the sender's
  // own queue when the destination shares it (always, serially), else a
  // message in the sharded engine's mailboxes.
  void dispatch(const Endpoint& dest, Node& from, u64 tx_seq, SimTime send,
                SimTime arrival, Frame frame);
  void count_drop(const Node& from, u32 port, std::size_t bytes);

  // Built by Network(u32); declared first so they outlive the rest of
  // the network, as a caller-owned engine does (and the registry outlives
  // the engine recording into it).
  std::unique_ptr<telemetry::MetricsRegistry> owned_metrics_;
  std::unique_ptr<Simulator> owned_sim_;
  std::unique_ptr<ShardedSimulator> owned_sharded_;

  Simulator* sim_ = nullptr;
  ShardedSimulator* sharded_ = nullptr;
  telemetry::MetricsRegistry* serial_metrics_ = nullptr;
  TransmitHook* hook_ = nullptr;
  FramePool pool_;
  std::vector<std::shared_ptr<Node>> nodes_;
  // (node, port) -> egress direction; built in connect() so transmit()
  // resolves the peer in O(1) instead of scanning every link.
  std::unordered_map<PortKey, Egress, PortKeyHash> egress_;
  std::vector<ShardCounters> shard_counters_;  // one per shard
};

}  // namespace artmt::netsim
