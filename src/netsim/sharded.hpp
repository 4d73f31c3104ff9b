// Sharded, multi-worker discrete-event engine: conservative parallel DES
// in the Chandy-Misra lookahead style. Attached Nodes are partitioned
// into shards (the switch pipeline pinned to shard 0 by convention;
// unpinned client/server fleets round-robined across the remaining
// shards), each shard owning its own event queue (a plain serial
// Simulator), clock, FramePool, and telemetry registry. All shards
// advance in lock-step *epochs*, but each shard gets its own adaptive
// window bound derived from per-shard-pair link latencies rather than a
// single global minimum: shard i may run events up to
//   bound_i = min over event-holding shards j of (next_j + reach[j][i])
// where reach[j][i] is the cheapest cross-shard path from j to i (the
// diagonal is the cheapest round trip, bounding a shard against replies
// to its own traffic). Within its window every worker runs its shard's
// events concurrently with zero locking on the hot path, because no
// frame can arrive below its bound. Same-shard frames never constrain
// the window; they are scheduled directly onto the sender's own queue at
// transmit time, so a shard unreachable over cross-shard links drains
// everything in one unbounded window. The one-shard engine skips the
// barrier/worker machinery entirely and runs inline on the calling
// thread.
//
// One rendezvous per epoch. Outboxes are double-buffered by epoch
// parity: an epoch of parity p posts cross-shard mail into outbox[p]
// while, at its top, each worker (1) drains the mail every shard posted
// toward it in the previous epoch (outbox[p ^ 1]), (2) clears its own
// outbox[p], which receivers drained during the previous epoch, and
// (3) runs its window. The rendezvous's serial section then picks the
// next windows with next_j = min(shard j's queue head, earliest arrival
// still parked toward j) -- senders track that arrival at enqueue, so
// the section is O(shards^2). That is exactly the value a drain before
// window selection would see, so the epoch partition does not depend on
// where in the epoch the drain happens. After the final epoch each
// worker drains its inbox once more, leaving arrivals past `limit` in
// its queue for the next run.
//
// Determinism (same seed => byte-identical telemetry snapshots and reply
// streams, for ANY shard count):
//  - Every delivery -- serial, same-shard direct, or mailbox-drained --
//    is scheduled with its canonical key (arrival, send time, sender
//    attach index, per-sender tx sequence), and the Simulator orders
//    same-timestamp events by exactly that chain (Simulator::
//    schedule_delivery). A message's dispatch position is therefore a
//    function of simulation state alone, never of which engine, epoch,
//    or barrier materialized the event. This is what makes the epoch
//    partition -- which DOES vary with the shard count now that W is
//    derived from cross-shard links -- unobservable to the simulation.
//  - Cross-shard messages are additionally sorted by that key at the
//    drain, so per-shard seq assignment is canonical too.
//  - Nodes interact only via frames (enforced by Node::assert_confined
//    tripwires), and telemetry merges are commutative sums.
//
// Memory model: a FrameBuf's refcount and its pool's freelist are plain
// (non-atomic), so slabs are confined to their shard. A frame crossing a
// shard boundary is deep-copied into the destination shard's pool at the
// drain (FramePool::clone); the source shard releases the original when
// it clears that outbox half an epoch later. Mailbox vectors are handed
// between workers only across the rendezvous: arrivals are counted with
// an acq_rel fetch_add, and the last arriver publishes a generation
// counter with a release (in fact seq_cst) store that waiters
// acquire-load -- spinning for a bounded budget, then parking in
// std::atomic::wait. Those edges order every outbox write before its
// drain and every drain before the clear (the engine runs clean under
// TSan).
#pragma once

#include <array>
#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <vector>

#include "common/frame_buf.hpp"
#include "common/types.hpp"
#include "netsim/network.hpp"
#include "netsim/simulator.hpp"
#include "telemetry/metrics.hpp"

namespace artmt::netsim {

namespace detail {

// Identifies the shard a worker thread is driving; Network::simulator()
// and Network::pool() resolve through this so node/app code is identical
// under the serial and sharded engines.
struct ShardContext {
  ShardedSimulator* owner = nullptr;
  u32 index = 0;
  Simulator* sim = nullptr;
  FramePool* pool = nullptr;
};

extern thread_local const ShardContext* tls_shard;

}  // namespace detail

// Per-shard engine statistics (satellite: shard-level reporting). The
// first five are simulation-determined; barrier_wait_ns and serial_ns
// are wall clock and therefore excluded from determinism-compared
// snapshots.
struct ShardStats {
  u64 events_dispatched = 0;  // events run by this shard's Simulator
  u64 epochs = 0;             // lock-step epochs participated in
  u64 frames_in = 0;          // cross-shard frames drained into this shard
  u64 frames_out = 0;         // cross-shard frames sent by this shard
  u64 rendezvous = 0;         // barrier arrivals (one per epoch; the
                              // one-shard engine has no barrier)
  u64 barrier_wait_ns = 0;    // wall-clock time waiting for other shards
  u64 serial_ns = 0;          // wall-clock time in the serial section
                              // (window selection) as the last arriver
};

class ShardedSimulator {
 public:
  static constexpr SimTime kNoEvent = Simulator::kNoEvent;

  // `shards` >= 1. shards == 1 runs each run()/run_until() as one
  // unbounded window inline on the calling thread, with no epoch loop
  // and no threads; shards > 1 spawn one worker thread per shard for
  // each run()/run_until() call and join them before it returns.
  explicit ShardedSimulator(u32 shards);
  ~ShardedSimulator();

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  [[nodiscard]] u32 shards() const { return static_cast<u32>(shards_.size()); }

  // Pins `node` to `shard`. Call after Network::attach and before the
  // first run; unpinned nodes are round-robined over shards 1..N-1 at
  // that point (everything lands on shard 0 when N == 1). By convention
  // the switch is pinned to shard 0.
  void pin(Node& node, u32 shard);

  // Quiescent (main-thread, between runs) API mirroring Simulator:
  // schedule_on starts work on the shard that owns `node` (closures
  // touching a node MUST run on its owning shard -- assert_confined trips
  // otherwise). Worker code schedules via network().simulator().
  void schedule_on(const Node& node, SimTime at, Simulator::Action action);

  // Runs epochs until every shard's queue drains / the clock would pass
  // `until` (events exactly at `until` run, matching Simulator).
  void run();
  void run_until(SimTime until);

  [[nodiscard]] SimTime now() const { return global_now_; }
  // Lookahead window W (minimum cross-shard link latency); kNoEvent
  // before the first run or when no link crosses a shard boundary (one
  // unbounded epoch runs everything).
  [[nodiscard]] SimTime lookahead() const { return lookahead_; }
  [[nodiscard]] u64 epochs() const { return epochs_; }

  [[nodiscard]] const ShardStats& shard_stats(u32 shard) const;
  // The registry shard `shard`'s components record into (the switch's
  // Config::metrics should point at its shard's registry; see also
  // Network::metrics / merge_metrics_into).
  [[nodiscard]] telemetry::MetricsRegistry& shard_metrics(u32 shard);

  // Publishes per-shard ShardStats into `out` under component "sharding"
  // with fid = shard index. Kept out of Network::merge_metrics_into because
  // barrier_wait_ns and serial_ns are wall clock and per-shard splits
  // vary with the shard count -- including them would break
  // cross-shard-count snapshot equality that the determinism tests
  // assert.
  void export_shard_stats(telemetry::MetricsRegistry& out) const;

 private:
  friend class Network;

  // One queued delivery; lives in its source shard's outbox until the
  // destination drains it at the top of the next epoch.
  struct MailMsg {
    Network* net = nullptr;
    Node* dest = nullptr;
    u32 port = 0;
    u32 src_shard = 0;  // sending shard (move vs clone at the drain)
    u32 src_index = 0;  // sender's attach index
    u64 tx_seq = 0;     // sender's transmit sequence
    SimTime send = 0;
    SimTime arrival = 0;
    Frame frame;
  };

  // Messages one shard sent toward one shard in one epoch.
  struct Outbox {
    std::vector<MailMsg> mail;
    SimTime earliest = kNoEvent;  // minimum arrival in `mail`

    void clear() {
      mail.clear();
      earliest = kNoEvent;
    }
  };

  struct Shard {
    Simulator sim;
    FramePool pool;
    std::unique_ptr<telemetry::MetricsRegistry> metrics;
    // outbox[p][d]: messages this shard sent toward shard d in the latest
    // epoch of parity p. Written only by this shard's worker during an
    // epoch of parity p; drained by d's worker at the top of the next
    // epoch; cleared by this worker at the top of the one after (so slabs
    // are released into the pool that owns them).
    std::array<std::vector<Outbox>, 2> outbox;
    u32 parity = 0;  // the running epoch's parity (this worker only)
    std::vector<MailMsg*> drain_scratch;  // reused sort buffer
    ShardStats stats;
  };

  class Barrier;

  // Called by Network::transmit: append to the current shard's outbox
  // (or, when quiescent, clone into the destination pool and hold in the
  // external mailbox until the next run).
  void enqueue(MailMsg msg);

  void bind_network(Network& net);
  [[nodiscard]] Simulator& shard_sim(u32 shard) { return shards_[shard]->sim; }
  [[nodiscard]] FramePool& shard_pool(u32 shard) { return shards_[shard]->pool; }

  // Pre-run (quiescent): assign unpinned nodes, recompute the lookahead,
  // size outboxes, inject the external mailbox.
  void prepare();
  void assign_unowned_nodes();
  void compute_lookahead();
  void drain_external();
  void run_epochs(SimTime limit);
  void run_single_shard(SimTime limit);
  void worker_loop(u32 shard, SimTime limit);
  // Schedules the mail every shard posted toward `shard` in an epoch of
  // `parity`.
  void drain_inboxes(u32 shard, u32 parity);
  void store_error(std::exception_ptr err);
  // Fills next_ with every shard's earliest pending work -- its queue
  // head or the earliest arrival parked toward it in an outbox half of
  // `parity` -- and returns the global minimum.
  SimTime collect_next(u32 parity);
  // Opens the epoch window starting at `start` from next_ (records its
  // width).
  void open_window(SimTime start);
  // Barrier serial section after an epoch of `parity`: picks the next
  // window from the globally earliest pending work, or raises done_.
  void select_next_window(SimTime limit, u32 parity);
  // Turns a drained message into a delivery event on `sim`.
  static void schedule_delivery(Simulator& sim, MailMsg& msg, Frame frame,
                                u32 shard);
  // Deterministic drain order: simulation state only, never shard packing.
  static bool mail_before(const MailMsg* a, const MailMsg* b);
  static bool mail_before_val(const MailMsg& a, const MailMsg& b);

  std::vector<std::unique_ptr<Shard>> shards_;
  Network* net_ = nullptr;
  std::vector<MailMsg> external_mail_;  // quiescent injections
  u32 next_rr_ = 0;                     // round-robin assignment cursor
  SimTime global_now_ = 0;
  SimTime lookahead_ = kNoEvent;
  u64 epochs_ = 0;
  // Width (virtual ns) of every bounded epoch window opened, plus a count
  // of unbounded (no cross-shard constraint) epochs. Exported via
  // export_shard_stats only: like barrier_wait_ns, the epoch partition
  // varies with the shard count, so merged determinism snapshots must not
  // include it.
  telemetry::Histogram epoch_width_;
  u64 unbounded_epochs_ = 0;

  // reach_[j*n + i]: minimum virtual time a frame originating on shard j
  // needs to reach shard i over the cross-shard link graph (same-shard
  // relays count as free, keeping it a lower bound); kNoEvent when no
  // path exists. The diagonal holds the shortest round trip through
  // another shard -- the bound a shard needs against replies to its own
  // traffic. Rebuilt by compute_lookahead() each prepare().
  std::vector<SimTime> reach_;

  // Epoch state: written in the barrier's serial section, read by
  // workers after the barrier (release/acquire-ordered). shard_bound_[i]
  // is shard i's exclusive window end this epoch: min over event-holding
  // shards j of next_[j] + reach_[j][i] (kNoEvent = unbounded, drain
  // everything).
  std::vector<SimTime> shard_bound_;
  std::vector<SimTime> next_;  // serial-section scratch (collect_next)
  bool done_ = false;
  std::unique_ptr<Barrier> barrier_;

  // A worker that throws records the error, raises abort_, and keeps
  // arriving at barriers so nobody deadlocks; the serial section turns
  // abort_ into done_ and run() rethrows after the join.
  std::atomic<bool> abort_{false};
  std::mutex error_mu_;
  std::exception_ptr first_error_;
};

}  // namespace artmt::netsim
