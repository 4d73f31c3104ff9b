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
// everything in one unbounded window.
//
// The calling thread of run()/run_until() is the epoch *conductor*: it
// drives shard 0, and it runs window selection after every epoch. A
// shard is busy in an epoch when it holds work below its bound (next_j <
// bound_j and next_j <= limit). An epoch with at most one busy shard runs
// *inline*: the conductor works every shard's share of it in turn, under
// that shard's ShardContext and span lane, while the worker threads of
// shards 1..N-1 stay parked. Only an epoch with two or more busy shards
// wakes them, with one `go` generation out and one `arrived` count back.
// The one-shard engine is the degenerate case: every epoch is inline and
// it starts no thread.
//
// Outboxes are double-buffered by epoch parity: an epoch of parity p
// posts cross-shard mail into outbox[p], while each shard's share of it,
// inline or on its worker, (1) drains the mail every shard posted toward
// it in the previous epoch (outbox[p ^ 1]), (2) clears its own outbox[p],
// which receivers drained during the previous epoch, and (3) runs its
// window. Window selection then picks the next windows with next_j =
// min(shard j's queue head, earliest arrival still parked toward j) --
// senders track that arrival at enqueue, so it is O(shards^2). That is
// exactly the value a drain before window selection would see, so the
// epoch partition does not depend on where in the epoch the drain
// happens, nor on which thread ran it. After the final epoch the
// conductor drains every shard's inbox once more, leaving arrivals past
// `limit` in their queues for the next run.
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
// (non-atomic), so a slab is touched only by whichever thread drives its
// shard in the current epoch. A frame crossing a shard boundary is
// deep-copied into the destination shard's pool at the drain
// (FramePool::clone); the source shard releases the original when it
// clears that outbox half an epoch later. A shard passes between the
// conductor and its worker only across the handoff: the conductor
// publishes a parallel epoch by bumping the `go` generation with a
// seq_cst (hence release) store that workers acquire-load, and each
// worker reports back with a seq_cst fetch_add on `arrived` that the
// conductor acquire-loads. Both sides spin for a bounded budget, then
// park in std::atomic::wait. Those edges order every outbox write before
// its drain, every drain before the clear, and every inline epoch's
// shard state before the worker that next drives that shard (the engine
// runs clean under TSan).
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

// Per-shard engine statistics. The first five are simulation-determined
// for a given shard count; barrier_wait_ns, serial_ns and cpu_ns are
// host time and therefore excluded from determinism-compared snapshots.
struct ShardStats {
  u64 events_dispatched = 0;  // events run by this shard's Simulator
  u64 epochs = 0;             // lock-step epochs, inline or parallel
  u64 frames_in = 0;          // cross-shard frames drained into this shard
  u64 frames_out = 0;         // cross-shard frames sent by this shard
  u64 rendezvous = 0;         // parallel epochs joined: epochs minus the
                              // engine's inline epochs
  u64 barrier_wait_ns = 0;    // wall clock spent waiting: shard 0 for the
                              // workers' arrivals, a worker for the next
                              // go (parked through inline streaks)
  u64 serial_ns = 0;          // wall clock in window selection (shard 0:
                              // the conductor runs it)
  u64 cpu_ns = 0;             // CLOCK_THREAD_CPUTIME_ID of the thread
                              // driving this shard (shard 0: the
                              // conductor, inline epochs included)
};

class ShardedSimulator {
 public:
  static constexpr SimTime kNoEvent = Simulator::kNoEvent;

  // `shards` >= 1. Each run()/run_until() conducts its epochs on the
  // calling thread, which drives shard 0 and every inline epoch; shards >
  // 1 also spawn one worker thread per shard 1..N-1 for the call and join
  // them before it returns. shards == 1 starts no thread.
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
  // Epochs the conductor ran alone (at most one busy shard).
  [[nodiscard]] u64 inline_epochs() const { return inline_epochs_; }

  [[nodiscard]] const ShardStats& shard_stats(u32 shard) const;
  // The registry shard `shard`'s components record into (the switch's
  // Config::metrics should point at its shard's registry; see also
  // Network::metrics / merge_metrics_into).
  [[nodiscard]] telemetry::MetricsRegistry& shard_metrics(u32 shard);

  // Publishes per-shard ShardStats into `out` under component "sharding"
  // with fid = shard index, plus the engine-wide epoch shape. Kept out of
  // Network::merge_metrics_into because barrier_wait_ns, serial_ns and
  // cpu_ns are host time and the epoch partition varies with the shard
  // count -- including them would break cross-shard-count snapshot
  // equality that the determinism tests assert.
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
    detail::ShardContext ctx;  // installed by whichever thread drives it
    std::unique_ptr<telemetry::MetricsRegistry> metrics;
    // outbox[p][d]: messages this shard sent toward shard d in the latest
    // epoch of parity p. Written only while this shard runs an epoch of
    // parity p; drained by d at the top of the next epoch; cleared by
    // this shard at the top of the one after (so slabs are released into
    // the pool that owns them).
    std::array<std::vector<Outbox>, 2> outbox;
    u32 parity = 0;  // the running epoch's parity (its thread only)
    std::vector<MailMsg*> drain_scratch;  // reused sort buffer
    ShardStats stats;
  };

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
  // The calling thread's epoch loop: runs inline epochs itself, hands
  // parallel ones to the workers, selects every window.
  void conduct(SimTime limit);
  // Shards 1..N-1: runs the shard's share of each parallel epoch.
  void worker_loop(u32 shard, SimTime limit);
  // One shard's share of an epoch of `parity`: drain, clear, window.
  void run_epoch_body(u32 shard, SimTime limit, u32 parity);
  // True when two or more shards hold work below their window bound.
  [[nodiscard]] bool parallel_epoch(SimTime limit) const;
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
  // Window selection after an epoch of `parity` (conductor only): picks
  // the next window from the globally earliest pending work, or raises
  // done_.
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
  u64 inline_epochs_ = 0;
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

  // Epoch state: written by the conductor between epochs, read by workers
  // after the go handoff (release/acquire-ordered). shard_bound_[i]
  // is shard i's exclusive window end this epoch: min over event-holding
  // shards j of next_[j] + reach_[j][i] (kNoEvent = unbounded, drain
  // everything).
  std::vector<SimTime> shard_bound_;
  std::vector<SimTime> next_;  // window-selection scratch (collect_next)
  bool done_ = false;
  u32 parity_ = 0;  // parity of the parallel epoch `go_` last published

  // The conductor bumps go_ to start a parallel epoch (or, with done_
  // raised, to end the run); each worker then adds one to arrived_ when
  // its share is done. seq_cst stores/RMWs pair with the parking side's
  // seq_cst loads (see await_value in sharded.cpp).
  std::atomic<u32> go_{0};
  std::atomic<u32> arrived_{0};

  // A shard that throws records the error and raises abort_; the epoch
  // keeps going so every worker still arrives, window selection turns
  // abort_ into done_, and run() rethrows after the join.
  std::atomic<bool> abort_{false};
  std::mutex error_mu_;
  std::exception_ptr first_error_;
};

}  // namespace artmt::netsim
