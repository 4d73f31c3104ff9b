#include "netsim/sharded.hpp"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <string>
#include <thread>
#include <utility>

#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace artmt::netsim {

namespace detail {
thread_local const ShardContext* tls_shard = nullptr;
}  // namespace detail

// Total order over drained messages derived from simulation state alone
// (never from shard packing or wall clock), so every shard count drains
// the same barrier batch in the same order.
bool ShardedSimulator::mail_before(const MailMsg* a, const MailMsg* b) {
  if (a->arrival != b->arrival) return a->arrival < b->arrival;
  if (a->send != b->send) return a->send < b->send;
  if (a->src_index != b->src_index) return a->src_index < b->src_index;
  return a->tx_seq < b->tx_seq;
}

bool ShardedSimulator::mail_before_val(const MailMsg& a, const MailMsg& b) {
  return mail_before(&a, &b);
}

namespace {

u64 elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - since)
                              .count());
}

u64 thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<u64>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<u64>(ts.tv_nsec);
}

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Both sides of the epoch handoff spin before they park, for about one
// futex park/wake round trip. On a 4-core Intel Xeon VM, parking costs a
// FUTEX_WAIT entry and a context switch (~1.3 us: half a raw
// FUTEX_WAIT/FUTEX_WAKE ping-pong round trip), and a parked thread that
// idled 5-100 us runs again 2-3 us (p50) after the FUTEX_WAKE -- about
// 5 us in all. One spin iteration (`pause` plus an acquire load of a
// line held shared in the local cache) takes ~20 ns there, so 256
// iterations spin for about one round trip before giving up the core:
// the classic spin-then-block rule, which never costs more than twice
// the better of pure spinning and immediate parking. Back-to-back
// parallel epochs therefore hand off without a syscall, while a worker
// idling through a long inline streak parks.
constexpr u32 kSpinBudget = 256;

// Blocks until `word` holds `target`. The acquire loads order everything
// the publisher wrote before its store after the return. The parking
// side's loads are seq_cst, and so is every store or RMW that ends a
// wait: notify_all skips the futex wake when libstdc++'s waiter count
// reads zero, and only seq_cst on both sides keeps that read from passing
// the store -- otherwise a waiter that registers just then parks on the
// old value and never wakes.
void await_value(const std::atomic<u32>& word, u32 target) {
  for (u32 spin = 0; spin < kSpinBudget; ++spin) {
    if (word.load(std::memory_order_acquire) == target) return;
    cpu_relax();
  }
  for (u32 seen; (seen = word.load(std::memory_order_seq_cst)) != target;) {
    word.wait(seen, std::memory_order_seq_cst);
  }
}

}  // namespace

ShardedSimulator::ShardedSimulator(u32 shards) {
  if (shards == 0) {
    throw UsageError("ShardedSimulator: shard count must be >= 1");
  }
  shards_.reserve(shards);
  for (u32 i = 0; i < shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->ctx = {this, i, &shard->sim, &shard->pool};
    shard->metrics = std::make_unique<telemetry::MetricsRegistry>();
    shard->sim.set_metrics(shard->metrics.get());
    for (auto& half : shard->outbox) half.resize(shards);
    shards_.push_back(std::move(shard));
  }
  shard_bound_.assign(shards, kNoEvent);
  next_.assign(shards, kNoEvent);
}

ShardedSimulator::~ShardedSimulator() = default;

void ShardedSimulator::bind_network(Network& net) {
  if (net_ != nullptr) {
    throw UsageError("ShardedSimulator: already driving a Network");
  }
  net_ = &net;
}

void ShardedSimulator::pin(Node& node, u32 shard) {
  if (shard >= shards()) {
    throw UsageError("ShardedSimulator::pin: shard out of range");
  }
  if (detail::tls_shard != nullptr) {
    throw UsageError("ShardedSimulator::pin: only while quiescent");
  }
  if (node.shard_assigned_) {
    throw UsageError("ShardedSimulator::pin: node '" + node.name() +
                     "' already assigned (pin before the first run)");
  }
  node.shard_ = shard;
  node.shard_assigned_ = true;
}

void ShardedSimulator::schedule_on(const Node& node, SimTime at,
                                   Simulator::Action action) {
  if (detail::tls_shard != nullptr) {
    throw UsageError(
        "ShardedSimulator::schedule_on: only while quiescent (workers "
        "schedule through their own network().simulator())");
  }
  assign_unowned_nodes();  // the node may predate the first run
  shards_[node.shard_]->sim.schedule_at(at, std::move(action));
}

const ShardStats& ShardedSimulator::shard_stats(u32 shard) const {
  if (shard >= shards()) {
    throw UsageError("ShardedSimulator::shard_stats: shard out of range");
  }
  return shards_[shard]->stats;
}

telemetry::MetricsRegistry& ShardedSimulator::shard_metrics(u32 shard) {
  if (shard >= shards()) {
    throw UsageError("ShardedSimulator::shard_metrics: shard out of range");
  }
  return *shards_[shard]->metrics;
}

void ShardedSimulator::export_shard_stats(
    telemetry::MetricsRegistry& out) const {
  // merge_add accumulates: export once per snapshot registry.
  for (u32 i = 0; i < shards(); ++i) {
    const ShardStats& s = shards_[i]->stats;
    const auto fid = static_cast<i32>(i);
    out.counter("sharding", "events_dispatched", fid)
        .merge_add(s.events_dispatched);
    out.counter("sharding", "epochs", fid).merge_add(s.epochs);
    out.counter("sharding", "frames_in", fid).merge_add(s.frames_in);
    out.counter("sharding", "frames_out", fid).merge_add(s.frames_out);
    out.counter("sharding", "rendezvous", fid).merge_add(s.rendezvous);
    out.counter("sharding", "barrier_wait_ns", fid)
        .merge_add(s.barrier_wait_ns);
    out.counter("sharding", "serial_ns", fid).merge_add(s.serial_ns);
    out.counter("sharding", "cpu_ns", fid).merge_add(s.cpu_ns);
  }
  // Engine-wide scheduler shape: widths of bounded epoch windows and the
  // count of unbounded (no cross-shard constraint) ones. Lives here and
  // not in Network::merge_metrics_into because the epoch partition varies
  // with the shard count.
  out.histogram("sharding", "epoch_width_ns").merge_from(epoch_width_);
  out.counter("sharding", "unbounded_epochs").merge_add(unbounded_epochs_);
  out.counter("sharding", "inline_epochs").merge_add(inline_epochs_);
}

void ShardedSimulator::enqueue(MailMsg msg) {
  const auto* ctx = detail::tls_shard;
  if (ctx != nullptr && ctx->owner == this) {
    Shard& src = *shards_[ctx->index];
    const u32 dst = msg.dest->shard_;
    if (dst != ctx->index) ++src.stats.frames_out;
    Outbox& box = src.outbox[src.parity][dst];
    // Tracked here so the serial section sees each shard's earliest
    // pending arrival without scanning the mail.
    box.earliest = std::min(box.earliest, msg.arrival);
    box.mail.push_back(std::move(msg));
    return;
  }
  // Quiescent injection (tools priming a scenario before run()): the
  // frame was built from some shard's pool, so clone it into the
  // destination shard's pool now -- no workers are running -- and hold
  // it until the next run's initial drain.
  assign_unowned_nodes();
  msg.src_shard = msg.dest->shard_;  // clone already done: drain moves it
  msg.frame = shards_[msg.dest->shard_]->pool.clone(msg.frame);
  external_mail_.push_back(std::move(msg));
}

void ShardedSimulator::assign_unowned_nodes() {
  if (net_ == nullptr) return;
  const u32 n = shards();
  for (const auto& node : net_->nodes_) {
    if (node->shard_assigned_) continue;
    // Default policy: shard 0 is reserved for pinned nodes (the switch
    // pipeline); unpinned fleets round-robin over the remaining shards.
    node->shard_ = (n == 1) ? 0 : 1 + (next_rr_++ % (n - 1));
    node->shard_assigned_ = true;
  }
}

void ShardedSimulator::compute_lookahead() {
  const u32 n = shards();
  // Direct per-shard-pair minima: reach_[j][i] starts as the cheapest
  // link whose sender lives on shard j and receiver on shard i. Same-shard
  // links never constrain a window (those deliveries are scheduled
  // directly at transmit time) but their latency is still validated --
  // a zero-latency link would break the serial engine's causality too.
  reach_.assign(static_cast<std::size_t>(n) * n, kNoEvent);
  SimTime w = kNoEvent;
  for (const auto& [key, egress] : net_->egress_) {
    if (egress.spec.latency <= 0) {
      throw UsageError(
          "ShardedSimulator: every link needs latency >= 1ns -- the minimum "
          "latency is the conservative lookahead window");
    }
    const u32 src = key.node->shard_;
    const u32 dst = egress.peer.node->shard_;
    if (src == dst) continue;
    w = std::min(w, egress.spec.latency);
    SimTime& edge = reach_[static_cast<std::size_t>(src) * n + dst];
    edge = std::min(edge, egress.spec.latency);
  }
  lookahead_ = w;  // kNoEvent when no link crosses shards: unbounded epochs
  // Close the matrix over relays (Floyd-Warshall on the shard graph): a
  // frame can take j -> k -> i across successive epochs, with same-shard
  // forwarding treated as free so the result stays a lower bound on any
  // multi-hop arrival. Relaxing the diagonal yields the shortest round
  // trip j -> ... -> j through another shard, which is exactly the bound
  // a shard needs against replies triggered by its own traffic.
  for (u32 k = 0; k < n; ++k) {
    for (u32 j = 0; j < n; ++j) {
      const SimTime jk = reach_[static_cast<std::size_t>(j) * n + k];
      if (jk == kNoEvent) continue;
      for (u32 i = 0; i < n; ++i) {
        const SimTime ki = reach_[static_cast<std::size_t>(k) * n + i];
        if (ki == kNoEvent || ki >= kNoEvent - jk) continue;
        SimTime& ji = reach_[static_cast<std::size_t>(j) * n + i];
        ji = std::min(ji, jk + ki);
      }
    }
  }
}

void ShardedSimulator::prepare() {
  if (net_ != nullptr) {
    assign_unowned_nodes();
    compute_lookahead();
  }
  drain_external();
}

void ShardedSimulator::schedule_delivery(Simulator& sim, MailMsg& msg,
                                         Frame frame, u32 shard) {
  Network* net = msg.net;
  Node* dest = msg.dest;
  const u32 port = msg.port;
  // The delivery key (arrival, send, src_index, tx_seq) reproduces the
  // mailbox sort order inside the event queue itself, so a message's
  // dispatch position is independent of which barrier drained it -- the
  // property that lets same-shard traffic skip the mailbox entirely.
  sim.schedule_delivery(msg.arrival, msg.send, msg.src_index, msg.tx_seq,
                        [net, dest, port, shard,
                         span = telemetry::span_id(msg.src_index, msg.tx_seq),
                         f = std::move(frame)]() mutable {
                          // Cross-shard deliveries carry the same causal
                          // span context the direct paths set.
                          telemetry::SpanScope scope(span);
                          net->deliver(*dest, port, std::move(f), shard);
                        });
}

void ShardedSimulator::drain_external() {
  if (external_mail_.empty()) return;
  std::sort(external_mail_.begin(), external_mail_.end(), mail_before_val);
  for (MailMsg& msg : external_mail_) {
    // Frames were cloned into the destination pool at enqueue time.
    schedule_delivery(shards_[msg.dest->shard_]->sim, msg,
                      std::move(msg.frame), msg.dest->shard_);
  }
  external_mail_.clear();
}

void ShardedSimulator::drain_inboxes(u32 dst_idx, u32 parity) {
  Shard& dst = *shards_[dst_idx];
  std::vector<MailMsg*>& batch = dst.drain_scratch;
  batch.clear();
  for (const auto& src : shards_) {
    for (MailMsg& msg : src->outbox[parity][dst_idx].mail) {
      batch.push_back(&msg);
    }
  }
  // Each outbox is appended in the sender's dispatch (send-time) order,
  // so with one source shard and uniform links the batch usually arrives
  // pre-sorted; the O(n) check dodges the sort on the common path.
  if (!std::is_sorted(batch.begin(), batch.end(), mail_before)) {
    std::sort(batch.begin(), batch.end(), mail_before);
  }
  for (MailMsg* msg : batch) {
    Frame frame;
    if (msg->src_shard == dst_idx) {
      // Same-shard delivery: the slab already belongs to our pool.
      frame = std::move(msg->frame);
    } else {
      // Cross-shard handoff: deep-copy into our pool; the source shard
      // releases the original when it clears this outbox half next epoch.
      frame = dst.pool.clone(msg->frame);
      ++dst.stats.frames_in;
    }
    schedule_delivery(dst.sim, *msg, std::move(frame), dst_idx);
  }
}

void ShardedSimulator::store_error(std::exception_ptr err) {
  // The shard is about to abort the run: capture its flight-recorder
  // lane first so the forensic tail ships with the error.
  if (auto* recorder = telemetry::flight_recorder()) {
    try {
      recorder->dump(telemetry::span_lane(), "worker_exception");
    } catch (...) {
      // A failed dump must not mask the original error.
    }
  }
  {
    std::lock_guard<std::mutex> lock(error_mu_);
    if (!first_error_) first_error_ = err;
  }
  abort_.store(true, std::memory_order_relaxed);
}

SimTime ShardedSimulator::collect_next(u32 parity) {
  const u32 n = shards();
  SimTime earliest = kNoEvent;
  for (u32 j = 0; j < n; ++j) {
    SimTime nj = shards_[j]->sim.next_event_time();
    for (const auto& src : shards_) {
      nj = std::min(nj, src->outbox[parity][j].earliest);
    }
    next_[j] = nj;
    earliest = std::min(earliest, nj);
  }
  return earliest;
}

// Opens the epoch whose earliest event sits at `start`: computes every
// shard's window bound from the reachability matrix and next_, and
// records the epoch's shape. Runs only on the conductor, while quiescent
// or between epochs, right after collect_next.
void ShardedSimulator::open_window(SimTime start) {
  const u32 n = shards();
  SimTime min_bound = kNoEvent;
  for (u32 i = 0; i < n; ++i) {
    SimTime bound = kNoEvent;
    for (u32 j = 0; j < n; ++j) {
      const SimTime nj = next_[j];
      if (nj == kNoEvent) continue;
      const SimTime r = reach_[static_cast<std::size_t>(j) * n + i];
      if (r == kNoEvent || r >= kNoEvent - nj) continue;
      bound = std::min(bound, nj + r);
    }
    shard_bound_[i] = bound;
    min_bound = std::min(min_bound, bound);
  }
  if (min_bound == kNoEvent) {
    ++unbounded_epochs_;
  } else {
    // reach_ entries are >= 1ns and start is the global minimum next
    // event, so bounded widths are always positive.
    epoch_width_.record(static_cast<u64>(min_bound - start));
  }
  ++epochs_;
}

void ShardedSimulator::select_next_window(SimTime limit, u32 parity) {
  if (abort_.load(std::memory_order_relaxed)) {
    done_ = true;
    return;
  }
  // Mail posted this epoch is still in the parity half of the outboxes;
  // its arrivals count as pending work at the receiver, exactly as if it
  // had been drained already -- so the epoch partition matches a drain
  // before window selection.
  const SimTime next = collect_next(parity);
  if (next == kNoEvent || next > limit) {
    done_ = true;
    return;
  }
  // Skip-empty fast-forward falls out for free: `next` is wherever the
  // earliest pending event actually is, however far beyond the previous
  // window that may be.
  open_window(next);
}

bool ShardedSimulator::parallel_epoch(SimTime limit) const {
  u32 busy = 0;
  for (u32 j = 0; j < shards(); ++j) {
    if (next_[j] < shard_bound_[j] && next_[j] <= limit && ++busy == 2) {
      return true;
    }
  }
  return false;
}

void ShardedSimulator::run_epoch_body(u32 shard_idx, SimTime limit,
                                      u32 parity) {
  Shard& shard = *shards_[shard_idx];
  detail::tls_shard = &shard.ctx;
  telemetry::set_span_lane(shard_idx);
  ++shard.stats.epochs;
  try {
    if (abort_.load(std::memory_order_relaxed)) return;
    // Every drained arrival is at or beyond this shard's bound for the
    // epoch that sent it (arrival >= next_sender + link >=
    // bound_receiver), so it lands in this window or a later one.
    drain_inboxes(shard_idx, parity ^ 1);
    // Receivers drained this half during the previous epoch; clearing it
    // here returns the originals' slabs to this shard's pool.
    for (Outbox& box : shard.outbox[parity]) box.clear();
    shard.parity = parity;
    // Events with at < bound and at <= limit; the shard clock stays at
    // its last event (never outrunning it) and is aligned globally once
    // the run quiesces.
    SimTime bound = shard_bound_[shard_idx];  // kNoEvent: drain all
    if (limit != kNoEvent && limit < bound - 1) bound = limit + 1;
    shard.sim.run_window(bound);
  } catch (...) {
    store_error(std::current_exception());
  }
}

void ShardedSimulator::worker_loop(u32 shard_idx, SimTime limit) {
  Shard& shard = *shards_[shard_idx];
  const u64 cpu_from = thread_cpu_ns();
  const u32 workers = shards() - 1;
  // go_ starts each run at 0 and the conductor bumps it once per parallel
  // epoch, only after every worker arrived from the previous one.
  for (u32 gen = 1;; ++gen) {
    const auto wait_from = std::chrono::steady_clock::now();
    await_value(go_, gen);
    shard.stats.barrier_wait_ns += elapsed_ns(wait_from);
    if (done_) break;  // published by the go bump
    ++shard.stats.rendezvous;
    run_epoch_body(shard_idx, limit, parity_);
    if (arrived_.fetch_add(1, std::memory_order_seq_cst) + 1 == workers) {
      arrived_.notify_all();
    }
  }
  shard.stats.cpu_ns += thread_cpu_ns() - cpu_from;
}

void ShardedSimulator::conduct(SimTime limit) {
  const u32 n = shards();
  Shard& lead = *shards_[0];
  const u64 cpu_from = thread_cpu_ns();
  go_.store(0, std::memory_order_relaxed);
  arrived_.store(0, std::memory_order_relaxed);
  const auto release_workers = [this] {
    // seq_cst: see await_value.
    go_.fetch_add(1, std::memory_order_seq_cst);
    go_.notify_all();
  };
  std::vector<std::thread> workers;
  workers.reserve(n - 1);
  try {
    for (u32 i = 1; i < n; ++i) {
      workers.emplace_back([this, i, limit] { worker_loop(i, limit); });
    }
  } catch (...) {
    // A failed spawn: dismiss the workers already waiting for their
    // first go before the exception leaves with them unjoined.
    done_ = true;
    release_workers();
    for (auto& t : workers) t.join();
    throw;
  }

  // Epochs alternate outbox halves: an epoch of parity p posts into
  // outbox[p] while receivers drain outbox[p ^ 1], which the previous
  // epoch filled.
  u32 parity = 0;
  while (true) {
    if (parallel_epoch(limit)) {
      parity_ = parity;
      release_workers();
      ++lead.stats.rendezvous;
      run_epoch_body(0, limit, parity);
      const auto wait_from = std::chrono::steady_clock::now();
      await_value(arrived_, n - 1);
      lead.stats.barrier_wait_ns += elapsed_ns(wait_from);
      // No worker touches arrived_ again before the next go.
      arrived_.store(0, std::memory_order_relaxed);
    } else {
      // One busy shard: the idle shards' shares are a drain and a clear,
      // so run every share here while the workers stay parked.
      for (u32 i = 0; i < n; ++i) run_epoch_body(i, limit, parity);
      ++inline_epochs_;
    }
    const auto serial_from = std::chrono::steady_clock::now();
    select_next_window(limit, parity);
    lead.stats.serial_ns += elapsed_ns(serial_from);
    parity ^= 1;
    if (done_) break;
  }
  release_workers();  // done_ is raised: every worker leaves its loop
  for (auto& t : workers) t.join();

  // Mail posted in the final epoch (arrivals past `limit`) moves into its
  // destination queue, where the next run picks it up.
  for (u32 i = 0; i < n; ++i) {
    detail::tls_shard = &shards_[i]->ctx;
    telemetry::set_span_lane(i);
    try {
      if (!abort_.load(std::memory_order_relaxed)) {
        drain_inboxes(i, parity ^ 1);
      }
    } catch (...) {
      store_error(std::current_exception());
    }
  }
  telemetry::set_span_lane(0);
  detail::tls_shard = nullptr;
  lead.stats.cpu_ns += thread_cpu_ns() - cpu_from;
}

void ShardedSimulator::run_epochs(SimTime limit) {
  if (detail::tls_shard != nullptr) {
    throw UsageError("ShardedSimulator::run: re-entrant run");
  }
  prepare();

  const SimTime start = collect_next(0);  // outboxes are empty between runs
  if (start != kNoEvent && start <= limit) {
    done_ = false;
    abort_.store(false, std::memory_order_relaxed);
    first_error_ = nullptr;
    open_window(start);
    conduct(limit);
  }
  // Quiescent again: release the cross-shard originals still parked in
  // either outbox half -- also after a failed run, so no slab outlives it
  // and no stale mail reaches the next run's first drain.
  for (const auto& s : shards_) {
    for (auto& half : s->outbox) {
      for (Outbox& box : half) box.clear();
    }
  }
  if (first_error_) {
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
  // Align every shard clock.
  SimTime final_time = global_now_;
  if (limit != kNoEvent) final_time = std::max(final_time, limit);
  for (const auto& s : shards_) {
    final_time = std::max(final_time, s->sim.now());
  }
  for (const auto& s : shards_) {
    // Pending events (beyond `limit`) all sit after final_time, so this
    // only advances the clock.
    s->sim.run_until(final_time);
  }
  global_now_ = final_time;
  for (const auto& s : shards_) {
    s->stats.events_dispatched = s->sim.events_dispatched();
  }
}

void ShardedSimulator::run() { run_epochs(kNoEvent); }

void ShardedSimulator::run_until(SimTime until) { run_epochs(until); }

}  // namespace artmt::netsim
