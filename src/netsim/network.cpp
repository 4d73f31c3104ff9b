#include "netsim/network.hpp"

#include <memory>
#include <utility>

#include "netsim/sharded.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "telemetry/trace.hpp"

namespace artmt::netsim {

void Node::assert_confined() const {
  const auto* ctx = detail::tls_shard;
  if (ctx == nullptr) return;  // serial engine or quiescent main thread
  if (network_ == nullptr || network_->sharded_ == nullptr) return;
  if (ctx->owner != network_->sharded_ || ctx->index != shard_) {
    throw UsageError("Node '" + name_ + "' owned by shard " +
                     std::to_string(shard_) +
                     " was touched from shard worker " +
                     std::to_string(ctx->index) +
                     " (schedule node work via schedule_on or the node's "
                     "own network().simulator())");
  }
}

Network::Network(u32 shards) {
  if (shards == 0) {
    owned_sim_ = std::make_unique<Simulator>();
    owned_metrics_ = std::make_unique<telemetry::MetricsRegistry>();
    sim_ = owned_sim_.get();
    shard_counters_.resize(1);
    set_metrics(owned_metrics_.get());
  } else {
    owned_sharded_ = std::make_unique<ShardedSimulator>(shards);
    sharded_ = owned_sharded_.get();
    bind_sharded();
  }
}

Network::Network(Simulator& sim) : sim_(&sim), shard_counters_(1) {}

Network::Network(ShardedSimulator& sharded) : sharded_(&sharded) {
  bind_sharded();
}

Network::~Network() = default;

void Network::bind_sharded() {
  sharded_->bind_network(*this);
  shard_counters_.resize(sharded_->shards());
  for (u32 i = 0; i < shard_counters_.size(); ++i) {
    shard_counters_[i].wire(&sharded_->shard_metrics(i));
  }
}

void Network::ShardCounters::wire(telemetry::MetricsRegistry* metrics) {
  const auto handle = [metrics](const char* name) {
    return metrics != nullptr ? &metrics->counter("netsim", name) : nullptr;
  };
  m_delivered = handle("frames_delivered");
  m_bytes = handle("bytes_delivered");
  m_dropped = handle("frames_dropped");
}

Simulator& Network::shard_simulator() const {
  const auto* ctx = detail::tls_shard;
  if (ctx != nullptr && ctx->owner == sharded_) return *ctx->sim;
  // Quiescent: all shard clocks agree, so shard 0 stands in for "the"
  // simulator (tool code scheduling here lands on shard 0; use
  // schedule_on to target another node's shard).
  return sharded_->shard_sim(0);
}

FramePool& Network::shard_pool() {
  const auto* ctx = detail::tls_shard;
  if (ctx != nullptr && ctx->owner == sharded_) return *ctx->pool;
  return sharded_->shard_pool(0);
}

void Network::run() {
  if (sharded_ != nullptr) {
    sharded_->run();
  } else {
    sim_->run();
  }
}

void Network::run_until(SimTime until) {
  if (sharded_ != nullptr) {
    sharded_->run_until(until);
  } else {
    sim_->run_until(until);
  }
}

SimTime Network::now() const {
  if (sharded_ == nullptr) return sim_->now();
  const auto* ctx = detail::tls_shard;
  return (ctx != nullptr && ctx->owner == sharded_) ? ctx->sim->now()
                                                    : sharded_->now();
}

u32 Network::shards() const {
  return sharded_ != nullptr ? sharded_->shards() : 1;
}

void Network::schedule_on(const Node& node, SimTime at,
                          Simulator::Action action) {
  if (sharded_ != nullptr) {
    sharded_->schedule_on(node, at, std::move(action));
  } else {
    sim_->schedule_at(at, std::move(action));
  }
}

void Network::pin(Node& node, u32 shard) {
  if (sharded_ != nullptr) {
    sharded_->pin(node, shard);
  } else if (shard != 0) {
    throw UsageError("Network::pin: the serial engine has only shard 0");
  }
}

telemetry::MetricsRegistry& Network::metrics(u32 shard) {
  if (sharded_ != nullptr) return sharded_->shard_metrics(shard);
  if (shard != 0) {
    throw UsageError("Network::metrics: the serial engine has only shard 0");
  }
  if (serial_metrics_ == nullptr) {
    throw UsageError("Network::metrics: no registry (call set_metrics)");
  }
  return *serial_metrics_;
}

void Network::merge_metrics_into(telemetry::MetricsRegistry& out) const {
  if (sharded_ == nullptr) {
    if (serial_metrics_ != nullptr) out.merge_from(*serial_metrics_);
    return;
  }
  for (u32 i = 0; i < sharded_->shards(); ++i) {
    out.merge_from(sharded_->shard_metrics(i));
  }
}

void Network::set_metrics(telemetry::MetricsRegistry* metrics) {
  if (sharded_ != nullptr) {
    throw UsageError(
        "Network::set_metrics: sharded mode wires per-shard registries "
        "automatically; read them via metrics() / merge_metrics_into");
  }
  serial_metrics_ = metrics;
  sim_->set_metrics(metrics);
  shard_counters_[0].wire(metrics);
}

u64 Network::total(u64 ShardCounters::*field) const {
  u64 sum = 0;
  for (const auto& c : shard_counters_) sum += c.*field;
  return sum;
}

void Network::attach(std::shared_ptr<Node> node) {
  if (node == nullptr) throw UsageError("Network::attach: null node");
  if (node->network_ != nullptr) {
    throw UsageError("Network::attach: node already attached");
  }
  node->network_ = this;
  node->attach_index_ = static_cast<u32>(nodes_.size());
  nodes_.push_back(std::move(node));
  nodes_.back()->on_attach();
}

void Network::connect(Node& node_a, u32 port_a, Node& node_b, u32 port_b,
                      const LinkSpec& spec) {
  if (egress_.contains({&node_a, port_a}) ||
      egress_.contains({&node_b, port_b})) {
    throw UsageError("Network::connect: port already connected");
  }
  egress_.emplace(PortKey{&node_a, port_a}, Egress{{&node_b, port_b}, spec});
  egress_.emplace(PortKey{&node_b, port_b}, Egress{{&node_a, port_a}, spec});
}

void Network::count_drop(const Node& from, u32 port, std::size_t bytes) {
  const auto* ctx = detail::tls_shard;  // null serially and while quiescent
  const bool worker = ctx != nullptr && ctx->owner == sharded_;
  ShardCounters& c = shard_counters_[worker ? ctx->index : 0];
  ++c.dropped;
  if (c.m_dropped != nullptr) c.m_dropped->inc();
  // Only the serial engine traces drops: the sink is a process global and
  // the sharded hot path stays lock-free.
  if (sharded_ != nullptr) return;
  if (auto* sink = telemetry::trace_sink()) {
    sink->emit("netsim", "frame_dropped", telemetry::kNoFid,
               {{"node", from.name()}, {"port", port}, {"bytes", bytes}});
  }
}

void Network::deliver(Node& dest, u32 port, Frame frame, u32 shard) {
  ShardCounters& c = shard_counters_[shard];
  ++c.delivered;
  c.bytes += frame.size();
  if (c.m_delivered != nullptr) {
    c.m_delivered->inc();
    c.m_bytes->inc(frame.size());
  }
  dest.on_frame(std::move(frame), port);
}

void Network::dispatch(const Endpoint& dest, Node& from, u64 tx_seq,
                       SimTime send, SimTime arrival, Frame frame) {
  Simulator* queue = sim_;
  u32 shard = 0;
  if (sharded_ != nullptr) {
    const auto* ctx = detail::tls_shard;
    if (ctx == nullptr || ctx->owner != sharded_ ||
        dest.node->shard_ != ctx->index) {
      // Cross-shard (or quiescent) delivery: mailbox, drained at the
      // epoch barrier; ordering stays canonical because the drain
      // schedules with the same delivery key.
      ShardedSimulator::MailMsg msg;
      msg.net = this;
      msg.dest = dest.node;
      msg.port = dest.port;
      msg.src_shard = from.shard_;
      msg.src_index = from.attach_index_;
      msg.tx_seq = tx_seq;
      msg.send = send;
      msg.arrival = arrival;
      msg.frame = std::move(frame);
      sharded_->enqueue(std::move(msg));
      return;
    }
    // Same-shard delivery: the slab already lives in this shard's pool
    // and no other worker can observe the event, so schedule it directly
    // instead of parking it in a mailbox until the barrier. The canonical
    // delivery key makes the queue position identical to what a barrier
    // drain would have produced, so this is purely a scheduling
    // relaxation -- it also frees the epoch window to be derived from
    // cross-shard link latencies alone.
    queue = ctx->sim;
    shard = ctx->index;
  }
  Node* node = dest.node;
  const u32 port = dest.port;
  queue->schedule_delivery(
      arrival, send, from.attach_index_, tx_seq,
      [this, node, port, shard,
       span = telemetry::span_id(from.attach_index_, tx_seq),
       f = std::move(frame)]() mutable {
        // Delivery runs under the transmission's span, so anything the
        // handler sends is causally parented to this frame.
        telemetry::SpanScope scope(span);
        deliver(*node, port, std::move(f), shard);
      });
}

void Network::transmit(Node& from, u32 port, Frame frame) {
  from.assert_confined();
  const auto it = egress_.find({&from, port});
  if (it == egress_.end()) {
    count_drop(from, port, frame.size());  // unplugged port: frame is lost
    return;
  }
  const Egress& out = it->second;
  const Endpoint dest = out.peer;
  // Consumed unconditionally, by both engines, hook or not: the pair
  // (attach_index, tx_seq) names this transmission identically no matter
  // how the scenario is run, which is what keeps injected faults
  // shard-count-invariant.
  const u64 tx_seq = from.tx_seq_++;

  const SimTime send = now();

  // Span ids reuse the fault injector's (attach_index, tx_seq) key, so
  // they are byte-identical across engines and shard counts. Noted before
  // the hook runs: a dropped send still names a span, which is what lets
  // the reliability layer chain retransmits of lost frames.
  const bool spans = telemetry::spans_active();
  u64 span = 0;
  if (spans) {
    span = telemetry::span_id(from.attach_index_, tx_seq);
    telemetry::note_tx_span(span);
  }

  TransmitHook::Verdict verdict;
  if (hook_ != nullptr) {
    verdict = hook_->on_transmit(from, *dest.node, send, tx_seq, frame, pool());
    if (verdict.drop || verdict.copies == 0) {
      if (spans) {
        telemetry::span_emit_with([&](telemetry::SpanEvent& event) {
          event.ts = send;
          event.span = span;
          event.parent = telemetry::current_span();
          event.phase = telemetry::SpanPhase::kDrop;
          event.node = static_cast<u16>(from.attach_index_);
          event.b = frame.size();
        });
      }
      return;
    }
  }

  // Serialization delay: bytes * 8 / rate. At 40 Gbps a 256-byte frame
  // serializes in ~51 ns.
  const double bits = static_cast<double>(frame.size()) * 8.0;
  const auto serialize =
      static_cast<SimTime>(bits / out.spec.gbps);  // Gbps -> bits/ns
  const SimTime nominal = send + serialize + out.spec.latency;

  const auto emit_send = [&](u64 send_span, u64 parent, SimTime arrival,
                             std::size_t bytes) {
    telemetry::span_emit_with([&](telemetry::SpanEvent& event) {
      event.ts = send;
      event.span = send_span;
      event.parent = parent;
      event.phase = telemetry::SpanPhase::kSend;
      event.node = static_cast<u16>(from.attach_index_);
      event.a = static_cast<u64>(arrival);
      event.b = bytes;
    });
  };

  if (verdict.copies > 1) {
    // Injected duplicates: independent deep copies on the same link, each
    // consuming its own tx sequence slot (cloned before the original is
    // moved out, dispatched after it so same-arrival duplicates trail the
    // original in both engines' orderings).
    std::vector<Frame> dups;
    dups.reserve(verdict.copies - 1);
    for (u32 i = 1; i < verdict.copies; ++i) dups.push_back(pool().clone(frame));
    const SimTime arrival = nominal + verdict.extra_delay;
    if (spans) emit_send(span, telemetry::current_span(), arrival, frame.size());
    dispatch(dest, from, tx_seq, send, arrival, std::move(frame));
    for (auto& dup : dups) {
      const u64 dup_seq = from.tx_seq_++;
      const SimTime dup_arrival = nominal + verdict.dup_delay;
      if (spans) {
        // A duplicate is its own transmission, causally a child of the
        // original send.
        emit_send(telemetry::span_id(from.attach_index_, dup_seq), span,
                  dup_arrival, dup.size());
      }
      dispatch(dest, from, dup_seq, send, dup_arrival, std::move(dup));
    }
    return;
  }
  const SimTime arrival = nominal + verdict.extra_delay;
  if (spans) emit_send(span, telemetry::current_span(), arrival, frame.size());
  dispatch(dest, from, tx_seq, send, arrival, std::move(frame));
}

}  // namespace artmt::netsim
