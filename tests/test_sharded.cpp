// Sharded simulation engine: epoch semantics, cross-shard frame handoff,
// confinement tripwires, telemetry merging, and -- the load-bearing
// property -- byte-identical results across shard counts and repeated
// runs (the e2e cache + heavy-hitter scenario at --shards=1/2/4).
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/hh_service.hpp"
#include "common/digest.hpp"
#include "netsim/sharded.hpp"
#include "scenario/scenario.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "workload/zipf.hpp"

namespace artmt {
namespace {

using netsim::LinkSpec;
using netsim::Network;
using netsim::ShardedSimulator;
using netsim::Simulator;

// --- engine-level fixtures ------------------------------------------------

// Records every arrival and optionally forwards the frame out a port
// while its first payload byte (a hop countdown) is positive.
class RelayNode : public netsim::Node {
 public:
  RelayNode(std::string name, u32 out_port)
      : Node(std::move(name)), out_port_(out_port) {}

  void on_frame(netsim::Frame frame, u32 port) override {
    log.emplace_back(network().simulator().now(), port, frame.size(),
                     frame.empty() ? 0 : frame[0]);
    if (!frame.empty() && frame[0] > 0) {
      frame[0] -= 1;  // frames arrive uniquely owned (moved or cloned)
      network().transmit(*this, out_port_, std::move(frame));
    }
  }

  std::vector<std::tuple<SimTime, u32, std::size_t, u8>> log;

 private:
  u32 out_port_;
};

// A ring of `n` relays; a quiescent injection with `hops` in byte 0
// circulates until the countdown expires. `engine` is what Network is
// built from: a ShardedSimulator, or a shard count (0 = serial).
struct Ring {
  template <typename Engine>
  Ring(Engine&& engine, u32 n) : net(std::forward<Engine>(engine)) {
    for (u32 i = 0; i < n; ++i) {
      nodes.push_back(std::make_shared<RelayNode>("n" + std::to_string(i),
                                                  /*out_port=*/0));
      net.attach(nodes.back());
    }
    for (u32 i = 0; i < n; ++i) {
      net.connect(*nodes[i], 0, *nodes[(i + 1) % n], 1);
    }
  }

  void inject(u32 from, u8 hops, std::size_t size) {
    netsim::Frame f = net.pool().acquire(size);
    for (std::size_t i = 0; i < size; ++i) f[i] = 0;
    f[0] = hops;
    net.transmit(*nodes[from], 0, std::move(f));
  }

  [[nodiscard]] u64 digest() const {
    Digest d;
    for (const auto& node : nodes) {
      d.mix(node->log.size());
      for (const auto& [at, port, size, hops] : node->log) {
        d.mix(static_cast<u64>(at));
        d.mix(port);
        d.mix(size);
        d.mix(hops);
      }
    }
    return d.h;
  }

  Network net;
  std::vector<std::shared_ptr<RelayNode>> nodes;
};

// The engine's epoch partition: how many windows ran, how wide they
// were, and which shards exchanged how many frames. Golden values below
// pin it, so a change to the rendezvous cannot shift it silently.
struct EpochShape {
  u64 epochs = 0;
  std::vector<std::array<u64, 3>> shards;  // {epochs, frames_in, frames_out}
  u64 width_count = 0;
  u64 width_sum = 0;
  u64 unbounded = 0;

  bool operator==(const EpochShape&) const = default;
};

EpochShape epoch_shape(const ShardedSimulator& ssim) {
  EpochShape shape;
  shape.epochs = ssim.epochs();
  for (u32 i = 0; i < ssim.shards(); ++i) {
    const netsim::ShardStats& st = ssim.shard_stats(i);
    shape.shards.push_back({st.epochs, st.frames_in, st.frames_out});
  }
  telemetry::MetricsRegistry stats;
  ssim.export_shard_stats(stats);
  const telemetry::Histogram& widths =
      stats.histogram("sharding", "epoch_width_ns");
  shape.width_count = widths.count();
  shape.width_sum = widths.sum();
  shape.unbounded = stats.counter_value("sharding", "unbounded_epochs");
  return shape;
}

void PrintTo(const EpochShape& s, std::ostream* os) {
  *os << "{" << s.epochs << ", {";
  for (const auto& [epochs, in, out] : s.shards) {
    *os << "{" << epochs << ", " << in << ", " << out << "}, ";
  }
  *os << "}, " << s.width_count << ", " << s.width_sum << ", " << s.unbounded
      << "}";
}

TEST(Sharded, ZeroShardsThrows) {
  EXPECT_THROW(ShardedSimulator{0}, UsageError);
}

// Driven only through Network, the serial engine and shards 1/2 agree on
// arrivals, delivery counts and clock: a transmit from quiescence, a send
// scheduled onto the sender's shard, and a run_until slice in between.
struct DriveRun {
  SimTime sliced_now = 0;
  u64 sliced_delivered = 0;
  std::vector<SimTime> arrivals;
  u64 delivered = 0;
  SimTime now = 0;
  bool operator==(const DriveRun&) const = default;
};

DriveRun drive_two_sends(u32 engine_shards) {
  Network net(engine_shards);
  auto a = std::make_shared<RelayNode>("a", 0);
  auto b = std::make_shared<RelayNode>("b", 0);
  net.attach(a);
  net.attach(b);
  net.connect(*a, 0, *b, 1);
  net.pin(*a, 0);
  net.pin(*b, net.shards() - 1);  // across the boundary when sharded
  const auto send = [&net, &a](std::size_t size) {
    netsim::Frame f = net.pool().acquire(size);
    f[0] = 0;
    net.transmit(*a, 0, std::move(f));
  };
  send(256);
  net.schedule_on(*a, 10 * kMicrosecond, [&send] { send(128); });
  DriveRun out;
  net.run_until(5 * kMicrosecond);
  out.sliced_now = net.now();
  out.sliced_delivered = net.frames_delivered();
  net.run();
  for (const auto& entry : b->log) out.arrivals.push_back(std::get<0>(entry));
  out.delivered = net.frames_delivered();
  out.now = net.now();
  return out;
}

TEST(Sharded, QuiescentInjectionMatchesSerialTiming) {
  const DriveRun serial = drive_two_sends(0);
  ASSERT_EQ(serial.arrivals.size(), 2u);
  EXPECT_GT(serial.arrivals[1], 10 * kMicrosecond);
  EXPECT_EQ(serial.sliced_now, 5 * kMicrosecond);
  EXPECT_EQ(serial.sliced_delivered, 1u);
  EXPECT_EQ(serial.delivered, 2u);
  EXPECT_EQ(serial.now, serial.arrivals[1]);
  for (u32 shards : {1u, 2u}) {
    EXPECT_EQ(drive_two_sends(shards), serial) << shards << " shards";
  }

  // The serial engine is one shard: pinning elsewhere is a usage error.
  Network net(0);
  EXPECT_EQ(net.shards(), 1u);
  auto node = std::make_shared<RelayNode>("n", 0);
  net.attach(node);
  EXPECT_THROW(net.pin(*node, 1), UsageError);
}

// The unplugged-port contract on either engine: a frame sent out a port
// with no cable counts once, in frames_dropped() and netsim.frames_dropped.
// Only the serial engine emits the frame_dropped trace event (the sink is
// process-global, so shard workers never write it).
TEST(Sharded, UnpluggedPortDropContract) {
  for (u32 shards : {0u, 1u, 2u}) {
    std::ostringstream trace;
    telemetry::TraceSink sink(trace);
    telemetry::set_trace_sink(&sink);
    Network net(shards);
    auto a = std::make_shared<RelayNode>("a", 0);
    auto b = std::make_shared<RelayNode>("b", 5);  // port 5 has no cable
    net.attach(a);
    net.attach(b);
    net.connect(*a, 0, *b, 1);
    net.pin(*b, net.shards() - 1);  // the drop happens on a worker
    netsim::Frame f = net.pool().acquire(64);
    f[0] = 1;
    net.transmit(*a, 0, std::move(f));
    net.run();
    telemetry::set_trace_sink(nullptr);

    telemetry::MetricsRegistry merged;
    net.merge_metrics_into(merged);
    EXPECT_EQ(net.frames_dropped(), 1u) << shards << " shards";
    EXPECT_EQ(merged.counter_value("netsim", "frames_dropped"), 1u)
        << shards << " shards";
    EXPECT_EQ(net.frames_delivered(), 1u) << shards << " shards";
    const bool serial = net.sharded() == nullptr;
    EXPECT_EQ(sink.emitted(), serial ? 1u : 0u) << shards << " shards";
    EXPECT_EQ(trace.str().find("\"frame_dropped\"") != std::string::npos,
              serial);
  }
}

TEST(Sharded, CrossShardRoundTripAccumulatesLinkDelay) {
  ShardedSimulator ssim(2);
  Ring ring(ssim, 2);
  ssim.pin(*ring.nodes[0], 0);
  ssim.pin(*ring.nodes[1], 1);
  ring.inject(0, /*hops=*/4, /*size=*/256);
  ssim.run();

  // 5 deliveries total (hops 4..0), alternating nodes, each hop adding
  // the same serialization + 1us propagation delay.
  ASSERT_EQ(ring.nodes[1]->log.size(), 3u);
  ASSERT_EQ(ring.nodes[0]->log.size(), 2u);
  const SimTime hop = std::get<0>(ring.nodes[1]->log[0]);
  EXPECT_GT(hop, kMicrosecond);
  EXPECT_EQ(std::get<0>(ring.nodes[0]->log[0]), 2 * hop);
  EXPECT_EQ(std::get<0>(ring.nodes[1]->log[1]), 3 * hop);
  EXPECT_EQ(ssim.now(), 5 * hop);
  EXPECT_EQ(ssim.lookahead(), kMicrosecond);
  EXPECT_GT(ssim.epochs(), 0u);

  // Cross-shard traffic is visible in the stats of both sides.
  EXPECT_EQ(ssim.shard_stats(0).frames_out + ssim.shard_stats(1).frames_out,
            4u);  // worker-sent frames (the injection was external)
  EXPECT_EQ(ssim.shard_stats(0).frames_in + ssim.shard_stats(1).frames_in,
            4u);
  EXPECT_GT(ssim.shard_stats(0).epochs, 0u);
  EXPECT_GT(ssim.shard_stats(1).epochs, 0u);
}

TEST(Sharded, RingDigestIdenticalAcrossShardCounts) {
  // Golden epoch partitions: a scheduler change must not shift them.
  // Shards 2: every relay lands on shard 1, one unbounded window;
  // shards 4: 31 bounded 1 us windows.
  const EpochShape two{1, {{1, 0, 0}, {1, 0, 0}}, 0, 0, 1};
  const EpochShape four{
      31, {{31, 0, 0}, {31, 25, 26}, {31, 26, 24}, {31, 24, 25}}, 31, 31000,
      0};
  std::vector<u64> digests;
  std::vector<SimTime> finals;
  for (u32 shards : {1u, 2u, 4u, 4u}) {  // 4 twice: repeated-run check
    ShardedSimulator ssim(shards);
    Ring ring(ssim, 6);
    // Several frames in flight at once, different sizes, so the barrier
    // drain has real sorting work to do.
    ring.inject(0, 30, 256);
    ring.inject(2, 25, 512);
    ring.inject(4, 20, 128);
    ssim.run();
    digests.push_back(ring.digest());
    finals.push_back(ssim.now());
    if (shards > 1) {
      EXPECT_EQ(epoch_shape(ssim), shards == 2 ? two : four)
          << shards << " shards";
    }
  }
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[0], digests[2]);
  EXPECT_EQ(digests[2], digests[3]);
  EXPECT_EQ(finals[0], finals[1]);
  EXPECT_EQ(finals[0], finals[2]);
}

// Six relays pinned round the shards (node i on shard i % shards), so
// every hop crosses a shard boundary.
void pin_round_robin(ShardedSimulator& ssim, Ring& ring) {
  for (u32 i = 0; i < ring.nodes.size(); ++i) {
    ssim.pin(*ring.nodes[i], i % ssim.shards());
  }
}

// Deterministic twin of the handoff's wall-clock cost: every shard joins
// each parallel epoch exactly once and no inline one, so a second
// rendezvous per parallel epoch would double the count. This ring has
// epochs of both kinds.
TEST(Sharded, OneRendezvousPerEpoch) {
  for (u32 shards : {2u, 4u}) {
    ShardedSimulator ssim(shards);
    Ring ring(ssim, 6);
    pin_round_robin(ssim, ring);
    ring.inject(0, 30, 256);
    ring.inject(3, 25, 512);
    ssim.run();
    telemetry::MetricsRegistry stats;
    ssim.export_shard_stats(stats);
    const u64 inline_epochs = ssim.inline_epochs();
    EXPECT_GT(inline_epochs, 0u) << shards << " shards";
    EXPECT_LT(inline_epochs, ssim.epochs()) << shards << " shards";
    EXPECT_EQ(stats.counter_value("sharding", "inline_epochs"), inline_epochs);
    u64 frames_out = 0;
    for (u32 i = 0; i < shards; ++i) {
      const netsim::ShardStats& st = ssim.shard_stats(i);
      EXPECT_EQ(st.rendezvous, st.epochs - inline_epochs)
          << "shard " << i << "/" << shards;
      EXPECT_EQ(st.epochs, ssim.epochs()) << "shard " << i << "/" << shards;
      EXPECT_EQ(stats.counter_value("sharding", "rendezvous",
                                    static_cast<i32>(i)),
                st.rendezvous);
      frames_out += st.frames_out;
    }
    EXPECT_GT(ssim.epochs(), 1u) << shards << " shards";
    EXPECT_EQ(frames_out, 30u + 25u) << shards << " shards";
  }
}

// One frame in flight between two shards: every epoch has exactly one
// busy shard, so the conductor runs them all inline and no worker ever
// joins one -- with the serial engine's and one shard's results.
TEST(Sharded, OneBusyShardRunsInline) {
  const auto ping_pong = [](u32 engine_shards) {
    Ring ring(engine_shards, 2);
    ring.net.pin(*ring.nodes[0], 0);
    ring.net.pin(*ring.nodes[1], ring.net.shards() - 1);
    ring.inject(0, 40, 256);
    ring.net.run();
    if (const ShardedSimulator* ssim = ring.net.sharded()) {
      if (ssim->shards() > 1) {
        EXPECT_GT(ssim->epochs(), 1u);
      }
      EXPECT_EQ(ssim->inline_epochs(), ssim->epochs())
          << engine_shards << " shards";
      for (u32 i = 0; i < ssim->shards(); ++i) {
        EXPECT_EQ(ssim->shard_stats(i).rendezvous, 0u)
            << "shard " << i << "/" << engine_shards;
      }
    }
    return std::pair{ring.digest(), ring.net.now()};
  };
  const auto serial = ping_pong(0);
  EXPECT_EQ(ping_pong(1), serial);
  EXPECT_EQ(ping_pong(2), serial);
}

// The benchmark drives the engine in many uneven run_until slices; the
// mail parked in the outboxes between slices must carry over exactly.
TEST(Sharded, UnevenRunUntilSlicesMatchOneRun) {
  auto build = [](ShardedSimulator& ssim) {
    auto ring = std::make_unique<Ring>(ssim, 6);
    pin_round_robin(ssim, *ring);
    ring->inject(0, 30, 256);
    ring->inject(2, 25, 512);
    ring->inject(4, 20, 128);
    return ring;
  };
  for (u32 shards : {2u, 4u}) {
    ShardedSimulator whole(shards);
    const auto reference = build(whole);
    whole.run();
    const SimTime end = whole.now();

    ShardedSimulator sliced(shards);
    const auto ring = build(sliced);
    constexpr SimTime kSlices = 37;
    for (SimTime k = 1; k < kSlices; ++k) {
      // Quadratic spacing: short slices first, long ones near the end.
      sliced.run_until(end * k * k / (kSlices * kSlices));
    }
    sliced.run();
    EXPECT_EQ(ring->digest(), reference->digest()) << shards << " shards";
    EXPECT_EQ(sliced.now(), end) << shards << " shards";
  }
}

// About 2000 short run_until slices per shard count, each starting and
// joining its workers, over epochs that alternate between inline and
// parallel: a lost wakeup at the conductor handoff hangs here, which is
// why CI runs this binary under a timeout.
TEST(Sharded, ConductorHandoffStress) {
  constexpr u32 kWaves = 8;
  constexpr SimTime kWaveGap = 300 * kMicrosecond;
  constexpr SimTime kSlices = 2000;
  auto build = [](ShardedSimulator& ssim) {
    auto ring = std::make_unique<Ring>(ssim, 6);
    pin_round_robin(ssim, *ring);
    Ring* r = ring.get();
    for (u32 w = 0; w < kWaves; ++w) {
      // A long frame and a short one: parallel epochs while both keep
      // different shards busy, inline ones once the long one is alone.
      for (const auto& [from, hops] : {std::pair{0u, u8{250}}, {3u, u8{60}}}) {
        ssim.schedule_on(*r->nodes[from], w * kWaveGap,
                         [r, from, hops] { r->inject(from, hops, 256); });
      }
    }
    return ring;
  };
  for (u32 shards : {2u, 4u}) {
    ShardedSimulator whole(shards);
    const auto reference = build(whole);
    whole.run();
    const SimTime end = whole.now();
    EXPECT_GT(whole.inline_epochs(), 0u) << shards << " shards";
    EXPECT_LT(whole.inline_epochs(), whole.epochs()) << shards << " shards";

    ShardedSimulator sliced(shards);
    const auto ring = build(sliced);
    for (SimTime k = 1; k < kSlices; ++k) {
      sliced.run_until(end * k / kSlices);
    }
    sliced.run();
    EXPECT_EQ(ring->digest(), reference->digest()) << shards << " shards";
    EXPECT_EQ(sliced.now(), end) << shards << " shards";
  }
}

// Forwards like a RelayNode, then throws once on its `throw_at`-th
// arrival -- after the forward, so its own outbox half holds mail.
// `before_throw` runs just before, on the thread driving the relay.
class FaultyRelay : public RelayNode {
 public:
  FaultyRelay(std::string name, std::size_t throw_at,
              std::function<void()> before_throw)
      : RelayNode(std::move(name), /*out_port=*/0),
        throw_at_(throw_at),
        before_throw_(std::move(before_throw)) {}

  void on_frame(netsim::Frame frame, u32 port) override {
    RelayNode::on_frame(std::move(frame), port);
    if (log.size() == throw_at_) {
      before_throw_();
      throw std::runtime_error("relay fault");
    }
  }

 private:
  std::size_t throw_at_;
  std::function<void()> before_throw_;
};

// A shard that throws while both outbox halves hold mail: run() must
// surface the original exception, and the failed run must neither strand
// slabs nor leave mail for the next run to deliver twice. Consecutive
// throw points land the fault in epochs of both parities, and the
// counters show it lands in both inline and parallel epochs.
TEST(Sharded, WorkerErrorWithMailInBothHalves) {
  bool threw_inline = false;
  bool threw_parallel = false;
  // 10-13 fire in parallel epochs, 96 in the ninth frame's inline tail.
  for (std::size_t throw_at : {10u, 11u, 12u, 13u, 96u}) {
    SCOPED_TRACE("throw at arrival " + std::to_string(throw_at));
    ShardedSimulator ssim(2);
    Network net(ssim);
    // Read by the thread driving shard 1 mid-epoch: its epoch count
    // already includes this epoch, its rendezvous count only when the
    // epoch is parallel, and the engine's inline count not yet.
    const auto note_epoch_kind = [&] {
      const netsim::ShardStats& st = ssim.shard_stats(1);
      (st.epochs - st.rendezvous > ssim.inline_epochs() ? threw_inline
                                                         : threw_parallel) =
          true;
    };
    std::vector<std::shared_ptr<RelayNode>> nodes;
    for (u32 i = 0; i < 4; ++i) {
      const std::string name = "n" + std::to_string(i);
      nodes.push_back(i == 1 ? std::make_shared<FaultyRelay>(name, throw_at,
                                                             note_epoch_kind)
                             : std::make_shared<RelayNode>(name, 0));
      net.attach(nodes.back());
      ssim.pin(*nodes.back(), i % 2);
    }
    for (u32 i = 0; i < 4; ++i) {
      net.connect(*nodes[i], 0, *nodes[(i + 1) % 4], 1);
    }
    // Two frames per relay keep every hop, and so every epoch, busy with
    // cross-shard mail: those epochs are parallel. A ninth frame outlives
    // them and circulates alone, one busy shard per epoch: those run
    // inline. Sizes are unique: (size, hops) names a delivery.
    for (u32 i = 0; i < 9; ++i) {
      netsim::Frame f = net.pool().acquire(64 + 16 * i);
      for (std::size_t b = 0; b < f.size(); ++b) f[b] = 0;
      f[0] = i < 8 ? 40 : 80;
      net.transmit(*nodes[i % 4], 0, std::move(f));
    }

    try {
      ssim.run();
      ADD_FAILURE() << "the relay fault did not surface";
    } catch (const std::runtime_error& err) {
      EXPECT_STREQ(err.what(), "relay fault");
    }
    ssim.run();  // the fault fired once; finish what is still queued

    std::set<std::pair<std::size_t, u8>> seen;
    for (const auto& node : nodes) {
      for (const auto& [at, port, size, hops] : node->log) {
        EXPECT_TRUE(seen.emplace(size, hops).second)
            << "frame of size " << size << " delivered twice at hop "
            << +hops;
      }
    }
    // Every slab is back on its shard's freelist once nothing is in
    // flight.
    std::array<std::pair<std::size_t, u64>, 2> pools{};
    for (u32 s = 0; s < 2; ++s) {
      ssim.schedule_on(*nodes[s], ssim.now() + 1, [&pools, &net, s] {
        pools[s] = {net.pool().free_slabs(), net.pool().stats().slabs_created};
      });
    }
    ssim.run();
    for (u32 s = 0; s < 2; ++s) {
      EXPECT_GT(pools[s].second, 0u) << "shard " << s;
      EXPECT_EQ(pools[s].first, pools[s].second) << "shard " << s;
    }
  }
  EXPECT_TRUE(threw_inline);
  EXPECT_TRUE(threw_parallel);
}

TEST(Sharded, RunUntilIsInclusiveAndPreservesInFlightFrames) {
  ShardedSimulator ssim(2);
  Ring ring(ssim, 2);
  ring.inject(0, 2, 256);
  ssim.run();
  const SimTime hop = std::get<0>(ring.nodes[1]->log[0]);

  ShardedSimulator ssim2(2);
  Ring ring2(ssim2, 2);
  ring2.inject(0, 2, 256);
  ssim2.run_until(hop);  // event exactly at `until` runs
  EXPECT_EQ(ring2.nodes[1]->log.size(), 1u);
  EXPECT_EQ(ring2.nodes[0]->log.size(), 0u);
  EXPECT_EQ(ssim2.now(), hop);
  ssim2.run_until(hop + 1);  // nothing new; clock still advances
  EXPECT_EQ(ring2.nodes[0]->log.size(), 0u);
  EXPECT_EQ(ssim2.now(), hop + 1);
  ssim2.run();  // the in-flight reply survives across run_until calls
  EXPECT_EQ(ring2.nodes[0]->log.size(), 1u);
  EXPECT_EQ(std::get<0>(ring2.nodes[0]->log[0]), 2 * hop);
}

TEST(Sharded, WrongShardTouchThrows) {
  ShardedSimulator ssim(2);
  Ring ring(ssim, 2);
  ssim.pin(*ring.nodes[0], 0);
  ssim.pin(*ring.nodes[1], 1);
  // A closure on node 0's shard transmits on behalf of node 1: the
  // confinement tripwire must fire inside the worker and surface from
  // run().
  netsim::Node* other = ring.nodes[1].get();
  Network* net = &ring.net;
  ssim.schedule_on(*ring.nodes[0], kMicrosecond, [net, other] {
    net->transmit(*other, 0, netsim::Frame(std::size_t{8}));
  });
  EXPECT_THROW(ssim.run(), UsageError);
}

TEST(Sharded, PinAfterFirstRunThrows) {
  ShardedSimulator ssim(2);
  Ring ring(ssim, 2);
  ring.inject(0, 0, 64);
  ssim.run();
  EXPECT_THROW(ssim.pin(*ring.nodes[0], 1), UsageError);
}

TEST(Sharded, ZeroLatencyLinkThrows) {
  Network net(2);
  auto a = std::make_shared<RelayNode>("a", 0);
  auto b = std::make_shared<RelayNode>("b", 0);
  net.attach(a);
  net.attach(b);
  net.connect(*a, 0, *b, 1, LinkSpec{.latency = 0, .gbps = 40.0});
  EXPECT_THROW(net.run(), UsageError);
}

TEST(Sharded, SetMetricsThrowsInShardedMode) {
  Network net(2);
  telemetry::MetricsRegistry reg;
  EXPECT_THROW(net.set_metrics(&reg), UsageError);
}

TEST(Sharded, SecondNetworkThrows) {
  ShardedSimulator ssim(2);
  Network net(ssim);
  EXPECT_THROW(Network{ssim}, UsageError);
}

TEST(Sharded, MergedTelemetryMatchesNetworkCounters) {
  ShardedSimulator ssim(3);
  Ring ring(ssim, 4);
  ring.inject(0, 10, 256);
  ssim.run();

  telemetry::MetricsRegistry merged;
  ring.net.merge_metrics_into(merged);
  EXPECT_EQ(merged.counter_value("netsim", "frames_delivered"),
            ring.net.frames_delivered());
  EXPECT_EQ(merged.counter_value("netsim", "bytes_delivered"),
            ring.net.bytes_delivered());
  EXPECT_EQ(merged.counter_value("netsim", "events_dispatched"), 11u);

  // The shard-stats export lands under "sharding" with fid = shard.
  telemetry::MetricsRegistry stats;
  ssim.export_shard_stats(stats);
  u64 dispatched = 0;
  for (u32 i = 0; i < ssim.shards(); ++i) {
    dispatched +=
        stats.counter_value("sharding", "events_dispatched",
                            static_cast<i32>(i));
    EXPECT_EQ(stats.counter_value("sharding", "epochs", static_cast<i32>(i)),
              ssim.shard_stats(i).epochs);
  }
  EXPECT_EQ(dispatched, 11u);
}

// --- end-to-end determinism (the satellite's required scenario) -----------

struct ScenarioResult {
  std::string snapshot;  // merged telemetry snapshot JSON
  u64 reply_digest = 0;  // ordered digest of every client-visible reply
  SimTime completed_at = 0;
  EpochShape shape;
};

// The artmt_stats scenario (in-network cache + heavy-hitter monitor on
// one switch) shrunk to test size, drivable on either engine.
ScenarioResult run_scenario(u32 shards, u32 requests) {
  scenario::Star star(shards, [](Network& net) {
    controller::SwitchNode::Config cfg;
    cfg.costs = scenario::shrunk_costs();
    cfg.costs.extraction_timeout = 200 * kMillisecond;
    // Wall-clock allocator timing would make the virtual timeline (and
    // the snapshot) host-load dependent; the determinism assertions need
    // the modeled form.
    cfg.compute_model = alloc::ComputeModel::deterministic();
    cfg.metrics = &net.metrics(0);  // the switch lives on shard 0
    return cfg;
  });
  Network& net = star.net;
  client::ClientNode& client = star.add_client("client");

  workload::ZipfGenerator zipf(2'000, 1.2);
  Rng rng(42);
  auto key_of = [](u32 rank) {
    return workload::ZipfGenerator::key_for_rank(rank);
  };
  for (u32 rank = 0; rank < zipf.universe(); ++rank) {
    star.server->put(key_of(rank), rank + 1);
  }

  Digest replies;
  auto cache = std::make_shared<apps::CacheService>(
      "cache", scenario::Star::kServerMac);
  client.register_service(cache);
  scenario::route_cache_replies(client, *cache);
  cache->on_result = [&](u32 seq, u64 key, u32 value, bool hit) {
    replies.mix(static_cast<u64>(net.simulator().now()));
    replies.mix(seq);
    replies.mix(key);
    replies.mix(value);
    replies.mix(hit ? 1 : 0);
  };

  auto monitor = std::make_shared<apps::FrequentItemService>(
      "monitor", scenario::Star::kServerMac);
  client.register_service(monitor);

  // Self-rescheduling drivers: after the kick-off they always run on the
  // client's shard, so net.simulator() resolves to that shard's queue.
  std::function<void(u32)> get_next = [&](u32 remaining) {
    if (remaining == 0) return;
    cache->get(key_of(zipf.next_rank(rng)));
    net.simulator().schedule_after(
        100 * 1000, [&get_next, remaining] { get_next(remaining - 1); });
  };
  std::function<void(u32)> observe_next = [&](u32 remaining) {
    if (remaining == 0) {
      monitor->extract(
          [&](std::vector<std::pair<u64, u32>> items) {
            replies.mix(0xe0e0e0e0ull);
            replies.mix(static_cast<u64>(net.simulator().now()));
            replies.mix(items.size());
            for (const auto& [key, count] : items) {
              replies.mix(key);
              replies.mix(count);
            }
            monitor->release();
          },
          /*min_count=*/10);
      return;
    }
    monitor->observe(key_of(zipf.next_rank(rng)));
    net.simulator().schedule_after(
        50 * 1000, [&observe_next, remaining] { observe_next(remaining - 1); });
  };

  cache->on_ready = [&] {
    std::vector<std::pair<u64, u32>> hot;
    for (u32 rank = 50; rank-- > 0;) hot.emplace_back(key_of(rank), rank + 1);
    cache->populate(std::move(hot), [&] { get_next(requests); });
  };
  monitor->on_ready = [&] { observe_next(requests); };

  cache->request_allocation();
  net.schedule_on(client, kSecond, [&] { monitor->request_allocation(); });

  net.run();

  ScenarioResult out;
  out.reply_digest = replies.h;
  out.completed_at = net.now();
  if (net.sharded() != nullptr) out.shape = epoch_shape(*net.sharded());
  telemetry::MetricsRegistry merged;
  net.merge_metrics_into(merged);
  std::ostringstream os;
  merged.snapshot_json(os);
  out.snapshot = os.str();
  return out;
}

TEST(ShardedE2E, CacheAndHeavyHitterDeterministicAcrossShardCounts) {
  const u32 kRequests = 80;
  const ScenarioResult one = run_scenario(1, kRequests);
  ASSERT_FALSE(one.snapshot.empty());
  ASSERT_GT(one.completed_at, kSecond);
  // Sanity: the scenario really exercised the datapath.
  ASSERT_NE(one.snapshot.find("\"netsim.frames_delivered\""),
            std::string::npos);
  // The serial engine is the one-shard reference.
  const ScenarioResult serial = run_scenario(0, kRequests);
  EXPECT_EQ(serial.snapshot, one.snapshot);
  EXPECT_EQ(serial.reply_digest, one.reply_digest);
  EXPECT_EQ(serial.completed_at, one.completed_at);

  // Golden epoch partitions: a scheduler change must not shift them.
  const EpochShape two{809, {{809, 1443, 1446}, {809, 1446, 1443}},
                       809, 809000, 0};
  const EpochShape four{
      809,
      {{809, 1443, 1446}, {809, 106, 106}, {809, 1340, 1337}, {809, 0, 0}},
      809, 809000, 0};
  for (u32 shards : {2u, 4u}) {
    const ScenarioResult r = run_scenario(shards, kRequests);
    EXPECT_EQ(r.snapshot, one.snapshot) << shards << " shards";
    EXPECT_EQ(r.reply_digest, one.reply_digest) << shards << " shards";
    EXPECT_EQ(r.completed_at, one.completed_at) << shards << " shards";
    EXPECT_EQ(r.shape, shards == 2 ? two : four) << shards << " shards";
  }
}

TEST(ShardedE2E, RepeatedRunsAreByteIdentical) {
  const u32 kRequests = 60;
  const ScenarioResult a = run_scenario(4, kRequests);
  const ScenarioResult b = run_scenario(4, kRequests);
  EXPECT_EQ(a.snapshot, b.snapshot);
  EXPECT_EQ(a.reply_digest, b.reply_digest);
  EXPECT_EQ(a.completed_at, b.completed_at);
}

}  // namespace
}  // namespace artmt
