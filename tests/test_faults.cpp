// Deterministic fault injection (src/faults) and the unified client
// reliability layer (client::ReliabilityTracker): probabilistic
// drop/corrupt/duplicate/reorder/jitter semantics, scripted link flaps
// and switch brownouts, determinism across repeated runs and shard
// counts, the fault-free byte-identity regression, retransmit/backoff
// schedules, and end-to-end recovery of the cache and heavy-hitter
// services under loss (including the extraction-timeout force-finalize
// path when a disturbed client is cut off entirely).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "apps/cache_service.hpp"
#include "apps/hh_service.hpp"
#include "apps/programs.hpp"
#include "apps/server_node.hpp"
#include "client/client_node.hpp"
#include "client/reliability.hpp"
#include "controller/switch_node.hpp"
#include "faults/injector.hpp"
#include "netsim/network.hpp"
#include "telemetry/metrics.hpp"

namespace artmt {
namespace {

using client::ReliabilityTracker;
using faults::Brownout;
using faults::FaultInjector;
using faults::FaultKind;
using faults::FaultPlan;
using faults::LinkFaults;
using faults::LinkFlap;
using netsim::Network;
using netsim::Simulator;

// --- Rng substreams (satellite: isolated fault randomness) ----------------

TEST(RngSubstream, SameSeedAndTagReproduce) {
  Rng a = Rng::substream(5, 17);
  Rng b = Rng::substream(5, 17);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngSubstream, DistinctTagsAndSeedsDiverge) {
  Rng a = Rng::substream(5, 1);
  Rng b = Rng::substream(5, 2);
  Rng c = Rng::substream(6, 1);
  bool ab_differ = false;
  bool ac_differ = false;
  for (int i = 0; i < 16; ++i) {
    const u64 va = a.next_u64();
    ab_differ |= va != b.next_u64();
    ac_differ |= va != c.next_u64();
  }
  EXPECT_TRUE(ab_differ);
  EXPECT_TRUE(ac_differ);
}

// --- fixtures -------------------------------------------------------------

// Records every arrival (time, port, payload bytes).
class SinkNode : public netsim::Node {
 public:
  using Node::Node;

  void on_frame(netsim::Frame frame, u32 port) override {
    arrivals.push_back({network().simulator().now(), port,
                        std::vector<u8>(frame.data(),
                                        frame.data() + frame.size())});
  }

  struct Arrival {
    SimTime at = 0;
    u32 port = 0;
    std::vector<u8> bytes;
  };
  std::vector<Arrival> arrivals;
};

// Two sinks on one serial link; frames are injected at scripted times.
struct PairNet {
  PairNet() : net(0) {
    a = std::make_shared<SinkNode>("a");
    b = std::make_shared<SinkNode>("b");
    net.attach(a);
    net.attach(b);
    net.connect(*a, 0, *b, 0);
  }

  void send_at(SimTime at, netsim::Node& from, std::vector<u8> bytes) {
    net.schedule_on(from, at, [this, &from, bytes = std::move(bytes)] {
      netsim::Frame f = net.pool().acquire(bytes.size());
      std::copy(bytes.begin(), bytes.end(), f.data());
      net.transmit(from, 0, std::move(f));
    });
  }

  Network net;
  std::shared_ptr<SinkNode> a, b;
};

// FNV-1a over 64-bit words (order-sensitive).
struct Digest {
  u64 h = 1469598103934665603ull;
  void mix(u64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  }
};

u64 arrivals_digest(const SinkNode& node) {
  Digest d;
  d.mix(node.arrivals.size());
  for (const auto& arrival : node.arrivals) {
    d.mix(static_cast<u64>(arrival.at));
    d.mix(arrival.port);
    for (const u8 byte : arrival.bytes) d.mix(byte);
  }
  return d.h;
}

std::vector<u8> payload_for(u32 index, std::size_t size = 64) {
  std::vector<u8> bytes(size);
  for (std::size_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<u8>((index * 131 + i) & 0xff);
  }
  return bytes;
}

// --- probabilistic rule semantics (serial engine) -------------------------

TEST(Injector, FullLossDropsEverything) {
  PairNet pair;
  FaultInjector injector(FaultPlan::uniform_loss(3, 1.0));
  pair.net.set_transmit_hook(&injector);
  for (u32 i = 0; i < 20; ++i) {
    pair.send_at(i * 10 * kMicrosecond, *pair.a, payload_for(i));
  }
  pair.net.run();
  EXPECT_TRUE(pair.b->arrivals.empty());
  EXPECT_EQ(pair.net.frames_delivered(), 0u);
  EXPECT_EQ(injector.injected(FaultKind::kDrop), 20u);
  EXPECT_EQ(injector.injected_total(), 20u);
  // Injected losses are the injector's books, not the network's.
  EXPECT_EQ(pair.net.frames_dropped(), 0u);
}

TEST(Injector, PartialLossIsDeterministicAcrossRuns) {
  auto run = [](u64 seed) {
    PairNet pair;
    FaultInjector injector(FaultPlan::uniform_loss(seed, 0.3));
    pair.net.set_transmit_hook(&injector);
    for (u32 i = 0; i < 200; ++i) {
      pair.send_at(i * 10 * kMicrosecond, *pair.a, payload_for(i));
    }
    pair.net.run();
    return std::tuple(arrivals_digest(*pair.b), pair.b->arrivals.size(),
                      injector.injected(FaultKind::kDrop));
  };
  const auto first = run(7);
  const auto second = run(7);
  EXPECT_EQ(first, second);
  // A 30% rule really fires (and really spares) with 200 samples.
  EXPECT_GT(std::get<2>(first), 0u);
  EXPECT_LT(std::get<2>(first), 200u);
  EXPECT_EQ(std::get<1>(first) + std::get<2>(first), 200u);

  const auto other_seed = run(8);
  EXPECT_NE(std::get<0>(first), std::get<0>(other_seed));
}

TEST(Injector, CorruptFlipsExactlyOneBit) {
  PairNet pair;
  FaultPlan plan;
  plan.seed = 11;
  LinkFaults rule;
  rule.corrupt = 1.0;
  plan.link_faults.push_back(rule);
  FaultInjector injector(plan);
  pair.net.set_transmit_hook(&injector);

  const std::vector<u8> sent = payload_for(1);
  pair.send_at(0, *pair.a, sent);
  pair.net.run();

  ASSERT_EQ(pair.b->arrivals.size(), 1u);
  const auto& got = pair.b->arrivals[0].bytes;
  ASSERT_EQ(got.size(), sent.size());
  u32 differing_bytes = 0;
  u32 flipped_bits = 0;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    if (got[i] == sent[i]) continue;
    ++differing_bytes;
    flipped_bits += std::popcount(static_cast<u32>(got[i] ^ sent[i]));
  }
  EXPECT_EQ(differing_bytes, 1u);
  EXPECT_EQ(flipped_bits, 1u);
  EXPECT_EQ(injector.injected(FaultKind::kCorrupt), 1u);
}

TEST(Injector, DuplicateDeliversBothCopies) {
  PairNet pair;
  FaultPlan plan;
  plan.seed = 13;
  LinkFaults rule;
  rule.duplicate = 1.0;
  plan.link_faults.push_back(rule);
  FaultInjector injector(plan);
  pair.net.set_transmit_hook(&injector);

  const std::vector<u8> sent = payload_for(2);
  pair.send_at(0, *pair.a, sent);
  pair.net.run();

  ASSERT_EQ(pair.b->arrivals.size(), 2u);
  EXPECT_EQ(pair.b->arrivals[0].bytes, sent);
  EXPECT_EQ(pair.b->arrivals[1].bytes, sent);
  EXPECT_EQ(pair.b->arrivals[1].at - pair.b->arrivals[0].at, rule.dup_delay);
  EXPECT_EQ(injector.injected(FaultKind::kDuplicate), 1u);
  EXPECT_EQ(pair.net.frames_delivered(), 2u);
}

TEST(Injector, ReorderLetsLaterFrameOvertake) {
  PairNet pair;
  FaultPlan plan;
  plan.seed = 17;
  LinkFaults rule;
  rule.reorder = 1.0;
  rule.until = 5 * kMicrosecond;  // only the first frame is held
  plan.link_faults.push_back(rule);
  FaultInjector injector(plan);
  pair.net.set_transmit_hook(&injector);

  pair.send_at(0, *pair.a, payload_for(1));
  pair.send_at(10 * kMicrosecond, *pair.a, payload_for(2));
  pair.net.run();

  ASSERT_EQ(pair.b->arrivals.size(), 2u);
  EXPECT_EQ(pair.b->arrivals[0].bytes, payload_for(2));  // overtook
  EXPECT_EQ(pair.b->arrivals[1].bytes, payload_for(1));  // held back
  EXPECT_GE(pair.b->arrivals[1].at, rule.reorder_hold);
  EXPECT_EQ(injector.injected(FaultKind::kReorder), 1u);
}

TEST(Injector, JitterDelaysWithinBound) {
  // Reference arrival without faults.
  PairNet clean;
  clean.send_at(0, *clean.a, payload_for(1));
  clean.net.run();
  ASSERT_EQ(clean.b->arrivals.size(), 1u);
  const SimTime nominal = clean.b->arrivals[0].at;

  PairNet pair;
  FaultPlan plan;
  plan.seed = 19;
  LinkFaults rule;
  rule.jitter = 1.0;
  plan.link_faults.push_back(rule);
  FaultInjector injector(plan);
  pair.net.set_transmit_hook(&injector);
  pair.send_at(0, *pair.a, payload_for(1));
  pair.net.run();

  ASSERT_EQ(pair.b->arrivals.size(), 1u);
  EXPECT_GE(pair.b->arrivals[0].at, nominal);
  EXPECT_LT(pair.b->arrivals[0].at, nominal + rule.jitter_max);
  EXPECT_EQ(injector.injected(FaultKind::kJitter), 1u);
  EXPECT_EQ(pair.b->arrivals[0].bytes, payload_for(1));
}

TEST(Injector, RuleTimeWindowIsRespected) {
  PairNet pair;
  FaultPlan plan;
  plan.seed = 23;
  LinkFaults rule;
  rule.drop = 1.0;
  rule.from = 10 * kMicrosecond;
  rule.until = 20 * kMicrosecond;
  plan.link_faults.push_back(rule);
  FaultInjector injector(plan);
  pair.net.set_transmit_hook(&injector);

  pair.send_at(0, *pair.a, payload_for(0));                  // before
  pair.send_at(15 * kMicrosecond, *pair.a, payload_for(1));  // inside
  pair.send_at(30 * kMicrosecond, *pair.a, payload_for(2));  // after
  pair.net.run();

  ASSERT_EQ(pair.b->arrivals.size(), 2u);
  EXPECT_EQ(pair.b->arrivals[0].bytes, payload_for(0));
  EXPECT_EQ(pair.b->arrivals[1].bytes, payload_for(2));
  EXPECT_EQ(injector.injected(FaultKind::kDrop), 1u);
}

// --- scripted flaps and brownouts -----------------------------------------

TEST(Injector, LinkFlapCutsBothDirectionsDuringWindow) {
  PairNet pair;
  FaultPlan plan;
  plan.flaps.push_back(LinkFlap{.node_a = "a",
                                .node_b = "b",
                                .down_at = 10 * kMicrosecond,
                                .up_at = 30 * kMicrosecond});
  FaultInjector injector(plan);
  pair.net.set_transmit_hook(&injector);

  pair.send_at(0, *pair.a, payload_for(0));                  // up
  pair.send_at(15 * kMicrosecond, *pair.a, payload_for(1));  // down, a->b
  pair.send_at(20 * kMicrosecond, *pair.b, payload_for(2));  // down, b->a
  pair.send_at(30 * kMicrosecond, *pair.a, payload_for(3));  // up again
  pair.net.run();

  ASSERT_EQ(pair.b->arrivals.size(), 2u);
  EXPECT_TRUE(pair.a->arrivals.empty());
  EXPECT_EQ(injector.injected(FaultKind::kLinkCut), 2u);
  const auto by_link = injector.injected_by_link();
  ASSERT_TRUE(by_link.contains("a->b"));
  ASSERT_TRUE(by_link.contains("b->a"));
  EXPECT_EQ(by_link.at("a->b")[static_cast<u32>(FaultKind::kLinkCut)], 1u);
  EXPECT_EQ(by_link.at("b->a")[static_cast<u32>(FaultKind::kLinkCut)], 1u);
}

TEST(Injector, FlapMatchesNamedLinkOnly) {
  Network net(0);
  auto a = std::make_shared<SinkNode>("a");
  auto b = std::make_shared<SinkNode>("b");
  auto c = std::make_shared<SinkNode>("c");
  net.attach(a);
  net.attach(b);
  net.attach(c);
  net.connect(*a, 0, *b, 0);
  net.connect(*a, 1, *c, 0);

  FaultPlan plan;
  plan.flaps.push_back(
      LinkFlap{.node_a = "a", .node_b = "b", .down_at = 0, .up_at = kSecond});
  FaultInjector injector(plan);
  net.set_transmit_hook(&injector);

  net.schedule_on(*a, 0, [&] {
    netsim::Frame f = net.pool().acquire(32);
    std::fill(f.data(), f.data() + 32, u8{1});
    net.transmit(*a, 0, std::move(f));  // a->b: cut
    netsim::Frame g = net.pool().acquire(32);
    std::fill(g.data(), g.data() + 32, u8{2});
    net.transmit(*a, 1, std::move(g));  // a->c: unaffected
  });
  net.run();

  EXPECT_TRUE(b->arrivals.empty());
  ASSERT_EQ(c->arrivals.size(), 1u);
  EXPECT_EQ(injector.injected(FaultKind::kLinkCut), 1u);
}

TEST(Injector, BrownoutCutsAllTrafficOfTheNode) {
  PairNet pair;
  FaultPlan plan;
  plan.brownouts.push_back(
      Brownout{.node = "b", .at = 5 * kMicrosecond,
               .duration = 10 * kMicrosecond});
  FaultInjector injector(plan);
  pair.net.set_transmit_hook(&injector);

  pair.send_at(0, *pair.a, payload_for(0));                  // before
  pair.send_at(8 * kMicrosecond, *pair.a, payload_for(1));   // to browned-out
  pair.send_at(10 * kMicrosecond, *pair.b, payload_for(2));  // from it
  pair.send_at(15 * kMicrosecond, *pair.a, payload_for(3));  // up-edge: alive
  pair.net.run();

  ASSERT_EQ(pair.b->arrivals.size(), 2u);
  EXPECT_TRUE(pair.a->arrivals.empty());
  EXPECT_EQ(injector.injected(FaultKind::kOutage), 2u);
  EXPECT_EQ(plan.brownouts[0].up_at(), 15 * kMicrosecond);
}

TEST(Injector, ExportMetricsPublishesPerKindAndPerLinkCounters) {
  PairNet pair;
  FaultPlan plan = FaultPlan::uniform_loss(29, 1.0);
  FaultInjector injector(plan);
  pair.net.set_transmit_hook(&injector);
  for (u32 i = 0; i < 5; ++i) {
    pair.send_at(i * kMicrosecond, *pair.a, payload_for(i));
  }
  pair.net.run();

  telemetry::MetricsRegistry metrics;
  injector.export_metrics(metrics);
  EXPECT_EQ(metrics.counter_value("faults", "injected_drop"), 5u);
  EXPECT_EQ(metrics.counter_value("faults", "injected_drop:a->b"), 5u);
}

// --- determinism: byte identity and shard invariance ----------------------

// Relay ring reused from the sharded-engine tests: forwards while byte 0
// (a hop countdown) is positive, so one injection fans into a long
// deterministic frame cascade.
class RelayNode : public netsim::Node {
 public:
  using Node::Node;

  void on_frame(netsim::Frame frame, u32 port) override {
    log.emplace_back(network().simulator().now(), port,
                     frame.empty() ? 0 : frame[0]);
    if (!frame.empty() && frame[0] > 0) {
      frame[0] -= 1;
      network().transmit(*this, 0, std::move(frame));
    }
  }

  std::vector<std::tuple<SimTime, u32, u8>> log;
};

struct RingRun {
  u64 digest = 0;
  SimTime completed_at = 0;
  u64 delivered = 0;
  std::string snapshot;  // merged telemetry (sharded runs only)
  u64 injected_total = 0;
  std::array<u64, faults::kFaultKindCount> injected{};
};

RingRun run_ring(Network& net, FaultInjector* injector) {
  std::vector<std::shared_ptr<RelayNode>> nodes;
  for (u32 i = 0; i < 6; ++i) {
    nodes.push_back(std::make_shared<RelayNode>("n" + std::to_string(i)));
    net.attach(nodes.back());
  }
  for (u32 i = 0; i < 6; ++i) {
    net.connect(*nodes[i], 0, *nodes[(i + 1) % 6], 1);
  }
  if (injector != nullptr) net.set_transmit_hook(injector);

  auto inject = [&](u32 from, u8 hops, std::size_t size) {
    netsim::Frame f = net.pool().acquire(size);
    for (std::size_t i = 0; i < size; ++i) f[i] = 0;
    f[0] = hops;
    net.transmit(*nodes[from], 0, std::move(f));
  };
  inject(0, 40, 256);
  inject(2, 35, 512);
  inject(4, 30, 128);
  net.run();

  RingRun out;
  Digest d;
  for (const auto& node : nodes) {
    d.mix(node->log.size());
    for (const auto& [at, port, hops] : node->log) {
      d.mix(static_cast<u64>(at));
      d.mix(port);
      d.mix(hops);
    }
  }
  out.digest = d.h;
  out.completed_at = net.now();
  out.delivered = net.frames_delivered();
  if (injector != nullptr) {
    out.injected_total = injector->injected_total();
    for (u32 k = 0; k < faults::kFaultKindCount; ++k) {
      out.injected[k] = injector->injected(static_cast<FaultKind>(k));
    }
  }
  return out;
}

// Satellite regression: attaching an injector whose plan injects nothing
// leaves the run byte-identical -- same event times, same delivery
// counts, same merged telemetry snapshot.
TEST(FaultDeterminism, FaultFreeInjectorIsByteIdentical) {
  auto run = [](FaultInjector* injector) {
    Network net(2);
    RingRun out = run_ring(net, injector);
    telemetry::MetricsRegistry merged;
    net.merge_metrics_into(merged);
    std::ostringstream os;
    merged.snapshot_json(os);
    out.snapshot = os.str();
    return out;
  };

  const RingRun bare = run(nullptr);

  FaultInjector empty_plan{FaultPlan{}, 2};
  const RingRun with_hook = run(&empty_plan);

  // A rule that matches every frame but fires nothing must also be inert.
  FaultPlan zero_prob;
  zero_prob.link_faults.push_back(LinkFaults{});
  FaultInjector zero_rule(zero_prob, 2);
  const RingRun with_rule = run(&zero_rule);

  for (const RingRun* run_result : {&with_hook, &with_rule}) {
    EXPECT_EQ(run_result->digest, bare.digest);
    EXPECT_EQ(run_result->completed_at, bare.completed_at);
    EXPECT_EQ(run_result->delivered, bare.delivered);
    EXPECT_EQ(run_result->snapshot, bare.snapshot);
    EXPECT_EQ(run_result->injected_total, 0u);
  }
}

// The tentpole invariant: identical seeds produce identical fault
// sequences under the serial engine and at shard counts 1, 2, 4.
TEST(FaultDeterminism, InjectionIdenticalAcrossEnginesAndShardCounts) {
  const FaultPlan plan = FaultPlan::uniform_loss(9, 0.2);

  Network serial_net(0);
  FaultInjector serial_injector(plan);
  const RingRun reference = run_ring(serial_net, &serial_injector);
  ASSERT_GT(reference.injected_total, 0u);
  ASSERT_GT(reference.delivered, 0u);

  for (u32 shards : {1u, 2u, 4u, 4u}) {  // 4 twice: repeated-run check
    Network net(shards);
    FaultInjector injector(plan, shards);
    const RingRun run = run_ring(net, &injector);
    EXPECT_EQ(run.digest, reference.digest) << shards << " shards";
    EXPECT_EQ(run.completed_at, reference.completed_at) << shards << " shards";
    EXPECT_EQ(run.delivered, reference.delivered) << shards << " shards";
    EXPECT_EQ(run.injected, reference.injected) << shards << " shards";
  }
}

// --- ReliabilityTracker ---------------------------------------------------

ReliabilityTracker::Options tight_schedule() {
  ReliabilityTracker::Options opts;
  opts.rto = 1 * kMillisecond;
  opts.backoff = 2.0;
  opts.max_rto = 8 * kMillisecond;
  opts.retry_budget = 4;
  opts.jitter = 0.0;
  return opts;
}

TEST(Reliability, ResendsThenGivesUp) {
  Simulator sim;
  ReliabilityTracker tracker(
      "t", [&sim]() -> Simulator& { return sim; }, tight_schedule());
  std::vector<u32> attempts;
  std::vector<u32> gave_up;
  tracker.on_give_up = [&](u32 id) { gave_up.push_back(id); };
  tracker.track(7, [&](u32 id, u32 attempt) {
    EXPECT_EQ(id, 7u);
    attempts.push_back(attempt);
  });
  sim.run();

  EXPECT_EQ(attempts, (std::vector<u32>{1, 2, 3, 4}));
  EXPECT_EQ(gave_up, (std::vector<u32>{7}));
  EXPECT_FALSE(tracker.tracking(7));
  EXPECT_EQ(tracker.stats().tracked, 1u);
  EXPECT_EQ(tracker.stats().retransmits, 4u);
  EXPECT_EQ(tracker.stats().give_ups, 1u);
  EXPECT_EQ(tracker.stats().acked, 0u);
}

TEST(Reliability, BackoffScheduleIsExponentialAndCapped) {
  Simulator sim;
  ReliabilityTracker tracker(
      "t", [&sim]() -> Simulator& { return sim; }, tight_schedule());
  std::vector<SimTime> at;
  tracker.track(1, [&](u32, u32) { at.push_back(sim.now()); });
  sim.run();

  // rto=1ms doubling toward max_rto=8ms: resends at 1, 3, 7, 15 ms.
  ASSERT_EQ(at.size(), 4u);
  EXPECT_EQ(at[0], 1 * kMillisecond);
  EXPECT_EQ(at[1], 3 * kMillisecond);
  EXPECT_EQ(at[2], 7 * kMillisecond);
  EXPECT_EQ(at[3], 15 * kMillisecond);
  // Budget exhausted after one more capped wait: give-up at 23 ms.
  EXPECT_EQ(sim.now(), 23 * kMillisecond);
}

TEST(Reliability, AckStopsResendAndCountsRecovery) {
  Simulator sim;
  ReliabilityTracker tracker(
      "t", [&sim]() -> Simulator& { return sim; }, tight_schedule());
  u32 resends = 0;
  tracker.track(1, [&](u32, u32) { ++resends; });
  tracker.track(2, [&](u32, u32) { ADD_FAILURE() << "2 acked immediately"; });
  EXPECT_EQ(tracker.outstanding(), 2u);

  EXPECT_TRUE(tracker.ack(2));             // before any timeout: not recovered
  EXPECT_FALSE(tracker.ack(2));            // double-ack is a no-op
  sim.schedule_at(1500 * kMicrosecond, [&] {
    EXPECT_EQ(resends, 1u);
    EXPECT_TRUE(tracker.ack(1));           // after one resend: recovered
  });
  sim.run();

  EXPECT_EQ(resends, 1u);
  EXPECT_EQ(tracker.stats().acked, 2u);
  EXPECT_EQ(tracker.stats().recovered, 1u);
  EXPECT_EQ(tracker.stats().give_ups, 0u);
  EXPECT_EQ(tracker.outstanding(), 0u);
}

TEST(Reliability, CancelAllStopsEverything) {
  Simulator sim;
  ReliabilityTracker tracker(
      "t", [&sim]() -> Simulator& { return sim; }, tight_schedule());
  tracker.track(1, [&](u32, u32) { ADD_FAILURE() << "cancelled"; });
  tracker.track(2, [&](u32, u32) { ADD_FAILURE() << "cancelled"; });
  tracker.cancel(1);
  tracker.cancel_all();
  sim.run();
  EXPECT_EQ(tracker.outstanding(), 0u);
  EXPECT_EQ(tracker.stats().retransmits, 0u);
  EXPECT_EQ(tracker.stats().acked, 0u);
}

TEST(Reliability, PausedGateHoldsWithoutChargingBudget) {
  Simulator sim;
  auto opts = tight_schedule();
  opts.retry_budget = 2;
  ReliabilityTracker tracker(
      "t", [&sim]() -> Simulator& { return sim; }, opts);
  bool paused = true;
  tracker.paused = [&paused] { return paused; };
  std::vector<SimTime> at;
  tracker.track(1, [&](u32, u32) { at.push_back(sim.now()); });
  // Many rto periods elapse paused; no retransmit, no budget charge.
  sim.schedule_at(10 * kMillisecond, [&] {
    EXPECT_TRUE(at.empty());
    EXPECT_TRUE(tracker.tracking(1));
    EXPECT_EQ(tracker.stats().retransmits, 0u);
    paused = false;
  });
  sim.run();

  // Once released the full budget is still available: 2 resends + give-up.
  EXPECT_EQ(at.size(), 2u);
  EXPECT_GE(at[0], 10 * kMillisecond);
  EXPECT_EQ(tracker.stats().retransmits, 2u);
  EXPECT_EQ(tracker.stats().give_ups, 1u);
}

TEST(Reliability, JitteredSchedulesAreSeedDeterministic) {
  auto resend_times = [](const std::string& name, u64 seed) {
    Simulator sim;
    ReliabilityTracker::Options opts;
    opts.rto = 1 * kMillisecond;
    opts.retry_budget = 6;
    opts.jitter = 0.3;
    opts.seed = seed;
    ReliabilityTracker tracker(
        name, [&sim]() -> Simulator& { return sim; }, opts);
    std::vector<SimTime> at;
    tracker.track(1, [&](u32, u32) { at.push_back(sim.now()); });
    sim.run();
    return at;
  };

  const auto a = resend_times("x", 1);
  EXPECT_EQ(a, resend_times("x", 1));          // reproducible
  EXPECT_NE(a, resend_times("x", 2));          // seed moves the schedule
  EXPECT_NE(a, resend_times("y", 1));          // name isolates the stream
}

TEST(Reliability, BadBackoffThrows) {
  Simulator sim;
  auto opts = tight_schedule();
  opts.backoff = 0.5;
  EXPECT_THROW(ReliabilityTracker(
                   "t", [&sim]() -> Simulator& { return sim; }, opts),
               UsageError);
  ReliabilityTracker tracker("t", [&sim]() -> Simulator& { return sim; });
  EXPECT_THROW(tracker.set_options(opts), UsageError);
}

TEST(Reliability, ExportMetricsPublishesStatsAndBackoffHistogram) {
  Simulator sim;
  ReliabilityTracker tracker(
      "writes", [&sim]() -> Simulator& { return sim; }, tight_schedule());
  tracker.track(1, [](u32, u32) {});
  sim.run_until(1500 * kMicrosecond);  // one retransmit
  tracker.ack(1);

  telemetry::MetricsRegistry metrics;
  tracker.export_metrics(metrics, 3);
  EXPECT_EQ(metrics.counter_value("reliability", "writes_tracked", 3), 1u);
  EXPECT_EQ(metrics.counter_value("reliability", "writes_acked", 3), 1u);
  EXPECT_EQ(metrics.counter_value("reliability", "writes_retransmits", 3), 1u);
  EXPECT_EQ(metrics.counter_value("reliability", "writes_recovered", 3), 1u);
  sim.run();
}

// --- switch brownout state loss -------------------------------------------

TEST(SwitchWipe, WipeRegistersZeroesEveryStage) {
  controller::SwitchNode::Config cfg;
  controller::SwitchNode sw("switch", cfg);
  auto& pipeline = sw.pipeline();
  u64 total_words = 0;
  for (u32 s = 0; s < pipeline.stage_count(); ++s) {
    pipeline.stage(s).memory().write(3, 0xfeedface);
    total_words += pipeline.stage(s).memory().size();
  }
  EXPECT_EQ(sw.wipe_registers(), total_words);
  for (u32 s = 0; s < pipeline.stage_count(); ++s) {
    EXPECT_EQ(pipeline.stage(s).memory().read(3), 0u);
  }
}

// --- end-to-end recovery (apps + reliability + faults) --------------------

constexpr packet::MacAddr kSwitchMac = 0x0000aa;
constexpr packet::MacAddr kServerMac = 0x0000bb;
constexpr packet::MacAddr kClientMacBase = 0x000100;

// The test_e2e Testbed plus a pluggable fault plan.
class ChaosBed {
 public:
  explicit ChaosBed(u32 clients = 1,
                    alloc::Scheme scheme = alloc::Scheme::kWorstFit)
      : net_(0) {
    controller::SwitchNode::Config cfg;
    cfg.scheme = scheme;
    cfg.costs.table_entry_update = 100 * kMicrosecond;
    cfg.costs.snapshot_per_block = 1 * kMicrosecond;
    cfg.costs.clear_per_block = 1 * kMicrosecond;
    cfg.costs.extraction_timeout = 200 * kMillisecond;
    switch_ = std::make_shared<controller::SwitchNode>("switch", cfg);
    net_.attach(switch_);

    server_ = std::make_shared<apps::ServerNode>("server", kServerMac);
    net_.attach(server_);
    net_.connect(*switch_, 0, *server_, 0);
    switch_->bind(kServerMac, 0);

    for (u32 i = 0; i < clients; ++i) {
      auto client = std::make_shared<client::ClientNode>(
          "client" + std::to_string(i), kClientMacBase + i, kSwitchMac);
      net_.attach(client);
      net_.connect(*switch_, i + 1, *client, 0);
      switch_->bind(kClientMacBase + i, i + 1);
      clients_.push_back(std::move(client));
    }
  }

  // Quiescent-only (between run_for calls).
  void inject(FaultPlan plan) {
    injector_ = std::make_unique<FaultInjector>(std::move(plan));
    net_.set_transmit_hook(injector_.get());
  }

  void run_for(SimTime duration) { net_.run_until(net_.now() + duration); }

  Network net_;
  std::unique_ptr<FaultInjector> injector_;
  std::shared_ptr<controller::SwitchNode> switch_;
  std::shared_ptr<apps::ServerNode> server_;
  std::vector<std::shared_ptr<client::ClientNode>> clients_;
};

void wire_cache_replies(client::ClientNode& client, apps::CacheService& cache) {
  client.on_passive = [&cache](netsim::Frame& frame) {
    const auto msg = apps::KvMessage::parse(
        std::span<const u8>(frame).subspan(packet::EthernetHeader::kWireSize));
    if (msg) cache.handle_server_reply(*msg);
  };
}

TEST(Recovery, CachePopulateRetransmitsThroughLoss) {
  ChaosBed bed;
  auto cache = std::make_shared<apps::CacheService>("cache", kServerMac);
  bed.clients_[0]->register_service(cache);
  cache->request_allocation();
  bed.run_for(2 * kSecond);
  ASSERT_TRUE(cache->operational());

  // 25% loss on the client<->switch link: write capsules and their acks
  // both take hits; every populate must still resolve.
  FaultPlan plan;
  plan.seed = 41;
  LinkFaults rule;
  rule.node_a = "client0";
  rule.node_b = "switch";
  rule.drop = 0.25;
  plan.link_faults.push_back(rule);
  bed.inject(plan);

  std::vector<std::pair<u64, u32>> items;
  for (u32 i = 0; i < 32; ++i) items.emplace_back(0x9000 + i, i + 1);
  bool done = false;
  cache->populate(items, [&] { done = true; });
  bed.run_for(10 * kSecond);

  EXPECT_TRUE(done);
  const auto& stats = cache->populate_reliability().stats();
  EXPECT_EQ(stats.tracked, 32u);
  EXPECT_GT(stats.retransmits, 0u);
  EXPECT_GT(stats.recovered, 0u);
  EXPECT_GT(bed.injector_->injected(FaultKind::kDrop), 0u);
  // Every item either acked or (rarely, under the retry budget) gave up.
  EXPECT_EQ(stats.acked + stats.give_ups, 32u);
  EXPECT_EQ(cache->populate_reliability().outstanding(), 0u);
}

TEST(Recovery, HeavyHitterExtractionRetransmitsThroughLoss) {
  ChaosBed bed;
  auto monitor =
      std::make_shared<apps::FrequentItemService>("monitor", kServerMac);
  bed.clients_[0]->register_service(monitor);
  monitor->request_allocation();
  bed.run_for(2 * kSecond);
  ASSERT_TRUE(monitor->operational());

  for (u32 i = 0; i < 40; ++i) monitor->observe(0xbeef);
  bed.run_for(kSecond);

  FaultPlan plan;
  plan.seed = 43;
  LinkFaults rule;
  rule.node_a = "client0";
  rule.node_b = "switch";
  rule.drop = 0.3;
  plan.link_faults.push_back(rule);
  bed.inject(plan);

  bool done = false;
  std::vector<std::pair<u64, u32>> items;
  monitor->extract(
      [&](std::vector<std::pair<u64, u32>> got) {
        done = true;
        items = std::move(got);
      },
      /*min_count=*/10);
  bed.run_for(20 * kSecond);

  EXPECT_TRUE(done);
  const auto& stats = monitor->extract_reliability().stats();
  EXPECT_GT(stats.retransmits, 0u);
  EXPECT_GT(stats.recovered, 0u);
  EXPECT_GT(bed.injector_->injected(FaultKind::kDrop), 0u);
  ASSERT_FALSE(items.empty());
  EXPECT_EQ(items[0].first, 0xbeefu);
}

// Satellite: the disturbed client is cut off entirely; the switch's
// extraction deadline force-finalizes the admission so the new tenant
// still comes up.
TEST(Recovery, DisturbedClientTotalLossForcesFinalize) {
  ChaosBed bed(2, alloc::Scheme::kFirstFit);  // first-fit forces sharing
  auto first = std::make_shared<apps::CacheService>("first", kServerMac);
  bed.clients_[0]->register_service(first);
  first->request_allocation();
  bed.run_for(2 * kSecond);
  ASSERT_TRUE(first->operational());

  // From now on client0 is unreachable in both directions.
  FaultPlan plan;
  LinkFaults cut;
  cut.node_a = "client0";
  cut.node_b = "switch";
  cut.from = bed.net_.now();
  cut.drop = 1.0;
  plan.link_faults.push_back(cut);
  bed.inject(plan);

  auto second = std::make_shared<apps::CacheService>("second", kServerMac);
  bed.clients_[1]->register_service(second);
  second->request_allocation();
  bed.run_for(2 * kSecond);

  EXPECT_TRUE(second->operational());
  EXPECT_GE(bed.switch_->controller().stats().extraction_timeouts, 1u);
  EXPECT_FALSE(bed.switch_->controller().has_pending());
  EXPECT_GT(bed.injector_->injected(FaultKind::kDrop), 0u);
}

// Drops only client0 -> switch: the ReallocNotice arrives, the client's
// kExtractComplete never does. The handshake tracker must keep
// retransmitting until the deadline force-finalizes, after which the
// switch's fresh AllocResponse (the reverse direction is clean) lands
// and recovers the disturbed service.
class OneWayDrop final : public netsim::TransmitHook {
 public:
  OneWayDrop(std::string from, std::string to, SimTime start)
      : from_(std::move(from)), to_(std::move(to)), start_(start) {}

  Verdict on_transmit(const netsim::Node& from, const netsim::Node& to,
                      SimTime now, u64, netsim::Frame&, FramePool&) override {
    Verdict verdict;
    if (now >= start_ && from.name() == from_ && to.name() == to_) {
      verdict.drop = true;
      ++dropped;
    }
    return verdict;
  }

  u64 dropped = 0;

 private:
  std::string from_, to_;
  SimTime start_;
};

TEST(Recovery, ExtractCompleteRetransmitsUntilDeadlineThenRecovers) {
  ChaosBed bed(2, alloc::Scheme::kFirstFit);
  auto first = std::make_shared<apps::CacheService>("first", kServerMac);
  bed.clients_[0]->register_service(first);
  first->request_allocation();
  bed.run_for(2 * kSecond);
  ASSERT_TRUE(first->operational());

  OneWayDrop cut("client0", "switch", bed.net_.now());
  bed.net_.set_transmit_hook(&cut);

  auto second = std::make_shared<apps::CacheService>("second", kServerMac);
  bed.clients_[1]->register_service(second);
  second->request_allocation();
  bed.run_for(2 * kSecond);

  EXPECT_TRUE(second->operational());
  EXPECT_GE(bed.switch_->controller().stats().extraction_timeouts, 1u);
  // The disturbed client heard the notice and kept resending its
  // ExtractComplete into the void.
  EXPECT_GT(first->handshake_reliability().stats().retransmits, 0u);
  EXPECT_GT(cut.dropped, 0u);
  // The switch's post-timeout AllocResponse recovered it.
  EXPECT_TRUE(first->operational());
}

// Brownout end-to-end: the switch loses power (frames lost, registers
// wiped at the up-edge), and the client re-populates through the normal
// data plane -- the paper's client-driven content migration.
TEST(Recovery, BrownoutWipesRegistersAndClientRepopulates) {
  ChaosBed bed;
  auto cache = std::make_shared<apps::CacheService>("cache", kServerMac);
  bed.clients_[0]->register_service(cache);
  wire_cache_replies(*bed.clients_[0], *cache);
  bed.server_->put(0x77, 1234);
  cache->request_allocation();
  bed.run_for(2 * kSecond);
  ASSERT_TRUE(cache->operational());

  bool populated = false;
  cache->populate({{0x77, 1234}}, [&] { populated = true; });
  bed.run_for(kSecond);
  ASSERT_TRUE(populated);

  std::vector<bool> hits;
  cache->on_result = [&](u32, u64, u32, bool hit) { hits.push_back(hit); };
  cache->get(0x77);
  bed.run_for(kSecond);
  ASSERT_EQ(hits, std::vector<bool>{true});
  hits.clear();

  // Power-cycle the switch for 50 ms; SRAM does not survive.
  const SimTime down = bed.net_.now() + kMillisecond;
  FaultPlan plan;
  plan.brownouts.push_back(
      Brownout{.node = "switch", .at = down, .duration = 50 * kMillisecond});
  bed.inject(plan);
  bed.net_.schedule_on(*bed.switch_, plan.brownouts[0].up_at(),
                       [&] { bed.switch_->wipe_registers(); });
  // A request issued mid-outage is simply lost (no cache-level retry for
  // reads): it must neither hit nor miss.
  bed.net_.schedule_on(*bed.clients_[0], down + 10 * kMillisecond,
                       [&] { cache->get(0x77); });
  bed.run_for(kSecond);
  EXPECT_GT(bed.injector_->injected(FaultKind::kOutage), 0u);
  EXPECT_TRUE(hits.empty());

  // The cached entry is gone: same key now misses (served by the server).
  hits.clear();
  cache->get(0x77);
  bed.run_for(kSecond);
  ASSERT_EQ(hits, std::vector<bool>{false});

  // Client-driven re-population restores the hit path.
  populated = false;
  cache->populate({{0x77, 1234}}, [&] { populated = true; });
  bed.run_for(kSecond);
  ASSERT_TRUE(populated);
  hits.clear();
  cache->get(0x77);
  bed.run_for(kSecond);
  EXPECT_EQ(hits, std::vector<bool>{true});
}

// --- controller force-finalize (satellite API) ----------------------------

TEST(ForceFinalize, FinalizesPendingAdmissionAndCountsTimeout) {
  rmt::PipelineConfig config;
  rmt::Pipeline pipeline(config);
  runtime::ActiveRuntime runtime(pipeline);
  controller::Controller ctrl(pipeline, runtime, alloc::Scheme::kFirstFit);
  const auto first = ctrl.admit(apps::cache_request());
  ASSERT_TRUE(first.admitted);
  const auto second = ctrl.admit(apps::cache_request());
  ASSERT_TRUE(second.pending);

  ctrl.force_finalize();
  EXPECT_FALSE(ctrl.has_pending());
  EXPECT_EQ(ctrl.stats().extraction_timeouts, 1u);
  EXPECT_FALSE(runtime.is_deactivated(first.fid));
  bool installed = false;
  for (u32 s = 0; s < pipeline.stage_count(); ++s) {
    installed |= pipeline.stage(s).lookup(second.fid) != nullptr;
  }
  EXPECT_TRUE(installed);
}

TEST(ForceFinalize, ThrowsWithoutPendingAdmission) {
  rmt::PipelineConfig config;
  rmt::Pipeline pipeline(config);
  runtime::ActiveRuntime runtime(pipeline);
  controller::Controller ctrl(pipeline, runtime);
  EXPECT_THROW(ctrl.force_finalize(), UsageError);
}

}  // namespace
}  // namespace artmt
