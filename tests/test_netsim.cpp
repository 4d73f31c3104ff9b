// Tests for the discrete-event engine and the frame-level network model.
#include <gtest/gtest.h>

#include "netsim/network.hpp"
#include "netsim/simulator.hpp"
#include "telemetry/metrics.hpp"

namespace artmt::netsim {
namespace {

TEST(Simulator, RunsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, FifoAtEqualTimes) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(10, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ScheduleAfterOffsetsFromNow) {
  Simulator sim;
  SimTime seen = -1;
  sim.schedule_at(100, [&] {
    sim.schedule_after(50, [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(seen, 150);
}

TEST(Simulator, PastSchedulingThrows) {
  Simulator sim;
  sim.schedule_at(10, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5, [] {}), UsageError);
  EXPECT_THROW(sim.schedule_after(-1, [] {}), UsageError);
}

TEST(Simulator, RunUntilStopsAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&] { ++fired; });
  sim.schedule_at(30, [&] { ++fired; });
  sim.run_until(20);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 20);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_until(30);  // events exactly at the boundary run
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilBoundaryIsInclusive) {
  // An event exactly at `until` runs; anything later stays queued and the
  // clock still lands exactly on the boundary.
  Simulator sim;
  std::vector<SimTime> fired;
  sim.schedule_at(100, [&] { fired.push_back(sim.now()); });
  sim.schedule_at(101, [&] { fired.push_back(sim.now()); });
  sim.run_until(100);
  EXPECT_EQ(fired, (std::vector<SimTime>{100}));
  EXPECT_EQ(sim.now(), 100);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(fired, (std::vector<SimTime>{100, 101}));
}

TEST(Simulator, SmallCapturesStayInline) {
  // The event loop's allocation-free claim rests on closures of the
  // delivery path fitting InlineAction's inline buffer.
  Simulator sim;
  int hits = 0;
  Frame frame(64, 0xaa);  // a FrameBuf capture: pointer-sized members only
  sim.schedule_at(1, [&hits, f = std::move(frame)] { hits += f[0] == 0xaa; });
  sim.schedule_at(2, [&hits] { ++hits; });
  sim.run();
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(sim.actions_spilled(), 0u);
}

TEST(Simulator, OversizedCapturesSpillToHeap) {
  Simulator sim;
  std::array<u64, 32> big{};  // 256 bytes: larger than the inline buffer
  big[0] = 7;
  u64 seen = 0;
  sim.schedule_at(1, [big, &seen] { seen = big[0]; });
  sim.run();
  EXPECT_EQ(seen, 7u);
  EXPECT_EQ(sim.actions_spilled(), 1u);
}

TEST(Simulator, NestedSchedulingWithinRun) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) sim.schedule_after(1, chain);
  };
  sim.schedule_at(0, chain);
  sim.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.now(), 4);
}

// Regression: step() used to leave the attached registry stale (dispatch
// count and queue depth were only flushed by the run loops), so
// single-stepping tools read counts from the previous drain.
TEST(Simulator, StepFlushesMetrics) {
  Simulator sim;
  telemetry::MetricsRegistry metrics;
  sim.set_metrics(&metrics);
  auto& dispatched = metrics.counter("netsim", "events_dispatched");
  auto& depth = metrics.gauge("netsim", "queue_depth");
  sim.schedule_at(10, [] {});
  sim.schedule_at(20, [] {});
  sim.schedule_at(30, [] {});

  ASSERT_TRUE(sim.step());
  EXPECT_EQ(dispatched.value(), 1u);
  EXPECT_EQ(depth.value(), 2);
  ASSERT_TRUE(sim.step());
  EXPECT_EQ(dispatched.value(), 2u);
  EXPECT_EQ(depth.value(), 1);
  sim.run();
  EXPECT_EQ(dispatched.value(), 3u);
  EXPECT_EQ(depth.value(), 0);
  EXPECT_FALSE(sim.step());  // empty queue: still flushes, returns false
  EXPECT_EQ(dispatched.value(), 3u);
}

// run_window() dispatches strictly-before-end events without dragging the
// clock to the window edge (the sharded engine's epoch phase).
TEST(Simulator, RunWindowDoesNotAdvanceClockPastLastEvent) {
  Simulator sim;
  std::vector<SimTime> seen;
  sim.schedule_at(10, [&] { seen.push_back(sim.now()); });
  sim.schedule_at(25, [&] { seen.push_back(sim.now()); });
  sim.schedule_at(40, [&] { seen.push_back(sim.now()); });

  sim.run_window(40);  // strictly before 40
  EXPECT_EQ(seen, (std::vector<SimTime>{10, 25}));
  EXPECT_EQ(sim.now(), 25);
  EXPECT_EQ(sim.next_event_time(), 40);

  sim.run_window(Simulator::kNoEvent);  // drains the rest
  EXPECT_EQ(seen, (std::vector<SimTime>{10, 25, 40}));
  EXPECT_EQ(sim.now(), 40);
  EXPECT_EQ(sim.next_event_time(), Simulator::kNoEvent);
}

// ---------- network ----------

class Recorder : public Node {
 public:
  explicit Recorder(std::string name) : Node(std::move(name)) {}
  void on_frame(Frame frame, u32 port) override {
    frames.push_back({std::move(frame), port, network().simulator().now()});
  }
  struct Rx {
    Frame frame;
    u32 port;
    SimTime at;
  };
  std::vector<Rx> frames;
};

TEST(Network, DeliversWithLatencyAndSerialization) {
  Network net(0);
  auto a = std::make_shared<Recorder>("a");
  auto b = std::make_shared<Recorder>("b");
  net.attach(a);
  net.attach(b);
  LinkSpec spec;
  spec.latency = 1000;  // 1 us
  spec.gbps = 8.0;      // 1 byte per ns
  net.connect(*a, 0, *b, 0, spec);

  net.transmit(*a, 0, Frame(100, 0x55));
  net.run();
  ASSERT_EQ(b->frames.size(), 1u);
  EXPECT_EQ(b->frames[0].at, 1000 + 100);  // latency + serialization
  EXPECT_EQ(b->frames[0].frame.size(), 100u);
}

TEST(Network, Bidirectional) {
  Network net(0);
  auto a = std::make_shared<Recorder>("a");
  auto b = std::make_shared<Recorder>("b");
  net.attach(a);
  net.attach(b);
  net.connect(*a, 0, *b, 3);
  net.transmit(*b, 3, Frame(10));
  net.run();
  ASSERT_EQ(a->frames.size(), 1u);
  EXPECT_EQ(a->frames[0].port, 0u);
}

TEST(Network, UnpluggedPortDropsSilently) {
  Network net(0);
  auto a = std::make_shared<Recorder>("a");
  net.attach(a);
  net.transmit(*a, 9, Frame(10));
  net.run();
  EXPECT_EQ(net.frames_delivered(), 0u);
  EXPECT_EQ(net.frames_dropped(), 1u);
}

TEST(Network, CountsDropsPerUnpluggedTransmit) {
  Network net(0);
  auto a = std::make_shared<Recorder>("a");
  auto b = std::make_shared<Recorder>("b");
  net.attach(a);
  net.attach(b);
  net.connect(*a, 0, *b, 0);
  net.transmit(*a, 0, Frame(10));  // delivered
  net.transmit(*a, 1, Frame(10));  // no link on port 1
  net.transmit(*b, 7, Frame(10));  // no link on port 7
  net.run();
  EXPECT_EQ(net.frames_delivered(), 1u);
  EXPECT_EQ(net.frames_dropped(), 2u);
}

TEST(Network, PooledFramesRoundTrip) {
  // A frame acquired from the network's pool survives transit and its
  // slab is recycled once the receiver lets go of it.
  Network net(0);
  auto a = std::make_shared<Recorder>("a");
  auto b = std::make_shared<Recorder>("b");
  net.attach(a);
  net.attach(b);
  net.connect(*a, 0, *b, 0);
  Frame frame = net.pool().copy(std::vector<u8>{1, 2, 3, 4});
  net.transmit(*a, 0, std::move(frame));
  net.run();
  ASSERT_EQ(b->frames.size(), 1u);
  EXPECT_EQ(b->frames[0].frame.to_vector(), (std::vector<u8>{1, 2, 3, 4}));
  EXPECT_TRUE(b->frames[0].frame.pooled());
  b->frames.clear();
  EXPECT_EQ(net.pool().free_slabs(), 1u);
}

TEST(Network, DoubleConnectThrows) {
  Network net(0);
  auto a = std::make_shared<Recorder>("a");
  auto b = std::make_shared<Recorder>("b");
  auto c = std::make_shared<Recorder>("c");
  net.attach(a);
  net.attach(b);
  net.attach(c);
  net.connect(*a, 0, *b, 0);
  EXPECT_THROW(net.connect(*a, 0, *c, 0), UsageError);
}

TEST(Network, DoubleAttachThrows) {
  Network net(0);
  auto a = std::make_shared<Recorder>("a");
  net.attach(a);
  EXPECT_THROW(net.attach(a), UsageError);
}

TEST(Network, CountsDeliveries) {
  Network net(0);
  auto a = std::make_shared<Recorder>("a");
  auto b = std::make_shared<Recorder>("b");
  net.attach(a);
  net.attach(b);
  net.connect(*a, 0, *b, 0);
  net.transmit(*a, 0, Frame(64));
  net.transmit(*a, 0, Frame(64));
  net.run();
  EXPECT_EQ(net.frames_delivered(), 2u);
  EXPECT_EQ(net.bytes_delivered(), 128u);
}

}  // namespace
}  // namespace artmt::netsim
