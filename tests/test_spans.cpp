// Causal span tracing, heatmaps and the flight recorder.
//
// The determinism contract under test: a span dump's bytes are a pure
// function of the simulated scenario -- identical across the serial and
// sharded engines and across shard counts 1/2/4, fault-free AND under an
// active FaultPlan -- because span ids derive from (attach_index, tx_seq)
// and the canonical dump sorts the merged lane buffers totally. The same
// holds for the per-switch heatmap snapshot. The flight recorder must
// wrap without allocating and dump the switch's final events on a
// brownout up-edge.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "active/assembler.hpp"
#include "apps/programs.hpp"
#include "controller/switch_node.hpp"
#include "faults/injector.hpp"
#include "netsim/network.hpp"
#include "packet/active_packet.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/heatmap.hpp"
#include "telemetry/span.hpp"
#include "telemetry/span_analysis.hpp"

namespace artmt {
namespace {

using netsim::LinkSpec;
using netsim::Network;

constexpr packet::MacAddr kClientMac = 0x0c;
constexpr packet::MacAddr kServerMac = 0x0b;
constexpr u32 kWaves = 20;
constexpr SimTime kWavePeriod = 10 * kMicrosecond;

class CountSink : public netsim::Node {
 public:
  explicit CountSink(std::string name) : netsim::Node(std::move(name)) {}
  void on_frame(netsim::Frame /*frame*/, u32 /*port*/) override {
    ++received;
  }
  u64 received = 0;
};

// 25 instructions against a 20-stage pipeline: wraps into a second pass,
// so the scenario exercises kRecirc child spans.
active::Program long_walk_program() {
  std::string text = "MAR_LOAD $0\n";
  for (int i = 0; i < 23; ++i) text += "MEM_INCREMENT\n";
  text += "RETURN\n";
  return active::assemble(text);
}

std::vector<u8> make_wire(Fid fid, const packet::ArgumentHeader& args,
                          const active::Program& program) {
  auto pkt = packet::ActivePacket::make_program(fid, args, program);
  pkt.ethernet.src = kClientMac;
  pkt.ethernet.dst = kServerMac;
  pkt.payload.assign(64, 0x5a);
  return pkt.serialize();
}

std::vector<std::vector<u8>> make_wires() {
  std::vector<std::vector<u8>> wires;
  wires.push_back(make_wire(1, packet::ArgumentHeader{{10, 2, 3, 7}},
                            apps::cache_populate_program()));
  wires.push_back(make_wire(1, packet::ArgumentHeader{{12, 4, 5, 9}},
                            apps::cache_populate_program()));
  wires.push_back(make_wire(1, packet::ArgumentHeader{{10, 2, 3, 0}},
                            apps::cache_query_program()));
  // FID 2 is never installed: a no-allocation collision and a drop.
  wires.push_back(make_wire(2, packet::ArgumentHeader{{10, 2, 3, 0}},
                            apps::cache_query_program()));
  wires.push_back(
      make_wire(1, packet::ArgumentHeader{{20, 0, 0, 0}}, long_walk_program()));
  return wires;
}

struct WaveInjector {
  Network* net;
  netsim::Node* client;
  const std::vector<std::vector<u8>>* wires;
  u32 remaining;
  void operator()() {
    for (const auto& w : *wires) {
      net->transmit(*client, 0, net->pool().copy(w));
    }
    if (--remaining > 0) {
      net->simulator().schedule_after(kWavePeriod, *this);
    }
  }
};

struct SpanRun {
  std::string span_dump;    // canonical sorted JSON-lines dump
  std::string heatmap;      // the switch's heatmap snapshot
  u64 span_events = 0;
  u64 replies = 0;
};

// `shards` == 0 selects the serial engine; otherwise the sharded engine.
// `wipe_after` models a brownout up-edge once the run is quiescent.
SpanRun run_scenario(u32 shards, const faults::FaultPlan* plan,
                     bool wipe_after = false) {
  Network net(shards);
  telemetry::SpanSink sink(net.shards());
  telemetry::set_span_sink(&sink);

  std::unique_ptr<faults::FaultInjector> injector;
  if (plan != nullptr) {
    injector = std::make_unique<faults::FaultInjector>(*plan, net.shards());
    net.set_transmit_hook(injector.get());
  }

  controller::SwitchNode::Config cfg;
  cfg.compute_model = alloc::ComputeModel::deterministic();
  auto sw = std::make_shared<controller::SwitchNode>("sw", cfg);
  auto client = std::make_shared<CountSink>("client");
  auto server = std::make_shared<CountSink>("server");
  LinkSpec link;
  link.latency = kMicrosecond;
  net.attach(sw);
  net.attach(client);
  net.attach(server);
  net.connect(*sw, 0, *client, 0, link);
  net.connect(*sw, 1, *server, 0, link);
  sw->bind(kClientMac, 0);
  sw->bind(kServerMac, 1);
  for (u32 s = 0; s < sw->pipeline().stage_count(); ++s) {
    sw->pipeline().stage(s).install(1, 0, 4096, 0);
  }

  const std::vector<std::vector<u8>> wires = make_wires();
  WaveInjector inj{&net, client.get(), &wires, kWaves};
  net.pin(*sw, 0);
  net.schedule_on(*client, net.now(), inj);
  net.run();

  if (wipe_after) sw->wipe_registers();
  telemetry::set_span_sink(nullptr);
  SpanRun out;
  std::ostringstream dump;
  sink.dump(dump);
  out.span_dump = dump.str();
  out.span_events = sink.recorded();
  std::ostringstream heat;
  sw->heatmap().snapshot_json(heat);
  out.heatmap = heat.str();
  out.replies = client->received + server->received;
  return out;
}

TEST(SpanTrace, DumpBytesInvariantAcrossEnginesAndShards) {
  const SpanRun serial = run_scenario(0, nullptr);
  EXPECT_GT(serial.span_events, 0u);
  EXPECT_GT(serial.replies, 0u);
  // The scenario exercised execution, recirculation and collisions.
  EXPECT_NE(serial.span_dump.find("\"exec\""), std::string::npos);
  EXPECT_NE(serial.span_dump.find("\"recirc\""), std::string::npos);
  EXPECT_NE(serial.heatmap.find("\"c\""), std::string::npos);
  for (const u32 shards : {1u, 2u, 4u}) {
    const SpanRun sharded = run_scenario(shards, nullptr);
    EXPECT_EQ(serial.span_dump, sharded.span_dump) << "shards=" << shards;
    EXPECT_EQ(serial.heatmap, sharded.heatmap) << "shards=" << shards;
    EXPECT_EQ(serial.replies, sharded.replies) << "shards=" << shards;
  }
}

TEST(SpanTrace, DumpBytesInvariantUnderFaultPlan) {
  const faults::FaultPlan plan = faults::FaultPlan::uniform_loss(7, 0.05);
  const SpanRun serial = run_scenario(0, &plan);
  EXPECT_GT(serial.span_events, 0u);
  // The plan actually dropped sends, and drops carry their own phase.
  EXPECT_NE(serial.span_dump.find("\"drop\""), std::string::npos);
  for (const u32 shards : {1u, 2u, 4u}) {
    const SpanRun sharded = run_scenario(shards, &plan);
    EXPECT_EQ(serial.span_dump, sharded.span_dump) << "shards=" << shards;
    EXPECT_EQ(serial.heatmap, sharded.heatmap) << "shards=" << shards;
  }
}

TEST(SpanTrace, DumpRoundTripsThroughLoader) {
  const SpanRun run = run_scenario(1, nullptr);
  std::istringstream in(run.span_dump);
  std::vector<telemetry::SpanEvent> events;
  std::string error;
  ASSERT_TRUE(telemetry::load_span_events(in, &events, &error)) << error;
  EXPECT_EQ(events.size(), run.span_events);
  const std::vector<telemetry::SpanRequest> requests =
      telemetry::reconstruct_requests(events);
  EXPECT_GT(requests.size(), 0u);
}

TEST(Heatmap, MergeMatchesSerialRecording) {
  // Two "shards" record disjoint slices of one access stream; merging
  // them must equal recording the whole stream into one map.
  telemetry::StageHeatmap reference(4);
  telemetry::StageHeatmap a(4), b(4);
  for (u32 i = 0; i < 100; ++i) {
    const u32 stage = i % 4;
    const i32 fid = static_cast<i32>(1 + i % 3);
    telemetry::StageHeatmap& half = (i % 2 == 0) ? a : b;
    reference.record_read(stage, fid);
    half.record_read(stage, fid);
    if (i % 5 == 0) {
      reference.record_write(stage, fid);
      half.record_write(stage, fid);
    }
    if (i % 7 == 0) {
      reference.record_collision(stage, fid);
      half.record_collision(stage, fid);
    }
  }
  telemetry::StageHeatmap merged(4);
  merged.merge_from(a);
  merged.merge_from(b);
  std::ostringstream want, got;
  reference.snapshot_json(want);
  merged.snapshot_json(got);
  EXPECT_EQ(want.str(), got.str());
  EXPECT_EQ(merged.total_accesses(1), reference.total_accesses(1));
}

TEST(Heatmap, HotnessTableDecaysAndRanks) {
  telemetry::StageHeatmap heat(2);
  for (u32 i = 0; i < 10; ++i) heat.record_read(0, 1);
  for (u32 i = 0; i < 4; ++i) heat.record_read(1, 2);
  telemetry::HotnessTable hotness;
  hotness.observe(heat);
  EXPECT_EQ(hotness.score(1), 10u);
  EXPECT_EQ(hotness.score(2), 4u);
  auto ranked = hotness.ranked();
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].first, 1);
  hotness.decay();
  EXPECT_EQ(hotness.score(1), 5u);
  // A second observation absorbs only the delta since the first.
  for (u32 i = 0; i < 3; ++i) heat.record_write(1, 2);
  hotness.observe(heat);
  EXPECT_EQ(hotness.score(2), 2u + 3u);
}

TEST(FlightRecorder, WraparoundKeepsLastN) {
  telemetry::FlightRecorder recorder(4, 1);
  for (u64 i = 0; i < 10; ++i) {
    telemetry::SpanEvent event;
    event.ts = static_cast<SimTime>(i);
    event.span = i;
    recorder.record(0, event);
  }
  EXPECT_EQ(recorder.recorded(), 10u);
  const std::vector<telemetry::SpanEvent> kept = recorder.lane_events(0);
  ASSERT_EQ(kept.size(), 4u);
  for (u64 i = 0; i < 4; ++i) {
    EXPECT_EQ(kept[i].span, 6 + i);  // oldest surviving event first
  }
}

TEST(FlightRecorder, BrownoutUpEdgeDumpsFinalEvents) {
  const std::string dir = ::testing::TempDir();
  telemetry::FlightRecorder recorder(1024, 1);
  recorder.set_dump_dir(dir);
  telemetry::set_flight_recorder(&recorder);

  // Run the capsule scenario with the recorder armed: every span event
  // lands in the ring, then the brownout up-edge wipes the registers and
  // auto-dumps the buffered tail.
  run_scenario(0, nullptr, /*wipe_after=*/true);
  EXPECT_GT(recorder.recorded(), 0u);
  EXPECT_EQ(recorder.dumps_written(), 1u);  // wipe fired exactly once

  telemetry::set_flight_recorder(nullptr);

  std::ifstream dump_file(dir + "/flight_0_brownout.json");
  ASSERT_TRUE(dump_file.is_open());
  std::vector<telemetry::SpanEvent> events;
  std::string error;
  ASSERT_TRUE(telemetry::load_span_events(dump_file, &events, &error))
      << error;
  ASSERT_FALSE(events.empty());
  // The dump ends with the wipe marker and carries the switch's final
  // pre-wipe activity.
  EXPECT_EQ(events.back().phase, telemetry::SpanPhase::kWipe);
  EXPECT_GT(events.back().a, 0u);  // the populate writes were wiped
  bool saw_exec = false;
  for (const auto& event : events) {
    if (event.phase == telemetry::SpanPhase::kExec) saw_exec = true;
  }
  EXPECT_TRUE(saw_exec);
}

}  // namespace
}  // namespace artmt
