// Batched-vs-per-packet execution parity. The ExecBatch stage-sweep
// engine must be observationally identical to the per-packet reference
// interpreter (ActiveRuntime::execute):
//  - engine level: the same lanes through both engines on identically
//    installed pipelines give identical results, cursors, arguments,
//    registers and runtime counters;
//  - switch level: a SwitchNode (which runs every capsule as an ExecBatch
//    lane) reproduces digests captured when it could still be switched to
//    per-packet execution -- byte-identical reply streams (bytes AND
//    virtual timestamps), identical register contents, and identical
//    runtime/switch metric totals -- at shard counts 1, 2, and 4, with
//    and without an active FaultPlan.
// The switch workload mixes sweepable programs (query, populate), a
// protection-faulting capsule (unallocated FID), and a program longer
// than the pipeline (recirculates, so it must fall back to per-packet
// order inside the batch), all injected in bursts that arrive at the
// switch at the same virtual instant.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "active/assembler.hpp"
#include "apps/programs.hpp"
#include "common/digest.hpp"
#include "controller/switch_node.hpp"
#include "faults/injector.hpp"
#include "netsim/network.hpp"
#include "packet/active_packet.hpp"
#include "runtime/exec_batch.hpp"
#include "telemetry/metrics.hpp"

namespace artmt {
namespace {

using netsim::LinkSpec;
using netsim::Network;

// Records every arriving frame: timestamp, port, and every payload byte.
class DigestSink : public netsim::Node {
 public:
  explicit DigestSink(std::string name) : netsim::Node(std::move(name)) {}
  void on_frame(netsim::Frame frame, u32 port) override {
    digest.mix(static_cast<u64>(network().simulator().now()));
    digest.mix(port);
    digest.mix(frame.size());
    for (const u8 b : frame) digest.mix(b);
    ++received;
  }
  Digest digest;
  u64 received = 0;
};

// 25 instructions against a 20-stage pipeline: wraps into a second pass,
// so the batch engine must run it per-packet between sweep segments.
active::Program long_walk_program() {
  std::string text = "MAR_LOAD $0\n";
  for (int i = 0; i < 23; ++i) text += "MEM_INCREMENT\n";
  text += "RETURN\n";
  return active::assemble(text);
}

constexpr packet::MacAddr kClientMac = 0x0c;
constexpr packet::MacAddr kServerMac = 0x0b;
constexpr u32 kRings = 4;
constexpr u32 kWaves = 40;
constexpr SimTime kWavePeriod = 10 * kMicrosecond;

std::vector<u8> make_wire(Fid fid, const packet::ArgumentHeader& args,
                          const active::Program& program) {
  auto pkt = packet::ActivePacket::make_program(fid, args, program);
  pkt.ethernet.src = kClientMac;
  pkt.ethernet.dst = kServerMac;
  pkt.payload.assign(64, 0x5a);
  return pkt.serialize();
}

struct WaveInjector {
  Network* net;
  netsim::Node* client;
  const std::vector<std::vector<u8>>* wires;
  u32 remaining;
  void operator()() {
    // The whole burst is transmitted at one virtual instant, so every
    // frame of it reaches the switch at the same timestamp.
    for (const auto& w : *wires) {
      net->transmit(*client, 0, net->pool().copy(w));
    }
    if (--remaining > 0) {
      net->simulator().schedule_after(kWavePeriod, *this);
    }
  }
};

struct RunResult {
  u64 digest = 0;           // replies + registers + metric totals
  u64 replies = 0;          // sanity: traffic actually flowed
  u64 drops = 0;            // sanity: the faulting capsule actually dropped
  u64 recirculations = 0;   // sanity: the long program actually wrapped
  u64 rts = 0;              // sanity: populate acks actually RTSed
  u64 exec_batches = 0;     // sanity: bursts actually coalesced
  u64 injected_drops = 0;   // sanity: the fault plan actually fired
};

RunResult run_scenario(u32 shards, const faults::FaultPlan* plan) {
  Network net(shards);
  std::unique_ptr<faults::FaultInjector> injector;
  if (plan != nullptr) {
    injector = std::make_unique<faults::FaultInjector>(*plan, shards);
    net.set_transmit_hook(injector.get());
  }

  // One burst: two populates, a hitting query, a missing query, a
  // capsule for an unallocated FID (protection drop), and a recirculating
  // long walk -- sweepable and non-sweepable lanes interleaved.
  std::vector<std::vector<u8>> wires;
  wires.push_back(make_wire(1, packet::ArgumentHeader{{10, 2, 3, 7}},
                            apps::cache_populate_program()));
  wires.push_back(make_wire(1, packet::ArgumentHeader{{12, 4, 5, 9}},
                            apps::cache_populate_program()));
  wires.push_back(make_wire(1, packet::ArgumentHeader{{10, 2, 3, 0}},
                            apps::cache_query_program()));
  wires.push_back(make_wire(1, packet::ArgumentHeader{{14, 8, 8, 0}},
                            apps::cache_query_program()));
  wires.push_back(make_wire(2, packet::ArgumentHeader{{10, 2, 3, 0}},
                            apps::cache_query_program()));
  wires.push_back(make_wire(1, packet::ArgumentHeader{{20, 0, 0, 0}},
                            long_walk_program()));

  LinkSpec link;
  link.latency = kMicrosecond;
  std::vector<std::shared_ptr<controller::SwitchNode>> switches;
  std::vector<std::shared_ptr<DigestSink>> clients;
  std::vector<std::shared_ptr<DigestSink>> servers;
  for (u32 r = 0; r < kRings; ++r) {
    const std::string tag = std::to_string(r);
    controller::SwitchNode::Config cfg;
    cfg.compute_model = alloc::ComputeModel::deterministic();
    auto sw = std::make_shared<controller::SwitchNode>("sw" + tag, cfg);
    auto client = std::make_shared<DigestSink>("client" + tag);
    auto server = std::make_shared<DigestSink>("server" + tag);
    net.attach(sw);
    net.attach(client);
    net.attach(server);
    net.connect(*sw, 0, *client, 0, link);
    net.connect(*sw, 1, *server, 0, link);
    sw->bind(kClientMac, 0);
    sw->bind(kServerMac, 1);
    // FID 1 owns the whole pipeline; FID 2 is never installed, so its
    // capsules die with a no-allocation fault.
    for (u32 s = 0; s < sw->pipeline().stage_count(); ++s) {
      sw->pipeline().stage(s).install(1, 0, 4096, 0);
    }
    const u32 shard = r % shards;
    net.pin(*sw, shard);
    net.pin(*client, shard);
    net.pin(*server, shard);
    switches.push_back(std::move(sw));
    clients.push_back(std::move(client));
    servers.push_back(std::move(server));
  }
  for (u32 r = 0; r < kRings; ++r) {
    WaveInjector inj{&net, clients[r].get(), &wires, kWaves};
    net.schedule_on(*clients[r], net.now(), inj);
  }
  net.run();

  RunResult out;
  Digest d;
  for (u32 r = 0; r < kRings; ++r) {
    d.mix(clients[r]->digest.h);
    d.mix(servers[r]->digest.h);
    out.replies += clients[r]->received + servers[r]->received;
  }
  for (const auto& sw : switches) {
    for (u32 s = 0; s < sw->pipeline().stage_count(); ++s) {
      for (const Word w : sw->pipeline().stage(s).memory().dump(0, 128)) {
        d.mix(w);
      }
    }
    const runtime::RuntimeStats& rs = sw->runtime().stats();
    d.mix(rs.packets);
    d.mix(rs.instructions);
    d.mix(rs.recirculations);
    d.mix(rs.drops_protection);
    d.mix(rs.drops_no_allocation);
    d.mix(rs.drops_recirc_limit);
    d.mix(rs.drops_recirc_budget);
    d.mix(rs.drops_privilege);
    d.mix(rs.drops_explicit);
    d.mix(rs.rts_packets);
    d.mix(rs.forwarded_unprocessed);
    const auto ns = sw->node_stats();
    d.mix(ns.forwarded);
    d.mix(ns.returned);
    d.mix(ns.dropped);
    d.mix(ns.malformed);
    d.mix(ns.unknown_destination);
    d.mix(ns.zero_copy_frames);
    out.drops += rs.drops_no_allocation;
    out.recirculations += rs.recirculations;
    out.rts += rs.rts_packets;
    out.exec_batches +=
        sw->metrics().counter("switch", "exec_batches").value();
  }
  out.digest = d.h;
  if (injector) {
    out.injected_drops = injector->injected(faults::FaultKind::kDrop);
  }
  return out;
}

// Golden values, captured with the switch's per-packet engine (and
// identical for its batched engine) at shard counts 1, 2 and 4.
constexpr u64 kFaultFreeDigest = 0x60d23095c6335ed3ull;
constexpr u64 kFaultedDigest = 0x24047424ac20e55cull;  // uniform_loss(7, 0.05)

TEST(ExecBatchParity, BatchedMatchesPerPacketAtEveryShardCount) {
  RunResult ref;
  for (const u32 shards : {1u, 2u, 4u}) {
    const RunResult batched = run_scenario(shards, nullptr);
    EXPECT_EQ(batched.digest, kFaultFreeDigest) << "shards=" << shards;
    // The workload exercised every interesting path.
    EXPECT_EQ(batched.replies, 800u);
    EXPECT_EQ(batched.drops, 160u);
    EXPECT_EQ(batched.recirculations, 160u);
    EXPECT_EQ(batched.rts, 320u);
    EXPECT_EQ(batched.exec_batches, 480u);
    // And the result is also invariant across shard counts.
    if (shards == 1) {
      ref = batched;
    } else {
      EXPECT_EQ(ref.digest, batched.digest) << "shards=" << shards;
    }
  }
}

TEST(ExecBatchParity, ParityHoldsUnderActiveFaultPlan) {
  const faults::FaultPlan plan = faults::FaultPlan::uniform_loss(7, 0.05);
  RunResult ref;
  for (const u32 shards : {1u, 2u, 4u}) {
    const RunResult batched = run_scenario(shards, &plan);
    EXPECT_EQ(batched.digest, kFaultedDigest) << "shards=" << shards;
    EXPECT_EQ(batched.injected_drops, 93u);
    EXPECT_EQ(batched.replies, 715u);
    EXPECT_EQ(batched.exec_batches, 468u);
    if (shards == 1) {
      ref = batched;
    } else {
      // Fault decisions are pure functions of (seed, sender, tx_seq), so
      // even the faulted run is shard-count invariant.
      EXPECT_EQ(ref.digest, batched.digest) << "shards=" << shards;
    }
  }
}

TEST(ExecBatchParity, RepeatedBatchedRunsAreIdentical) {
  const RunResult a = run_scenario(2, nullptr);
  const RunResult b = run_scenario(2, nullptr);
  EXPECT_EQ(a.digest, b.digest);
}

// ---------- engine level ----------

// One pipeline + runtime, installed identically for both engines. Every
// FID's entry differs from stage to stage (its MAR advance), so a lane
// that used another stage's entry would walk different registers.
struct EngineBed {
  rmt::PipelineConfig cfg;
  rmt::Pipeline pipeline{cfg};
  runtime::ActiveRuntime runtime{pipeline};

  EngineBed() {
    for (u32 s = 0; s < cfg.logical_stages; ++s) {
      const auto step = static_cast<i32>(s);
      pipeline.stage(s).install(1, 0, 2048, step + 1);
      pipeline.stage(s).install(5, 2048, 4096, 2 * step + 3);
      pipeline.stage(s).install(2, 0, 16, 0);  // tiny: MAR 100 faults
      pipeline.stage(s).install(3, 0, 2048, 1);
    }
    // FID 3 is quiesced (forwarded unprocessed); FID 4 is never installed.
    runtime.deactivate(3);
    runtime.set_enforce_privilege(true);
  }
};

struct Lane {
  Fid fid;
  u8 flags;
  std::array<Word, active::kArgFields> args;
  active::CompiledProgram program;
};

active::CompiledProgram compile(const std::string& text) {
  return active::CompiledProgram::compile(active::assemble(text));
}

// MAR_LOAD then a counter bump in every remaining ingress+egress stage.
std::string counter_sweep_text() {
  std::string text = "MAR_LOAD $0\n";
  for (int i = 0; i < 17; ++i) text += "MEM_INCREMENT\n";
  return text + "RETURN\n";
}

std::vector<Lane> engine_lanes() {
  const auto sweep = compile(counter_sweep_text());
  const auto query =
      active::CompiledProgram::compile(apps::cache_query_program());
  const auto populate =
      active::CompiledProgram::compile(apps::cache_populate_program());
  const auto walk = active::CompiledProgram::compile(long_walk_program());
  const auto branch = compile(
      "MBR_LOAD $0\nMBR2_LOAD $1\nCJUMP L1\nMBR_STORE $2\nL1: RETURN");
  const auto set_dst = compile("MAR_LOAD $0\nMEM_INCREMENT\nSET_DST\nRETURN");
  const auto fork = compile("MBR_LOAD $0\nFORK\nMBR_STORE $1\nRETURN");
  std::vector<Lane> lanes;
  // Starts and ends with FID 1 sweeps, with other FIDs between: the last
  // memory lookup of one stage and the first of the next share a FID.
  lanes.push_back({1, 0, {5, 0, 0, 0}, sweep});
  lanes.push_back({5, 0, {2100, 0, 0, 0}, sweep});
  lanes.push_back({1, 0, {10, 2, 3, 7}, populate});
  lanes.push_back({1, 0, {10, 2, 3, 0}, query});  // hit: RTS
  lanes.push_back({1, 0, {30, 2, 3, 0}, query});  // miss: CRET
  lanes.push_back({3, 0, {10, 2, 3, 0}, query});  // deactivated
  lanes.push_back({2, 0, {100, 0, 0, 0}, sweep});  // protection fault
  lanes.push_back({4, 0, {5, 0, 0, 0}, sweep});    // no allocation
  lanes.push_back({1, 0, {20, 0, 0, 0}, walk});    // recirculates
  lanes.push_back({5, 0, {2200, 0, 0, 0}, sweep});
  lanes.push_back({1, 0, {7, 0, 0, 0}, set_dst});  // privilege fault
  lanes.push_back({1, packet::kFlagPrivileged, {7, 0, 0, 0}, set_dst});
  lanes.push_back({5, packet::kFlagPrivileged, {9, 0, 0, 0}, fork});
  lanes.push_back({1, packet::kFlagNoShrink, {5, 5, 8, 0}, branch});  // taken
  lanes.push_back({1, 0, {5, 6, 8, 0}, branch});  // not taken
  lanes.push_back({1, 0, {6, 0, 0, 0}, sweep});
  lanes.push_back({1, 0, {9, 0, 0, 0}, sweep});
  return lanes;
}

// Per-lane mutable state, one copy per engine.
struct LaneIo {
  std::vector<std::array<Word, active::kArgFields>> args;
  std::vector<packet::MacAddr> src;
  std::vector<packet::MacAddr> dst;
  std::vector<runtime::ExecContext> ctx;
  std::vector<active::ExecCursor> cursors;

  explicit LaneIo(const std::vector<Lane>& lanes)
      : args(lanes.size()),
        src(lanes.size()),
        dst(lanes.size()),
        ctx(lanes.size()),
        cursors(lanes.size()) {}

  void reset(const std::vector<Lane>& lanes) {
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      args[i] = lanes[i].args;
      src[i] = kClientMac;
      dst[i] = kServerMac;
      ctx[i].args = &args[i];
      ctx[i].fid = lanes[i].fid;
      ctx[i].flags = lanes[i].flags;
      ctx[i].eth_src = &src[i];
      ctx[i].eth_dst = &dst[i];
    }
  }
};

void expect_same_result(const runtime::ExecutionResult& a,
                        const runtime::ExecutionResult& b) {
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.fault, b.fault);
  EXPECT_EQ(a.passes, b.passes);
  EXPECT_EQ(a.stages_consumed, b.stages_consumed);
  EXPECT_EQ(a.instructions_executed, b.instructions_executed);
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_EQ(a.latency, b.latency);
  EXPECT_EQ(a.forked, b.forked);
  const runtime::Phv& p = a.phv;
  const runtime::Phv& q = b.phv;
  EXPECT_EQ(p.mar, q.mar);
  EXPECT_EQ(p.mbr, q.mbr);
  EXPECT_EQ(p.mbr2, q.mbr2);
  EXPECT_EQ(p.inc, q.inc);
  EXPECT_EQ(p.hashdata, q.hashdata);
  EXPECT_EQ(p.complete, q.complete);
  EXPECT_EQ(p.disabled, q.disabled);
  EXPECT_EQ(p.pending_label, q.pending_label);
  EXPECT_EQ(p.rts, q.rts);
  EXPECT_EQ(p.rts_stage, q.rts_stage);
  EXPECT_EQ(p.drop, q.drop);
  EXPECT_EQ(p.fork, q.fork);
  EXPECT_EQ(p.dst_overridden, q.dst_overridden);
  EXPECT_EQ(p.dst_value, q.dst_value);
}

TEST(ExecBatchParity, EngineLanesMatchPerPacketReference) {
  const std::vector<Lane> lanes = engine_lanes();
  EngineBed per_packet;
  EngineBed batched;
  LaneIo pp_io(lanes);
  LaneIo bat_io(lanes);
  const runtime::PacketMeta meta;
  runtime::ExecBatch batch(batched.runtime);
  std::vector<runtime::ExecutionResult> pp_res(lanes.size());
  std::vector<runtime::ExecutionResult> bat_res(lanes.size());

  // Rounds share register state, so each one starts from what the
  // previous left behind on each engine's pipeline.
  for (int round = 0; round < 3; ++round) {
    const SimTime now = round * kMicrosecond;
    pp_io.reset(lanes);
    bat_io.reset(lanes);
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      pp_res[i] = per_packet.runtime.execute(lanes[i].program, pp_io.ctx[i],
                                             pp_io.cursors[i], meta, now);
    }
    batch.clear();
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      batch.add(lanes[i].program, bat_io.ctx[i], bat_io.cursors[i], meta,
                now);
    }
    batch.execute();
    for (std::size_t i = 0; i < lanes.size(); ++i) bat_res[i] = batch.result(i);

    for (std::size_t i = 0; i < lanes.size(); ++i) {
      SCOPED_TRACE("round " + std::to_string(round) + " lane " +
                   std::to_string(i));
      expect_same_result(pp_res[i], bat_res[i]);
      EXPECT_EQ(pp_io.args[i], bat_io.args[i]);
      EXPECT_EQ(pp_io.src[i], bat_io.src[i]);
      EXPECT_EQ(pp_io.dst[i], bat_io.dst[i]);
      const active::ExecCursor& c = pp_io.cursors[i];
      const active::ExecCursor& d = bat_io.cursors[i];
      EXPECT_EQ(c.resume_index, d.resume_index);
      EXPECT_EQ(c.shrink, d.shrink);
      for (u32 k = 0; k < lanes[i].program.size(); ++k) {
        EXPECT_EQ(c.done(k), d.done(k)) << "instruction " << k;
      }
    }
    for (u32 s = 0; s < per_packet.pipeline.stage_count(); ++s) {
      EXPECT_EQ(per_packet.pipeline.stage(s).memory().dump(0, 4096),
                batched.pipeline.stage(s).memory().dump(0, 4096))
          << "round " << round << " stage " << s;
    }
  }

  const runtime::RuntimeStats& a = per_packet.runtime.stats();
  const runtime::RuntimeStats& b = batched.runtime.stats();
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.recirculations, b.recirculations);
  EXPECT_EQ(a.drops_protection, b.drops_protection);
  EXPECT_EQ(a.drops_no_allocation, b.drops_no_allocation);
  EXPECT_EQ(a.drops_recirc_limit, b.drops_recirc_limit);
  EXPECT_EQ(a.drops_recirc_budget, b.drops_recirc_budget);
  EXPECT_EQ(a.drops_privilege, b.drops_privilege);
  EXPECT_EQ(a.drops_explicit, b.drops_explicit);
  EXPECT_EQ(a.rts_packets, b.rts_packets);
  EXPECT_EQ(a.forwarded_unprocessed, b.forwarded_unprocessed);
  // Every lane kind actually occurred (3 rounds).
  EXPECT_EQ(b.packets, 3 * lanes.size());
  EXPECT_EQ(b.forwarded_unprocessed, 3u);
  EXPECT_EQ(b.drops_protection, 3u);
  EXPECT_EQ(b.drops_no_allocation, 3u);
  EXPECT_EQ(b.drops_privilege, 3u);
  EXPECT_GT(b.recirculations, 0u);
  EXPECT_GT(b.rts_packets, 0u);
}

}  // namespace
}  // namespace artmt
