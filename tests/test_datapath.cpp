// The switch frame datapath: program capsules parsed in place and run as
// ExecBatch lanes (golden reply bytes, stats), rejected program frames and
// passive L2 forwarding, unknown-destination accounting, and pool
// recycling across a full wire-in/wire-out exchange.
#include <gtest/gtest.h>

#include "active/assembler.hpp"
#include "controller/switch_node.hpp"
#include "netsim/network.hpp"
#include "proto/wire.hpp"
#include "telemetry/metrics.hpp"

namespace artmt {
namespace {

using controller::SwitchNode;
using packet::ActivePacket;
using packet::ArgumentHeader;

constexpr packet::MacAddr kClientMac = 0x0000cc;
constexpr packet::MacAddr kServerMac = 0x0000bb;

class Recorder : public netsim::Node {
 public:
  explicit Recorder(std::string name) : netsim::Node(std::move(name)) {}
  void on_frame(netsim::Frame frame, u32 port) override {
    (void)port;
    frames.push_back(std::move(frame));
  }
  std::vector<netsim::Frame> frames;
};

// One switch with a client-side and a server-side recorder. Pass a
// registry to share it with the caller (the telemetry tests read counters
// directly); by default the switch keeps a private one.
struct Bed {
  explicit Bed(telemetry::MetricsRegistry* metrics = nullptr,
               bool enforce_privilege = false) {
    SwitchNode::Config cfg;
    cfg.metrics = metrics;
    cfg.enforce_privilege = enforce_privilege;
    sw = std::make_shared<SwitchNode>("switch", cfg);
    client = std::make_shared<Recorder>("client");
    server = std::make_shared<Recorder>("server");
    net.attach(sw);
    net.attach(client);
    net.attach(server);
    net.connect(*sw, 0, *client, 0);
    net.connect(*sw, 1, *server, 0);
    sw->bind(kClientMac, 0);
    sw->bind(kServerMac, 1);
  }

  void inject(std::vector<u8> frame) {
    net.transmit(*client, 0, net.pool().copy(frame));
    net.run();
  }

  netsim::Network net{0};
  std::shared_ptr<SwitchNode> sw;
  std::shared_ptr<Recorder> client;
  std::shared_ptr<Recorder> server;
};

std::vector<u8> program_frame(const std::string& text,
                              const ArgumentHeader& args, u8 extra_flags = 0,
                              std::vector<u8> payload = {}) {
  auto pkt = ActivePacket::make_program(1, args, active::assemble(text));
  pkt.initial.flags |= extra_flags;
  pkt.ethernet.src = kClientMac;
  pkt.ethernet.dst = kServerMac;
  pkt.payload = std::move(payload);
  return pkt.serialize();
}

// ---------- golden replies ----------

// FNV-1a over every frame each recorder received (count, then each
// frame's size and bytes; server first) and the switch's verdict counters.
u64 exchange_digest(const Bed& bed) {
  u64 h = 1469598103934665603ull;
  const auto mix = [&h](u64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const Recorder* r : {bed.server.get(), bed.client.get()}) {
    mix(r->frames.size());
    for (const auto& f : r->frames) {
      mix(f.size());
      for (const u8 b : f) mix(b);
    }
  }
  const auto s = bed.sw->node_stats();
  mix(s.forwarded);
  mix(s.returned);
  mix(s.dropped);
  mix(s.malformed);
  return h;
}

// Runs one capsule through the switch and checks the exchange against a
// digest captured when the switch still had a materializing and a
// per-packet engine (all three produced these exact bytes and counts).
void expect_golden(const std::vector<u8>& frame, u64 digest) {
  Bed bed;
  bed.inject(frame);
  EXPECT_EQ(exchange_digest(bed), digest);
}

TEST(Datapath, ParityStraightLineShrink) {
  expect_golden(program_frame("MBR_LOAD $2\nMBR_STORE $3\nRETURN",
                              ArgumentHeader{{0, 0, 77, 0}}),
                0xecf839171c33960eull);
}

TEST(Datapath, ParityWithPayload) {
  expect_golden(program_frame("MBR_LOAD $0\nMBR_STORE $1\nRETURN",
                              ArgumentHeader{{42, 0, 0, 0}}, 0,
                              {9, 8, 7, 6, 5, 4, 3, 2, 1}),
                0x9501abb474637956ull);
}

TEST(Datapath, ParityNoShrinkKeepsCode) {
  expect_golden(program_frame("MBR_LOAD $2\nMBR_STORE $3\nRETURN",
                              ArgumentHeader{{0, 0, 7, 0}},
                              packet::kFlagNoShrink,
                              {1, 2, 3, 4, 5}),
                0x13baf6b6cc311304ull);
}

TEST(Datapath, ParityBranch) {
  expect_golden(program_frame(R"(
      MBR_LOAD $0
      MBR2_LOAD $1
      CJUMP L1
      MBR_STORE $2
      L1: RETURN
  )",
                              ArgumentHeader{{5, 5, 0, 0}}),
                0xd9c28ffb8196fa0eull);
}

TEST(Datapath, ParityRts) {
  // RTS swaps the MACs: the reply lands back at the client recorder.
  expect_golden(program_frame("MBR_LOAD $0\nRTS\nRETURN",
                              ArgumentHeader{{1, 0, 0, 0}},
                              packet::kFlagNoShrink),
                0x61591253790075e2ull);
}

TEST(Datapath, ParityRecirculation) {
  std::string text;
  for (int i = 0; i < 25; ++i) text += "NOP\n";
  text += "MBR_LOAD $0\nMBR_STORE $1\nRETURN";
  expect_golden(program_frame(text, ArgumentHeader{{9, 0, 0, 0}}),
                0xec4cc68f0eb9f80eull);
}

TEST(Datapath, ParityDrop) {
  // Unallocated memory access: the capsule drops, nothing egresses.
  expect_golden(program_frame("MAR_LOAD $0\nMEM_READ\nRETURN",
                              ArgumentHeader{{500, 0, 0, 0}}),
                0x412fb4d434e4f582ull);
}

// FORK through the switch: the clone egresses toward the original
// destination alongside the executed capsule, so the server receives two
// byte-identical frames from one forwarded capsule.
TEST(Datapath, ForkForwardsTwoIdenticalFrames) {
  Bed bed;
  bed.inject(program_frame("MBR_LOAD $0\nFORK\nRETURN",
                           ArgumentHeader{{6, 0, 0, 0}}));
  ASSERT_EQ(bed.server->frames.size(), 2u);
  EXPECT_EQ(bed.server->frames[0].to_vector(),
            bed.server->frames[1].to_vector());
  EXPECT_TRUE(bed.client->frames.empty());
  EXPECT_EQ(bed.sw->node_stats().forwarded, 1u);
  EXPECT_EQ(exchange_digest(bed), 0xa966f0279b4d31a0ull);
}

// Under privilege enforcement an unflagged FORK drops the capsule: no
// clone and no original leave the switch.
TEST(Datapath, UnprivilegedForkDropsWithoutClone) {
  Bed bed(nullptr, /*enforce_privilege=*/true);
  bed.inject(program_frame("MBR_LOAD $0\nFORK\nRETURN",
                           ArgumentHeader{{6, 0, 0, 0}}));
  EXPECT_TRUE(bed.server->frames.empty());
  EXPECT_TRUE(bed.client->frames.empty());
  EXPECT_EQ(bed.sw->runtime().stats().drops_privilege, 1u);
  EXPECT_EQ(bed.sw->node_stats().forwarded, 0u);
  EXPECT_EQ(bed.sw->node_stats().dropped, 1u);

  // The same capsule with the trusted shim's flag forks as usual.
  Bed trusted(nullptr, /*enforce_privilege=*/true);
  trusted.inject(program_frame("MBR_LOAD $0\nFORK\nRETURN",
                               ArgumentHeader{{6, 0, 0, 0}},
                               packet::kFlagPrivileged));
  EXPECT_EQ(trusted.server->frames.size(), 2u);
  EXPECT_EQ(trusted.sw->runtime().stats().drops_privilege, 0u);
}

// ---------- in-place accounting and recycling ----------

TEST(Datapath, ZeroCopyPathIsTaken) {
  Bed bed;
  bed.inject(program_frame("MBR_LOAD $0\nMBR_STORE $1\nRETURN",
                           ArgumentHeader{{3, 0, 0, 0}}));
  EXPECT_EQ(bed.sw->node_stats().zero_copy_frames, 1u);
  EXPECT_EQ(bed.sw->node_stats().forwarded, 1u);
  ASSERT_EQ(bed.server->frames.size(), 1u);
  // The delivered reply rides the very slab the client's send acquired.
  EXPECT_TRUE(bed.server->frames[0].pooled());
}

TEST(Datapath, SlabRecyclesAfterReceiverReleases) {
  Bed bed;
  bed.inject(program_frame("MBR_LOAD $0\nMBR_STORE $1\nRETURN",
                           ArgumentHeader{{3, 0, 0, 0}}));
  ASSERT_EQ(bed.server->frames.size(), 1u);
  const auto created = bed.net.pool().stats().slabs_created;
  bed.server->frames.clear();  // last reference: slab returns to the pool
  EXPECT_EQ(bed.net.pool().free_slabs(), 1u);
  // A second exchange is served entirely from the warm pool.
  bed.inject(program_frame("MBR_LOAD $0\nMBR_STORE $1\nRETURN",
                           ArgumentHeader{{4, 0, 0, 0}}));
  EXPECT_EQ(bed.net.pool().stats().slabs_created, created);
}

// ---------- passive traffic through the switch ----------

std::vector<u8> passive_frame(packet::MacAddr dst, packet::MacAddr src,
                              std::vector<u8> payload) {
  ByteWriter out;
  packet::EthernetHeader eth;
  eth.dst = dst;
  eth.src = src;
  eth.ethertype = packet::kEtherTypeIpv4;
  eth.serialize(out);
  out.put_bytes(payload);
  return out.take();
}

TEST(Datapath, PassiveFramesForwardByL2Address) {
  Bed bed;
  const auto frame = passive_frame(kServerMac, kClientMac, {1, 2, 3, 4});
  bed.inject(frame);
  ASSERT_EQ(bed.server->frames.size(), 1u);
  EXPECT_EQ(bed.server->frames[0].to_vector(), frame);  // untouched
  EXPECT_EQ(bed.sw->node_stats().forwarded, 1u);
  EXPECT_EQ(bed.sw->node_stats().malformed, 0u);
  EXPECT_EQ(bed.sw->node_stats().zero_copy_frames, 0u);
}

TEST(Datapath, PassiveUnknownDestinationCountsMalformed) {
  Bed bed;
  bed.inject(passive_frame(/*dst=*/0xdead, kClientMac, {1, 2, 3}));
  EXPECT_TRUE(bed.server->frames.empty());
  EXPECT_TRUE(bed.client->frames.empty());
  EXPECT_EQ(bed.sw->node_stats().malformed, 1u);
}

TEST(Datapath, CapsuleToUnboundMacCountsUnknownDestination) {
  Bed bed;
  auto pkt = ActivePacket::make_program(
      1, ArgumentHeader{{3, 0, 0, 0}},
      active::assemble("MBR_LOAD $0\nMBR_STORE $1\nRETURN"));
  pkt.ethernet.src = kClientMac;
  pkt.ethernet.dst = 0xdead;  // executes fine, but egress lookup fails
  bed.inject(pkt.serialize());
  EXPECT_TRUE(bed.server->frames.empty());
  EXPECT_EQ(bed.sw->node_stats().unknown_destination, 1u);
  EXPECT_EQ(bed.sw->node_stats().forwarded, 1u);  // verdict was forward
}

TEST(Datapath, TruncatedProgramFrameFallsBackToL2Forward) {
  Bed bed;
  // A frame that looks like a program capsule (active ethertype, kProgram
  // type byte) but has no valid code: the in-place parse must decline and
  // the frame must still reach its L2 destination untouched.
  auto frame = program_frame("MBR_LOAD $0\nRETURN", ArgumentHeader{});
  frame.resize(packet::EthernetHeader::kWireSize + 12);  // cut mid-header
  bed.inject(frame);
  ASSERT_EQ(bed.server->frames.size(), 1u);
  EXPECT_EQ(bed.server->frames[0].to_vector(), frame);
  EXPECT_EQ(bed.sw->node_stats().forwarded, 1u);
  EXPECT_EQ(bed.sw->node_stats().zero_copy_frames, 0u);
}

TEST(Datapath, InvalidOpcodeProgramFrameFallsBackToL2Forward) {
  // A program capsule whose code is terminated by a valid EOF but whose
  // first instruction carries an undefined opcode: the in-place parse is
  // the only parser of program frames, so its rejection alone decides.
  // Nothing executes and the frame reaches its L2 destination untouched.
  telemetry::MetricsRegistry reg;
  Bed bed(&reg);
  auto frame = program_frame("MBR_LOAD $0\nRETURN", ArgumentHeader{});
  constexpr std::size_t kCodeBegin = packet::EthernetHeader::kWireSize +
                                     packet::InitialHeader::kWireSize +
                                     packet::ArgumentHeader::kWireSize;
  frame[kCodeBegin] = 0xff;  // no such opcode
  bed.inject(frame);
  ASSERT_EQ(bed.server->frames.size(), 1u);
  EXPECT_EQ(bed.server->frames[0].to_vector(), frame);
  EXPECT_TRUE(bed.client->frames.empty());
  const auto stats = bed.sw->node_stats();
  EXPECT_EQ(stats.forwarded, 1u);
  EXPECT_EQ(stats.zero_copy_frames, 0u);
  EXPECT_EQ(stats.malformed, 0u);
  EXPECT_EQ(reg.counter_value("runtime", "packets", 1), 0u);
  EXPECT_EQ(bed.sw->runtime().stats().packets, 0u);
  // One parse attempt: the rejected frame is not parsed a second time.
  EXPECT_EQ(bed.sw->program_cache().stats().misses, 1u);
}

// ---------- telemetry-on parity ----------

TEST(Datapath, TelemetryCountsMatchOnBothPaths) {
  // Capsules through a switch recording into a caller-owned registry:
  // the per-FID packet counters, the latency histogram, and the NodeStats
  // snapshot view all agree with what was sent.
  telemetry::set_enabled(true);
  telemetry::MetricsRegistry reg;
  Bed bed(&reg);
  const auto frame = program_frame("MBR_LOAD $0\nMBR_STORE $1\nRETURN",
                                   ArgumentHeader{{3, 0, 0, 0}});
  for (int i = 0; i < 3; ++i) bed.inject(frame);

  EXPECT_EQ(reg.counter_value("switch", "packets", 1), 3u);
  EXPECT_EQ(reg.counter_value("runtime", "packets", 1), 3u);
  EXPECT_EQ(reg.counter_value("switch", "forwarded"), 3u);
  const telemetry::Histogram* lat =
      reg.find_histogram("switch", "exec_latency_ns");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count(), 3u);
  EXPECT_GT(lat->sum(), 0u);
  EXPECT_EQ(reg.counter_value("switch", "zero_copy_frames"), 3u);

  // The NodeStats snapshot is a view over the same registry.
  const auto fs = bed.sw->node_stats();
  EXPECT_EQ(fs.forwarded, 3u);
  EXPECT_EQ(fs.zero_copy_frames, 3u);
  EXPECT_EQ(fs.malformed, 0u);
  EXPECT_EQ(fs.control_rejects, 0u);
}

TEST(Datapath, MalformedControlTrafficSplitsFromMalformedData) {
  // A wire-valid allocation request whose access position lies beyond
  // the declared program length is structurally invalid: it counts as a
  // control reject, not as a malformed data frame and not as an unknown
  // destination.
  telemetry::MetricsRegistry reg;
  Bed bed(&reg);
  alloc::AllocationRequest request;
  request.program_length = 3;
  request.accesses.push_back(alloc::AccessDemand{/*position=*/200,
                                                 /*demand_blocks=*/1,
                                                 /*alias=*/-1});
  auto pkt = proto::encode_request(request, /*seq=*/1);
  pkt.ethernet.src = kClientMac;
  pkt.ethernet.dst = kServerMac;
  bed.inject(pkt.serialize());

  const auto stats = bed.sw->node_stats();
  EXPECT_EQ(stats.control_rejects, 1u);
  EXPECT_EQ(stats.malformed, 0u);
  EXPECT_EQ(stats.unknown_destination, 0u);
  EXPECT_EQ(reg.counter_value("switch", "control_rejects"), 1u);
}

}  // namespace
}  // namespace artmt
