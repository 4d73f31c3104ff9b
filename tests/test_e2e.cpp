// End-to-end tests over the discrete-event network: allocation
// negotiation, cache populate/query traffic, the reallocation handshake
// between tenants, heavy-hitter extraction, and Cheetah flows -- the full
// capsule life cycle of Sections 3-5.
#include <gtest/gtest.h>

#include "apps/cache_service.hpp"
#include "apps/hh_service.hpp"
#include "apps/lb_service.hpp"
#include "apps/server_node.hpp"
#include "client/client_node.hpp"
#include "controller/switch_node.hpp"

namespace artmt {
namespace {

using apps::CacheService;
using apps::CheetahLbService;
using apps::FrequentItemService;
using apps::KvMessage;
using apps::ServerNode;
using client::ClientNode;
using controller::SwitchNode;

constexpr packet::MacAddr kSwitchMac = 0x0000aa;
constexpr packet::MacAddr kServerMac = 0x0000bb;
constexpr packet::MacAddr kClientMacBase = 0x000100;

class Testbed {
 public:
  explicit Testbed(u32 clients = 1,
                   alloc::Scheme scheme = alloc::Scheme::kWorstFit)
      : net_(0) {
    SwitchNode::Config cfg;
    cfg.scheme = scheme;
    // Shrink control-plane costs so tests converge quickly; ratios stay
    // realistic (table updates dominate).
    cfg.costs.table_entry_update = 100 * kMicrosecond;
    cfg.costs.snapshot_per_block = 1 * kMicrosecond;
    cfg.costs.clear_per_block = 1 * kMicrosecond;
    cfg.costs.extraction_timeout = 200 * kMillisecond;
    switch_ = std::make_shared<SwitchNode>("switch", cfg);
    net_.attach(switch_);

    server_ = std::make_shared<ServerNode>("server", kServerMac);
    net_.attach(server_);
    net_.connect(*switch_, 0, *server_, 0);
    switch_->bind(kServerMac, 0);

    for (u32 i = 0; i < clients; ++i) {
      auto client = std::make_shared<ClientNode>(
          "client" + std::to_string(i), kClientMacBase + i, kSwitchMac);
      net_.attach(client);
      net_.connect(*switch_, i + 1, *client, 0);
      switch_->bind(kClientMacBase + i, i + 1);
      clients_.push_back(std::move(client));
    }
  }

  void run_for(SimTime duration) { net_.run_until(net_.now() + duration); }

  netsim::Network net_;
  std::shared_ptr<SwitchNode> switch_;
  std::shared_ptr<ServerNode> server_;
  std::vector<std::shared_ptr<ClientNode>> clients_;
};

// Wires a cache's server-reply path through the client's passive hook.
void wire_cache_replies(ClientNode& client, CacheService& cache) {
  client.on_passive = [&cache](netsim::Frame& frame) {
    const auto msg = KvMessage::parse(
        std::span<const u8>(frame).subspan(packet::EthernetHeader::kWireSize));
    if (msg) cache.handle_server_reply(*msg);
  };
}

TEST(E2E, AllocationNegotiationCompletes) {
  Testbed bed;
  auto cache = std::make_shared<CacheService>("cache", kServerMac);
  bed.clients_[0]->register_service(cache);
  cache->request_allocation();
  bed.run_for(2 * kSecond);
  EXPECT_TRUE(cache->operational());
  EXPECT_GT(cache->fid(), 0);
  EXPECT_GT(cache->bucket_count(), 0u);
}

TEST(E2E, CachePopulateQueryOverTheWire) {
  Testbed bed;
  auto cache = std::make_shared<CacheService>("cache", kServerMac);
  bed.clients_[0]->register_service(cache);
  wire_cache_replies(*bed.clients_[0], *cache);

  bed.server_->put(0x1234, 99);
  bed.server_->put(0x5678, 11);

  std::vector<std::tuple<u64, u32, bool>> results;  // key, value, hit
  cache->on_result = [&](u32, u64 key, u32 value, bool hit) {
    results.emplace_back(key, value, hit);
  };

  cache->request_allocation();
  bed.run_for(2 * kSecond);
  ASSERT_TRUE(cache->operational());

  bool populated = false;
  cache->populate({{0x1234, 99}}, [&] { populated = true; });
  bed.run_for(1 * kSecond);
  ASSERT_TRUE(populated);

  cache->get(0x1234);  // hit at the switch
  cache->get(0x5678);  // miss -> server
  bed.run_for(1 * kSecond);

  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(std::get<0>(results[0]), 0x1234u);
  EXPECT_EQ(std::get<1>(results[0]), 99u);
  EXPECT_TRUE(std::get<2>(results[0]));
  EXPECT_EQ(std::get<0>(results[1]), 0x5678u);
  EXPECT_EQ(std::get<1>(results[1]), 11u);
  EXPECT_FALSE(std::get<2>(results[1]));
  EXPECT_EQ(bed.server_->stats().gets_served, 1u);
  EXPECT_EQ(cache->cache_stats().hits, 1u);
  EXPECT_EQ(cache->cache_stats().misses, 1u);
}

TEST(E2E, DenialWhenSwitchFull) {
  Testbed bed(1);
  std::vector<std::shared_ptr<FrequentItemService>> hogs;
  for (int i = 0; i < 24; ++i) {
    auto hog = std::make_shared<FrequentItemService>(
        "hog" + std::to_string(i), kServerMac);
    bed.clients_[0]->register_service(hog);
    hogs.push_back(hog);
  }
  for (auto& hog : hogs) {
    hog->request_allocation();
    bed.run_for(2 * kSecond);
  }
  u32 denied = 0;
  for (auto& hog : hogs) {
    if (hog->state() == client::Service::State::kDenied) ++denied;
  }
  EXPECT_EQ(denied, 1u);  // 23 fit (Section 6.1), the 24th is rejected
}

TEST(E2E, ReallocationHandshakeBetweenTenants) {
  Testbed bed(2, alloc::Scheme::kFirstFit);  // force stage sharing
  auto cache0 = std::make_shared<CacheService>("cache0", kServerMac);
  auto cache1 = std::make_shared<CacheService>("cache1", kServerMac);
  bed.clients_[0]->register_service(cache0);
  bed.clients_[1]->register_service(cache1);

  u32 moved = 0;
  cache0->on_relocated = [&] { ++moved; };

  cache0->request_allocation();
  bed.run_for(2 * kSecond);
  ASSERT_TRUE(cache0->operational());
  const u32 buckets_before = cache0->bucket_count();

  cache1->request_allocation();
  bed.run_for(3 * kSecond);
  ASSERT_TRUE(cache1->operational());
  EXPECT_TRUE(cache0->operational());  // reactivated with its new layout
  EXPECT_EQ(moved, 1u);
  // First-fit stacked both onto the same stages: shares halved.
  EXPECT_LT(cache0->bucket_count(), buckets_before);
  EXPECT_EQ(cache0->bucket_count(), cache1->bucket_count());
}

TEST(E2E, RelocatedCacheRepopulatesAutomatically) {
  Testbed bed(2, alloc::Scheme::kFirstFit);
  auto cache0 = std::make_shared<CacheService>("cache0", kServerMac);
  auto cache1 = std::make_shared<CacheService>("cache1", kServerMac);
  bed.clients_[0]->register_service(cache0);
  bed.clients_[1]->register_service(cache1);
  wire_cache_replies(*bed.clients_[0], *cache0);

  u32 hits = 0;
  cache0->on_result = [&](u32, u64, u32, bool hit) { hits += hit ? 1 : 0; };

  cache0->request_allocation();
  bed.run_for(2 * kSecond);
  cache0->populate({{0xaaaa, 1}, {0xbbbb, 2}});
  bed.run_for(1 * kSecond);

  // The second tenant's arrival moves cache0's memory (zeroed at the
  // switch); the default on_moved handler re-populates the hot set.
  cache1->request_allocation();
  bed.run_for(3 * kSecond);
  ASSERT_TRUE(cache0->operational());

  cache0->get(0xaaaa);
  cache0->get(0xbbbb);
  bed.run_for(1 * kSecond);
  EXPECT_EQ(hits, 2u);
}

TEST(E2E, HeavyHitterObserveAndExtract) {
  Testbed bed;
  auto monitor = std::make_shared<FrequentItemService>(
      "monitor", kServerMac, /*cms_blocks=*/2, /*table_blocks=*/1);
  bed.clients_[0]->register_service(monitor);
  monitor->request_allocation();
  bed.run_for(2 * kSecond);
  ASSERT_TRUE(monitor->operational());

  // 0xf00d is requested 30 times, others once each.
  for (int i = 0; i < 30; ++i) monitor->observe(0xf00d);
  for (u64 k = 1; k <= 20; ++k) monitor->observe(0xcc00 + k);
  bed.run_for(1 * kSecond);

  std::vector<std::pair<u64, u32>> items;
  bool done = false;
  monitor->extract([&](std::vector<std::pair<u64, u32>> found) {
    items = std::move(found);
    done = true;
  });
  bed.run_for(2 * kSecond);
  ASSERT_TRUE(done);
  ASSERT_FALSE(items.empty());
  EXPECT_EQ(items.front().first, 0xf00dULL);  // sorted by count
  EXPECT_GE(items.front().second, 25u);       // CMS overcounts, never under
}

TEST(E2E, CheetahFlowsStickToServers) {
  Testbed bed(1);
  auto backend1 = std::make_shared<ServerNode>("backend1", 0xdd01);
  auto backend2 = std::make_shared<ServerNode>("backend2", 0xdd02);
  bed.net_.attach(backend1);
  bed.net_.attach(backend2);
  bed.net_.connect(*bed.switch_, 8, *backend1, 0);
  bed.net_.connect(*bed.switch_, 9, *backend2, 0);
  bed.switch_->bind(0xdd01, 8);
  bed.switch_->bind(0xdd02, 9);

  auto lb = std::make_shared<CheetahLbService>("lb");
  bed.clients_[0]->register_service(lb);
  std::map<u32, u32> cookies;
  lb->on_flow_opened = [&](u32 flow, u32 cookie) { cookies[flow] = cookie; };
  bed.clients_[0]->on_passive = [&lb](netsim::Frame& frame) {
    const auto msg = KvMessage::parse(
        std::span<const u8>(frame).subspan(packet::EthernetHeader::kWireSize));
    if (msg) lb->handle_cookie_reply(*msg);
  };

  lb->request_allocation();
  bed.run_for(2 * kSecond);
  ASSERT_TRUE(lb->operational());

  bool configured = false;
  lb->configure({8, 9}, [&] { configured = true; });
  bed.run_for(1 * kSecond);
  ASSERT_TRUE(configured);

  for (u32 flow = 1; flow <= 8; ++flow) lb->open_flow(flow);
  bed.run_for(1 * kSecond);
  ASSERT_EQ(cookies.size(), 8u);
  EXPECT_EQ(bed.server_->stats().syns_answered, 0u);  // SYNs hit backends
  const u64 syns = backend1->stats().syns_answered +
                   backend2->stats().syns_answered;
  EXPECT_EQ(syns, 8u);
  EXPECT_GT(backend1->stats().syns_answered, 0u);
  EXPECT_GT(backend2->stats().syns_answered, 0u);

  // Data packets follow their cookies; totals must match per server.
  const u64 b1_syns = backend1->stats().syns_answered;
  const u64 b2_syns = backend2->stats().syns_answered;
  for (u32 flow = 1; flow <= 8; ++flow) {
    for (int i = 0; i < 3; ++i) lb->send_data(flow);
  }
  bed.run_for(1 * kSecond);
  EXPECT_EQ(backend1->stats().data_packets, b1_syns * 3);
  EXPECT_EQ(backend2->stats().data_packets, b2_syns * 3);
}

TEST(E2E, RttGrowsWithProgramLength) {
  // Fig. 8b mechanics: NOP+RTS programs of increasing length.
  Testbed bed;
  auto probe = [&](u32 nops) {
    packet::ArgumentHeader args;
    active::Program program;
    program.push({active::Opcode::kRts});
    for (u32 i = 0; i < nops; ++i) {
      program.push({active::Opcode::kNop});
    }
    program.push({active::Opcode::kReturn});
    auto pkt = packet::ActivePacket::make_program(0, args, program);
    pkt.ethernet.src = kClientMacBase;
    pkt.ethernet.dst = kSwitchMac;
    const SimTime sent = bed.net_.now();
    SimTime received = -1;
    bed.clients_[0]->on_unclaimed = [&](packet::ActivePacket&) {
      received = bed.net_.now();
    };
    bed.net_.transmit(*bed.clients_[0], 0, pkt.serialize());
    bed.run_for(10 * kMillisecond);
    EXPECT_GE(received, 0) << nops;
    return received - sent;
  };
  const SimTime rtt10 = probe(8);
  const SimTime rtt20 = probe(18);
  const SimTime rtt30 = probe(28);
  EXPECT_LT(rtt10, rtt20);
  EXPECT_LT(rtt20, rtt30);  // 30 instructions recirculate
  // Each ten instructions engage another pipeline: +0.5 us per step
  // (Fig. 8b), plus a few ns of serialization for the longer programs.
  EXPECT_NEAR(static_cast<double>(rtt20 - rtt10), 500.0, 25.0);
  EXPECT_NEAR(static_cast<double>(rtt30 - rtt20), 500.0, 25.0);
}

TEST(E2E, MalformedRequestDeniedNotCrashed) {
  Testbed bed;
  // Crafted request: access position beyond the program length.
  packet::ActivePacket pkt;
  pkt.initial.type = packet::ActiveType::kAllocRequest;
  pkt.initial.seq = 9;
  pkt.arguments = packet::ArgumentHeader{{3 /*len*/, 0, 1, 0}};
  packet::AllocRequestHeader req;
  req.slots[0] = {200, 1, 0x01};  // position 200 >> length 3
  pkt.request = req;
  pkt.ethernet.src = kClientMacBase;
  pkt.ethernet.dst = kSwitchMac;

  bool denied = false;
  bed.clients_[0]->on_unclaimed = [&](packet::ActivePacket& response) {
    if (response.initial.type == packet::ActiveType::kAllocResponse &&
        (response.initial.flags & packet::kFlagAllocFailed) != 0) {
      denied = true;
    }
  };
  bed.net_.transmit(*bed.clients_[0], 0, pkt.serialize());
  bed.run_for(1 * kSecond);
  EXPECT_TRUE(denied);

  // The control plane still works afterwards.
  auto cache = std::make_shared<CacheService>("cache", kServerMac);
  bed.clients_[0]->register_service(cache);
  cache->request_allocation();
  bed.run_for(2 * kSecond);
  EXPECT_TRUE(cache->operational());
}

TEST(E2E, PrivilegeEnforcementAtTheSwitch) {
  netsim::Network net(0);
  SwitchNode::Config cfg;
  cfg.enforce_privilege = true;
  auto sw = std::make_shared<SwitchNode>("switch", cfg);
  auto client = std::make_shared<ClientNode>("c", 0x100, kSwitchMac);
  net.attach(sw);
  net.attach(client);
  net.connect(*sw, 1, *client, 0);
  sw->bind(0x100, 1);

  active::Program program;
  program.push({active::Opcode::kDrop});
  auto pkt = packet::ActivePacket::make_program(
      0, packet::ArgumentHeader{}, program);
  pkt.ethernet.src = 0x100;
  pkt.ethernet.dst = kSwitchMac;
  net.transmit(*client, 0, pkt.serialize());
  net.run();
  EXPECT_EQ(sw->runtime().stats().drops_privilege, 1u);
}

TEST(E2E, DefaultRecircBudgetAppliesToAdmittedFids) {
  netsim::Network net(0);
  SwitchNode::Config cfg;
  cfg.default_recirc_budget = {1e-9, 1.0};  // one extra pass, ever
  auto sw = std::make_shared<SwitchNode>("switch", cfg);
  auto client = std::make_shared<ClientNode>("c", 0x100, kSwitchMac);
  net.attach(sw);
  net.attach(client);
  net.connect(*sw, 1, *client, 0);
  sw->bind(0x100, 1);

  auto monitor = std::make_shared<FrequentItemService>("m", 0xbb);
  client->register_service(monitor);
  monitor->request_allocation();
  net.run_until(2 * kSecond);
  ASSERT_TRUE(monitor->operational());

  // Heavy observations recirculate (the store pass); after the budget's
  // single extra pass, further recirculating capsules drop.
  monitor->observe(0x1);
  monitor->observe(0x2);
  monitor->observe(0x3);
  net.run_until(net.now() + kSecond);
  EXPECT_GE(sw->runtime().stats().drops_recirc_budget, 1u);
}

TEST(E2E, SwitchStatsTrackTraffic) {
  Testbed bed;
  auto cache = std::make_shared<CacheService>("cache", kServerMac);
  bed.clients_[0]->register_service(cache);
  cache->request_allocation();
  bed.run_for(2 * kSecond);
  cache->populate({{1, 2}});
  bed.run_for(1 * kSecond);
  EXPECT_GT(bed.switch_->node_stats().returned, 0u);  // populate acks RTS'd
  EXPECT_GT(bed.switch_->runtime().stats().packets, 0u);
}

}  // namespace
}  // namespace artmt
