// Scenario building blocks (src/scenario): the single-switch star's and
// the leaf-spine bed's addressing, attach-order and pinning conventions,
// and the cache tenant's bookkeeping -- in particular that bad_values
// flags a hit whose value differs from the seeded one, not only a zeroed
// word.
#include <gtest/gtest.h>

#include <memory>

#include "common/bytes.hpp"
#include "packet/ethernet.hpp"
#include "scenario/scenario.hpp"

namespace artmt {
namespace {

using scenario::CacheTenant;
using scenario::LeafSpine;
using scenario::Star;

controller::SwitchNode::Config modeled_config() {
  controller::SwitchNode::Config cfg;
  cfg.compute_model = alloc::ComputeModel::deterministic();
  return cfg;
}

TEST(StarTest, AttachOrderMacsAndShardPinning) {
  Star star(2, modeled_config());
  client::ClientNode& first = star.add_client("a");
  auto backend = std::make_shared<apps::ServerNode>("backend", 0xdd01);
  star.attach_host(backend, 8, 0xdd01);
  client::ClientNode& second = star.add_client("b");

  EXPECT_EQ(star.sw->name(), "switch");
  EXPECT_EQ(star.sw->attach_index(), 0u);
  EXPECT_EQ(star.server->attach_index(), 1u);
  EXPECT_EQ(star.server->mac(), Star::kServerMac);
  // Hosts attach in call order; client MACs count clients only.
  EXPECT_EQ(first.attach_index(), 2u);
  EXPECT_EQ(backend->attach_index(), 3u);
  EXPECT_EQ(second.attach_index(), 4u);
  EXPECT_EQ(first.mac(), Star::kClientMacBase);
  EXPECT_EQ(second.mac(), Star::kClientMacBase + 1);
  EXPECT_EQ(first.switch_mac(), Star::kSwitchMac);
  ASSERT_EQ(star.clients.size(), 2u);
  EXPECT_EQ(star.clients[1].get(), &second);

  // The switch is pinned to shard 0; the rest round-robin over the others.
  star.run_for(kMillisecond);
  EXPECT_EQ(star.sw->shard(), 0u);
  EXPECT_EQ(first.shard(), 1u);
}

// A passive frame with nothing past the Ethernet header: hosts ignore it.
netsim::Frame bare_frame(netsim::Node& from, packet::MacAddr dst) {
  ByteWriter out;
  packet::EthernetHeader{dst, 0, packet::kEtherTypeIpv4}.serialize(out);
  return from.network().pool().copy(out.bytes());
}

TEST(LeafSpineTest, AttachOrderMacsPortsAndShardPinning) {
  LeafSpine bed(2, LeafSpine::config(), 3);
  client::ClientNode& first = bed.add_client("a", 0);
  client::ClientNode& second = bed.add_client("b", 1);
  client::ClientNode& third = bed.add_client("c", 3);

  // The fabric's 4 leaves, 2 spines and controller attach first, then
  // the server, then clients in call order.
  constexpr u32 kFabricNodes = 4 + 2 + 1;
  EXPECT_EQ(bed.server->attach_index(), kFabricNodes);
  EXPECT_EQ(first.attach_index(), kFabricNodes + 1);
  EXPECT_EQ(second.attach_index(), kFabricNodes + 2);
  EXPECT_EQ(third.attach_index(), kFabricNodes + 3);
  EXPECT_EQ(bed.server->mac(), LeafSpine::kServerMac);
  EXPECT_EQ(first.mac(), LeafSpine::kClientMacBase);
  EXPECT_EQ(third.mac(), LeafSpine::kClientMacBase + 2);
  EXPECT_EQ(first.switch_mac(), bed.topo.controller_mac());
  ASSERT_EQ(bed.clients.size(), 3u);
  EXPECT_EQ(bed.clients[2].get(), &third);

  // Every client sends the server a frame; leaf3 sends one out of each
  // host port (they count up from `spines`: server on 2, c on 3).
  u64 c_frames = 0;
  third.on_passive = [&c_frames](netsim::Frame&) { ++c_frames; };
  for (client::ClientNode* c : {&first, &second, &third}) {
    bed.net.schedule_on(*c, 0, [c, &bed] {
      c->network().transmit(*c, 0, bare_frame(*c, LeafSpine::kServerMac));
    });
  }
  controller::SwitchNode& leaf3 = bed.topo.leaf(3);
  bed.net.schedule_on(leaf3, 0, [&leaf3] {
    leaf3.network().transmit(leaf3, 2, bare_frame(leaf3, 0));
    leaf3.network().transmit(leaf3, 3, bare_frame(leaf3, 0));
  });
  bed.net.run_until(kMillisecond);

  // Hosts run on their leaf's shard (leaf % shards).
  EXPECT_EQ(bed.server->shard(), 1u);
  EXPECT_EQ(first.shard(), 0u);
  EXPECT_EQ(second.shard(), 1u);
  EXPECT_EQ(third.shard(), 1u);
  EXPECT_EQ(bed.server->stats().ignored, 4u);
  EXPECT_EQ(c_frames, 1u);
  // Other leaves reach the server through spine 0; spine 1 stays idle.
  const auto forwarded = [&bed](u32 spine) {
    return bed.topo.spine(spine).metrics().counter_value("switch",
                                                         "forwarded");
  };
  EXPECT_EQ(forwarded(0), 2u);
  EXPECT_EQ(forwarded(1), 0u);
}

struct TenantRun {
  u64 hits = 0;
  u64 bad_values = 0;
  u64 bad_before_overwrite = 0;
  u64 zero_value_hits = 0;  // the old rule: a hit counted bad iff value == 0
};

// One tenant on a serial star; with `overwrite`, the most popular key's
// bucket has its value word replaced by a nonzero wrong value mid-run.
TenantRun run_tenant(bool overwrite) {
  Star star(0, modeled_config());
  CacheTenant tenant(star.add_client("tenant0"), 0, Star::kServerMac,
                     workload::ZipfGenerator(512, 1.2), 1000,
                     500 * kMicrosecond);
  tenant.seed(*star.server);
  TenantRun run;
  tenant.on_result = [&run](u32, u64, u32 value, bool hit) {
    if (hit && value == 0) ++run.zero_value_hits;
  };
  tenant.join(0, kSecond);
  if (overwrite) {
    star.net.schedule_on(*star.sw, 500 * kMillisecond, [&] {
      run.bad_before_overwrite = tenant.bad_values();
      const apps::CacheService& cache = tenant.cache();
      const u32 bucket = cache.bucket_for(tenant.key_for_rank(0));
      rmt::Pipeline& pipeline = star.sw->pipeline();
      const u32 stage =
          (*cache.mutant())[2] % pipeline.config().logical_stages;
      const u32 value_word = cache.synthesized()->access_base[2] + bucket;
      const u64 before = scenario::register_digest(pipeline);
      pipeline.stage(stage).memory().write(value_word, 0xdeadbeef);
      EXPECT_NE(scenario::register_digest(pipeline), before);
    });
  }
  star.net.run_until(1'500 * kMillisecond);
  run.hits = tenant.hits();
  run.bad_values = tenant.bad_values();
  return run;
}

TEST(CacheTenantTest, BadValuesCountsHitsThatDifferFromTheSeed) {
  const TenantRun clean = run_tenant(false);
  EXPECT_GT(clean.hits, 0u);
  EXPECT_EQ(clean.bad_values, 0u);

  const TenantRun run = run_tenant(true);
  EXPECT_EQ(run.bad_before_overwrite, 0u);
  EXPECT_GT(run.bad_values, 0u);
  EXPECT_LT(run.bad_values, run.hits);  // only the overwritten bucket lies
  // A wrong but nonzero value: the old `value == 0` rule misses it.
  EXPECT_EQ(run.zero_value_hits, 0u);
}

TEST(CacheTenantTest, KeysArePrivatePerTenant) {
  Star star(0, modeled_config());
  CacheTenant a(star.add_client("a"), 0, Star::kServerMac,
                workload::ZipfGenerator(16, 1.0), 1, kMillisecond);
  CacheTenant b(star.add_client("b"), 1, Star::kServerMac,
                workload::ZipfGenerator(16, 1.0), 2, kMillisecond);
  for (u32 rank = 0; rank < 16; ++rank) {
    EXPECT_EQ(a.key_for_rank(rank) ^ b.key_for_rank(rank), 3ull << 40);
  }
  EXPECT_EQ(a.cache().name(), "cache0");
  EXPECT_EQ(b.cache().name(), "cache1");
}

}  // namespace
}  // namespace artmt
