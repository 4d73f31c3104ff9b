// Scenario building blocks (src/scenario): the single-switch star's
// addressing and attach-order conventions, and the cache tenant's
// bookkeeping -- in particular that bad_values flags a hit whose value
// differs from the seeded one, not only a zeroed word.
#include <gtest/gtest.h>

#include <memory>

#include "scenario/scenario.hpp"

namespace artmt {
namespace {

using scenario::CacheTenant;
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
  tenant.cache().on_ready = [&tenant] {
    tenant.cache().populate(tenant.hot_set_for_allocation());
    tenant.start_traffic(kSecond);
  };
  tenant.cache().request_allocation();
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
