// Tests for the multi-switch fabric and its federated control plane
// (src/fabric): scoreboard wire format, leaf-spine admission with
// client-side steering, failure-driven re-placement (leaf kill, spine
// brownout, sub-epoch flaps, simultaneous double loss), dual-homed
// client uplink failover, cross-shard determinism of the whole fabric,
// the stage-bias tie parity guarantee, and migration-pressure admission
// deferral.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/cache_service.hpp"
#include "apps/kv.hpp"
#include "apps/programs.hpp"
#include "apps/server_node.hpp"
#include "client/client_node.hpp"
#include "common/rng.hpp"
#include "controller/switch_node.hpp"
#include "fabric/global_controller.hpp"
#include "fabric/scoreboard.hpp"
#include "fabric/topology.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "netsim/network.hpp"
#include "proto/wire.hpp"
#include "telemetry/metrics.hpp"
#include "workload/zipf.hpp"

namespace artmt {
namespace {

using fabric::GlobalController;
using fabric::Scoreboard;
using fabric::Topology;
using fabric::TopologyConfig;

// --- scoreboard wire format ------------------------------------------------

TEST(ScoreboardTest, EncodeDecodeRoundTrip) {
  Scoreboard board;
  board.stages = 20;
  board.blocks_per_stage = 368;
  board.free_blocks = 7'000;
  board.fungible_blocks = 6'500;
  board.largest_free_run = 351;
  board.hotness_total = 0x1234'5678'9abc'def0ull;
  board.residents = {3, 258, 1024};

  const auto bytes = board.encode();
  const Scoreboard back = Scoreboard::decode(bytes);
  EXPECT_EQ(back, board);
  EXPECT_EQ(back.total_blocks(), 20u * 368u);
}

TEST(ScoreboardTest, DecodeTruncatedThrows) {
  Scoreboard board;
  board.residents = {1, 2, 3};
  auto bytes = board.encode();
  bytes.pop_back();  // lose half of the last resident FID
  EXPECT_THROW(Scoreboard::decode(bytes), ParseError);
  EXPECT_THROW(Scoreboard::decode(std::vector<u8>(4)), ParseError);
}

TEST(ScoreboardTest, BuildFromFreshSwitchIsAllFree) {
  controller::SwitchNode::Config cfg;
  cfg.compute_model = alloc::ComputeModel::deterministic();
  controller::SwitchNode sw("probe-me", cfg);
  const Scoreboard board = fabric::build_scoreboard(sw);
  EXPECT_EQ(board.stages, cfg.pipeline.logical_stages);
  EXPECT_EQ(board.blocks_per_stage, cfg.pipeline.blocks_per_stage());
  EXPECT_EQ(board.free_blocks, board.total_blocks());
  EXPECT_EQ(board.largest_free_run, board.blocks_per_stage);
  EXPECT_TRUE(board.residents.empty());
  EXPECT_EQ(board.hotness_total, 0u);
}

// --- topology validation ---------------------------------------------------

TEST(TopologyTest, RejectsDegenerateShapes) {
  netsim::Network net(1);
  TopologyConfig one_leaf;
  one_leaf.leaves = 1;
  EXPECT_THROW(Topology(net, one_leaf), UsageError);
  TopologyConfig no_spine;
  no_spine.spines = 0;
  EXPECT_THROW(Topology(net, no_spine), UsageError);
}

// --- client probe config ---------------------------------------------------

TEST(ClientProbeTest, ValidatesConfigAndArming) {
  client::ClientNode client("probe-client", 0x42, 0xCC00);
  client::ClientNode::UplinkProbeConfig cfg;
  cfg.primary_mac = 0;
  cfg.backup_mac = 0xAA01;
  cfg.until = kSecond;
  EXPECT_THROW(client.enable_uplink_probe(cfg), UsageError);
  cfg.primary_mac = 0xAA00;
  cfg.miss_threshold = 0;
  EXPECT_THROW(client.enable_uplink_probe(cfg), UsageError);
  EXPECT_THROW(client.probe_tick(), UsageError);  // never enabled
  EXPECT_EQ(client.active_uplink(), 0u);
  EXPECT_EQ(client.failovers(), 0u);
}

// --- fabric end-to-end harness ---------------------------------------------

constexpr packet::MacAddr kServerMac = 0x5E00;
constexpr packet::MacAddr kClientMacBase = 0xC100;
constexpr packet::MacAddr kLeafMac = Topology::kLeafMacBase;

struct Digest {
  u64 h = 1469598103934665603ull;
  void mix(u64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  }
};

u64 register_digest(rmt::Pipeline& pipeline) {
  Digest digest;
  for (u32 s = 0; s < pipeline.stage_count(); ++s) {
    rmt::RegisterArray& memory = pipeline.stage(s).memory();
    for (const Word w : memory.dump(0, memory.size())) digest.mix(w);
  }
  return digest.h;
}

struct FabricOpts {
  u32 shards = 1;
  std::vector<u32> client_leaf = {0, 1, 2, 3};  // one service per client
  u32 server_leaf = 3;
  const faults::FaultPlan* plan = nullptr;
  bool migration = false;
  SimTime wipe_leaf0_at = 0;  // brownout up-edge: zero leaf0's registers
  SimTime mark = 0;           // results after this instant count as "late"
  SimTime stop = 1'500 * kMillisecond;
};

struct FabricOut {
  fabric::FabricReport report;
  std::vector<u64> leaf_digests;
  u64 reply_digest = 0;
  std::vector<Fid> fids;
  std::vector<packet::MacAddr> owners;    // owner_of(fid), per client
  std::vector<packet::MacAddr> steering;  // steering_of(fid), per client
  std::vector<bool> operational;
  std::vector<u64> hits;
  std::vector<u64> late_hits;     // hits after opts.mark
  std::vector<u64> late_results;  // any result (hit or miss) after opts.mark
  u64 bad_values = 0;
  SimTime completed_at = 0;
};

FabricOut run_fabric(const FabricOpts& opts) {
  netsim::Network net(opts.shards);
  std::unique_ptr<faults::FaultInjector> injector;
  if (opts.plan != nullptr) {
    injector = std::make_unique<faults::FaultInjector>(*opts.plan, opts.shards);
    net.set_transmit_hook(injector.get());
  }

  TopologyConfig tcfg;
  tcfg.leaves = 4;
  tcfg.spines = 2;
  tcfg.switch_config.costs.table_entry_update = 100 * kMicrosecond;
  tcfg.switch_config.costs.snapshot_per_block = 1 * kMicrosecond;
  tcfg.switch_config.costs.clear_per_block = 1 * kMicrosecond;
  tcfg.switch_config.costs.extraction_timeout = 50 * kMillisecond;
  tcfg.switch_config.compute_model = alloc::ComputeModel::deterministic();
  if (opts.migration) {
    tcfg.switch_config.migration.enabled = true;
    tcfg.switch_config.migration.interval = 20 * kMillisecond;
  }
  tcfg.controller.epoch = 2 * kMillisecond;
  tcfg.controller.miss_threshold = 3;
  Topology topo(net, tcfg);

  auto server = std::make_shared<apps::ServerNode>("server", kServerMac);
  net.attach(server);
  topo.attach_host(*server, 0, opts.server_leaf, kServerMac);
  net.pin(*server, opts.server_leaf % opts.shards);

  const u32 n = static_cast<u32>(opts.client_leaf.size());
  struct Tenant {
    std::shared_ptr<client::ClientNode> client;
    std::shared_ptr<apps::CacheService> cache;
    workload::ZipfGenerator zipf{512, 1.2};
    Rng rng{0};
    Digest replies;
    u64 hits = 0;
    u64 late_hits = 0;
    u64 late_results = 0;
    u64 bad_values = 0;
    SimTime stop_time = 0;
    std::function<void()> drive;
  };
  std::vector<std::unique_ptr<Tenant>> tenants;
  for (u32 i = 0; i < n; ++i) {
    auto t = std::make_unique<Tenant>();
    t->rng = Rng(1000 + i);
    t->client = std::make_shared<client::ClientNode>(
        "tenant" + std::to_string(i), kClientMacBase + i,
        topo.controller_mac());
    net.attach(t->client);
    topo.attach_host(*t->client, 0, opts.client_leaf[i], kClientMacBase + i);
    net.pin(*t->client, opts.client_leaf[i] % opts.shards);
    t->cache = std::make_shared<apps::CacheService>(
        "cache" + std::to_string(i), kServerMac);
    t->client->register_service(t->cache);
    tenants.push_back(std::move(t));
  }

  const auto key_of = [](u32 tenant, u32 rank) {
    return (static_cast<u64>(tenant + 1) << 40) ^
           workload::ZipfGenerator::key_for_rank(rank);
  };
  for (u32 i = 0; i < n; ++i) {
    for (u32 rank = 0; rank < tenants[i]->zipf.universe(); ++rank) {
      server->put(key_of(i, rank), rank + 1);
    }
  }

  const SimTime drive_stop = opts.stop - 300 * kMillisecond;
  for (u32 i = 0; i < n; ++i) {
    Tenant& t = *tenants[i];
    t.client->on_passive = [&t](netsim::Frame& frame) {
      const auto msg = apps::KvMessage::parse(std::span<const u8>(frame).subspan(
          packet::EthernetHeader::kWireSize));
      if (msg) t.cache->handle_server_reply(*msg);
    };
    t.cache->on_result = [&t, &net, &opts](u32 seq, u64 key, u32 value,
                                           bool hit) {
      const SimTime now = net.simulator().now();
      if (hit) {
        ++t.hits;
        if (value == 0) ++t.bad_values;
        if (opts.mark != 0 && now >= opts.mark) ++t.late_hits;
      }
      if (opts.mark != 0 && now >= opts.mark) ++t.late_results;
      t.replies.mix(static_cast<u64>(now));
      t.replies.mix(seq);
      t.replies.mix(key);
      t.replies.mix(value);
      t.replies.mix(hit ? 1 : 0);
    };
    const auto hot_set = [&t, i, key_of] {
      const u32 k = std::min(t.cache->bucket_count(), t.zipf.universe());
      std::vector<std::pair<u64, u32>> out;
      out.reserve(k);
      for (u32 rank = k; rank-- > 0;) out.emplace_back(key_of(i, rank), rank + 1);
      return out;
    };
    t.cache->on_relocated = [&t, hot_set] { t.cache->populate(hot_set()); };
    t.drive = [&t, &net, i, key_of] {
      if (net.simulator().now() >= t.stop_time) return;
      t.cache->get(key_of(i, t.zipf.next_rank(t.rng)));
      net.simulator().schedule_after(500 * kMicrosecond, [&t] { t.drive(); });
    };
    t.cache->on_ready = [&t, hot_set, drive_stop] {
      t.cache->populate(hot_set());
      t.stop_time = drive_stop;
      t.drive();
    };
    net.schedule_on(*t.client, (i + 1) * 100 * kMillisecond,
                    [&t] { t.cache->request_allocation(); });
  }

  if (opts.wipe_leaf0_at != 0) {
    net.schedule_on(topo.leaf(0), opts.wipe_leaf0_at,
                    [&topo] { topo.leaf(0).wipe_registers(); });
  }

  topo.start(1 * kMillisecond, opts.stop);
  net.run_until(opts.stop + 500 * kMillisecond);

  FabricOut out;
  out.report = topo.controller().report();
  for (u32 i = 0; i < topo.leaves(); ++i) {
    out.leaf_digests.push_back(register_digest(topo.leaf(i).pipeline()));
  }
  Digest combined;
  for (u32 i = 0; i < n; ++i) {
    Tenant& t = *tenants[i];
    combined.mix(t.replies.h);
    const Fid fid = t.cache->fid();
    out.fids.push_back(fid);
    out.owners.push_back(topo.controller().owner_of(fid));
    out.steering.push_back(t.client->steering_of(fid));
    out.operational.push_back(t.cache->operational());
    out.hits.push_back(t.hits);
    out.late_hits.push_back(t.late_hits);
    out.late_results.push_back(t.late_results);
    out.bad_values += t.bad_values;
  }
  out.reply_digest = combined.h;
  out.completed_at = net.now();
  return out;
}

// Admission proxying: each service lands on its own leaf (scoreboard
// ranking spreads the load), the client learns data-plane steering from
// the forwarded response, and co-located queries serve cache hits.
TEST(FabricE2E, AdmissionSpreadsPlacementsAndServesHits) {
  const auto out = run_fabric({});
  ASSERT_EQ(out.fids.size(), 4u);
  EXPECT_EQ(out.report.placements, 4u);
  EXPECT_EQ(out.report.switch_deaths, 0u);
  EXPECT_EQ(out.report.evacuations, 0u);
  EXPECT_EQ(out.report.unplaced, 0u);
  EXPECT_EQ(out.bad_values, 0u);
  for (u32 i = 0; i < 4; ++i) {
    EXPECT_TRUE(out.operational[i]) << "tenant " << i;
    // Client i sits on leaf i and the round-robin ranking placed its
    // service there: FID from leaf i's range, steering learned.
    EXPECT_EQ(out.fids[i] / Topology::kFidRange, i + 1) << "tenant " << i;
    EXPECT_EQ(out.owners[i], kLeafMac + i) << "tenant " << i;
    EXPECT_EQ(out.steering[i], kLeafMac + i) << "tenant " << i;
    EXPECT_GT(out.hits[i], 0u) << "tenant " << i;
  }
}

// Tentpole failure path: killing a leaf evacuates its service onto the
// least-loaded sibling; the client re-steers, repopulates, and serves
// hits again, with the outage downtime recorded and zero state loss.
TEST(FabricE2E, LeafKillEvacuatesOntoSibling) {
  faults::FaultPlan plan;
  plan.flaps.push_back({"leaf0", "", 500 * kMillisecond, 10 * kSecond});
  FabricOpts opts;
  opts.client_leaf = {3, 3, 3};
  opts.server_leaf = 2;
  opts.plan = &plan;
  opts.mark = 700 * kMillisecond;
  const auto out = run_fabric(opts);

  EXPECT_EQ(out.report.switch_deaths, 1u);
  EXPECT_EQ(out.report.evacuations, 1u);
  EXPECT_EQ(out.report.replaced, 1u);
  EXPECT_EQ(out.report.state_loss_services, 0u);
  EXPECT_EQ(out.report.unplaced, 0u);
  ASSERT_EQ(out.report.downtimes.size(), 1u);
  // Death detection (3 missed 2-ms epochs) plus one admission round trip.
  EXPECT_LT(out.report.downtimes[0], 50 * kMillisecond);
  EXPECT_GT(out.report.downtimes[0], 0);

  // The victim (tenant 0, formerly on leaf0) moved to leaf3 -- the only
  // sibling that owned nothing -- under a fresh FID, and re-steered.
  EXPECT_TRUE(out.operational[0]);
  EXPECT_EQ(out.fids[0] / Topology::kFidRange, 4u);
  EXPECT_EQ(out.owners[0], kLeafMac + 3);
  EXPECT_EQ(out.steering[0], kLeafMac + 3);
  // Post-evacuation hits: the new placement shares the client's leaf, so
  // repopulated queries execute there again.
  EXPECT_GT(out.late_hits[0], 0u);
  EXPECT_EQ(out.bad_values, 0u);
  // Bystanders untouched.
  EXPECT_TRUE(out.operational[1]);
  EXPECT_TRUE(out.operational[2]);
  EXPECT_EQ(out.owners[1], kLeafMac + 1);
  EXPECT_EQ(out.owners[2], kLeafMac + 2);
}

// Satellite: a flap shorter than one health epoch never reaches the miss
// threshold -- no false evacuation.
TEST(FabricE2E, SubEpochFlapCausesNoFalseEvacuation) {
  faults::FaultPlan plan;
  plan.flaps.push_back({"leaf0", "", 500 * kMillisecond, 501 * kMillisecond});
  FabricOpts opts;
  opts.client_leaf = {3, 3, 3};
  opts.server_leaf = 2;
  opts.plan = &plan;
  const auto out = run_fabric(opts);

  EXPECT_EQ(out.report.switch_deaths, 0u);
  EXPECT_EQ(out.report.evacuations, 0u);
  EXPECT_EQ(out.report.placements, 3u);
  for (u32 i = 0; i < 3; ++i) {
    EXPECT_TRUE(out.operational[i]) << "tenant " << i;
    EXPECT_EQ(out.owners[i], kLeafMac + i) << "tenant " << i;
  }
}

// Satellite: a brownout shorter than the detection window, landing while
// the background migration engine is live, wipes registers but must not
// trigger evacuation -- the service keeps serving (misses refill from the
// authoritative server, values stay correct).
TEST(FabricE2E, BrownoutMidMigrationKeepsPlacement) {
  faults::FaultPlan plan;
  plan.brownouts.push_back({"leaf0", 500 * kMillisecond, 3 * kMillisecond});
  FabricOpts opts;
  opts.client_leaf = {0};
  opts.server_leaf = 1;
  opts.plan = &plan;
  opts.migration = true;
  opts.wipe_leaf0_at = 503 * kMillisecond;
  opts.mark = 600 * kMillisecond;
  const auto out = run_fabric(opts);

  EXPECT_EQ(out.report.switch_deaths, 0u);
  EXPECT_EQ(out.report.evacuations, 0u);
  EXPECT_EQ(out.report.placements, 1u);
  EXPECT_TRUE(out.operational[0]);
  EXPECT_EQ(out.owners[0], kLeafMac + 0);
  EXPECT_GT(out.late_results[0], 0u);  // still serving after the wipe
  EXPECT_EQ(out.bad_values, 0u);       // zeroed buckets miss, never lie
}

// Satellite: simultaneous loss of two leaves degrades capacity but the
// re-placement outcome is a pure function of the failure schedule --
// byte-identical across repeated runs.
TEST(FabricE2E, SimultaneousTwoLeafLossIsDeterministic) {
  faults::FaultPlan plan;
  plan.flaps.push_back({"leaf0", "", 500 * kMillisecond, 10 * kSecond});
  plan.flaps.push_back({"leaf1", "", 500 * kMillisecond, 10 * kSecond});
  FabricOpts opts;
  opts.client_leaf = {3, 3, 3, 3};
  opts.server_leaf = 2;
  opts.plan = &plan;

  const auto one = run_fabric(opts);
  EXPECT_EQ(one.report.switch_deaths, 2u);
  EXPECT_EQ(one.report.evacuations, 2u);
  EXPECT_EQ(one.report.replaced, 2u);
  EXPECT_EQ(one.report.unplaced, 0u);
  for (u32 i = 0; i < 4; ++i) {
    EXPECT_TRUE(one.operational[i]) << "tenant " << i;
    EXPECT_NE(one.owners[i], kLeafMac + 0) << "tenant " << i;
    EXPECT_NE(one.owners[i], kLeafMac + 1) << "tenant " << i;
  }

  const auto two = run_fabric(opts);
  EXPECT_EQ(two.owners, one.owners);
  EXPECT_EQ(two.fids, one.fids);
  EXPECT_EQ(two.report.downtimes, one.report.downtimes);
  EXPECT_EQ(two.reply_digest, one.reply_digest);
  EXPECT_EQ(two.leaf_digests, one.leaf_digests);
  EXPECT_EQ(two.completed_at, one.completed_at);
}

// The fabric rides the conservative sharded engine: fault-free runs are
// byte-identical at any shard count.
TEST(FabricE2E, FaultFreeDeterministicAcrossShards) {
  FabricOpts opts;
  const auto one = run_fabric(opts);
  ASSERT_EQ(one.report.placements, 4u);
  for (const u32 shards : {2u, 4u}) {
    FabricOpts sharded = opts;
    sharded.shards = shards;
    const auto result = run_fabric(sharded);
    EXPECT_EQ(result.leaf_digests, one.leaf_digests) << shards << " shards";
    EXPECT_EQ(result.reply_digest, one.reply_digest) << shards << " shards";
    EXPECT_EQ(result.owners, one.owners) << shards << " shards";
    EXPECT_EQ(result.fids, one.fids) << shards << " shards";
    EXPECT_EQ(result.completed_at, one.completed_at) << shards << " shards";
  }
}

// ... and so is the full evacuation pipeline under a leaf kill.
TEST(FabricE2E, EvacuationDeterministicAcrossShards) {
  faults::FaultPlan plan;
  plan.flaps.push_back({"leaf0", "", 500 * kMillisecond, 10 * kSecond});
  FabricOpts opts;
  opts.client_leaf = {3, 3, 3};
  opts.server_leaf = 2;
  opts.plan = &plan;

  const auto one = run_fabric(opts);
  ASSERT_EQ(one.report.replaced, 1u);
  for (const u32 shards : {2u, 4u}) {
    FabricOpts sharded = opts;
    sharded.shards = shards;
    const auto result = run_fabric(sharded);
    EXPECT_EQ(result.leaf_digests, one.leaf_digests) << shards << " shards";
    EXPECT_EQ(result.reply_digest, one.reply_digest) << shards << " shards";
    EXPECT_EQ(result.owners, one.owners) << shards << " shards";
    EXPECT_EQ(result.report.downtimes, one.report.downtimes)
        << shards << " shards";
    EXPECT_EQ(result.completed_at, one.completed_at) << shards << " shards";
  }
}

// Dual-homed client: the uplink probe train detects its leaf's death,
// swings to the backup uplink, and the first frames out re-teach the
// fabric; meanwhile the controller re-places the service that died with
// the leaf, and the client ends up fully served on the new paths.
TEST(FabricFailover, DualHomedClientSwingsToBackupUplink) {
  netsim::Network net(1);
  faults::FaultPlan plan;
  plan.flaps.push_back({"leaf0", "", 400 * kMillisecond, 10 * kSecond});
  faults::FaultInjector injector(plan, 1);
  net.set_transmit_hook(&injector);

  TopologyConfig tcfg;
  // Same control-plane cost model as the harness: grants must complete
  // inside the controller's evacuation timeout (2 epochs), or the
  // re-placement cycles past every sibling before the first one answers.
  tcfg.switch_config.costs.table_entry_update = 100 * kMicrosecond;
  tcfg.switch_config.costs.snapshot_per_block = 1 * kMicrosecond;
  tcfg.switch_config.costs.clear_per_block = 1 * kMicrosecond;
  tcfg.switch_config.costs.extraction_timeout = 50 * kMillisecond;
  tcfg.switch_config.compute_model = alloc::ComputeModel::deterministic();
  tcfg.controller.epoch = 2 * kMillisecond;
  tcfg.controller.miss_threshold = 3;
  Topology topo(net, tcfg);

  constexpr SimTime kStop = 1'200 * kMillisecond;
  auto server = std::make_shared<apps::ServerNode>("server", kServerMac);
  net.attach(server);
  topo.attach_host(*server, 0, 2, kServerMac);

  auto client = std::make_shared<client::ClientNode>(
      "dual-client", kClientMacBase, topo.controller_mac());
  net.attach(client);
  topo.attach_host(*client, 0, 0, kClientMacBase);  // primary: leaf0
  topo.attach_host(*client, 1, 1, kClientMacBase);  // backup: leaf1
  auto cache = std::make_shared<apps::CacheService>("cache", kServerMac);
  client->register_service(cache);

  workload::ZipfGenerator zipf{256, 1.2};
  Rng rng{7};
  u64 late_hits = 0;
  u64 bad_values = 0;
  SimTime stop_time = 0;
  std::function<void()> drive;
  const auto key_of = [](u32 rank) {
    return workload::ZipfGenerator::key_for_rank(rank) | (1ull << 40);
  };
  for (u32 rank = 0; rank < zipf.universe(); ++rank) {
    server->put(key_of(rank), rank + 1);
  }
  client->on_passive = [&cache](netsim::Frame& frame) {
    const auto msg = apps::KvMessage::parse(std::span<const u8>(frame).subspan(
        packet::EthernetHeader::kWireSize));
    if (msg) cache->handle_server_reply(*msg);
  };
  cache->on_result = [&](u32, u64, u32 value, bool hit) {
    if (!hit) return;
    if (value == 0) ++bad_values;
    if (net.simulator().now() >= 700 * kMillisecond) ++late_hits;
  };
  const auto hot_set = [&] {
    const u32 k = std::min(cache->bucket_count(), zipf.universe());
    std::vector<std::pair<u64, u32>> out;
    for (u32 rank = k; rank-- > 0;) out.emplace_back(key_of(rank), rank + 1);
    return out;
  };
  cache->on_relocated = [&] { cache->populate(hot_set()); };
  drive = [&] {
    if (net.simulator().now() >= stop_time) return;
    cache->get(key_of(zipf.next_rank(rng)));
    net.simulator().schedule_after(500 * kMicrosecond, [&] { drive(); });
  };
  cache->on_ready = [&] {
    cache->populate(hot_set());
    stop_time = kStop - 300 * kMillisecond;
    drive();
  };

  client::ClientNode::UplinkProbeConfig probe;
  probe.primary_mac = topo.leaf_mac(0);
  probe.backup_mac = topo.leaf_mac(1);
  probe.interval = 2 * kMillisecond;
  probe.miss_threshold = 2;
  probe.until = kStop;
  client->enable_uplink_probe(probe);
  net.schedule_on(*client, 50 * kMillisecond, [&] { client->probe_tick(); });
  net.schedule_on(*client, 100 * kMillisecond,
                  [&] { cache->request_allocation(); });
  topo.start(1 * kMillisecond, kStop);
  net.run_until(kStop + 500 * kMillisecond);

  EXPECT_EQ(client->failovers(), 1u);
  EXPECT_EQ(client->active_uplink(), 1u);
  ASSERT_TRUE(cache->operational());
  // Originally on leaf0 (the only feasible pick at admission time); the
  // death moved it to leaf1, the first surviving candidate.
  EXPECT_EQ(cache->fid() / Topology::kFidRange, 2u);
  EXPECT_EQ(topo.controller().owner_of(cache->fid()), topo.leaf_mac(1));
  EXPECT_EQ(client->steering_of(cache->fid()), topo.leaf_mac(1));
  const auto report = topo.controller().report();
  EXPECT_EQ(report.switch_deaths, 1u);
  EXPECT_EQ(report.replaced, 1u);
  EXPECT_EQ(report.state_loss_services, 0u);
  EXPECT_GT(late_hits, 0u);  // fully recovered on the backup paths
  EXPECT_EQ(bad_values, 0u);
}

// --- satellite: stage-bias tie parity --------------------------------------

// Hotness-directed placement is a tie-break only: an all-equal bias (all
// scores tie) must reproduce the unbiased placement exactly, for every
// scheme, across a mixed admission sequence.
TEST(StageBiasTest, AllEqualBiasPreservesPlacement) {
  const alloc::StageGeometry geom{20, 10};
  for (const auto scheme : {alloc::Scheme::kWorstFit, alloc::Scheme::kBestFit,
                            alloc::Scheme::kFirstFit}) {
    alloc::Allocator plain(geom, 368, scheme);
    alloc::Allocator biased(geom, 368, scheme);
    biased.set_stage_bias(std::vector<u64>(20, 7));
    for (int round = 0; round < 3; ++round) {
      for (const auto& request :
           {apps::cache_request(), apps::hh_request(), apps::lb_request()}) {
        const auto a = plain.allocate(request);
        const auto b = biased.allocate(request);
        ASSERT_EQ(a.success, b.success) << scheme_name(scheme);
        if (!a.success) continue;
        EXPECT_EQ(plain.regions_of(a.app), biased.regions_of(b.app))
            << scheme_name(scheme) << " round " << round;
      }
    }
  }
}

// --- satellite: migration-pressure admission deferral ----------------------

// A bare wire client: sends hand-built control capsules, records every
// response, never answers reallocation notices (extraction completes via
// the switch-side timeout).
class RawClient : public netsim::Node {
 public:
  RawClient(std::string name, packet::MacAddr mac)
      : netsim::Node(std::move(name)), mac_(mac) {}

  void send(packet::ActivePacket pkt) {
    pkt.ethernet.src = mac_;
    pkt.ethernet.dst = 0;
    network().transmit(*this, 0, network().pool().copy(pkt.serialize()));
  }

  void on_frame(netsim::Frame frame, u32 port) override {
    (void)port;
    responses.push_back(packet::ActivePacket::parse(frame));
  }

  [[nodiscard]] const packet::ActivePacket* response_for(u32 seq) const {
    for (const auto& pkt : responses) {
      if (pkt.initial.type == packet::ActiveType::kAllocResponse &&
          pkt.initial.seq == seq) {
        return &pkt;
      }
    }
    return nullptr;
  }

  std::vector<packet::ActivePacket> responses;

 private:
  packet::MacAddr mac_;
};

alloc::AllocationRequest tiny_request(u32 position, u32 blocks) {
  alloc::AllocationRequest request;
  request.accesses = {alloc::AccessDemand{position, blocks, -1}};
  request.program_length = 2;
  return request;
}

// An inelastic admission that fails only on contiguity, while the planner
// holds a queued re-slide that would merge exactly the free runs it
// needs, is deferred one migration interval instead of denied -- and the
// retry, running after the compaction, is granted.
TEST(AdmissionDeferralTest, QueuedReslideDefersThenAdmits) {
  netsim::Network net(1);

  controller::SwitchNode::Config cfg;
  cfg.pipeline.logical_stages = 2;
  cfg.pipeline.ingress_stages = 1;
  cfg.pipeline.words_per_stage = 10 * 256;  // 10 blocks per stage
  cfg.scheme = alloc::Scheme::kFirstFit;
  cfg.compute_model = alloc::ComputeModel::deterministic();
  cfg.costs.table_entry_update = 100 * kMicrosecond;
  cfg.costs.snapshot_per_block = 1 * kMicrosecond;
  cfg.costs.clear_per_block = 1 * kMicrosecond;
  cfg.costs.extraction_timeout = 5 * kMillisecond;
  cfg.migration.enabled = true;
  cfg.migration.interval = 50 * kMillisecond;
  cfg.migration.policy.frag_threshold = 0.75;
  cfg.migration.policy.min_frag_blocks = 4;
  cfg.migration.policy.max_plans_per_cycle = 4;
  auto sw = std::make_shared<controller::SwitchNode>("switch", cfg);
  net.attach(sw);
  auto raw = std::make_shared<RawClient>("raw", 0x77);
  net.attach(raw);
  net.connect(*sw, 0, *raw, 0);
  sw->bind(0x77, 0);

  // Fill both stages with inelastic residents: 3+2+3+2 blocks each.
  u32 seq = 0;
  const auto admit_at = [&](SimTime at, u32 position, u32 blocks) {
    const u32 s = ++seq;
    net.schedule_on(*raw, at, [&, s, position, blocks] {
      raw->send(proto::encode_request(tiny_request(position, blocks), s));
    });
    return s;
  };
  const auto release_at = [&](SimTime at, u32 grant_seq) {
    net.schedule_on(*raw, at, [&, grant_seq] {
      const auto* grant = raw->response_for(grant_seq);
      ASSERT_NE(grant, nullptr);
      raw->send(packet::ActivePacket::make_control(
          grant->initial.fid, packet::ActiveType::kDealloc));
    });
  };
  admit_at(10 * kMillisecond, 0, 3);
  const u32 b = admit_at(20 * kMillisecond, 0, 2);
  admit_at(30 * kMillisecond, 0, 3);
  const u32 d = admit_at(40 * kMillisecond, 0, 2);
  admit_at(50 * kMillisecond, 1, 3);
  const u32 q = admit_at(60 * kMillisecond, 1, 2);
  admit_at(70 * kMillisecond, 1, 3);
  const u32 s2 = admit_at(80 * kMillisecond, 1, 2);

  // Punch two holes per stage: free 4 blocks, largest run 2 -- both
  // stages fragmented for the planner (2 < 0.75 * 4).
  release_at(190 * kMillisecond, b);
  release_at(192 * kMillisecond, d);
  release_at(194 * kMillisecond, q);
  release_at(196 * kMillisecond, s2);

  // The 210 ms migration tick queues one re-slide per stage and starts
  // the first; G (3 contiguous blocks in BOTH stages) arrives while the
  // other is still queued -> deferral, then a granted retry.
  u32 g = 0;
  net.schedule_on(*raw, 220 * kMillisecond, [&] {
    alloc::AllocationRequest request;
    request.accesses = {alloc::AccessDemand{0, 3, -1},
                        alloc::AccessDemand{1, 3, -1}};
    request.program_length = 2;
    g = ++seq;
    raw->send(proto::encode_request(request, g));
  });

  net.run_until(400 * kMillisecond);

  EXPECT_EQ(sw->metrics().counter_value("alloc", "admission_deferred"), 1u);
  const auto stats = sw->migration_stats();
  EXPECT_GE(stats.planner.reslides_planned, 2u);
  EXPECT_GE(stats.executed, 2u);
  const auto* grant = raw->response_for(g);
  ASSERT_NE(grant, nullptr);
  EXPECT_EQ(grant->initial.flags & packet::kFlagAllocFailed, 0u)
      << "deferred admission should be granted after the compaction";
  // Exactly one response for G: the deferral itself is silent.
  u32 g_responses = 0;
  for (const auto& pkt : raw->responses) {
    if (pkt.initial.type == packet::ActiveType::kAllocResponse &&
        pkt.initial.seq == g) {
      ++g_responses;
    }
  }
  EXPECT_EQ(g_responses, 1u);
}

}  // namespace
}  // namespace artmt
